#include "cellbricks/broker_channel.hpp"

#include <algorithm>
#include <vector>

#include "common/log.hpp"

namespace cb::cellbricks {

Duration decorrelated_backoff(Rng& rng, Duration base, Duration prev, Duration cap) {
  if (cap <= base) return cap;
  const double base_s = base.to_seconds();
  const double hi_s = std::max(base_s, prev.to_seconds() * 3.0);
  return std::min(Duration::seconds(rng.uniform(base_s, hi_s)), cap);
}

BrokerChannel::BrokerChannel(net::Node& node, BrokerMsg request, net::EndPoint source,
                             net::EndPoint broker, Rng& jitter, RetrySchedule schedule)
    : node_(node),
      request_(request),
      source_(source),
      broker_(broker),
      jitter_(jitter),
      schedule_(schedule) {}

// The timers capture `this`: none may outlive the channel.
BrokerChannel::~BrokerChannel() { clear(); }

void BrokerChannel::send(std::uint64_t key, BytesView body, std::uint64_t session_id) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(request_));
  w.u64(key);
  w.bytes(body);
  Outstanding& out = outstanding_[key];
  out.wire = w.take();
  out.session_id = session_id;
  out.attempts_left = schedule_.attempts;
  out.next_delay = schedule_.first;
  out.queued_at = node_.simulator().now();
  transmit(key);
}

bool BrokerChannel::answers(BrokerMsg reply) const {
  switch (request_) {
    case BrokerMsg::AuthReq:
      return reply == BrokerMsg::AuthOk || reply == BrokerMsg::AuthErr;
    case BrokerMsg::Report:
      return reply == BrokerMsg::ReportAck || reply == BrokerMsg::Redirect;
    case BrokerMsg::ResumeNotify:
      return reply == BrokerMsg::ResumeNotifyAck;
    default:
      return false;
  }
}

bool BrokerChannel::receive(const net::Packet& packet) {
  ByteReader r(packet.payload.view());
  if (r.remaining() == 0) return false;
  const auto reply = static_cast<BrokerMsg>(r.u8());
  if (!answers(reply)) return false;
  try {
    const std::uint64_t key = r.u64();
    if (reply == BrokerMsg::Redirect) {
      const std::uint16_t bucket = r.u16();
      const std::uint16_t owner = r.u16();
      if (redirect(key, bucket, owner) && on_redirect) on_redirect(key);
    } else if (auto acked = ack(key)) {
      acked->reply = reply;
      if (on_ack) on_ack(key, *acked, r);
    }
  } catch (const std::out_of_range&) {
    CB_LOG(Warn, "broker-channel") << "malformed broker reply dropped";
  }
  return true;
}

void BrokerChannel::transmit(std::uint64_t key) {
  auto it = outstanding_.find(key);
  if (it == outstanding_.end() || paused_) return;
  Outstanding& out = it->second;
  if (out.attempts_left <= 0) {
    outstanding_.erase(it);
    if (on_abandon) on_abandon(key);
    return;
  }
  --out.attempts_left;
  if (on_transmit) on_transmit(key);
  net::EndPoint dst = broker_;
  if (router_ != nullptr) {
    const TimePoint now = node_.simulator().now();
    // A timer-driven resend means the previous target never answered:
    // strike it so the router eventually fails the message over.
    if (out.sent_once) router_->note_timeout(out.last_shard, now);
    out.last_shard = request_ == BrokerMsg::AuthReq
                         ? router_->pick_for_auth(now)
                         : router_->pick_for_session(out.session_id, now);
    dst = router_->endpoint(out.last_shard);
  }
  out.sent_once = true;
  net::Packet p;
  p.src = source_;
  p.dst = dst;
  p.proto = net::Proto::Udp;
  p.payload = out.wire;
  node_.send(std::move(p));
  out.timer = node_.simulator().schedule(out.next_delay, [this, key] { transmit(key); });
  out.next_delay = decorrelated_backoff(jitter_, schedule_.first, out.next_delay, schedule_.cap);
}

std::optional<BrokerChannel::Acked> BrokerChannel::ack(std::uint64_t key) {
  auto it = outstanding_.find(key);
  if (it == outstanding_.end()) return std::nullopt;
  Outstanding& out = it->second;
  if (router_ != nullptr && out.sent_once) router_->note_ok(out.last_shard);
  out.timer.cancel();
  const Acked acked{out.session_id, out.queued_at};
  outstanding_.erase(it);
  return acked;
}

bool BrokerChannel::redirect(std::uint64_t key, std::uint16_t bucket, std::uint16_t owner) {
  if (router_ == nullptr) return false;
  router_->learn_redirect(bucket, owner);
  auto it = outstanding_.find(key);
  if (it == outstanding_.end()) return false;
  Outstanding& out = it->second;
  // The shard answered (healthy, just not the owner): clear its strikes and
  // resend to the owner now with a fresh budget.
  router_->note_ok(out.last_shard);
  out.timer.cancel();
  out.attempts_left = schedule_.attempts;
  out.next_delay = schedule_.first;
  out.sent_once = false;
  transmit(key);
  return true;
}

void BrokerChannel::pause() {
  paused_ = true;
  for (auto& [key, out] : outstanding_) out.timer.cancel();
}

void BrokerChannel::resume() {
  paused_ = false;
  std::vector<std::uint64_t> stranded;
  stranded.reserve(outstanding_.size());
  for (const auto& [key, out] : outstanding_) {
    if (!out.timer.pending()) stranded.push_back(key);
  }
  for (std::uint64_t key : stranded) {
    auto it = outstanding_.find(key);
    if (it == outstanding_.end()) continue;
    it->second.next_delay = schedule_.first;
    it->second.sent_once = false;
    transmit(key);
  }
}

void BrokerChannel::clear() {
  for (auto& [key, out] : outstanding_) out.timer.cancel();
  outstanding_.clear();
}

}  // namespace cb::cellbricks
