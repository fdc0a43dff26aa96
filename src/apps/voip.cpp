#include "apps/voip.hpp"

#include <algorithm>
#include <cmath>

namespace cb::apps {

namespace {

constexpr Duration kFrameInterval = Duration::ms(20);
constexpr std::size_t kFrameBytes = 80;  // ~32 kb/s with headers (paper: ~30 kb/s)
/// Fixed playout (jitter) buffer added to one-way delay for MOS.
constexpr double kPlayoutBufferMs = 40.0;

}  // namespace

double VoipStats::mos() const {
  const double e = loss_rate();
  const double d = avg_delay_ms;  // one-way incl. playout buffer
  double id = 0.024 * d;
  if (d > 177.3) id += 0.11 * (d - 177.3);
  const double ie = 30.0 * std::log(1.0 + 15.0 * e);
  const double r = std::clamp(93.2 - id - ie, 0.0, 100.0);
  const double mos = 1.0 + 0.035 * r + 7e-6 * r * (r - 60.0) * (100.0 - r);
  return std::clamp(mos, 1.0, 5.0);
}

VoipEndpoint::VoipEndpoint(net::Node& node, std::uint16_t local_port)
    : node_(node), port_(local_port) {
  node_.bind_udp(port_, [this](const net::Packet& p) { on_packet(p); });
}

VoipEndpoint::~VoipEndpoint() {
  timer_.cancel();
  node_.unbind_udp(port_);
}

void VoipEndpoint::call(net::EndPoint remote) {
  remote_ = remote;
  if (!streaming_) {
    streaming_ = true;
    send_frame();
  }
}

void VoipEndpoint::hang_up() {
  streaming_ = false;
  timer_.cancel();
}

void VoipEndpoint::send_frame() {
  if (!streaming_) return;
  const net::Ipv4Addr src = node_.primary_address();
  const std::uint32_t seq = tx_seq_++;  // frames missed while detached count as lost
  if (src.valid() && remote_.addr.valid()) {
    ByteWriter w;
    w.u32(seq);
    w.u64(static_cast<std::uint64_t>(node_.simulator().now().nanos()));
    w.raw(Bytes(kFrameBytes, 0));
    net::Packet p;
    p.src = net::EndPoint{src, port_};
    p.dst = remote_;
    p.proto = net::Proto::Udp;
    p.payload = w.take();
    node_.send(std::move(p));
  }
  timer_ = node_.simulator().schedule(kFrameInterval, [this] { send_frame(); });
}

void VoipEndpoint::on_packet(const net::Packet& p) {
  try {
    ByteReader r(p.payload);
    const std::uint32_t seq = r.u32();
    const auto sent_at = TimePoint::from_nanos(static_cast<std::int64_t>(r.u64()));

    // SIP re-INVITE effect: adopt the peer's newest source address.
    if (p.src != remote_) {
      remote_ = p.src;
      if (!streaming_) {
        streaming_ = true;  // callee starts its return stream on first frame
        send_frame();
      }
    }

    const double transit_ms = (node_.simulator().now() - sent_at).to_millis();
    stats_.received += 1;
    if (!saw_any_ || seq > highest_rx_seq_) highest_rx_seq_ = seq;
    saw_any_ = true;
    stats_.expected = static_cast<std::uint64_t>(highest_rx_seq_) + 1;
    delay_accum_ms_ += transit_ms;
    stats_.avg_delay_ms =
        delay_accum_ms_ / static_cast<double>(stats_.received) + kPlayoutBufferMs;

    // RFC 3550 interarrival jitter estimator.
    if (stats_.received > 1) {
      const double d = std::abs(transit_ms - last_transit_ms_);
      jitter_ms_ += (d - jitter_ms_) / 16.0;
      stats_.jitter_ms = jitter_ms_;
    }
    last_transit_ms_ = transit_ms;
  } catch (const std::out_of_range&) {
  }
}

}  // namespace cb::apps
