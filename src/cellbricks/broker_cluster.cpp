#include "cellbricks/broker_cluster.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace cb::cellbricks {
namespace {

/// The qosInfo every subscriber's sessions get: unconstrained rates, the
/// best-effort bearer.
constexpr QosInfo kDefaultQos{};

std::uint64_t endpoint_key(const net::EndPoint& ep) {
  return static_cast<std::uint64_t>(ep.addr.value()) << 16 | ep.port;
}

}  // namespace

// --- ShardRouter ------------------------------------------------------------

ShardRouter::ShardRouter(std::vector<net::EndPoint> shards)
    : shards_(std::move(shards)), health_(shards_.size()) {}

std::vector<std::size_t> ShardRouter::healthy(TimePoint now) const {
  std::vector<std::size_t> out;
  out.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (!suspect(i, now)) out.push_back(i);
  }
  return out;
}

bool ShardRouter::suspect(std::size_t shard, TimePoint now) const {
  return health_.at(shard).suspect_until > now;
}

std::size_t ShardRouter::pick_for_session(std::uint64_t session_id, TimePoint now) {
  const std::uint16_t bucket = session_bucket(session_id);
  if (auto it = overrides_.find(bucket); it != overrides_.end()) {
    if (it->second < shards_.size() && !suspect(it->second, now)) return it->second;
  }
  const auto live = healthy(now);
  if (live.empty()) {
    // Everything suspect: fall back to the static map so retries still probe.
    std::vector<std::size_t> all(shards_.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    return hrw_owner(bucket, all);
  }
  return hrw_owner(bucket, live);
}

std::size_t ShardRouter::pick_for_auth(TimePoint now) {
  // Sticky: keep using the same shard while it behaves (keeps the broker's
  // per-requester idempotency caches hot); rotate away from suspects.
  for (std::size_t probe = 0; probe < shards_.size(); ++probe) {
    const std::size_t i = (auth_sticky_ + probe) % shards_.size();
    if (!suspect(i, now)) {
      auth_sticky_ = i;
      return i;
    }
  }
  return auth_sticky_;  // all suspect — probe the sticky one anyway
}

void ShardRouter::learn_redirect(std::uint16_t bucket, std::uint16_t owner) {
  if (owner >= shards_.size()) return;
  overrides_[bucket] = owner;
  ++redirects_learned_;
}

void ShardRouter::note_timeout(std::size_t shard, TimePoint now) {
  if (shard >= health_.size()) return;
  Health& h = health_[shard];
  if (++h.strikes >= kSuspectAfter) {
    h.suspect_until = now + kSuspectHold;
    h.strikes = 0;
  }
}

void ShardRouter::note_ok(std::size_t shard) {
  if (shard >= health_.size()) return;
  health_[shard] = Health{};
}

// --- BrokerShard ------------------------------------------------------------

BrokerShard::BrokerShard(BrokerCluster& cluster, std::size_t index, net::Node& node,
                         SapBroker sap, Config config)
    : cluster_(cluster),
      index_(index),
      node_(node),
      sap_(std::move(sap)),
      config_(config),
      queue_(node.simulator()),
      rng_(node.simulator().rng().fork(0xB20CE2 + 0x51AD * (index + 1))),
      state_(config.broker.test_skip_report_dedup),
      cur_stream_(index) {
  node_.bind_udp(kBrokerPort, [this](const net::Packet& p) { handle_client(p); });
  node_.bind_udp(kBrokerClusterPort, [this](const net::Packet& p) { handle_cluster(p); });
}

void BrokerShard::add_subscriber(const std::string& id_u, crypto::RsaPublicKey key) {
  sap_.add_subscriber(id_u, std::move(key));
}

void BrokerShard::add_telco(const std::string& id_t, crypto::RsaPublicKey key) {
  telco_keys_[id_t] = std::move(key);
}

std::vector<std::size_t> BrokerShard::live_view(bool ready_only) const {
  std::vector<std::size_t> out;
  const TimePoint now = node_.simulator().now();
  const Duration dead_after = kHeartbeatInterval * kMissThreshold;
  for (std::size_t j = 0; j < peers_.size(); ++j) {
    if (j == index_) {
      if (!crashed_ && (!ready_only || !recovering_)) out.push_back(j);
      continue;
    }
    if (now - peers_[j].last_hb >= dead_after) continue;
    if (ready_only && !peers_[j].ready) continue;
    out.push_back(j);
  }
  return out;
}

bool BrokerShard::owns_bucket(std::uint16_t bucket) const {
  const auto owners = live_view(/*ready_only=*/true);
  if (owners.empty()) return false;
  return hrw_owner(bucket, owners) == index_;
}

// --- client path ---

void BrokerShard::handle_client(const net::Packet& packet) {
  // A recovering shard's process is up but not serving: dropping (instead of
  // erroring) lets client retry/suspect logic route around it.
  if (crashed_ || recovering_) return;
  CowBytes payload = packet.payload;
  const net::EndPoint from = packet.src;
  try {
    ByteReader peek(payload);
    const auto type = static_cast<BrokerMsg>(peek.u8());
    if (type != BrokerMsg::AuthReq && type != BrokerMsg::Report &&
        type != BrokerMsg::ResumeNotify) {
      return;
    }
    // A resent report whose earlier copy still waits in the queue is dropped
    // here: the sender needs one answer per seq, and the queued copy gives
    // it. Keyed like the ack cache.
    ReplyKey report_key{};
    if (type == BrokerMsg::Report) {
      report_key = {endpoint_key(from), peek.u64()};
      if (!queued_reports_.insert(report_key).second) {
        ++reports_coalesced_;
        obs::inc(obs::counter("broker.reports.coalesced"));
        return;
      }
    }
    const Duration service =
        type == BrokerMsg::AuthReq ? BrokerConfig::sap_service_time : kReportServiceTime;
    if (type == BrokerMsg::AuthReq) {
      sap_busy_ += service;
      obs::inc(obs::counter("broker.sap.requests"));
    }
    // SAP latency = queueing behind earlier requests + service time, measured
    // on the broker's own clock from packet arrival to reply readiness.
    const TimePoint arrived = node_.simulator().now();
    queue_.submit(service, [this, payload = std::move(payload), from, arrived, type,
                            report_key] {
      if (type == BrokerMsg::Report) queued_reports_.erase(report_key);
      try {
        ByteReader r(payload);
        r.u8();  // type, already peeked
        if (type == BrokerMsg::AuthReq) {
          handle_auth(from, r);
          obs::observe(obs::histogram("broker.sap_latency_ms"),
                       (node_.simulator().now() - arrived).to_millis());
        } else if (type == BrokerMsg::Report) {
          handle_report(from, r);
        } else {
          handle_resume_notify(from, r);
        }
      } catch (const std::out_of_range&) {
        CB_LOG(Warn, "broker-shard") << "malformed message dropped";
      }
    });
  } catch (const std::out_of_range&) {
  }
}

void BrokerShard::handle_auth(const net::EndPoint& from, ByteReader& r) {
  const std::uint64_t txn = r.u64();
  const Bytes auth_req_t = r.bytes();
  const TimePoint now = node_.simulator().now();

  const auto cache_key = std::make_pair(endpoint_key(from), txn);
  if (auto cached = auth_reply_cache_.find(cache_key); cached != auth_reply_cache_.end()) {
    // Empty payload marks a reply still gated on settlement-log commit: stay
    // silent so the requester's retry schedule, not a premature answer,
    // drives the wait.
    if (cached->second.payload.empty()) return;
    obs::inc(obs::counter("broker.sap.cache_hits"));
    reply(from, cached->second.payload);
    return;
  }

  auto decision = sap_.process_auth_req(
      auth_req_t, now, rng_, kDefaultQos,
      [this](const std::string& id_u, const std::string& id_t) {
        return state_.reputation().authorize(id_u, id_t);
      },
      // Route key: embed the subscriber's bucket in the session id so every
      // subsequent report carries its own shard-routing information.
      [](std::uint64_t raw, const std::string& id_u) {
        return bucketed_session_id(raw, bucket_of_subscriber(id_u));
      });

  if (!decision) {
    obs::inc(obs::counter("broker.sap.denied"));
    obs::trace(now, obs::TraceType::SapAuthDenied, txn);
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(BrokerMsg::AuthErr));
    w.u64(txn);
    w.str(decision.error());
    Bytes payload = w.take();
    auth_reply_cache_[cache_key] = CachedReply{payload, now};
    reply(from, std::move(payload));
    return;
  }

  const BrokerDecision& d = decision.value();
  telco_keys_[d.id_t] = d.telco_key;
  ++sessions_issued_;
  obs::inc(obs::counter("broker.sap.ok"));
  obs::trace(now, obs::TraceType::SapAuthOk, d.session_id);

  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(BrokerMsg::AuthOk));
  w.u64(txn);
  w.bytes(d.auth_resp_t);
  w.bytes(d.auth_resp_u);
  Bytes payload = w.take();

  SettlementEntry e;
  e.kind = SettlementEntry::Kind::SessionIssued;
  e.session_id = d.session_id;
  e.id_u = d.id_u;
  e.id_t = d.id_t;
  e.time_ns = now.nanos();

  // The AuthOk is withheld until the session is replicated: a shard that
  // answers and then dies must not leave the client with a session no
  // surviving shard has heard of.
  auth_reply_cache_[cache_key] = CachedReply{{}, now};
  author(std::move(e), [this, cache_key, from, payload = std::move(payload)]() mutable {
    auth_reply_cache_[cache_key] = CachedReply{payload, node_.simulator().now()};
    reply(from, std::move(payload));
  });
}

void BrokerShard::handle_report(const net::EndPoint& from, ByteReader& r) {
  ++reports_received_;
  obs::inc(obs::counter("broker.reports.received"));
  const std::uint64_t seq = r.u64();
  const Bytes sealed = r.bytes();
  const TimePoint now = node_.simulator().now();

  // Answered before the (expensive) unseal. Keyed per requester, so a UE's
  // seq space and a bTelco's cannot collide (both start at 1).
  const auto cache_key = std::make_pair(endpoint_key(from), seq);
  if (auto cached = report_ack_cache_.find(cache_key); cached != report_ack_cache_.end()) {
    ++report_ack_cache_hits_;
    obs::inc(obs::counter("broker.reports.ack_cache_hits"));
    reply(from, cached->second.payload);
    return;
  }

  // No ACK for a box that does not open or a frame that does not decode: an
  // in-flight corruption may have mangled it, in which case the sender's
  // retransmission of the clean copy will succeed.
  auto opened = sap_.open_box(sealed);
  auto frame =
      opened ? ReportFrame::decode(opened.value()) : Result<ReportFrame>::err(opened.error());
  if (!frame) {
    ++reports_rejected_;
    obs::inc(obs::counter("broker.reports.rejected"));
    return;
  }
  const auto& [reporter_id, type, report_bytes, sig] = frame.value();

  const crypto::RsaPublicKey* key = nullptr;
  if (type == Reporter::Ue) {
    key = sap_.subscriber_key(reporter_id);
  } else if (auto it = telco_keys_.find(reporter_id); it != telco_keys_.end()) {
    key = &it->second;
  }
  if (key == nullptr || !key->verify(report_bytes, sig)) {
    ++reports_rejected_;
    obs::inc(obs::counter("broker.reports.rejected"));
    return;
  }
  auto parsed = TrafficReport::deserialize(report_bytes);
  if (!parsed) {
    ++reports_rejected_;
    obs::inc(obs::counter("broker.reports.rejected"));
    return;
  }
  const TrafficReport& report = parsed.value();
  const std::uint16_t bucket = session_bucket(report.session_id);

  if (!owns_bucket(bucket)) {
    // Stale route: point the client at the current owner. The redirect is
    // cheap and idempotent, so it is not commit-gated or cached.
    const auto owners = live_view(/*ready_only=*/true);
    const std::size_t owner = owners.empty() ? index_ : hrw_owner(bucket, owners);
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(BrokerMsg::Redirect));
    w.u64(seq);
    w.u16(bucket);
    w.u16(static_cast<std::uint16_t>(owner));
    ++redirects_sent_;
    obs::inc(obs::counter("broker.reports.redirected"));
    reply(from, w.take());
    return;
  }

  auto sit = state_.sessions().find(report.session_id);
  if (sit == state_.sessions().end()) {
    // Unknown here (replication lag for a session issued elsewhere, or
    // junk). No ACK: the client's retransmission gives the log time to
    // catch up.
    ++reports_rejected_;
    obs::inc(obs::counter("broker.reports.rejected"));
    return;
  }
  // The reporter must be a party of the session. Every bTelco that ever
  // served it stays one, so a pre-resume bTelco's late report still pairs.
  const SettlementState::SessionInfo& session = sit->second;
  if (type == Reporter::Ue ? reporter_id != session.id_u : !session.has_telco(reporter_id)) {
    ++reports_rejected_;
    obs::inc(obs::counter("broker.reports.rejected"));
    return;
  }

  ByteWriter ack;
  ack.u8(static_cast<std::uint8_t>(BrokerMsg::ReportAck));
  ack.u64(seq);
  Bytes ack_payload = ack.take();

  // Dedup BEFORE authoring: a retransmitted report (lost ACK, eager retry
  // timer, a UE that re-attached under a new address) must not inflate
  // the billed usage.
  const auto dedup_key =
      std::make_tuple(report.session_id, report.period, static_cast<int>(type));
  if (!config_.broker.test_skip_report_dedup &&
      (state_.report_seen(report.session_id, report.period, type) ||
       state_.pair_decided(report.session_id, report.period))) {
    if (uncommitted_reports_.contains(dedup_key)) return;  // first copy not committed yet
    ++reports_deduped_;
    obs::inc(obs::counter("broker.reports.deduped"));
    report_ack_cache_[cache_key] = CachedReply{ack_payload, now};
    reply(from, std::move(ack_payload));
    return;
  }

  SettlementEntry e;
  e.kind = SettlementEntry::Kind::ReportIngested;
  e.session_id = report.session_id;
  e.period = report.period;
  e.reporter = type;
  e.id_u = session.id_u;
  e.id_t = type == Reporter::Telco ? reporter_id : session.id_t();
  e.time_ns = now.nanos();
  e.report = report;

  ++reports_ingested_;
  obs::inc(obs::counter("broker.reports.ingested"));
  obs::trace(now, obs::TraceType::ReportIngest, report.session_id, report.period);
  uncommitted_reports_.insert(dedup_key);
  author(std::move(e),
         [this, cache_key, from, ack_payload = std::move(ack_payload), dedup_key]() mutable {
           uncommitted_reports_.erase(dedup_key);
           report_ack_cache_[cache_key] =
               CachedReply{ack_payload, node_.simulator().now()};
           if (!state_.pair_decided(std::get<0>(dedup_key), std::get<1>(dedup_key))) {
             report_ack_keys_[dedup_key] = cache_key;
           }
           reply(from, std::move(ack_payload));
         });
}

void BrokerShard::handle_resume_notify(const net::EndPoint& from, ByteReader& r) {
  const std::uint64_t txn = r.u64();
  // A resent notify is answered from the cache, or not at all while its
  // entry awaits commit, so one resume is logged once.
  const auto cache_key = std::make_pair(endpoint_key(from), txn);
  if (auto cached = resume_reply_cache_.find(cache_key); cached != resume_reply_cache_.end()) {
    if (!cached->second.payload.empty()) reply(from, cached->second.payload);
    return;
  }
  const Bytes sealed = r.bytes();
  auto opened = sap_.open_box(sealed);
  if (!opened) return;  // no ack: a clean retransmission may still succeed
  ByteReader inner(opened.value());
  const Bytes body = inner.bytes();
  auto cert = crypto::Certificate::deserialize(inner.bytes());
  const Bytes sig = inner.bytes();
  if (!cert) return;
  const crypto::Certificate& cert_t = cert.value();

  ByteReader br(body);
  const std::string id_t = br.str();
  const std::uint64_t session_id = br.u64();
  const Bytes ticket_id = br.bytes();

  // The notifying bTelco may have NEVER authed a session through this
  // broker (that is the point of resumption), so it authenticates with its
  // CA certificate, exactly like an authReqT.
  const TimePoint now = node_.simulator().now();
  if (cert_t.subject() != id_t) return;
  if (!crypto::CertificateAuthority::verify_signature(cert_t, sap_.ca_key())) return;
  if (now < cert_t.not_before() || now > cert_t.not_after()) return;
  if (!cert_t.key().verify(body, sig)) return;
  telco_keys_[id_t] = cert_t.key();

  SettlementEntry e;
  e.kind = SettlementEntry::Kind::ResumeNotified;
  e.session_id = session_id;
  e.id_t = id_t;
  e.time_ns = now.nanos();
  auto sit = state_.sessions().find(session_id);
  if (sit == state_.sessions().end()) {
    // A ticket for a session this broker never issued: order teardown.
    e.revoke = true;
  } else {
    // Re-check the subscriber against the suspect list: reputation may have
    // turned since the ticket was minted (revocation-on-suspect).
    e.id_u = sit->second.id_u;
    e.revoke = state_.reputation().is_suspect(e.id_u);
  }
  const bool revoke = e.revoke;
  if (revoke) {
    obs::inc(obs::counter("broker.resume.revocations"));
    CB_LOG(Info, "broker-shard") << "resume of session " << session_id << " at " << id_t
                                 << " revoked (ticket " << to_hex(ticket_id) << ")";
  }
  obs::inc(obs::counter("broker.resume.notified"));
  obs::trace(now, obs::TraceType::SapAuthOk, session_id);

  ByteWriter ack;
  ack.u8(static_cast<std::uint8_t>(BrokerMsg::ResumeNotifyAck));
  ack.u64(txn);
  ack.u8(revoke ? 1 : 0);
  resume_reply_cache_[cache_key] = CachedReply{{}, now};
  author(std::move(e), [this, cache_key, from, ack_payload = ack.take()]() mutable {
    resume_reply_cache_[cache_key] = CachedReply{ack_payload, node_.simulator().now()};
    reply(from, std::move(ack_payload));
  });
}

void BrokerShard::reply(const net::EndPoint& to, Bytes payload, std::uint16_t src_port) {
  net::Packet p;
  p.src = net::EndPoint{node_.primary_address(), src_port};
  p.dst = to;
  p.proto = net::Proto::Udp;
  p.payload = std::move(payload);
  node_.send(std::move(p));
}

// --- replication path ---

void BrokerShard::handle_cluster(const net::Packet& packet) {
  if (crashed_) return;
  try {
    ByteReader r(packet.payload);
    switch (static_cast<ClusterMsg>(r.u8())) {
      case ClusterMsg::Append: on_append(r); break;
      case ClusterMsg::AppendAck: on_append_ack(r); break;
      case ClusterMsg::Heartbeat: on_heartbeat(packet, r); break;
      case ClusterMsg::Fetch: on_fetch(packet.src, r); break;
      case ClusterMsg::Chunk: on_chunk(r); break;
      default: break;
    }
  } catch (const std::out_of_range&) {
    CB_LOG(Warn, "broker-shard") << "malformed cluster message dropped";
  }
}

void BrokerShard::author(SettlementEntry entry, std::function<void()> on_commit) {
  const Bytes wire = entry.serialize();
  const std::size_t stream = cur_stream_;
  const std::uint64_t index = log_.append(
      stream, std::move(entry),
      [this](std::size_t s, std::uint64_t i, const SettlementEntry& e) { apply_entry(s, i, e); });
  cluster_.observe_author(stream, index, log_.entry(stream, index));

  PendingAppend pa;
  pa.entry_wire = wire;
  pa.on_commit = std::move(on_commit);
  for (std::size_t j : live_view(/*ready_only=*/false)) {
    if (j != index_) pa.waiting.insert(j);
  }
  if (pa.waiting.empty()) {
    if (pa.on_commit) pa.on_commit();
    return;
  }
  for (std::size_t j : pa.waiting) send_append(j, stream, index);
  pending_appends_.emplace(index, std::move(pa));
  ensure_append_retry();
}

void BrokerShard::send_append(std::size_t peer, std::size_t stream, std::uint64_t index) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(ClusterMsg::Append));
  w.u16(static_cast<std::uint16_t>(stream));
  w.u64(index);
  auto it = pending_appends_.find(index);
  if (it != pending_appends_.end() && stream == cur_stream_) {
    w.bytes(it->second.entry_wire);
  } else {
    w.bytes(log_.entry(stream, index).serialize());
  }
  send_to_peer(peer, w.take());
}

void BrokerShard::ensure_append_retry() {
  if (append_retry_timer_.pending() || pending_appends_.empty()) return;
  append_retry_timer_ =
      node_.simulator().schedule(kAppendRetry, [this] { retry_appends(); });
}

void BrokerShard::retry_appends() {
  if (crashed_) return;
  std::vector<std::uint64_t> indices;
  indices.reserve(pending_appends_.size());
  for (const auto& [index, pa] : pending_appends_) indices.push_back(index);
  for (std::uint64_t index : indices) {
    check_commit(index);  // prunes peers that died while we waited
    auto it = pending_appends_.find(index);
    if (it == pending_appends_.end()) continue;
    for (std::size_t j : it->second.waiting) send_append(j, cur_stream_, index);
  }
  ensure_append_retry();
}

void BrokerShard::check_commit(std::uint64_t index) {
  auto it = pending_appends_.find(index);
  if (it == pending_appends_.end()) return;
  const auto live = live_view(/*ready_only=*/false);
  std::erase_if(it->second.waiting, [&](std::size_t j) {
    return std::find(live.begin(), live.end(), j) == live.end();
  });
  if (!it->second.waiting.empty()) return;
  auto on_commit = std::move(it->second.on_commit);
  pending_appends_.erase(it);
  if (on_commit) on_commit();
}

void BrokerShard::on_append(ByteReader& r) {
  const std::size_t stream = r.u16();
  const std::uint64_t index = r.u64();
  const Bytes entry_wire = r.bytes();
  auto e = SettlementEntry::deserialize(entry_wire);
  if (!e.ok()) return;
  log_.store(stream, index, std::move(e.value()),
             [this](std::size_t s, std::uint64_t i, const SettlementEntry& ent) {
               apply_entry(s, i, ent);
             });
  // Ack only once the entry is inside the contiguous applied prefix: an ack
  // therefore promises the whole prefix, which is what makes "all live peers
  // acked" imply no committed entry can be stranded behind a lost gap.
  if (log_.applied_len(stream) > index) {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(ClusterMsg::AppendAck));
    w.u16(static_cast<std::uint16_t>(index_));
    w.u16(static_cast<std::uint16_t>(stream));
    w.u64(index);
    send_to_peer(stream % cluster_.n_shards(), w.take());
  }
  if (recovering_) maybe_finish_recovery();
}

void BrokerShard::on_append_ack(ByteReader& r) {
  const std::size_t acker = r.u16();
  const std::size_t stream = r.u16();
  const std::uint64_t index = r.u64();
  if (stream != cur_stream_) return;  // ack for a pre-crash incarnation
  auto it = pending_appends_.find(index);
  if (it == pending_appends_.end()) return;
  it->second.waiting.erase(acker);
  check_commit(index);
}

void BrokerShard::on_heartbeat(const net::Packet& p, ByteReader& r) {
  (void)p;
  const std::size_t sender = r.u16();
  const bool ready = r.u8() != 0;
  const std::size_t n_streams = r.u16();
  if (sender >= peers_.size() || sender == index_) return;
  const TimePoint now = node_.simulator().now();
  PeerView& pv = peers_[sender];
  pv.last_hb = now;
  pv.ready = ready;
  pv.advertised.assign(n_streams, 0);
  for (std::size_t s = 0; s < n_streams; ++s) pv.advertised[s] = r.u64();
  if (recovering_ && sender < hb_seen_since_restart_.size()) {
    hb_seen_since_restart_[sender] = true;
  }

  // Anti-entropy: if the sender has applied entries we lack, fetch them.
  // This single mechanism heals dead-author partial replication and powers
  // post-restart recovery.
  for (std::size_t s = 0; s < n_streams; ++s) {
    const std::uint64_t mine = log_.applied_len(s);
    if (pv.advertised[s] <= mine) continue;
    auto& last = fetch_last_[s];
    if (now - last < kFetchCooldown && last != TimePoint::zero()) continue;
    last = now;
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(ClusterMsg::Fetch));
    w.u16(static_cast<std::uint16_t>(index_));
    w.u16(static_cast<std::uint16_t>(s));
    w.u64(mine);
    send_to_peer(sender, w.take());
  }

  refresh_ownership();
  if (recovering_) maybe_finish_recovery();
}

void BrokerShard::on_fetch(const net::EndPoint& from, ByteReader& r) {
  (void)from;
  const std::size_t requester = r.u16();
  const std::size_t stream = r.u16();
  const std::uint64_t from_idx = r.u64();
  if (requester >= cluster_.n_shards()) return;
  const std::uint64_t len = log_.applied_len(stream);
  if (from_idx >= len) return;
  const std::uint64_t count =
      std::min<std::uint64_t>(kChunkMax, len - from_idx);
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(ClusterMsg::Chunk));
  w.u16(static_cast<std::uint16_t>(stream));
  w.u64(from_idx);
  w.u16(static_cast<std::uint16_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    w.bytes(log_.entry(stream, from_idx + i).serialize());
  }
  send_to_peer(requester, w.take());
}

void BrokerShard::on_chunk(ByteReader& r) {
  const std::size_t stream = r.u16();
  const std::uint64_t start = r.u64();
  const std::uint64_t count = r.u16();
  for (std::uint64_t i = 0; i < count; ++i) {
    const Bytes entry_wire = r.bytes();
    auto e = SettlementEntry::deserialize(entry_wire);
    if (!e.ok()) return;
    log_.store(stream, start + i, std::move(e.value()),
               [this](std::size_t s, std::uint64_t idx, const SettlementEntry& ent) {
                 apply_entry(s, idx, ent);
               });
  }
  // Chain-fetch: if anyone still advertises more of this stream, keep
  // pulling without waiting for the next heartbeat (fast catch-up).
  std::uint64_t best_len = 0;
  std::size_t best_peer = index_;
  for (std::size_t j = 0; j < peers_.size(); ++j) {
    if (j == index_ || stream >= peers_[j].advertised.size()) continue;
    if (peers_[j].advertised[stream] > best_len) {
      best_len = peers_[j].advertised[stream];
      best_peer = j;
    }
  }
  if (best_peer != index_ && best_len > log_.applied_len(stream)) {
    fetch_last_[stream] = node_.simulator().now();
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(ClusterMsg::Fetch));
    w.u16(static_cast<std::uint16_t>(index_));
    w.u16(static_cast<std::uint16_t>(stream));
    w.u64(log_.applied_len(stream));
    send_to_peer(best_peer, w.take());
  }
  if (recovering_) maybe_finish_recovery();
}

void BrokerShard::send_to_peer(std::size_t peer, Bytes payload) {
  net::Packet p;
  p.src = net::EndPoint{node_.primary_address(), kBrokerClusterPort};
  p.dst = cluster_.cluster_endpoints().at(peer);
  p.proto = net::Proto::Udp;
  p.payload = std::move(payload);
  node_.send(std::move(p));
}

// --- fold hooks / ownership ---

void BrokerShard::apply_entry(std::size_t stream, std::uint64_t index,
                              const SettlementEntry& e) {
  (void)stream;
  (void)index;
  state_.apply(e);
  if (e.kind == SettlementEntry::Kind::VerdictPaired ||
      e.kind == SettlementEntry::Kind::VerdictMissing) {
    for (Reporter side : {Reporter::Ue, Reporter::Telco}) {
      auto it = report_ack_keys_.find({e.session_id, e.period, static_cast<int>(side)});
      if (it == report_ack_keys_.end()) continue;
      if (e.kind == SettlementEntry::Kind::VerdictMissing) report_ack_cache_.erase(it->second);
      report_ack_keys_.erase(it);
    }
  }
  // Owner-side pairing rides the fold so every path into the log — local
  // ingest, replicated append, takeover catch-up — drives pairing uniformly.
  if (e.kind == SettlementEntry::Kind::ReportIngested && !crashed_ && !recovering_ &&
      owns_bucket(session_bucket(e.session_id))) {
    try_pair(e.session_id, e.period);
  }
}

void BrokerShard::try_pair(std::uint64_t session_id, std::uint32_t period) {
  if (crashed_ || recovering_) return;
  if (state_.pair_decided(session_id, period)) return;
  const auto ue_it = state_.pending().find(
      {session_id, period, static_cast<int>(Reporter::Ue)});
  const auto t_it = state_.pending().find(
      {session_id, period, static_cast<int>(Reporter::Telco)});
  if (ue_it == state_.pending().end() || t_it == state_.pending().end()) return;

  // Verdict content is a pure function of the two reports, so concurrent
  // owners in a failover window author byte-identical verdicts (modulo the
  // timestamp, which the dedup signature ignores).
  const PairVerdict v =
      state_.reputation().compare(ue_it->second.report, t_it->second.report);
  const TimePoint now = node_.simulator().now();
  SettlementEntry e;
  e.kind = SettlementEntry::Kind::VerdictPaired;
  e.session_id = session_id;
  e.period = period;
  e.id_u = ue_it->second.id_u;
  e.id_t = t_it->second.id_t;  // the bTelco that served this period
  e.time_ns = now.nanos();
  e.mismatch = v.mismatch;
  e.degree = v.degree;
  e.threshold = v.threshold;
  e.delta = v.delta;
  e.ue_dl_bytes = ue_it->second.report.dl_bytes;
  e.telco_dl_bytes = t_it->second.report.dl_bytes;
  obs::inc(obs::counter("broker.pairs.compared"));
  if (v.mismatch) obs::inc(obs::counter("broker.pairs.mismatch"));
  obs::trace(now, obs::TraceType::ReportPaired, session_id, period);
  author(std::move(e), {});
}

void BrokerShard::redrive_owned_pending() {
  // Takeover: any pair fully present in the replica but undecided (the old
  // owner died between folding the second report and authoring the verdict)
  // is re-driven from the log.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> candidates;
  for (const auto& [key, pr] : state_.pending()) {
    const auto& [sid, period, side] = key;
    (void)side;
    (void)pr;
    if (!owns_bucket(session_bucket(sid))) continue;
    if (candidates.empty() || candidates.back() != std::make_pair(sid, period)) {
      candidates.emplace_back(sid, period);
    }
  }
  for (const auto& [sid, period] : candidates) try_pair(sid, period);
}

void BrokerShard::refresh_ownership() {
  const auto owners = live_view(/*ready_only=*/true);
  std::uint64_t sig = 0xcbf29ce484222325ULL;
  for (std::size_t j : owners) {
    sig ^= j + 1;
    sig *= 0x100000001b3ULL;
  }
  if (sig == ownership_sig_) return;
  ownership_sig_ = sig;
  if (crashed_ || recovering_) return;
  ++takeovers_;
  obs::inc(obs::counter("broker.cluster.ownership_changes"));
  CB_LOG(Info, "broker-shard") << "shard " << index_ << ": ownership epoch changed ("
                               << owners.size() << " owners)";
  redrive_owned_pending();
}

void BrokerShard::heartbeat_tick() {
  if (crashed_) return;
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(ClusterMsg::Heartbeat));
  w.u16(static_cast<std::uint16_t>(index_));
  w.u8(recovering_ ? 0 : 1);
  const std::size_t n_streams = log_.n_streams();
  w.u16(static_cast<std::uint16_t>(n_streams));
  for (std::size_t s = 0; s < n_streams; ++s) w.u64(log_.applied_len(s));
  Bytes hb = w.take();
  for (std::size_t j = 0; j < peers_.size(); ++j) {
    if (j != index_) send_to_peer(j, hb);
  }
  // Death of a peer is only observed lazily; re-examine waiting commits and
  // ownership on our own cadence too.
  std::vector<std::uint64_t> indices;
  indices.reserve(pending_appends_.size());
  for (const auto& [index, pa] : pending_appends_) indices.push_back(index);
  for (std::uint64_t index : indices) check_commit(index);
  refresh_ownership();
  if (recovering_) maybe_finish_recovery();
  heartbeat_timer_ =
      node_.simulator().schedule(kHeartbeatInterval, [this] { heartbeat_tick(); });
}

void BrokerShard::maybe_finish_recovery() {
  if (!recovering_) return;
  const auto live = live_view(/*ready_only=*/false);
  for (std::size_t j : live) {
    if (j == index_) continue;
    if (!hb_seen_since_restart_[j]) return;
    const auto& adv = peers_[j].advertised;
    for (std::size_t s = 0; s < adv.size(); ++s) {
      if (log_.applied_len(s) < adv[s]) return;
    }
  }
  recovering_ = false;
  obs::inc(obs::counter("broker.cluster.recoveries"));
  CB_LOG(Info, "broker-shard") << "shard " << index_ << ": recovery complete ("
                               << log_.total_applied() << " entries)";
  refresh_ownership();
}

void BrokerShard::sweep() {
  if (crashed_) return;
  const TimePoint now = node_.simulator().now();
  if (!recovering_) {
    // Expire owned unpaired reports from their *logged* ingest time, so a
    // takeover shard inherits the original deadline rather than restarting
    // the clock.
    std::vector<std::tuple<std::uint64_t, std::uint32_t, Reporter>> expired;
    for (const auto& [key, pr] : state_.pending()) {
      const auto& [sid, period, side] = key;
      if (!owns_bucket(session_bucket(sid))) continue;
      if (now - pr.received_at < config_.broker.pair_timeout) continue;
      expired.emplace_back(sid, period,
                           static_cast<Reporter>(side) == Reporter::Ue ? Reporter::Telco
                                                                       : Reporter::Ue);
    }
    for (const auto& [sid, period, missing] : expired) {
      try_pair(sid, period);  // counterpart may have just landed
      if (state_.pair_decided(sid, period)) continue;
      const auto present = state_.pending().find(
          {sid, period,
           static_cast<int>(missing == Reporter::Ue ? Reporter::Telco : Reporter::Ue)});
      if (present == state_.pending().end()) continue;
      SettlementEntry e;
      e.kind = SettlementEntry::Kind::VerdictMissing;
      e.session_id = sid;
      e.period = period;
      e.reporter = missing;
      e.id_u = present->second.id_u;
      e.id_t = present->second.id_t;
      e.time_ns = now.nanos();
      obs::inc(obs::counter("broker.reports.unpaired_expired"));
      obs::trace(now, obs::TraceType::ReportUnpairedExpired, sid, period);
      author(std::move(e), {});
    }
  }
  for (auto* cache : {&auth_reply_cache_, &resume_reply_cache_}) {
    for (auto it = cache->begin(); it != cache->end();) {
      // Empty payload = still awaiting commit; never evict those here.
      if (!it->second.payload.empty() && now - it->second.at >= config_.broker.reply_cache_ttl) {
        it = cache->erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto it = report_ack_cache_.begin(); it != report_ack_cache_.end();) {
    if (now - it->second.at >= config_.broker.reply_cache_ttl) {
      it = report_ack_cache_.erase(it);
    } else {
      ++it;
    }
  }
  sweep_timer_ =
      node_.simulator().schedule(config_.broker.gc_interval, [this] { sweep(); });
}

// --- fault injection ---

void BrokerShard::crash() {
  if (crashed_) return;
  crashed_ = true;
  node_.set_up(false);
  heartbeat_timer_.cancel();
  sweep_timer_.cancel();
  append_retry_timer_.cancel();
  // Process memory is gone: the queued client jobs, the log replica, the
  // fold, every in-flight commit and cache. The node's config and the
  // subscriber DB (durable by assumption) survive; pre-crash counters stay
  // for observability.
  log_ = SettlementLog();
  state_ = SettlementState(config_.broker.test_skip_report_dedup);
  queue_.clear();
  queued_reports_.clear();
  pending_appends_.clear();
  uncommitted_reports_.clear();
  auth_reply_cache_.clear();
  report_ack_cache_.clear();
  resume_reply_cache_.clear();
  report_ack_keys_.clear();
  fetch_last_.clear();
  for (auto& p : peers_) p = PeerView{};
  obs::inc(obs::counter("broker.cluster.crashes"));
  CB_LOG(Info, "broker-shard") << "shard " << index_ << ": crashed";
}

void BrokerShard::restart() {
  if (!crashed_) return;
  crashed_ = false;
  recovering_ = true;
  node_.set_up(true);
  const TimePoint now = node_.simulator().now();
  // Fresh incarnation: author to a stream nobody has indices for, so a
  // partially replicated pre-crash suffix can never collide or fork.
  ++incarnation_;
  cur_stream_ = index_ + incarnation_ * cluster_.n_shards();
  log_.ensure_streams(cur_stream_ + 1);
  // Restart grace: assume every peer live until its silence crosses the
  // threshold, and require a fresh heartbeat from each live one before
  // declaring recovery done.
  for (auto& p : peers_) {
    p = PeerView{};
    p.last_hb = now;
  }
  hb_seen_since_restart_.assign(peers_.size(), false);
  heartbeat_timer_ =
      node_.simulator().schedule(kHeartbeatInterval, [this] { heartbeat_tick(); });
  sweep_timer_ =
      node_.simulator().schedule(config_.broker.gc_interval, [this] { sweep(); });
  obs::inc(obs::counter("broker.cluster.restarts"));
  CB_LOG(Info, "broker-shard") << "shard " << index_ << ": restarted (recovering)";
  maybe_finish_recovery();  // no live peers -> immediately ready
}

// --- BrokerCluster ----------------------------------------------------------

BrokerShard& BrokerCluster::add_shard(net::Node& node, SapBroker sap) {
  if (started_) throw std::logic_error("BrokerCluster: add_shard after start");
  const std::size_t index = shards_.size();
  shards_.push_back(std::make_unique<BrokerShard>(*this, index, node, std::move(sap), config_));
  client_eps_.push_back(net::EndPoint{node.primary_address(), kBrokerPort});
  cluster_eps_.push_back(net::EndPoint{node.primary_address(), kBrokerClusterPort});
  return *shards_.back();
}

void BrokerCluster::start() {
  if (started_ || shards_.empty()) return;
  started_ = true;
  const std::size_t n = shards_.size();
  observer_log_.ensure_streams(n);
  for (std::size_t i = 0; i < n; ++i) {
    BrokerShard* s = shards_[i].get();
    s->peers_.assign(n, BrokerShard::PeerView{});
    s->hb_seen_since_restart_.assign(n, false);
    s->log_.ensure_streams(n);
    auto& sim = s->node_.simulator();
    // Staggered first beats: shards should not synchronize their control
    // traffic, and the stagger keeps the event order deterministic.
    const Duration stagger = BrokerShard::kHeartbeatInterval * (i + 1) / (n + 1);
    s->heartbeat_timer_ = sim.schedule(stagger, [s] { s->heartbeat_tick(); });
    s->sweep_timer_ = sim.schedule(config_.broker.gc_interval, [s] { s->sweep(); });
  }
}

void BrokerCluster::add_subscriber(const std::string& id_u, crypto::RsaPublicKey key) {
  for (auto& s : shards_) s->add_subscriber(id_u, key);
}

void BrokerCluster::add_telco(const std::string& id_t, crypto::RsaPublicKey key) {
  for (auto& s : shards_) s->add_telco(id_t, key);
}

void BrokerCluster::observe_author(std::size_t stream, std::uint64_t index,
                                   const SettlementEntry& e) {
  observer_log_.store(stream, index, e,
                      [this](std::size_t, std::uint64_t, const SettlementEntry& ent) {
                        observer_state_.apply(ent);
                      });
}

}  // namespace cb::cellbricks
