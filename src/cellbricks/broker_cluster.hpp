// The broker (DESIGN.md §12): one logical cloud service that authenticates
// SAP attaches, verifies ticket resumptions, and settles billing by pairing
// the signed UE and bTelco reports (§4.3). It runs as N broker shards that
// own disjoint subscriber-bucket ranges via rendezvous hashing and
// replicate a shared append-only settlement log (settlement_log.hpp), so
// report pairing, verdicts, and reputation survive any single shard's
// crash. The single broker is a one-shard cluster: it has no peers, so
// every commit is immediate.
//
// Protocol sketch (single-decree, leader-per-entry over the ACKed UDP
// transport — the author of an entry is its leader):
//   * Every shard authors to its own stream and pushes Append messages to
//     all peers, retransmitting until each live peer AppendAcks. An entry is
//     COMMITTED once every currently-live peer has stored it; client-visible
//     effects (AuthOk, ReportAck, ResumeNotifyAck) are withheld until
//     commit, so an acked verdict can never be lost to a single crash.
//   * Heartbeats double as the failure detector and the anti-entropy
//     vector: they advertise per-stream applied lengths, and a peer that is
//     behind issues Fetch -> Chunk catch-up reads. This one mechanism covers
//     both dead-author partial replication and post-restart recovery.
//   * Bucket ownership = hrw_owner over the live+ready shard set. Owners
//     pair reports inside the log fold (so takeover re-drives pairing
//     straight from the replica) and expire unpaired reports from the
//     *logged* ingest time. Brief double-ownership windows are harmless:
//     verdict content is deterministic and the fold dedups on apply.
//   * A ResumeNotify is authored by whichever shard receives it: it only
//     adds a bTelco party to the session, which the fold accepts from any
//     stream in any order.
//   * A restarted shard comes back empty, authors to a FRESH stream (no
//     index reuse), and stays in `recovering` — acking replication but
//     ignoring clients — until it has caught up with every live peer.
#pragma once

#include <functional>
#include <memory>
#include <set>

#include "cellbricks/sap.hpp"
#include "cellbricks/settlement_log.hpp"
#include "net/node.hpp"
#include "sim/service_queue.hpp"

namespace cb::cellbricks {

/// Client-facing broker port (SAP auth, reports, ticket resumptions).
inline constexpr std::uint16_t kBrokerPort = 4500;

/// Wire message types on the broker port.
enum class BrokerMsg : std::uint8_t {
  AuthReq = 1,     // u64 txn, bytes authReqT
  AuthOk = 2,      // u64 txn, bytes authRespT, bytes authRespU
  AuthErr = 3,     // u64 txn, str reason
  Report = 4,      // u64 seq, bytes sealed{str reporter_id, u8 type, bytes report, bytes sig}
  ReportAck = 5,   // u64 seq — broker ack for a decoded+authenticated report
  Redirect = 6,    // u64 seq, u16 bucket, u16 owner — stale-route reply from a
                   // broker shard that does not own the session's bucket
  ResumeNotify = 7,     // u64 txn, bytes sealed{bytes body{str id_t, u64 session_id,
                        // bytes ticket_id}, bytes cert_t, bytes sig_t(body)} — a bTelco
                        // honoured a resumption ticket locally (off the attach path)
  ResumeNotifyAck = 8,  // u64 txn, u8 revoke — revoke=1 orders the bTelco to tear the
                        // resumed session down (suspect subscriber / unknown session)
};

/// Per-shard broker service knobs.
struct BrokerConfig {
  /// Per-SAP-request processing time (includes crypto; Fig.7 calibration:
  /// 8.25 ms so CB totals 24.5 ms of processing per attach). Named like a
  /// field because cbbench reads it as `BrokerShard::Config{}.broker.
  /// sap_service_time`.
  static constexpr Duration sap_service_time = Duration::millis(8.25);
  /// How long a report waits for its counterpart before the broker gives
  /// up on pairing and charges the absent side with a "missing
  /// counterpart" reputation verdict.
  Duration pair_timeout = Duration::s(45);
  /// Idempotent-reply cache retention: long enough to cover any bTelco
  /// retransmission schedule, short enough to bound memory.
  Duration reply_cache_ttl = Duration::s(30);
  /// Housekeeping sweep cadence (pair timeouts + reply-cache eviction).
  Duration gc_interval = Duration::s(5);
  /// TEST HOOK (fuzzer planted-violation harness): accumulate retransmitted
  /// reports even when the (session, period, reporter) dedup filter has
  /// already seen them. Re-introduces the report double-count bug on
  /// purpose so the check layer can prove it detects, shrinks, and replays
  /// it. Never set outside tests.
  bool test_skip_report_dedup = false;
};

/// UDP port for shard<->shard replication traffic (client traffic stays on
/// kBrokerPort).
inline constexpr std::uint16_t kBrokerClusterPort = 4501;

/// Inter-shard wire messages on kBrokerClusterPort.
enum class ClusterMsg : std::uint8_t {
  Append = 1,     // u16 stream, u64 index, bytes entry
  AppendAck = 2,  // u16 acker, u16 stream, u64 index
  Heartbeat = 3,  // u16 sender, u8 ready, u16 n_streams, n x u64 applied_len
  Fetch = 4,      // u16 requester, u16 stream, u64 from_index
  Chunk = 5,      // u16 stream, u64 start, u16 count, count x bytes entry
};

/// Client-side shard map: static endpoints, redirect-learned bucket
/// overrides, and a timeout-driven suspect list so retries fail over instead
/// of hammering a dead endpoint.
class ShardRouter {
 public:
  /// Consecutive timeouts before an endpoint is marked suspect.
  static constexpr int kSuspectAfter = 2;
  /// How long a suspect endpoint is avoided before being retried.
  static constexpr Duration kSuspectHold = Duration::s(3);

  explicit ShardRouter(std::vector<net::EndPoint> shards);

  std::size_t n_shards() const { return shards_.size(); }
  const net::EndPoint& endpoint(std::size_t shard) const { return shards_.at(shard); }

  /// Shard to contact for a session-scoped message (reports): the learned
  /// redirect override if healthy, else rendezvous over non-suspect shards.
  std::size_t pick_for_session(std::uint64_t session_id, TimePoint now);
  /// Shard to contact for a new auth (subscriber unknown until the broker
  /// opens the request): sticky to spread state kindly, skipping suspects.
  std::size_t pick_for_auth(TimePoint now);

  /// A shard told us who owns `bucket` now (stale-route redirect reply).
  void learn_redirect(std::uint16_t bucket, std::uint16_t owner);
  void note_timeout(std::size_t shard, TimePoint now);
  void note_ok(std::size_t shard);

  bool suspect(std::size_t shard, TimePoint now) const;
  std::uint64_t redirects_learned() const { return redirects_learned_; }

 private:
  std::vector<std::size_t> healthy(TimePoint now) const;

  std::vector<net::EndPoint> shards_;
  std::unordered_map<std::uint16_t, std::size_t> overrides_;  // bucket -> shard
  struct Health {
    int strikes = 0;
    TimePoint suspect_until;
  };
  std::vector<Health> health_;
  std::size_t auth_sticky_ = 0;
  std::uint64_t redirects_learned_ = 0;
};

class BrokerCluster;

/// One broker shard: client-facing SAP, report, and resume-notify service
/// on kBrokerPort, replication on kBrokerClusterPort, and the settlement
/// fold as its only billing state.
class BrokerShard {
 public:
  struct Config {
    BrokerConfig broker{};
  };

  /// Report (and resume-notify) ingestion time; SAP requests take
  /// BrokerConfig::sap_service_time.
  static constexpr Duration kReportServiceTime = Duration::millis(1.0);
  static constexpr Duration kHeartbeatInterval = Duration::millis(500);
  /// Missed heartbeat intervals before a peer is considered dead.
  static constexpr int kMissThreshold = 3;
  /// Append retransmission cadence toward unacked peers.
  static constexpr Duration kAppendRetry = Duration::millis(250);
  /// Minimum spacing of Fetch requests per stream (rate-limits catch-up).
  static constexpr Duration kFetchCooldown = Duration::millis(200);
  /// Max entries per Chunk reply.
  static constexpr std::size_t kChunkMax = 64;

  BrokerShard(BrokerCluster& cluster, std::size_t index, net::Node& node, SapBroker sap,
              Config config);

  std::size_t index() const { return index_; }
  net::Node& node() { return node_; }

  void add_subscriber(const std::string& id_u, crypto::RsaPublicKey key);
  /// Pre-register a bTelco's report-signing key (normally learned from the
  /// auth certificate; registered cluster-wide so a report can be verified
  /// at a shard that never served that bTelco's attach).
  void add_telco(const std::string& id_t, crypto::RsaPublicKey key);

  /// Fault injection: crash wipes the queued client jobs, the log, fold, and
  /// every in-flight commit/cache — only the node config and the subscriber
  /// DB (durable by assumption) survive. Restart re-joins in `recovering`
  /// state.
  void crash();
  void restart();
  bool crashed() const { return crashed_; }
  bool recovering() const { return recovering_; }

  /// Live-shard view from this shard's failure detector (self included only
  /// when up; peers by heartbeat age). `ready_only` additionally filters to
  /// peers whose last heartbeat declared them caught up — the ownership set.
  std::vector<std::size_t> live_view(bool ready_only) const;
  bool owns_bucket(std::uint16_t bucket) const;

  const SettlementLog& log() const { return log_; }
  const SettlementState& fold() const { return state_; }

  std::uint64_t sessions_issued() const { return sessions_issued_; }
  std::uint64_t reports_received() const { return reports_received_; }
  std::uint64_t reports_rejected() const { return reports_rejected_; }
  std::uint64_t reports_ingested() const { return reports_ingested_; }
  std::uint64_t reports_deduped() const { return reports_deduped_; }
  /// Report copies dropped on arrival because an earlier copy (same sender
  /// endpoint and seq) still waited in the service queue. reports_received()
  /// does not count them.
  std::uint64_t reports_coalesced() const { return reports_coalesced_; }
  std::uint64_t redirects_sent() const { return redirects_sent_; }
  std::uint64_t takeovers() const { return takeovers_; }
  Duration busy_time() const { return queue_.busy_time(); }
  /// Processing time spent on SAP requests only (Fig.7 breakdown).
  Duration sap_busy_time() const { return sap_busy_; }
  std::size_t nonces_seen() const { return sap_.nonces_seen(); }
  std::size_t reply_cache_size() const { return auth_reply_cache_.size(); }
  /// Report retransmissions answered from the idempotent ack cache.
  std::uint64_t report_ack_cache_hits() const { return report_ack_cache_hits_; }
  std::size_t report_ack_cache_size() const { return report_ack_cache_.size(); }

 private:
  friend class BrokerCluster;

  // Client path.
  void handle_client(const net::Packet& packet);
  void handle_auth(const net::EndPoint& from, ByteReader& r);
  void handle_report(const net::EndPoint& from, ByteReader& r);
  void handle_resume_notify(const net::EndPoint& from, ByteReader& r);
  void reply(const net::EndPoint& to, Bytes payload, std::uint16_t src_port = kBrokerPort);

  // Replication path.
  void handle_cluster(const net::Packet& packet);
  void on_append(ByteReader& r);
  void on_append_ack(ByteReader& r);
  void on_heartbeat(const net::Packet& p, ByteReader& r);
  void on_fetch(const net::EndPoint& from, ByteReader& r);
  void on_chunk(ByteReader& r);

  /// Author an entry to this incarnation's stream; `on_commit` fires once
  /// every currently-live peer acked (immediately when there are none).
  void author(SettlementEntry entry, std::function<void()> on_commit);
  void send_append(std::size_t peer, std::size_t stream, std::uint64_t index);
  void ensure_append_retry();
  void retry_appends();
  void check_commit(std::uint64_t index);
  void send_to_peer(std::size_t peer, Bytes payload);

  /// Fold hook shared by author/store/chunk paths: updates the fold and, if
  /// this shard owns the entry's bucket, drives pairing.
  void apply_entry(std::size_t stream, std::uint64_t index, const SettlementEntry& e);
  void try_pair(std::uint64_t session_id, std::uint32_t period);
  /// Ownership changed (peer died/joined/recovered): re-drive pairing for
  /// newly owned buckets from the replica.
  void redrive_owned_pending();

  void heartbeat_tick();
  void refresh_ownership();
  void maybe_finish_recovery();
  void sweep();

  BrokerCluster& cluster_;
  std::size_t index_;
  net::Node& node_;
  SapBroker sap_;
  Config config_;
  sim::ServiceQueue queue_;
  Rng rng_;

  SettlementLog log_;
  SettlementState state_;

  std::unordered_map<std::string, crypto::RsaPublicKey> telco_keys_;

  // Authoring/commit state. The stream index advances by n_shards per
  // incarnation so a restarted shard never reuses indices it may have
  // partially replicated before dying.
  std::size_t cur_stream_;
  struct PendingAppend {
    Bytes entry_wire;
    std::set<std::size_t> waiting;  // peers not yet acked
    std::function<void()> on_commit;
  };
  std::map<std::uint64_t, PendingAppend> pending_appends_;  // by index in cur_stream_
  sim::EventHandle append_retry_timer_;
  /// ReportIngested entries authored but not yet committed: retransmits of
  /// these must NOT be acked early from the fold's seen-set.
  std::set<std::tuple<std::uint64_t, std::uint32_t, int>> uncommitted_reports_;

  // Failure detector + anti-entropy state (per peer).
  struct PeerView {
    TimePoint last_hb;  // zero = boot grace (assumed live)
    bool ready = true;
    std::vector<std::uint64_t> advertised;  // per-stream applied lengths
  };
  std::vector<PeerView> peers_;
  std::unordered_map<std::size_t, TimePoint> fetch_last_;  // per stream, rate limit
  sim::EventHandle heartbeat_timer_;
  sim::EventHandle sweep_timer_;
  std::uint64_t ownership_sig_ = 0;  // hash of last ownership set

  // Client reply caches, keyed (requester, txn/seq): a retransmission of a
  // lost response is answered idempotently instead of tripping the nonce
  // replay check, re-running ingestion or logging a resume twice.
  // TTL-evicted by the sweeper.
  using ReplyKey = std::pair<std::uint64_t, std::uint64_t>;
  struct CachedReply {
    Bytes payload;  // empty while the backing entry awaits commit
    TimePoint at;
  };
  std::map<ReplyKey, CachedReply> auth_reply_cache_;
  std::map<ReplyKey, CachedReply> report_ack_cache_;
  std::map<ReplyKey, CachedReply> resume_reply_cache_;
  /// Ack-cache key of each acked report still awaiting its verdict. A
  /// missing-counterpart verdict evicts the cached ack too: a late
  /// retransmit must be re-judged against the post-expiry state, not
  /// answered from a cache entry the verdict superseded.
  std::map<SettlementState::PendingKey, ReplyKey> report_ack_keys_;
  /// Ack-cache keys of the reports waiting in queue_: a copy that arrives
  /// while its key is here is dropped (reports_coalesced_).
  std::set<ReplyKey> queued_reports_;

  bool crashed_ = false;
  bool recovering_ = false;
  std::uint64_t incarnation_ = 0;
  std::vector<bool> hb_seen_since_restart_;

  Duration sap_busy_ = Duration::zero();
  std::uint64_t sessions_issued_ = 0;
  std::uint64_t reports_received_ = 0;
  std::uint64_t reports_rejected_ = 0;
  std::uint64_t reports_ingested_ = 0;
  std::uint64_t reports_deduped_ = 0;
  std::uint64_t reports_coalesced_ = 0;
  std::uint64_t report_ack_cache_hits_ = 0;
  std::uint64_t redirects_sent_ = 0;
  std::uint64_t takeovers_ = 0;
};

/// The cluster: owns the shards, the client-facing endpoint list, and a
/// synchronous observer fold of every authored entry — deterministic global
/// ground truth for invariants and benchmarks that survives shard crashes
/// (it models the auditor's view, not a networked replica).
class BrokerCluster {
 public:
  explicit BrokerCluster(BrokerShard::Config config)
      : config_(config),
        observer_state_(config.broker.test_skip_report_dedup) {}

  /// Add one shard hosted on `node`. All shards must share the broker
  /// keypair/certificate so clients seal to a single broker identity.
  BrokerShard& add_shard(net::Node& node, SapBroker sap);
  /// Arm heartbeats (staggered per shard). Call after all add_shard calls.
  void start();

  std::size_t n_shards() const { return shards_.size(); }
  BrokerShard& shard(std::size_t i) { return *shards_.at(i); }
  const BrokerShard& shard(std::size_t i) const { return *shards_.at(i); }
  const std::vector<net::EndPoint>& client_endpoints() const { return client_eps_; }
  const std::vector<net::EndPoint>& cluster_endpoints() const { return cluster_eps_; }
  const BrokerShard::Config& config() const { return config_; }

  /// Cluster-wide registration (broker-issued material, present on every
  /// shard — the "durable subscriber DB" of DESIGN.md §12).
  void add_subscriber(const std::string& id_u, crypto::RsaPublicKey key);
  void add_telco(const std::string& id_t, crypto::RsaPublicKey key);

  void crash_shard(std::size_t i) { shards_.at(i)->crash(); }
  void restart_shard(std::size_t i) { shards_.at(i)->restart(); }

  /// Auditor's fold: applied synchronously at author time, in the global
  /// deterministic authoring order.
  const SettlementState& observer() const { return observer_state_; }
  const SettlementLog& observer_log() const { return observer_log_; }

  // Cluster-wide aggregates (world/chaos/bench accounting).
  const ReputationSystem& reputation() const { return observer_state_.reputation(); }
  std::uint64_t sessions_issued() const { return observer_state_.sessions_issued(); }
  std::uint64_t reports_ingested() const { return observer_state_.reports_folded(); }
  std::uint64_t pairs_compared() const { return observer_state_.verdicts_paired(); }
  std::uint64_t unpaired_expired() const { return observer_state_.verdicts_missing(); }
  /// Ticket resumptions bTelcos reported, and how many were ordered torn
  /// down (suspect subscriber or unknown session).
  std::uint64_t resumes_notified() const { return observer_state_.resumes_notified(); }
  std::uint64_t resume_revocations() const { return observer_state_.resume_revocations(); }
  std::uint64_t reports_received() const { return sum(&BrokerShard::reports_received); }
  std::uint64_t reports_rejected() const { return sum(&BrokerShard::reports_rejected); }
  std::uint64_t reports_deduped() const { return sum(&BrokerShard::reports_deduped); }
  std::uint64_t reports_coalesced() const { return sum(&BrokerShard::reports_coalesced); }
  std::uint64_t redirects_sent() const { return sum(&BrokerShard::redirects_sent); }
  std::size_t nonces_seen() const { return sum(&BrokerShard::nonces_seen); }
  Duration sap_busy_time() const { return sum(&BrokerShard::sap_busy_time); }

 private:
  friend class BrokerShard;
  void observe_author(std::size_t stream, std::uint64_t index, const SettlementEntry& e);
  /// A per-shard counter summed over every shard.
  template <typename T>
  T sum(T (BrokerShard::*counter)() const) const {
    T total{};
    for (const auto& s : shards_) total += ((*s).*counter)();
    return total;
  }

  BrokerShard::Config config_;
  std::vector<std::unique_ptr<BrokerShard>> shards_;
  std::vector<net::EndPoint> client_eps_;
  std::vector<net::EndPoint> cluster_eps_;
  SettlementLog observer_log_;
  SettlementState observer_state_;
  bool started_ = false;
};

}  // namespace cb::cellbricks
