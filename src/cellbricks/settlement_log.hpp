// Replicated settlement log for the sharded broker (DESIGN.md §12).
//
// Every broker shard authors an append-only stream of SettlementEntry
// records (sessions issued, ticket resumptions, reports ingested, billing
// verdicts) and replicates it to its peers over the cluster transport. The
// entire billing brain — report pairing, dedup, reputation, per-session
// byte aggregates — is expressed as a deterministic FOLD over the union of
// all streams (SettlementState::apply), so any replica that holds the same
// log prefix holds byte-identical settlement state. That is what makes shard
// failover safe: a takeover shard re-drives pairing straight out of its
// replica and the (session, period) decided-set makes replayed verdicts
// idempotent. A one-shard broker runs the same fold with no replicas.
//
// Also home to the UE-id -> bucket -> shard routing helpers shared by the
// broker cluster and the client-side ShardRouter.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "cellbricks/billing.hpp"
#include "cellbricks/reputation.hpp"
#include "common/bytes.hpp"
#include "common/time.hpp"

namespace cb::cellbricks {

// --- Routing: subscriber -> bucket -> session id ---------------------------

/// Fixed-size routing space: ownership moves in bucket units, so the shard
/// map is a 256-entry table no matter how many subscribers exist.
inline constexpr std::uint32_t kRouteBuckets = 256;

/// Stable hash of a subscriber id into the bucket space.
std::uint16_t bucket_of_subscriber(const std::string& id_u);

/// Embed `bucket` into the top 16 bits of a freshly drawn session id, so
/// every later message that carries the session id also carries its route.
std::uint64_t bucketed_session_id(std::uint64_t raw, std::uint16_t bucket);

/// Recover the routing bucket from a session id minted by the cluster.
std::uint16_t session_bucket(std::uint64_t session_id);

/// Highest-random-weight (rendezvous) owner of `bucket` among `candidates`
/// (shard indices). Deterministic, and removing one candidate only moves the
/// buckets that candidate owned — the consistent-hashing property the
/// failover takeover relies on.
std::size_t hrw_owner(std::uint16_t bucket, const std::vector<std::size_t>& candidates);

// --- Log entries ------------------------------------------------------------

/// One record in a shard's settlement stream. A flat struct (every field
/// serialized unconditionally) so replicas hash identical bytes.
struct SettlementEntry {
  enum class Kind : std::uint8_t {
    SessionIssued = 1,   // shard authenticated a SAP attach and minted a session
    ReportIngested = 2,  // authenticated traffic report accepted at the owner
    VerdictPaired = 3,   // both halves aligned: Fig.5 comparison outcome
    VerdictMissing = 4,  // pair timeout: `reporter` names the absent side
    ResumeNotified = 5,  // bTelco `id_t` resumed the session from a ticket;
                         // `id_u` is empty when the session was unknown
  };

  Kind kind = Kind::SessionIssued;
  std::uint64_t session_id = 0;
  std::uint32_t period = 0;           // report / verdict entries
  Reporter reporter = Reporter::Ue;   // ReportIngested: author side;
                                      // VerdictMissing: the missing side
  std::string id_u;                   // session parties, carried on every
  std::string id_t;                   //   entry (no cross-stream ordering dep)
  std::int64_t time_ns = 0;           // authoring shard's sim clock (global)
  TrafficReport report;               // ReportIngested payload
  // VerdictPaired payload (the Fig.5 PairVerdict).
  bool mismatch = false;
  double degree = 0.0;
  double threshold = 0.0;
  std::int64_t delta = 0;
  std::uint64_t ue_dl_bytes = 0;      // paired byte totals for conservation
  std::uint64_t telco_dl_bytes = 0;
  bool revoke = false;                // ResumeNotified: teardown ordered

  Bytes serialize() const;
  static Result<SettlementEntry> deserialize(BytesView data);
};

// --- Replicated log storage -------------------------------------------------

/// Per-shard stream storage with FNV-1a chain hashes and out-of-order gap
/// buffering. `append` is the author-side path (always contiguous);
/// `store` is the replica-side path (idempotent, buffers future indices,
/// applies newly contiguous entries in order through the callback).
class SettlementLog {
 public:
  using ApplyFn =
      std::function<void(std::size_t stream, std::uint64_t index, const SettlementEntry&)>;

  explicit SettlementLog(std::size_t n_streams = 0) { ensure_streams(n_streams); }

  void ensure_streams(std::size_t n);
  std::size_t n_streams() const { return streams_.size(); }

  /// Author-side append to `stream`; returns the entry's index.
  std::uint64_t append(std::size_t stream, SettlementEntry entry, const ApplyFn& apply);

  /// Replica-side store. Duplicate (already applied) indices are ignored;
  /// future indices are buffered until the gap closes.
  void store(std::size_t stream, std::uint64_t index, SettlementEntry entry,
             const ApplyFn& apply);

  /// Contiguous applied prefix length of `stream`.
  std::uint64_t applied_len(std::size_t stream) const;
  /// FNV-1a chain hash after the first `len` entries (len <= applied_len).
  std::uint64_t chain_hash_at(std::size_t stream, std::uint64_t len) const;
  const SettlementEntry& entry(std::size_t stream, std::uint64_t index) const;
  std::uint64_t total_applied() const;
  std::size_t gap_buffered() const;

 private:
  struct Stream {
    std::vector<SettlementEntry> entries;       // applied contiguous prefix
    std::vector<std::uint64_t> cum_hash;        // [i] = hash after i entries
    std::map<std::uint64_t, SettlementEntry> gap;  // future-index buffer
  };

  void apply_one(std::size_t stream, SettlementEntry entry, const ApplyFn& apply);
  void drain_gap(std::size_t stream, const ApplyFn& apply);

  std::vector<Stream> streams_;
};

// --- The fold ---------------------------------------------------------------

/// Deterministic fold of settlement entries: IS the shard's billing state.
/// Applying the same entries (per-stream in order; streams in any
/// interleaving) yields identical sessions, pending sets, reputation, and
/// aggregates — duplicates across streams are absorbed by the seen/decided
/// sets, which is what makes failover-era double-authoring harmless.
class SettlementState {
 public:
  /// `skip_report_dedup` is a TEST HOOK (BrokerConfig::test_skip_report_dedup):
  /// duplicate reports are accumulated again instead of absorbed.
  explicit SettlementState(bool skip_report_dedup = false)
      : skip_report_dedup_(skip_report_dedup) {}

  void apply(const SettlementEntry& e);

  struct SessionInfo {
    std::string id_u;
    /// bTelco parties: the issuer plus every bTelco that resumed the
    /// session, each with the latest logged time it joined. Parties are
    /// only ever added (a grow-only max-register), so replicas agree in
    /// any interleaving, and a pre-resume bTelco's late report still pairs.
    std::map<std::string, std::int64_t> telcos;
    std::uint64_t ue_dl_bytes = 0;
    std::uint64_t telco_dl_bytes = 0;
    std::uint64_t pairs_compared = 0;
    std::uint64_t mismatches = 0;
    /// Distinct (period, reporter) reports folded, and the times the byte
    /// counters were bumped: equal unless a duplicate slipped past dedup
    /// (the billing.dedup invariant).
    std::uint64_t reports = 0;
    std::uint64_t accumulations = 0;
    /// Byte totals restricted to paired periods, plus the summed Fig.5
    /// tolerance of those pairs: with no mismatch flagged,
    /// |telco_paired - ue_paired| <= paired_threshold (billing.conservation).
    std::uint64_t ue_paired_bytes = 0;
    std::uint64_t telco_paired_bytes = 0;
    double paired_threshold = 0.0;

    /// The serving bTelco: the party that joined last (ties by id).
    const std::string& id_t() const;
    bool has_telco(const std::string& id) const { return telcos.contains(id); }
  };
  struct PendingReport {
    TrafficReport report;
    std::string id_u;
    std::string id_t;
    TimePoint received_at;  // authoring shard's clock (global sim time)
  };
  /// Compressed outcome of an applied verdict, kept per pair so replayed
  /// duplicates can be checked for content agreement.
  struct VerdictSig {
    SettlementEntry::Kind kind = SettlementEntry::Kind::VerdictPaired;
    bool mismatch = false;
    std::int64_t delta = 0;
    Reporter missing = Reporter::Ue;
    bool operator==(const VerdictSig&) const = default;
  };

  using PendingKey = std::tuple<std::uint64_t, std::uint32_t, int>;  // (sid, period, side)
  using PairKey = std::pair<std::uint64_t, std::uint32_t>;           // (sid, period)

  const std::unordered_map<std::uint64_t, SessionInfo>& sessions() const { return sessions_; }
  const std::map<PendingKey, PendingReport>& pending() const { return pending_; }
  const std::map<PairKey, VerdictSig>& decided() const { return decided_; }
  bool pair_decided(std::uint64_t sid, std::uint32_t period) const {
    return decided_.contains({sid, period});
  }
  bool report_seen(std::uint64_t sid, std::uint32_t period, Reporter side) const {
    return seen_reports_.contains({sid, seen_key(sid, period, side)});
  }
  const ReputationSystem& reputation() const { return reputation_; }

  std::uint64_t sessions_issued() const { return sessions_issued_; }
  std::uint64_t reports_folded() const { return reports_folded_; }
  /// Duplicate ReportIngested entries absorbed (double-authoring windows).
  std::uint64_t reports_refolded() const { return reports_refolded_; }
  std::uint64_t verdicts_paired() const { return verdicts_paired_; }
  std::uint64_t verdicts_missing() const { return verdicts_missing_; }
  /// Duplicate verdicts absorbed by the decided-set (expected under failover).
  std::uint64_t verdicts_deduped() const { return verdicts_deduped_; }
  /// Duplicate verdicts whose content DISAGREED with the applied one — the
  /// broker.settlement_verdict_unique invariant requires this to stay 0.
  std::uint64_t verdict_conflicts() const { return verdict_conflicts_; }
  /// Ticket resumptions logged, and how many were ordered torn down.
  std::uint64_t resumes_notified() const { return resumes_notified_; }
  std::uint64_t resume_revocations() const { return resume_revocations_; }

 private:
  static std::uint64_t seen_key(std::uint64_t sid, std::uint32_t period, Reporter side);
  /// Create the session on first sight and add `e.id_t` as a party that
  /// joined at `joined_ns`.
  SessionInfo& join(const SettlementEntry& e, std::int64_t joined_ns);

  ReputationSystem reputation_;
  bool skip_report_dedup_ = false;
  std::unordered_map<std::uint64_t, SessionInfo> sessions_;
  std::map<PendingKey, PendingReport> pending_;
  std::map<PairKey, VerdictSig> decided_;
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen_reports_;  // (sid, period<<1|side)

  std::uint64_t sessions_issued_ = 0;
  std::uint64_t reports_folded_ = 0;
  std::uint64_t reports_refolded_ = 0;
  std::uint64_t verdicts_paired_ = 0;
  std::uint64_t verdicts_missing_ = 0;
  std::uint64_t verdicts_deduped_ = 0;
  std::uint64_t verdict_conflicts_ = 0;
  std::uint64_t resumes_notified_ = 0;
  std::uint64_t resume_revocations_ = 0;
};

}  // namespace cb::cellbricks
