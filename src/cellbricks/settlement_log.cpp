#include "cellbricks/settlement_log.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "common/fnv.hpp"

namespace cb::cellbricks {

// --- Routing ----------------------------------------------------------------

std::uint16_t bucket_of_subscriber(const std::string& id_u) {
  std::uint64_t h = kFnvOffset;
  for (char c : id_u) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return static_cast<std::uint16_t>(h & (kRouteBuckets - 1));
}

std::uint64_t bucketed_session_id(std::uint64_t raw, std::uint16_t bucket) {
  return (static_cast<std::uint64_t>(bucket) << 48) | (raw & 0x0000FFFFFFFFFFFFULL);
}

std::uint16_t session_bucket(std::uint64_t session_id) {
  return static_cast<std::uint16_t>(session_id >> 48);
}

std::size_t hrw_owner(std::uint16_t bucket, const std::vector<std::size_t>& candidates) {
  if (candidates.empty()) throw std::logic_error("hrw_owner: no candidates");
  std::size_t best = candidates.front();
  std::uint64_t best_w = 0;
  bool first = true;
  for (std::size_t c : candidates) {
    // Mix (bucket, shard) through a splitmix-style finalizer; ties broken by
    // the lower shard index for determinism.
    std::uint64_t x = (static_cast<std::uint64_t>(bucket) << 32) ^ (c + 0x9E3779B97F4A7C15ULL);
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    if (first || x > best_w || (x == best_w && c < best)) {
      best = c;
      best_w = x;
      first = false;
    }
  }
  return best;
}

// --- SettlementEntry wire format --------------------------------------------

Bytes SettlementEntry::serialize() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(session_id);
  w.u32(period);
  w.u8(static_cast<std::uint8_t>(reporter));
  w.str(id_u);
  w.str(id_t);
  w.u64(static_cast<std::uint64_t>(time_ns));
  w.bytes(report.serialize());
  w.u8(mismatch ? 1 : 0);
  w.u64(std::bit_cast<std::uint64_t>(degree));
  w.u64(std::bit_cast<std::uint64_t>(threshold));
  w.u64(static_cast<std::uint64_t>(delta));
  w.u64(ue_dl_bytes);
  w.u64(telco_dl_bytes);
  w.u8(revoke ? 1 : 0);
  return w.take();
}

Result<SettlementEntry> SettlementEntry::deserialize(BytesView data) {
  try {
    ByteReader r(data);
    SettlementEntry e;
    e.kind = static_cast<Kind>(r.u8());
    if (e.kind < Kind::SessionIssued || e.kind > Kind::ResumeNotified) {
      return Result<SettlementEntry>::err("settlement entry: bad kind");
    }
    e.session_id = r.u64();
    e.period = r.u32();
    e.reporter = static_cast<Reporter>(r.u8());
    e.id_u = r.str();
    e.id_t = r.str();
    e.time_ns = static_cast<std::int64_t>(r.u64());
    Bytes report_bytes = r.bytes();
    if (!report_bytes.empty()) {
      auto rep = TrafficReport::deserialize(report_bytes);
      if (!rep.ok()) return Result<SettlementEntry>::err("settlement entry: " + rep.error());
      e.report = rep.value();
    }
    e.mismatch = r.u8() != 0;
    e.degree = std::bit_cast<double>(r.u64());
    e.threshold = std::bit_cast<double>(r.u64());
    e.delta = static_cast<std::int64_t>(r.u64());
    e.ue_dl_bytes = r.u64();
    e.telco_dl_bytes = r.u64();
    e.revoke = r.u8() != 0;
    if (!r.done()) return Result<SettlementEntry>::err("settlement entry: trailing bytes");
    return e;
  } catch (const std::out_of_range&) {
    return Result<SettlementEntry>::err("settlement entry: truncated");
  }
}

// --- SettlementLog ----------------------------------------------------------

void SettlementLog::ensure_streams(std::size_t n) {
  if (streams_.size() < n) streams_.resize(n);
}

std::uint64_t SettlementLog::append(std::size_t stream, SettlementEntry entry,
                                    const ApplyFn& apply) {
  ensure_streams(stream + 1);
  std::uint64_t index = streams_[stream].entries.size();
  apply_one(stream, std::move(entry), apply);
  return index;
}

void SettlementLog::store(std::size_t stream, std::uint64_t index, SettlementEntry entry,
                          const ApplyFn& apply) {
  ensure_streams(stream + 1);
  Stream& s = streams_[stream];
  if (index < s.entries.size()) return;  // already applied (retransmit)
  if (index == s.entries.size()) {
    apply_one(stream, std::move(entry), apply);
    drain_gap(stream, apply);
  } else {
    s.gap.emplace(index, std::move(entry));  // no-op if already buffered
  }
}

void SettlementLog::apply_one(std::size_t stream, SettlementEntry entry, const ApplyFn& apply) {
  Stream& s = streams_[stream];
  std::uint64_t prev = s.cum_hash.empty() ? kFnvOffset : s.cum_hash.back();
  std::uint64_t h = fnv1a(entry.serialize(), prev);
  std::uint64_t index = s.entries.size();
  s.entries.push_back(std::move(entry));
  s.cum_hash.push_back(h);
  if (apply) apply(stream, index, s.entries.back());
}

void SettlementLog::drain_gap(std::size_t stream, const ApplyFn& apply) {
  Stream& s = streams_[stream];
  while (!s.gap.empty() && s.gap.begin()->first == s.entries.size()) {
    SettlementEntry e = std::move(s.gap.begin()->second);
    s.gap.erase(s.gap.begin());
    apply_one(stream, std::move(e), apply);
  }
}

std::uint64_t SettlementLog::applied_len(std::size_t stream) const {
  return stream < streams_.size() ? streams_[stream].entries.size() : 0;
}

std::uint64_t SettlementLog::chain_hash_at(std::size_t stream, std::uint64_t len) const {
  if (len == 0) return kFnvOffset;
  if (stream >= streams_.size() || len > streams_[stream].cum_hash.size()) {
    throw std::out_of_range("SettlementLog::chain_hash_at past applied prefix");
  }
  return streams_[stream].cum_hash[len - 1];
}

const SettlementEntry& SettlementLog::entry(std::size_t stream, std::uint64_t index) const {
  return streams_.at(stream).entries.at(index);
}

std::uint64_t SettlementLog::total_applied() const {
  std::uint64_t n = 0;
  for (const Stream& s : streams_) n += s.entries.size();
  return n;
}

std::size_t SettlementLog::gap_buffered() const {
  std::size_t n = 0;
  for (const Stream& s : streams_) n += s.gap.size();
  return n;
}

// --- SettlementState fold ---------------------------------------------------

namespace {
// Join time of a party learned only from a report (folded before the entry
// that named it a party): below every logged time, so it never displaces
// the serving bTelco.
constexpr std::int64_t kJoinedByReport = -1;
}  // namespace

const std::string& SettlementState::SessionInfo::id_t() const {
  // join() gives every session at least one party.
  return std::max_element(telcos.begin(), telcos.end(), [](const auto& a, const auto& b) {
           return std::tie(a.second, a.first) < std::tie(b.second, b.first);
         })->first;
}

std::uint64_t SettlementState::seen_key(std::uint64_t sid, std::uint32_t period, Reporter side) {
  (void)sid;
  return (static_cast<std::uint64_t>(period) << 1) | static_cast<std::uint64_t>(side);
}

SettlementState::SessionInfo& SettlementState::join(const SettlementEntry& e,
                                                    std::int64_t joined_ns) {
  auto [it, inserted] = sessions_.try_emplace(e.session_id);
  if (inserted) {  // entries of other streams may precede the SessionIssued
    it->second.id_u = e.id_u;
    ++sessions_issued_;
  }
  auto [party, added] = it->second.telcos.try_emplace(e.id_t, joined_ns);
  if (!added) party->second = std::max(party->second, joined_ns);
  return it->second;
}

void SettlementState::apply(const SettlementEntry& e) {
  switch (e.kind) {
    case SettlementEntry::Kind::SessionIssued:
      join(e, e.time_ns);
      break;
    case SettlementEntry::Kind::ResumeNotified:
      ++resumes_notified_;
      if (e.revoke) ++resume_revocations_;
      if (!e.id_u.empty()) join(e, e.time_ns);
      break;
    case SettlementEntry::Kind::ReportIngested: {
      // Idempotent across streams: during a failover window the old owner's
      // log and the takeover shard's log can both carry the same report.
      auto key = std::make_pair(e.session_id, seen_key(e.session_id, e.period, e.reporter));
      const bool fresh = seen_reports_.insert(key).second;
      if (!fresh && !skip_report_dedup_) {
        ++reports_refolded_;
        break;
      }
      ++reports_folded_;
      SessionInfo& session = join(e, kJoinedByReport);
      if (fresh) ++session.reports;
      ++session.accumulations;
      if (e.reporter == Reporter::Ue) {
        session.ue_dl_bytes += e.report.dl_bytes;
      } else {
        session.telco_dl_bytes += e.report.dl_bytes;
      }
      if (!pair_decided(e.session_id, e.period)) {
        pending_[{e.session_id, e.period, static_cast<int>(e.reporter)}] =
            PendingReport{e.report, e.id_u, e.id_t, TimePoint::from_nanos(e.time_ns)};
      }
      break;
    }
    case SettlementEntry::Kind::VerdictPaired:
    case SettlementEntry::Kind::VerdictMissing: {
      VerdictSig sig{e.kind, e.mismatch, e.delta, e.reporter};
      auto [it, inserted] = decided_.try_emplace(PairKey{e.session_id, e.period}, sig);
      if (!inserted) {
        // First verdict wins; a replay must agree bit-for-bit or it is a
        // protocol violation surfaced through verdict_conflicts().
        if (it->second == sig) {
          ++verdicts_deduped_;
        } else {
          ++verdict_conflicts_;
        }
        break;
      }
      auto* session = [&]() -> SessionInfo* {
        auto sit = sessions_.find(e.session_id);
        return sit == sessions_.end() ? nullptr : &sit->second;
      }();
      if (e.kind == SettlementEntry::Kind::VerdictPaired) {
        ++verdicts_paired_;
        PairVerdict v{e.mismatch, e.degree, e.threshold, e.delta};
        reputation_.record(e.id_u, e.id_t, v);
        if (session) {
          ++session->pairs_compared;
          if (e.mismatch) ++session->mismatches;
          session->ue_paired_bytes += e.ue_dl_bytes;
          session->telco_paired_bytes += e.telco_dl_bytes;
          session->paired_threshold += e.threshold;
        }
      } else {
        ++verdicts_missing_;
        reputation_.record_missing(e.id_u, e.id_t, e.reporter);
      }
      pending_.erase({e.session_id, e.period, static_cast<int>(Reporter::Ue)});
      pending_.erase({e.session_id, e.period, static_cast<int>(Reporter::Telco)});
      break;
    }
  }
}

}  // namespace cb::cellbricks
