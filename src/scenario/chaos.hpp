// Chaos experiment: a CellBricks world driven through a scripted fault
// schedule (broker outages, bTelco crashes, radio drops, WAN degradation,
// broker shard kills) while a mobile UE keeps attaching, moving, and
// reporting. The schedule is a FuzzFault list, the same data the fuzzer
// samples and repro files carry, bound to the world by bind_faults.
//
// Measures what the recovery machinery buys: attach availability over the
// run and after the faults clear, the outage-to-recovered latency
// distribution, how many orphaned sessions the inactivity GC reclaims, and
// how much of the billing-report pairing survives. A FNV fingerprint over
// the sampled timeline doubles as the determinism witness — two runs of
// the same config on the same seed must produce identical fingerprints.
#pragma once

#include <vector>

#include "scenario/fuzz.hpp"
#include "scenario/world.hpp"
#include "sim/fault.hpp"

namespace cb::scenario {

struct ChaosConfig {
  WorldConfig world;  // Default runs sap; an EPC protocol throws invalid_argument
  /// Simulated run length.
  Duration duration = Duration::s(300);
  /// Bound in list order, which is FaultPlan spec order: it breaks ties
  /// between fault events due at the same instant.
  std::vector<FuzzFault> faults;
};

struct ChaosResult {
  /// Fraction of samples with the UE attached (whole run / after the last
  /// fault event).
  double availability = 0.0;
  double availability_after_faults = 0.0;
  /// Outage-start to re-attached, per successful recovery (ms).
  Summary reattach_latency_ms;
  std::uint64_t attach_failures = 0;
  std::uint64_t bearer_losses = 0;
  /// Orphaned sessions reclaimed by the bTelco inactivity GC.
  std::uint64_t sessions_gced = 0;
  /// Sessions still held at bTelcos at the end, excluding the UE's live one
  /// (recovery target: 0 — every orphan was GC'd).
  std::size_t orphan_sessions = 0;
  bool ue_attached_at_end = false;

  // Billing-path health.
  std::uint64_t reports_ingested = 0;
  std::uint64_t reports_deduped = 0;
  std::uint64_t unpaired_expired = 0;
  std::uint64_t reports_abandoned = 0;  // UE + all bTelcos
  std::uint64_t pairs_compared = 0;
  /// 2*pairs / ingested reports: 1.0 when every report found its twin.
  double pair_completion = 0.0;

  std::vector<sim::ChaosController::LogEntry> fault_log;
  /// FNV-1a over the sampled (attached, serving cell, active faults)
  /// timeline and the final counters. Equal across same-seed runs.
  std::uint64_t fingerprint = 0;

  /// Deterministic obs snapshot of the run: the full registry JSON and the
  /// flight-recorder fingerprint. Kept out of `fingerprint` so the engine
  /// golden value stays stable as instrumentation evolves; the obs golden
  /// test compares these two separately.
  std::string metrics_json;
  std::uint64_t trace_fingerprint = 0;
};

/// Bind `faults` to a freshly built world, in list order (run_chaos and
/// check::run_scenario both call it). bTelco and shard indices are clamped
/// into the world's range; a fault the world cannot host (a bTelco crash in
/// an MNO world, a shard kill below two shards) binds to nothing.
sim::FaultPlan bind_faults(const std::vector<FuzzFault>& faults, World& world);

ChaosResult run_chaos(const ChaosConfig& config);

}  // namespace cb::scenario
