// Chaos experiment: a CellBricks world driven through a scripted fault
// schedule (broker outages, bTelco crashes, radio drops, WAN degradation)
// while a mobile UE keeps attaching, moving, and reporting.
//
// Measures what the recovery machinery buys: attach availability over the
// run and after the faults clear, the outage-to-recovered latency
// distribution, how many orphaned sessions the inactivity GC reclaims, and
// how much of the billing-report pairing survives. A FNV fingerprint over
// the sampled timeline doubles as the determinism witness — two runs of
// the same config on the same seed must produce identical fingerprints.
#pragma once

#include "scenario/world.hpp"
#include "sim/fault.hpp"

namespace cb::scenario {

struct ChaosConfig {
  WorldConfig world;  // arch is forced to CellBricks
  /// Simulated run length and availability sampling cadence.
  Duration duration = Duration::s(300);
  Duration sample_interval = Duration::millis(200);

  /// Broker (cloud host) dark for [start, start + duration).
  struct BrokerOutage {
    TimePoint start;
    Duration duration;
  };
  /// bTelco `telco` crashes at `start`, restarts `duration` later with
  /// empty state (sessions are lost; UEs must re-attach).
  struct TelcoCrash {
    std::size_t telco = 0;
    TimePoint start;
    Duration duration;
  };
  /// One-shot RF fade: the serving bearer drops at `at` (no heal — the UE
  /// must notice via its watchdog and recover on another cell).
  struct RadioDrop {
    TimePoint at;
  };
  /// Loss/corruption on every tower<->cloud control path for the window.
  struct WanDegrade {
    TimePoint start;
    Duration duration;
    double loss = 0.0;
    double corrupt = 0.0;
  };
  /// Broker shard `shard` crashes at `start` (log, fold, and in-flight
  /// commits wiped) and restarts `duration` later in recovering state.
  /// Requires world.broker_shards > 1; ignored on one-shard worlds, where
  /// no replica survives to recover from.
  struct ShardKill {
    std::size_t shard = 0;
    TimePoint start;
    Duration duration;
  };

  std::vector<BrokerOutage> broker_outages;
  std::vector<TelcoCrash> telco_crashes;
  std::vector<RadioDrop> radio_drops;
  std::vector<WanDegrade> wan_degrades;
  std::vector<ShardKill> shard_kills;
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

ChaosResult run_chaos(const ChaosConfig& config);

}  // namespace cb::scenario
