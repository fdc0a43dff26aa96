// Execute one FuzzScenario under the full invariant catalogue.
//
// run_scenario builds a world from the scenario description, binds its
// fault list with scenario::bind_faults (the binder run_chaos uses, so a
// fault means the same thing to both), installs the engine probe +
// invariant catalogue, drives the horizon, and returns every violation plus
// enough end-state counters to fingerprint the run. It is the single entry
// point the fuzzer, the shrinker, and the replay path all share — a shrunk
// repro re-runs through exactly the code that failed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/invariant.hpp"
#include "scenario/fuzz.hpp"

namespace cb::check {

struct RunReport {
  std::vector<Violation> violations;
  std::uint64_t checks_run = 0;
  /// End-state counters (determinism witness: same scenario, same values).
  std::uint64_t events_executed = 0;
  std::uint64_t sessions_issued = 0;
  std::uint64_t reports_ingested = 0;
  std::uint64_t pairs_compared = 0;
  std::uint64_t fault_log_entries = 0;
  bool ue_attached_at_end = false;
  // Traffic phase counters (zero when the scenario's fluid_ues is 0).
  std::uint64_t traffic_completed = 0;
  std::uint64_t traffic_rate_events = 0;
  std::uint64_t traffic_demotions = 0;
  std::uint64_t traffic_fingerprint = 0;

  bool ok() const { return violations.empty(); }
  /// FNV-1a over the counters above — cheap cross-run comparison handle.
  std::uint64_t fingerprint() const;
};

struct RunOptions {
  /// Sim-time cadence of the periodic invariant sweep.
  Duration check_cadence = Duration::s(1);
};

RunReport run_scenario(const scenario::FuzzScenario& scenario, const RunOptions& options = {});

}  // namespace cb::check
