// Self-contained repro files for fuzzer-found invariant violations.
//
// A repro document carries the (shrunk) FuzzScenario, the violated
// invariant with its evidence string, and the exact CLI line that replays
// it — everything a developer needs to reproduce the failure with zero
// extra context. scenario_from_json accepts both a full repro document and
// a bare scenario object, so hand-edited scenarios replay too.
#pragma once

#include <string>
#include <vector>

#include "check/json.hpp"
#include "check/shrink.hpp"
#include "scenario/fuzz.hpp"

namespace cb::check {

JsonValue scenario_to_json(const scenario::FuzzScenario& s);
scenario::FuzzScenario scenario_from_json(const JsonValue& v);

/// The fault-list codec: a JSON array with one object per fault, in list
/// order. A scenario's `faults` member and bench_chaos_availability's
/// `--dump-faults` / `--replay` files both use it.
JsonValue faults_to_json(const std::vector<scenario::FuzzFault>& faults);
std::vector<scenario::FuzzFault> faults_from_json(const JsonValue& v);

/// Full repro document (pretty-printed JSON) for a shrunk failure.
/// `replay_path` is the file name the caller will write it to (embedded in
/// the replay command line).
std::string write_repro(const ShrinkResult& result, const RunOptions& run_options,
                        const std::string& replay_path);

/// The sweep cadence of `seconds` (--cadence-s or check_cadence_s). arm()
/// schedules every tick up front, so this throws std::runtime_error below
/// report_interval_s's 1 ms floor, or for a non-finite value.
Duration check_cadence(double seconds);

/// A repro's scenario and the options it was found under (the document's
/// check_cadence_s; RunOptions' 1 s for a bare scenario).
struct Repro {
  scenario::FuzzScenario scenario;
  RunOptions run;
};

/// Parse a repro document or bare scenario from JSON text.
Repro load_repro(const std::string& text);

/// The exact command that replays a repro file.
std::string replay_command(const std::string& path);

}  // namespace cb::check
