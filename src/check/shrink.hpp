// Deterministic scenario shrinking (delta debugging over FuzzScenario).
//
// Given a failing scenario, shrink() greedily searches for a smaller one
// that still violates the SAME invariant (the first one the original run
// tripped — anchoring on the invariant name keeps the search from wandering
// onto a different bug). Passes, applied to a fixpoint in a fixed order:
//
//   1. fault-list reduction — ddmin-style: try deleting contiguous chunks,
//      halving the chunk size down to single faults;
//   2. tower reduction — halve n_towers toward 1 (fault telco indices are
//      clamped into the surviving range);
//   3. horizon shortening — halve duration_s, and try trimming to just past
//      the last remaining fault;
//   4. knob canonicalization — one candidate per applicable entry of a
//      13-entry tweak table: app mix off, radio loss off, honest bTelco,
//      honest UE, default rate policy, fluid phase off, fluid phase not
//      hybrid, resumption off, quiet channel, A3 policy, L3 filter off,
//      EPS-AKA, and a single broker shard (dropping the shard kills).
//
// Every candidate is re-executed with run_scenario under the same seed and
// cadence, so acceptance is exact, and the whole search is deterministic:
// same input scenario -> same minimal repro, every time.
#pragma once

#include <cstddef>
#include <string>

#include "check/runner.hpp"
#include "scenario/fuzz.hpp"

namespace cb::check {

struct ShrinkResult {
  scenario::FuzzScenario minimal;
  /// The violation the minimal scenario still produces.
  Violation witness;
  /// Invariant name the search was anchored on.
  std::string anchor;
  std::size_t candidates_tried = 0;
  std::size_t candidates_accepted = 0;
};

struct ShrinkOptions {
  /// Upper bound on candidate re-executions (each is a full sim run).
  std::size_t max_runs = 200;
  RunOptions run = {};
};

/// `failing` must violate at least one invariant under `options.run` (the
/// caller just observed it do so); throws std::invalid_argument otherwise.
ShrinkResult shrink(const scenario::FuzzScenario& failing, const ShrinkOptions& options = {});

}  // namespace cb::check
