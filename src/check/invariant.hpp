// Cross-layer invariant engine (FoundationDB-style simulation checking).
//
// An InvariantEngine holds a set of named checkers — predicates over live
// simulation state supplied by the embedding layer (world_invariants binds
// the standard catalogue to a scenario::World). Once armed on a Simulator it
// re-evaluates every periodic checker at a fixed sim-time cadence, and
// finalize() runs the full set once more at end-of-run. Violations are
// collected, not thrown, so a single run reports everything it broke.
//
// Determinism contract (the same one the obs layer obeys): checkers READ
// state and never mutate it, never draw from the simulator's RNG, and never
// schedule events of their own. The engine's cadence events are scheduled
// before the run starts, so the relative order of all application events —
// and therefore the chaos golden fingerprints — is unchanged whether an
// engine is armed or not. With no engine armed there is no cost at all.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace cb::check {

/// One detected invariant breach.
struct Violation {
  std::string invariant;  // checker name, e.g. "billing.dedup"
  TimePoint at;           // sim time of the check that caught it
  std::string detail;     // human-readable evidence
};

class InvariantEngine {
 public:
  /// When a checker runs: on every cadence tick and at finalize(), or only
  /// at finalize() (for properties that are allowed to be transiently false
  /// mid-run, e.g. totals that settle after final reports flush).
  enum class When { Periodic, EndOnly };

  /// Collector handed to checkers; fail() records a violation against the
  /// running checker's name at the current check instant.
  class Reporter {
   public:
    void fail(std::string detail);

   private:
    friend class InvariantEngine;
    Reporter(InvariantEngine& engine, const std::string& name, TimePoint at)
        : engine_(engine), name_(name), at_(at) {}
    InvariantEngine& engine_;
    const std::string& name_;
    TimePoint at_;
  };

  using CheckFn = std::function<void(Reporter&)>;

  /// Register a checker. Names should be dotted `layer.property` slugs; they
  /// key violation dedup (a persistently-broken invariant is recorded once
  /// per check instant, capped — see kMaxViolations).
  void add(std::string name, When when, CheckFn fn);

  /// Schedule periodic evaluation on `sim` every `cadence` up to `until`.
  /// Call once, before running the simulation.
  void arm(sim::Simulator& sim, Duration cadence, TimePoint until);

  /// Evaluate all periodic checkers now (arm() does this on a timer).
  void run_periodic(TimePoint now);

  /// End-of-run sweep: every checker, periodic and end-only, runs once.
  void finalize(TimePoint now);

  bool ok() const { return violations_.empty(); }
  const std::vector<Violation>& violations() const { return violations_; }
  std::uint64_t checks_run() const { return checks_run_; }

  /// "name@t: detail" lines, one per violation (repro reports, CI logs).
  std::string summary() const;

  /// Recording stops after this many violations: a broken invariant checked
  /// at 1 s cadence over a long horizon should not OOM the report.
  static constexpr std::size_t kMaxViolations = 100;

 private:
  struct Checker {
    std::string name;
    When when;
    CheckFn fn;
  };

  void record(const std::string& name, TimePoint at, std::string detail);

  std::vector<Checker> checkers_;
  std::vector<Violation> violations_;
  std::uint64_t checks_run_ = 0;
  std::vector<sim::EventHandle> ticks_;
};

}  // namespace cb::check
