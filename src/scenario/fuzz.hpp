// Randomized scenario generation for the simulation checker (src/check).
//
// A FuzzScenario is PURE DATA: a flat, seed-derived description of one
// CellBricks world — topology, UE trajectory, rate policy, app mix,
// dishonesty knobs, and a scripted fault schedule. The check layer turns it
// into a live run (check::run_scenario), shrinks it when an invariant trips,
// and round-trips it through JSON as a self-contained repro. Keeping the
// type here (not in src/check) lets the scenario library stay free of any
// checker dependency while the checker reuses World/FaultPlan wiring.
//
// Generation is deterministic: random_scenario(seed) consumes one Rng stream
// and nothing else, so the same seed yields the same scenario on every
// platform — the seed IS the corpus entry.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "ran/ue_radio.hpp"
#include "scenario/world.hpp"

namespace cb::scenario {

/// One scripted fault event (a flat union so fault lists shrink uniformly).
/// The one fault type: chaos runs (scenario::ChaosConfig), fuzz scenarios
/// and repro files all hold lists of it, bound by scenario::bind_faults.
struct FuzzFault {
  enum class Kind : int {
    BrokerOutage = 0,  // cloud host dark for [start, start+duration)
    TelcoCrash = 1,    // bTelco `telco` crashes (sessions lost), restarts
                       // after `duration`
    RadioDrop = 2,     // serving bearer cut at `start` (no heal: the UE's
                       // watchdog must notice and recover on another cell)
    WanDegrade = 3,    // loss/corruption on every tower<->cloud path
    ShardKill = 4,     // broker shard crash+restart (broker_shards > 1 only;
                       // the `telco` field doubles as the shard index)
  };
  Kind kind = Kind::BrokerOutage;
  double start_s = 0.0;
  double duration_s = 0.0;  // ignored for RadioDrop
  std::size_t telco = 0;    // TelcoCrash: bTelco index; ShardKill: shard index
  double loss = 0.0;        // WanDegrade only
  double corrupt = 0.0;     // WanDegrade only
};

struct FuzzScenario {
  std::uint64_t seed = 1;   // world seed (also the generator seed)
  int n_towers = 4;         // 1..8 bTelcos in the extreme design point
  bool night = false;       // selects the Appendix-A rate policy
  double speed_mps = 12.0;  // UE trajectory
  double tower_spacing_m = 900.0;
  double duration_s = 120.0;  // simulated horizon
  double radio_loss = 0.0;
  bool unlimited_policy = false;
  double report_interval_s = 10.0;
  double telco0_overreport = 1.0;  // §4.3 dishonesty knobs
  double ue_underreport = 1.0;
  /// App mix: 0 = mobility only, 1 = bulk download, 2 = ping, 3 = both.
  int app = 1;
  /// Hybrid fluid/packet traffic phase (DESIGN.md §11): when > 0 the checker
  /// also runs a scale-traffic sim of this many UEs under the fluid
  /// invariant catalogue (fluid.conservation et al.). 0 = phase off.
  int fluid_ues = 0;
  /// Traffic phase mode: fluid-only, or hybrid with a mid-run fault window
  /// that exercises the fluid -> packet -> fluid fidelity boundary.
  bool fluid_hybrid = false;
  /// Broker deployment: 1 = one shard (default), 2/4/8 = a sharded
  /// BrokerCluster with the replicated settlement log (DESIGN.md §12) —
  /// sampled occasionally so the settlement invariants see chaos too.
  int broker_shards = 1;
  /// Attach-protocol axis: never Default. EPS-AKA and 5G-AKA select the
  /// EPC world. Sampled occasionally so the attach conformance invariants
  /// run under the same chaos schedules as the billing ones.
  AttachProtocol protocol = AttachProtocol::Sap;
  /// Measurement-channel axis (ran::ChannelConfig): log-normal shadowing
  /// sigma (0 = the pure-path-loss engine), its spatial decorrelation
  /// distance, and per-tick fast fading.
  double shadow_sigma_db = 0.0;
  double decorrelation_m = 50.0;
  bool fast_fading = false;
  /// Reselection-policy axis, with its TTT and L3-filter knobs.
  ran::ReselectionPolicyKind reselection_policy = ran::ReselectionPolicyKind::A3Hysteresis;
  int ttt_ms = 0;       // A3TimeToTrigger only
  int l3_filter_k = 0;  // 3GPP L3 filter k; 0 = no smoothing
  std::vector<FuzzFault> faults;
  /// TEST HOOK passthrough: re-introduce the broker's report double-count
  /// bug (BrokerConfig::test_skip_report_dedup) so the checker's
  /// detect/shrink/replay path can be exercised end to end.
  bool plant_dedup_bug = false;
};

/// Sample a scenario from `seed`. Deterministic; consumes only Rng(seed).
FuzzScenario random_scenario(std::uint64_t seed);

}  // namespace cb::scenario
