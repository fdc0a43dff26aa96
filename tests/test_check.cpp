// Tests for the simulation checker (src/check): InvariantEngine mechanics,
// the repro JSON layer, chaos replay of its fault lists, generator determinism, run_scenario
// fingerprint stability, and the full detect -> shrink -> replay loop on a
// planted broker bug (the ISSUE acceptance path in miniature).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>

#include "check/invariant.hpp"
#include "check/json.hpp"
#include "check/repro.hpp"
#include "check/runner.hpp"
#include "check/shrink.hpp"
#include "obs/metrics.hpp"
#include "scenario/chaos.hpp"
#include "scenario/fuzz.hpp"
#include "test_seed.hpp"

namespace cb::check {
namespace {

// ---------------------------------------------------------------------------
// InvariantEngine mechanics
// ---------------------------------------------------------------------------

TEST(InvariantEngine, PeriodicCadencePlusFinalSweep) {
  sim::Simulator sim;
  InvariantEngine eng;
  int periodic = 0;
  int end_only = 0;
  eng.add("t.periodic", InvariantEngine::When::Periodic,
          [&](InvariantEngine::Reporter&) { ++periodic; });
  eng.add("t.end", InvariantEngine::When::EndOnly,
          [&](InvariantEngine::Reporter&) { ++end_only; });
  const TimePoint horizon = sim.now() + Duration::s(5);
  eng.arm(sim, Duration::s(1), horizon);
  sim.run_until(horizon);
  // Nothing but the engine's own ticks ran: 5 periodic sweeps, no end-only.
  EXPECT_EQ(periodic, 5);
  EXPECT_EQ(end_only, 0);
  eng.finalize(sim.now());
  // finalize() runs EVERY checker once more, periodic included.
  EXPECT_EQ(periodic, 6);
  EXPECT_EQ(end_only, 1);
  EXPECT_EQ(eng.checks_run(), 7u);
  EXPECT_TRUE(eng.ok());
}

TEST(InvariantEngine, ViolationsCarryNameTimeDetailAndAreCapped) {
  sim::Simulator sim;
  InvariantEngine eng;
  eng.add("always.bad", InvariantEngine::When::Periodic,
          [](InvariantEngine::Reporter& r) { r.fail("broken"); });
  const TimePoint horizon = sim.now() + Duration::s(300);
  eng.arm(sim, Duration::s(1), horizon);
  sim.run_until(horizon);
  eng.finalize(sim.now());
  // 301 failing sweeps, but recording stops at the cap.
  ASSERT_EQ(eng.violations().size(), InvariantEngine::kMaxViolations);
  const Violation& first = eng.violations().front();
  EXPECT_EQ(first.invariant, "always.bad");
  EXPECT_EQ(first.at, TimePoint() + Duration::s(1));
  EXPECT_EQ(first.detail, "broken");
  EXPECT_FALSE(eng.ok());
  EXPECT_NE(eng.summary().find("always.bad"), std::string::npos);
}

// ---------------------------------------------------------------------------
// JSON layer
// ---------------------------------------------------------------------------

TEST(Json, ParseDumpRoundTripIsStable) {
  const JsonValue v = json_parse(
      R"({"b": 1, "a": [true, null, "x\n", 2.5], "c": {"k": -3}})");
  EXPECT_EQ(v.at("b").as_int(), 1);
  EXPECT_TRUE(v.at("a").as_array()[0].as_bool());
  EXPECT_TRUE(v.at("a").as_array()[1].is_null());
  EXPECT_EQ(v.at("a").as_array()[2].as_string(), "x\n");
  EXPECT_DOUBLE_EQ(v.at("a").as_array()[3].as_double(), 2.5);
  EXPECT_EQ(v.at("c").at("k").as_int(), -3);
  // dump() is a fixpoint (std::map keys -> byte-deterministic output).
  const std::string once = v.dump();
  EXPECT_EQ(json_parse(once).dump(), once);
  // Keys serialize sorted regardless of input order.
  EXPECT_LT(once.find("\"a\""), once.find("\"b\""));
  EXPECT_LT(once.find("\"b\""), once.find("\"c\""));
  // Integral doubles print without a fractional part.
  EXPECT_EQ(JsonValue(2.0).dump(), "2");
}

TEST(Json, MalformedInputThrows) {
  EXPECT_THROW(json_parse("{"), std::runtime_error);
  EXPECT_THROW(json_parse("[1,]"), std::runtime_error);
  EXPECT_THROW(json_parse("1 garbage"), std::runtime_error);
  EXPECT_THROW(json_parse(""), std::runtime_error);
  EXPECT_THROW(JsonValue(true).at("k"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Scenario generation + repro round-trip
// ---------------------------------------------------------------------------

// Zero the fields a fault's kind ignores (RadioDrop has no duration, only
// TelcoCrash and ShardKill carry an index, ...): the serializer omits them,
// so the round trip is canonical-form-lossless, not raw-field-lossless.
scenario::FuzzFault canonical(scenario::FuzzFault f) {
  using Kind = scenario::FuzzFault::Kind;
  if (f.kind == Kind::RadioDrop) f.duration_s = 0.0;
  if (f.kind != Kind::TelcoCrash && f.kind != Kind::ShardKill) f.telco = 0;
  if (f.kind != Kind::WanDegrade) {
    f.loss = 0.0;
    f.corrupt = 0.0;
  }
  return f;
}

void expect_same_scenario(const scenario::FuzzScenario& a, const scenario::FuzzScenario& b) {
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.n_towers, b.n_towers);
  EXPECT_EQ(a.night, b.night);
  EXPECT_DOUBLE_EQ(a.speed_mps, b.speed_mps);
  EXPECT_DOUBLE_EQ(a.tower_spacing_m, b.tower_spacing_m);
  EXPECT_DOUBLE_EQ(a.duration_s, b.duration_s);
  EXPECT_DOUBLE_EQ(a.radio_loss, b.radio_loss);
  EXPECT_EQ(a.unlimited_policy, b.unlimited_policy);
  EXPECT_DOUBLE_EQ(a.report_interval_s, b.report_interval_s);
  EXPECT_DOUBLE_EQ(a.telco0_overreport, b.telco0_overreport);
  EXPECT_DOUBLE_EQ(a.ue_underreport, b.ue_underreport);
  EXPECT_EQ(a.app, b.app);
  EXPECT_EQ(a.fluid_ues, b.fluid_ues);
  EXPECT_EQ(a.fluid_hybrid, b.fluid_hybrid);
  EXPECT_EQ(a.broker_shards, b.broker_shards);
  EXPECT_EQ(a.attach_protocol, b.attach_protocol);
  EXPECT_EQ(a.resume_ticket, b.resume_ticket);
  EXPECT_DOUBLE_EQ(a.shadow_sigma_db, b.shadow_sigma_db);
  EXPECT_DOUBLE_EQ(a.decorrelation_m, b.decorrelation_m);
  EXPECT_EQ(a.fast_fading, b.fast_fading);
  EXPECT_EQ(a.reselection_policy, b.reselection_policy);
  EXPECT_EQ(a.ttt_ms, b.ttt_ms);
  EXPECT_EQ(a.l3_filter_k, b.l3_filter_k);
  EXPECT_EQ(a.plant_dedup_bug, b.plant_dedup_bug);
  ASSERT_EQ(a.faults.size(), b.faults.size());
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    const scenario::FuzzFault fa = canonical(a.faults[i]);
    const scenario::FuzzFault fb = canonical(b.faults[i]);
    EXPECT_EQ(fa.kind, fb.kind);
    EXPECT_DOUBLE_EQ(fa.start_s, fb.start_s);
    EXPECT_DOUBLE_EQ(fa.duration_s, fb.duration_s);
    EXPECT_EQ(fa.telco, fb.telco);
    EXPECT_DOUBLE_EQ(fa.loss, fb.loss);
    EXPECT_DOUBLE_EQ(fa.corrupt, fb.corrupt);
  }
}

TEST(FuzzScenario, GeneratorIsDeterministicAndInRange) {
  const std::uint64_t base = cb::test::seed_or(7001);
  for (std::uint64_t seed = base; seed < base + 30; ++seed) {
    SCOPED_TRACE(::testing::Message() << "replay with CB_TEST_SEED=" << seed);
    const scenario::FuzzScenario a = scenario::random_scenario(seed);
    expect_same_scenario(a, scenario::random_scenario(seed));
    EXPECT_EQ(a.seed, seed);
    EXPECT_GE(a.n_towers, 1);
    EXPECT_LE(a.n_towers, 8);
    EXPECT_GE(a.tower_spacing_m, 400.0);
    EXPECT_LE(a.tower_spacing_m, 1500.0);
    EXPECT_GE(a.duration_s, 60.0);
    EXPECT_LE(a.duration_s, 240.0);
    EXPECT_LE(a.faults.size(), 5u);
    EXPECT_FALSE(a.plant_dedup_bug) << "bug plant is opt-in, never sampled";
    EXPECT_GE(a.shadow_sigma_db, 0.0);
    EXPECT_LE(a.shadow_sigma_db, 8.0);
    EXPECT_GE(a.decorrelation_m, 25.0);
    EXPECT_LE(a.decorrelation_m, 110.0);
    EXPECT_GE(a.reselection_policy, 0);
    EXPECT_LE(a.reselection_policy, 2);
    if (a.reselection_policy == 1) {
      EXPECT_GE(a.ttt_ms, 160);
      EXPECT_LE(a.ttt_ms, 640);
    } else {
      EXPECT_EQ(a.ttt_ms, 0);
    }
    EXPECT_TRUE(a.l3_filter_k == 0 || a.l3_filter_k == 4 || a.l3_filter_k == 8 ||
                a.l3_filter_k == 12);
    if (a.reselection_policy == 2 && a.shadow_sigma_db > 0.0) {
      EXPECT_GE(a.l3_filter_k, 4) << "rank + noise must keep at least the k=4 filter";
    }
    for (std::size_t i = 1; i < a.faults.size(); ++i) {
      EXPECT_LE(a.faults[i - 1].start_s, a.faults[i].start_s) << "fault list sorted";
    }
    for (const scenario::FuzzFault& f : a.faults) {
      EXPECT_GE(f.start_s, 0.0);
      EXPECT_LT(f.start_s, a.duration_s);
    }
  }
}

TEST(FuzzScenario, JsonRoundTripPreservesEveryField) {
  const std::uint64_t base = cb::test::seed_or(42);
  for (std::uint64_t seed = base; seed < base + 10; ++seed) {
    SCOPED_TRACE(::testing::Message() << "replay with CB_TEST_SEED=" << seed);
    scenario::FuzzScenario s = scenario::random_scenario(seed);
    s.plant_dedup_bug = (seed % 2) == 0;
    expect_same_scenario(s, scenario_from_json(json_parse(scenario_to_json(s).dump())));
    // load_repro accepts a bare scenario object, not just full documents.
    expect_same_scenario(s, load_repro(scenario_to_json(s).dump(2)));
  }
}

// An object holding only the six required keys decodes every other field to
// FuzzScenario's own default. The decoder once read a missing `app` as 0
// (mobility only) while FuzzScenario{} runs a bulk download. Encoding such a
// scenario writes none of the keys that are emitted only off-default.
TEST(FuzzScenario, BareObjectDecodesToScenarioDefaults) {
  scenario::FuzzScenario expected;
  expected.seed = 77;
  expected.n_towers = 3;
  expected.night = true;
  expected.speed_mps = 20.0;
  expected.tower_spacing_m = 600.0;
  expected.duration_s = 90.0;
  JsonObject bare;
  bare["seed"] = expected.seed;
  bare["n_towers"] = expected.n_towers;
  bare["night"] = expected.night;
  bare["speed_mps"] = expected.speed_mps;
  bare["tower_spacing_m"] = expected.tower_spacing_m;
  bare["duration_s"] = expected.duration_s;
  expect_same_scenario(expected, scenario_from_json(JsonValue(bare)));

  const JsonValue encoded = scenario_to_json(expected);
  std::set<std::string> keys;
  for (const auto& [key, value] : encoded.as_object()) keys.insert(key);
  const std::set<std::string> always = {
      "seed", "n_towers", "night", "speed_mps", "tower_spacing_m", "duration_s", "radio_loss",
      "unlimited_policy", "report_interval_s", "telco0_overreport", "ue_underreport", "app",
      "faults"};
  EXPECT_EQ(keys, always);
}

// A replayed scenario's report timers re-arm by report_interval_s: -1 used
// to abort the replay (a negative schedule delay), and 0 or 1e-12 hung it
// at the first report instant. The loader refuses them instead.
TEST(FuzzScenario, ReproRejectsValuesThatCannotRun) {
  // Each value below once aborted or hung `cbfuzz --replay`, or (a negative
  // window) injected a fault that never healed; decoding now rejects it, so
  // the replay exits 2 with the message. Non-finite values cannot be spelled
  // in JSON text, so those go straight to the decoder.
  const double inf = std::numeric_limits<double>::infinity();
  const JsonObject valid = scenario_to_json(scenario::random_scenario(1)).as_object();
  EXPECT_NO_THROW(load_repro(JsonValue(valid).dump()));
  auto rejected = [&](const std::string& key, double bad, bool in_fault) {
    SCOPED_TRACE(::testing::Message() << key << "=" << bad);
    JsonObject o = valid;
    if (in_fault) {
      JsonObject fault{{"kind", JsonValue("wan_degrade")}, {"start_s", JsonValue(10.0)},
                       {"duration_s", JsonValue(5.0)}};
      fault[key] = bad;
      o["faults"] = JsonValue(JsonArray{JsonValue(std::move(fault))});
    } else {
      o[key] = bad;
    }
    EXPECT_THROW(scenario_from_json(JsonValue(o)), std::runtime_error);
    if (std::isfinite(bad)) {
      EXPECT_THROW(load_repro(JsonValue(std::move(o)).dump()), std::runtime_error);
    }
  };
  for (double bad : {-1.0, 0.0, 1e-12, inf}) rejected("report_interval_s", bad, false);
  for (double bad : {0.0, -5.0, inf}) rejected("speed_mps", bad, false);
  // A horizon or tower spacing that cannot run used to replay with exit 0
  // ("did not reproduce") after simulating nothing or a degenerate route.
  for (double bad : {0.0, -5.0, 1e300, inf}) rejected("duration_s", bad, false);
  for (double bad : {0.0, -800.0, inf}) rejected("tower_spacing_m", bad, false);
  for (double bad : {-5.0, 1e300, inf}) rejected("start_s", bad, true);
  for (double bad : {-5.0, 1e300, inf}) rejected("duration_s", bad, true);
  // The fault shape used above decodes when its times are valid.
  JsonObject o = valid;
  o["faults"] = JsonValue(JsonArray{JsonValue(JsonObject{{"kind", JsonValue("wan_degrade")},
                                                         {"start_s", JsonValue(10.0)},
                                                         {"duration_s", JsonValue(5.0)}})});
  EXPECT_NO_THROW(load_repro(JsonValue(std::move(o)).dump()));
}

// ---------------------------------------------------------------------------
// Chaos harness on the shared fault list
// ---------------------------------------------------------------------------

bool logged(const scenario::ChaosResult& r, const std::string& what) {
  return std::any_of(r.fault_log.begin(), r.fault_log.end(),
                     [&](const sim::ChaosController::LogEntry& e) { return e.what == what; });
}

// A repro's fault list replays through run_chaos with the fuzzer's binder:
// every kind the codec writes reaches the world (shard kills included), and
// a bTelco index past the towers is clamped instead of indexing past them.
TEST(ChaosReplay, EveryReproFaultKindBindsAndIndicesClamp) {
  using Kind = scenario::FuzzFault::Kind;
  scenario::FuzzScenario s;
  s.n_towers = 4;
  s.broker_shards = 2;
  s.faults = {
      {.kind = Kind::BrokerOutage, .start_s = 10.0, .duration_s = 5.0},
      {.kind = Kind::TelcoCrash, .start_s = 20.0, .duration_s = 5.0, .telco = 1},
      {.kind = Kind::RadioDrop, .start_s = 30.0},
      {.kind = Kind::ShardKill, .start_s = 35.0, .duration_s = 10.0, .telco = 1},
      {.kind = Kind::WanDegrade,
       .start_s = 50.0,
       .duration_s = 5.0,
       .loss = 0.2,
       .corrupt = 0.05},
      {.kind = Kind::TelcoCrash, .start_s = 60.0, .duration_s = 5.0, .telco = 20},
  };
  const JsonValue doc = json_parse(scenario_to_json(s).dump());

  scenario::ChaosConfig cfg;
  cfg.world.seed = s.seed;
  cfg.world.n_towers = s.n_towers;
  cfg.world.broker_shards = s.broker_shards;
  cfg.duration = Duration::s(80);
  cfg.faults = faults_from_json(doc.at("faults"));
  const scenario::ChaosResult r = scenario::run_chaos(cfg);

  EXPECT_EQ(r.fault_log.size(), 11u);  // 5 windows x2 + 1 one-shot
  EXPECT_TRUE(logged(r, "inject:kill:broker-shard-1"));
  EXPECT_TRUE(logged(r, "heal:kill:broker-shard-1"));
  EXPECT_TRUE(logged(r, "inject:crash:btelco-1"));
  EXPECT_TRUE(logged(r, "inject:crash:btelco-3")) << "index 20 clamps to the last of 4 bTelcos";
}

// ---------------------------------------------------------------------------
// run_scenario determinism
// ---------------------------------------------------------------------------

TEST(RunScenario, SameScenarioSameFingerprint) {
  const scenario::FuzzScenario s = scenario::random_scenario(cb::test::seed_or(1));
  SCOPED_TRACE(::testing::Message() << "replay with CB_TEST_SEED=" << s.seed);
  const RunReport a = run_scenario(s);
  const RunReport b = run_scenario(s);
  EXPECT_TRUE(a.ok()) << "corpus seed regressed:\n"
                      << (a.violations.empty() ? "" : a.violations[0].invariant);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.sessions_issued, b.sessions_issued);
  EXPECT_GT(a.checks_run, 0u);
}

TEST(RunScenario, FluidPhaseRunsUnderInvariantsDeterministically) {
  // A scenario with the traffic knob on runs the hybrid fluid/packet sim
  // under the fluid.* catalogue; clean engine, deterministic fingerprint.
  scenario::FuzzScenario s = scenario::random_scenario(cb::test::seed_or(2));
  s.faults.clear();  // isolate the traffic phase from world chaos noise
  s.duration_s = 60.0;
  s.fluid_ues = 24;
  s.fluid_hybrid = true;
  SCOPED_TRACE(::testing::Message() << "replay with CB_TEST_SEED=" << s.seed);
  const RunReport a = run_scenario(s);
  EXPECT_TRUE(a.ok()) << (a.violations.empty() ? "" : a.violations[0].invariant);
  EXPECT_EQ(a.traffic_completed, 24u);
  EXPECT_GT(a.traffic_rate_events, 0u);
  EXPECT_GT(a.traffic_demotions, 0u) << "hybrid fault window must demote flows";
  const RunReport b = run_scenario(s);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.traffic_fingerprint, b.traffic_fingerprint);
}

// Shrunk from a `cbfuzz --policy rank` corpus hit (seed 14): the noisy
// channel keeps reselecting while a broker outage holds an attach in flight,
// so a newer mobility event supersedes it via the generation bump. The
// orphaned attempt's continuations never ran its fail path, leaving the
// optimistically-raised bearer admin-up — two live bearers, tripping
// session.single_bearer (break-before-make). Pinned after the UeAgent
// learned to lower superseded targets (drop_superseded_bearer).
TEST(RunScenario, SupersededInFlightAttachLowersItsBearer) {
  scenario::FuzzScenario s;
  s.seed = 14;
  s.n_towers = 3;
  s.night = true;
  s.speed_mps = 5.9820339209199922;
  s.tower_spacing_m = 495.64338493564043;
  s.duration_s = 179.14909890072181;
  s.app = 0;
  s.shadow_sigma_db = 2.5834628882462205;
  s.decorrelation_m = 40.42009950429955;
  s.fast_fading = true;
  s.faults.push_back({.kind = scenario::FuzzFault::Kind::BrokerOutage,
                      .start_s = 122.47665220319375,
                      .duration_s = 26.672446697528056});
  const RunReport report = run_scenario(s);
  EXPECT_TRUE(report.ok())
      << report.violations.front().invariant << ": " << report.violations.front().detail;
}

// ---------------------------------------------------------------------------
// Planted violation: detect, shrink, replay (ISSUE acceptance in miniature)
// ---------------------------------------------------------------------------

bool violates(const RunReport& r, const std::string& invariant) {
  for (const Violation& v : r.violations) {
    if (v.invariant == invariant) return true;
  }
  return false;
}

TEST(Shrink, RejectsAScenarioThatDoesNotFail) {
  scenario::FuzzScenario clean = scenario::random_scenario(1);
  clean.duration_s = 60.0;
  clean.faults.clear();
  EXPECT_THROW(shrink(clean), std::invalid_argument);
}

TEST(Shrink, PlantedDedupBugIsCaughtShrunkAndReplays) {
  // Re-introduce the broker's report double-count bug via the test hook and
  // fuzz a handful of seeds: at least one schedule must lose a report ACK
  // (WAN degrade) and trip billing.dedup.
  scenario::FuzzScenario failing;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 8 && !found; ++seed) {
    scenario::FuzzScenario s = scenario::random_scenario(seed);
    s.plant_dedup_bug = true;
    if (violates(run_scenario(s), "billing.dedup")) {
      failing = s;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no seed in [1,8] tripped billing.dedup — generator drifted?";

  const ShrinkResult res = shrink(failing);
  EXPECT_EQ(res.anchor, "billing.dedup");
  EXPECT_EQ(res.witness.invariant, "billing.dedup");
  EXPECT_LE(res.minimal.faults.size(), failing.faults.size());
  EXPECT_LE(res.minimal.faults.size(), 2u) << "ISSUE bound: shrinks to <= 2 fault events";
  EXPECT_LE(res.minimal.duration_s, failing.duration_s);
  EXPECT_TRUE(res.minimal.plant_dedup_bug) << "the plant flag is the bug, not noise";

  // The minimal scenario still fails, deterministically.
  const RunReport direct = run_scenario(res.minimal);
  EXPECT_TRUE(violates(direct, "billing.dedup"));

  // And it survives the repro file round-trip: write_repro -> load_repro
  // reproduces the identical run.
  const std::string doc = write_repro(res, RunOptions{}, "repro.json");
  const scenario::FuzzScenario reloaded = load_repro(doc);
  expect_same_scenario(res.minimal, reloaded);
  const RunReport replayed = run_scenario(reloaded);
  EXPECT_TRUE(violates(replayed, "billing.dedup"));
  EXPECT_EQ(replayed.fingerprint(), direct.fingerprint());

  // The document itself is self-contained: violation + replay line embedded.
  const JsonValue parsed = json_parse(doc);
  EXPECT_EQ(parsed.at("violation").at("invariant").as_string(), "billing.dedup");
  EXPECT_EQ(parsed.at("replay").as_string(), replay_command("repro.json"));
}

TEST(Shrink, PlantedDedupBugIsCaughtOnAFourShardBroker) {
  // The plant lives in the settlement fold, and billing.dedup reads the
  // cluster's observer fold, so the invariant is armed at any shard count.
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 8 && !found; ++seed) {
    scenario::FuzzScenario s = scenario::random_scenario(seed);
    s.plant_dedup_bug = true;
    s.broker_shards = 4;
    found = violates(run_scenario(s), "billing.dedup");
  }
  EXPECT_TRUE(found) << "no 4-shard seed in [1,8] tripped billing.dedup";
}

// ---------------------------------------------------------------------------
// Report-path golden: the broker's ACKed client channel
// ---------------------------------------------------------------------------

// One corpus seed narrowed to a single broker-channel path. Each case pins
// the run's RunReport fingerprint (end-state counts) and its flight-recorder
// fingerprint (every traced event with its sim time, so a retransmission
// that moves without changing any count still shows). The values were
// computed before the UE, bTelco and load-generator retransmission loops
// were folded into one BrokerChannel; they must never be edited to follow a
// change. Each case also reads the run's counters to prove its path ran.
//
// One explained re-freeze since: the bTelco's SAP auth moved onto its own
// BrokerChannel, so an answered auth now cancels its pending resend timer
// instead of letting it fire as a no-op. Only events_executed fell
// (223298 -> 223292, 2755230 -> 2755225, 606161 -> 606144), which moved the
// three RunReport pins; with events_executed zeroed the RunReports hash as
// before, and the trace pins did not move.
scenario::FuzzScenario report_path_case(std::uint64_t seed) {
  scenario::FuzzScenario s = scenario::random_scenario(seed);
  s.attach_protocol = 2;  // SAP
  s.resume_ticket = false;
  s.broker_shards = 1;
  s.fluid_ues = 0;
  s.faults.clear();
  return s;
}

std::uint64_t counter_value(const obs::Registry& reg, const char* name) {
  const obs::Counter* c = reg.find_counter(name);
  return c == nullptr ? 0 : c->value();
}

TEST(ReportPathGolden, OneShardWanDegradeRetransmitsUeAndTelcoReports) {
  scenario::FuzzScenario s = report_path_case(16);
  s.faults.push_back({.kind = scenario::FuzzFault::Kind::WanDegrade,
                      .start_s = 10.0,
                      .duration_s = 150.0,
                      .loss = 0.8,
                      .corrupt = 0.1});
  obs::Registry reg;
  obs::ScopedRegistry scoped(&reg);
  const RunReport r = run_scenario(s);
  EXPECT_TRUE(r.ok());
  EXPECT_GT(counter_value(reg, "ue_agent.reports.tx"), counter_value(reg, "ue_agent.reports.sent"));
  EXPECT_GT(counter_value(reg, "btelco.reports.tx"), counter_value(reg, "btelco.reports.sent"));
  EXPECT_GT(counter_value(reg, "ue_agent.reports.abandoned"), 0u);
  EXPECT_GT(counter_value(reg, "btelco.reports.abandoned"), 0u);
  EXPECT_EQ(r.fingerprint(), 0xdc5c392ac35f5c84ULL);
  EXPECT_EQ(reg.trace().fingerprint(), 0x182416552fafd423ULL);
}

TEST(ReportPathGolden, SapResumeSendsResumeNotifies) {
  scenario::FuzzScenario s = report_path_case(9);
  s.resume_ticket = true;
  // A lossy WAN for the whole run, so notify acks go missing and notifies
  // are resent (some to exhaustion).
  s.faults.push_back({.kind = scenario::FuzzFault::Kind::WanDegrade,
                      .start_s = 5.0,
                      .duration_s = 200.0,
                      .loss = 0.5,
                      .corrupt = 0.0});
  obs::Registry reg;
  obs::ScopedRegistry scoped(&reg);
  const RunReport r = run_scenario(s);
  EXPECT_TRUE(r.ok());
  EXPECT_GT(counter_value(reg, "ue_agent.resume.success"), 0u);
  EXPECT_GT(counter_value(reg, "btelco.resume.notify_sent"), 0u);
  EXPECT_GT(counter_value(reg, "btelco.resume.notify_abandoned"), 0u);
  // The broker logs each notify once, however many of its copies arrive.
  EXPECT_LE(counter_value(reg, "broker.resume.notified"),
            counter_value(reg, "btelco.resume.notify_sent"));
  EXPECT_EQ(r.fingerprint(), 0xbeca2362ec24cb19ULL);
  EXPECT_EQ(reg.trace().fingerprint(), 0x5ae3436a91ce9fd2ULL);
}

TEST(ReportPathGolden, FourShardsWithAShardKillFollowRedirects) {
  scenario::FuzzScenario s = report_path_case(14);
  s.broker_shards = 4;
  // Shard 2 owns the UE's bucket: reports strand on it across handovers.
  s.faults.push_back({.kind = scenario::FuzzFault::Kind::ShardKill,
                      .start_s = 20.0,
                      .duration_s = 40.0,
                      .telco = 2});
  obs::Registry reg;
  obs::ScopedRegistry scoped(&reg);
  const RunReport r = run_scenario(s);
  EXPECT_TRUE(r.ok());
  EXPECT_GT(counter_value(reg, "broker.reports.redirected"), 0u);
  EXPECT_EQ(r.fingerprint(), 0x57a0d0ccf57e2715ULL);
  EXPECT_EQ(reg.trace().fingerprint(), 0xdf36b1a3f2037dfaULL);
}

}  // namespace
}  // namespace cb::check
