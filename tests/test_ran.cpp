// RAN tests: trajectories, path loss / rate model, cell selection with
// hysteresis, handover cadence (MTTHO calibration), rate policies, the
// measurement channel (shadowing/fading), reselection-policy A/B properties,
// and drive-test trace record/replay (including the committed fixtures under
// tests/data/).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>

#include "check/trace_io.hpp"
#include "common/stats.hpp"
#include "net/network.hpp"
#include "ran/channel.hpp"
#include "ran/drive_trace.hpp"
#include "ran/radio.hpp"
#include "ran/rate_policy.hpp"
#include "ran/trajectory.hpp"
#include "ran/ue_radio.hpp"
#include "sim/simulator.hpp"
#include "test_seed.hpp"

namespace cb::ran {
namespace {

TEST(Trajectory, LinePositions) {
  Trajectory t = Trajectory::line(1000.0, 10.0);
  EXPECT_EQ(t.position(Duration::zero()).x, 0.0);
  EXPECT_NEAR(t.position(Duration::s(50)).x, 500.0, 1e-9);
  EXPECT_NEAR(t.position(Duration::s(100)).x, 1000.0, 1e-9);
  // Clamped at the end.
  EXPECT_NEAR(t.position(Duration::s(500)).x, 1000.0, 1e-9);
  EXPECT_NEAR(t.duration().to_seconds(), 100.0, 1e-9);
}

TEST(Trajectory, MultiSegmentPath) {
  Trajectory t({{0, 0}, {100, 0}, {100, 100}}, 10.0);
  EXPECT_NEAR(t.length(), 200.0, 1e-9);
  const Point mid = t.position(Duration::s(15));  // 150 m in
  EXPECT_NEAR(mid.x, 100.0, 1e-9);
  EXPECT_NEAR(mid.y, 50.0, 1e-9);
}

TEST(Trajectory, RejectsBadArguments) {
  EXPECT_THROW(Trajectory({}, 10.0), std::invalid_argument);
  EXPECT_THROW(Trajectory({{0, 0}}, 0.0), std::invalid_argument);
}

TEST(RadioModel, PathLossIncreasesWithDistance) {
  EXPECT_LT(RadioEnvironment::path_loss_db(100), RadioEnvironment::path_loss_db(1000));
  EXPECT_LT(RadioEnvironment::path_loss_db(1000), RadioEnvironment::path_loss_db(5000));
}

TEST(RadioModel, RateDecreasesWithDistance) {
  Cell c{1, {0, 0}, "op", 43.0, 20e6};
  const double near = RadioEnvironment::achievable_rate_bps(c, {100, 0});
  const double mid = RadioEnvironment::achievable_rate_bps(c, {1000, 0});
  const double far = RadioEnvironment::achievable_rate_bps(c, {3000, 0});
  EXPECT_GT(near, mid);
  EXPECT_GT(mid, far);
  // Near-cell rate hits the spectral-efficiency cap: 4.8 b/s/Hz * 20 MHz.
  EXPECT_NEAR(near, 4.8 * 20e6, 1e3);
}

TEST(RadioEnvironment, ScanOrdersByStrength) {
  RadioEnvironment env;
  env.add_cell(Cell{1, {0, 0}, "a"});
  env.add_cell(Cell{2, {500, 0}, "b"});
  env.add_cell(Cell{3, {5000, 0}, "c"});
  const auto scan = env.scan({400, 0});
  ASSERT_GE(scan.size(), 2u);
  EXPECT_EQ(scan[0].cell, 2u);  // closest
  EXPECT_EQ(scan[1].cell, 1u);
  EXPECT_EQ(env.best({400, 0}).cell, 2u);
}

TEST(RadioEnvironment, OutOfCoverageReturnsZero) {
  RadioEnvironment env;
  env.add_cell(Cell{1, {0, 0}, "a"});
  EXPECT_EQ(env.best({200000, 0}).cell, 0u);
}

TEST(RadioEnvironment, RejectsReservedCellId) {
  RadioEnvironment env;
  EXPECT_THROW(env.add_cell(Cell{0, {0, 0}, "bad"}), std::invalid_argument);
}

TEST(UeRadio, AcquiresAndHandsOverAlongLine) {
  sim::Simulator sim;
  RadioEnvironment env;
  const double spacing = 1000.0;
  for (int i = 0; i < 5; ++i) {
    env.add_cell(Cell{static_cast<CellId>(i + 1), {spacing * i, 0}, "op"});
  }
  UeRadio radio(sim, env, Trajectory::line(4000.0, 20.0));
  std::vector<std::pair<CellId, CellId>> events;
  radio.start([&](CellId from, CellId to) { events.push_back({from, to}); });
  sim.run_for(Duration::s(210));
  radio.stop();

  ASSERT_GE(events.size(), 4u);
  EXPECT_EQ(events[0].first, 0u);  // initial acquisition
  EXPECT_EQ(events[0].second, 1u);
  // Monotonic progression through the cells.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].first, events[i - 1].second);
    EXPECT_EQ(events[i].second, events[i].first + 1);
  }
}

TEST(UeRadio, HysteresisDelaysHandoverPastMidpoint) {
  sim::Simulator sim;
  RadioEnvironment env;
  env.add_cell(Cell{1, {0, 0}, "op"});
  env.add_cell(Cell{2, {1000, 0}, "op"});
  UeRadio radio(sim, env, Trajectory::line(1000.0, 10.0));
  double handover_x = -1;
  radio.start([&](CellId, CellId to) {
    if (to == 2) handover_x = radio.position().x;
  });
  sim.run_for(Duration::s(100));
  radio.stop();
  ASSERT_GT(handover_x, 0.0);
  EXPECT_GT(handover_x, 500.0);  // strictly past the midpoint (3 dB margin)
  EXPECT_LT(handover_x, 850.0);
}

// MTTHO calibration property: spacing / speed ~= measured MTTHO.
struct MtthoCase {
  double spacing;
  double speed;
};
class MtthoSweep : public ::testing::TestWithParam<MtthoCase> {};

TEST_P(MtthoSweep, MatchesGeometry) {
  const auto [spacing, speed] = GetParam();
  sim::Simulator sim;
  RadioEnvironment env;
  const int n = 12;
  for (int i = 0; i < n; ++i) {
    env.add_cell(Cell{static_cast<CellId>(i + 1), {spacing * i, 0}, "op"});
  }
  UeRadio radio(sim, env, Trajectory::line(spacing * (n - 1), speed));
  radio.start(nullptr);
  const double drive_s = spacing * (n - 1) / speed;
  sim.run_for(Duration::seconds(drive_s));
  radio.stop();
  const auto handovers = radio.cell_changes() - 1;
  ASSERT_GT(handovers, 0u);
  const double mttho = drive_s / static_cast<double>(handovers);
  EXPECT_NEAR(mttho, spacing / speed, 0.25 * spacing / speed);
}

INSTANTIATE_TEST_SUITE_P(Geometries, MtthoSweep,
                         ::testing::Values(MtthoCase{900, 12.2}, MtthoCase{700, 10.3},
                                           MtthoCase{1400, 31.3}, MtthoCase{1400, 54.9}));

TEST(Trajectory, TimedWaypointsReturnExactKnotsAndInterpolate) {
  Trajectory t({TimedPoint{Duration::s(0), {0, 0}},
                TimedPoint{Duration::s(10), {100, 0}},
                TimedPoint{Duration::s(30), {100, 50}}});
  // Knots replay bit-exactly (the drive-trace replay contract).
  EXPECT_EQ(t.position(Duration::s(0)).x, 0.0);
  EXPECT_EQ(t.position(Duration::s(10)).x, 100.0);
  EXPECT_EQ(t.position(Duration::s(30)).y, 50.0);
  // Linear time interpolation between knots; clamped outside the window.
  EXPECT_NEAR(t.position(Duration::s(5)).x, 50.0, 1e-9);
  EXPECT_NEAR(t.position(Duration::s(20)).y, 25.0, 1e-9);
  EXPECT_EQ(t.position(Duration::s(500)).y, 50.0);
  EXPECT_NEAR(t.duration().to_seconds(), 30.0, 1e-12);
}

TEST(Trajectory, TimedWaypointsRejectNonIncreasingTimes) {
  EXPECT_THROW(Trajectory(std::vector<TimedPoint>{}), std::invalid_argument);
  EXPECT_THROW(Trajectory({TimedPoint{Duration::s(5), {0, 0}},
                           TimedPoint{Duration::s(5), {1, 0}}}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Measurement channel
// ---------------------------------------------------------------------------

TEST(Channel, NoiselessIsBitIdenticalToPathLoss) {
  Channel quiet;  // all defaults: sigma 0, fading off
  const Cell c{1, {0, 0}, "op"};
  for (double x : {50.0, 431.7, 1200.0, 9000.0}) {
    const Point p{x, 120.0};
    EXPECT_EQ(quiet.rsrp_dbm(c, 1, p, TimePoint::from_nanos(123456789)),
              RadioEnvironment::rsrp_dbm(c, p));
  }
}

TEST(Channel, ShadowingIsAPureFunctionOfItsInputs) {
  ChannelConfig cfg;
  cfg.shadow_sigma_db = 6.0;
  cfg.seed = 99;
  const Channel a(cfg);
  const Channel b(cfg);
  const Point p{321.5, -40.25};
  EXPECT_EQ(a.shadowing_db(7, 3, p), b.shadowing_db(7, 3, p));
  // Seed, UE, and cell all key independent fields.
  ChannelConfig other = cfg;
  other.seed = 100;
  EXPECT_NE(Channel(other).shadowing_db(7, 3, p), a.shadowing_db(7, 3, p));
  EXPECT_NE(a.shadowing_db(8, 3, p), a.shadowing_db(7, 3, p));
  EXPECT_NE(a.shadowing_db(7, 4, p), a.shadowing_db(7, 3, p));
}

TEST(Channel, ShadowingDecorrelatesWithDistance) {
  const std::uint64_t seed = cb::test::seed_or(2024);
  SCOPED_TRACE(::testing::Message() << "replay with CB_TEST_SEED=" << seed);
  ChannelConfig cfg;
  cfg.shadow_sigma_db = 8.0;
  cfg.decorrelation_m = 50.0;
  cfg.seed = seed;
  const Channel ch(cfg);
  double near_diff = 0.0;
  double far_diff = 0.0;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    const Point p{37.0 * i, 11.0 * i};
    const double here = ch.shadowing_db(1, 1, p);
    near_diff += std::abs(ch.shadowing_db(1, 1, {p.x + 5.0, p.y}) - here);
    far_diff += std::abs(ch.shadowing_db(1, 1, {p.x + 500.0, p.y}) - here);
  }
  // 5 m apart shares lattice corners (correlated); 500 m apart (10 lattice
  // cells) is an independent draw.
  EXPECT_LT(near_diff / n, 0.5 * far_diff / n);
}

TEST(Channel, FastFadingVariesPerInstantShadowingDoesNot) {
  ChannelConfig cfg;
  cfg.shadow_sigma_db = 6.0;
  cfg.fast_fading = true;
  cfg.fading_sigma_db = 2.0;
  cfg.seed = 5;
  const Channel ch(cfg);
  const Point p{700.0, 0.0};
  EXPECT_EQ(ch.shadowing_db(1, 2, p), ch.shadowing_db(1, 2, p));
  const Cell c{2, {0, 0}, "op"};
  const double r1 = ch.rsrp_dbm(c, 1, p, TimePoint::from_nanos(200'000'000));
  const double r2 = ch.rsrp_dbm(c, 1, p, TimePoint::from_nanos(400'000'000));
  EXPECT_NE(r1, r2) << "fading must re-draw per measurement instant";
  EXPECT_EQ(r1, ch.rsrp_dbm(c, 1, p, TimePoint::from_nanos(200'000'000)))
      << "same instant must replay bit-exactly";
}

// ---------------------------------------------------------------------------
// Differential: noise-free measurement pipeline vs the geometric engine
// ---------------------------------------------------------------------------

// With all measurement knobs at their defaults the L3/policy pipeline must
// reproduce the pure path-loss engine decision-for-decision: same ticks, same
// serving-cell sequence, bit-exact. This is the unit-level twin of the frozen
// chaos fingerprint in test_faults.cpp.
TEST(Differential, NoiseFreePipelineMatchesGeometricReference) {
  const double spacing = 1000.0;
  const int n = 8;
  const double speed = 15.0;
  RadioEnvironment env;
  for (int i = 0; i < n; ++i) {
    env.add_cell(Cell{static_cast<CellId>(i + 1), {spacing * i, 0}, "op"});
  }
  sim::Simulator sim;
  UeRadioConfig cfg;  // defaults: quiet channel, k = 0, A3 hysteresis
  UeRadio radio(sim, env, Trajectory::line(spacing * (n - 1), speed), cfg);
  radio.start(nullptr);
  const double horizon_s = spacing * (n - 1) / speed;
  sim.run_for(Duration::seconds(horizon_s));
  radio.stop();

  // Reference: the pre-measurement engine, replayed inline from geometry.
  const Trajectory traj = Trajectory::line(spacing * (n - 1), speed);
  struct Change {
    std::int64_t at_ns;
    CellId from, to;
  };
  std::vector<Change> expected;
  CellId serving = 0;
  for (Duration t = Duration::zero(); t.to_seconds() <= horizon_s;
       t = t + cfg.measurement_interval) {
    const Point pos = traj.position(t);
    const Measurement best = env.best(pos, cfg.floor_dbm);
    CellId next = serving;
    if (serving == 0) {
      next = best.cell;
    } else {
      const double sv = RadioEnvironment::rsrp_dbm(env.cell(serving), pos);
      if (sv < cfg.floor_dbm) {
        next = best.cell;
      } else if (best.cell != 0 && best.cell != serving &&
                 best.rsrp_dbm > sv + cfg.hysteresis_db) {
        next = best.cell;
      }
    }
    if (next != serving) {
      expected.push_back(Change{t.nanos(), serving, next});
      serving = next;
    }
  }

  const auto& got = radio.reselections();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].at.nanos(), expected[i].at_ns);
    EXPECT_EQ(got[i].from, expected[i].from);
    EXPECT_EQ(got[i].to, expected[i].to);
  }
}

// ---------------------------------------------------------------------------
// Reselection-policy properties (noisy channel, >= 40 seeds)
// ---------------------------------------------------------------------------

struct PolicyStats {
  std::uint64_t changes = 0;
  std::uint64_t pingpongs = 0;  // re-reselection back to the prior cell within the window
};

PolicyStats run_noisy_drive(std::uint64_t channel_seed, ReselectionPolicyKind policy,
                            Duration ttt, double hysteresis_db, int l3_k,
                            double pingpong_window_s) {
  sim::Simulator sim;
  RadioEnvironment env;
  const double spacing = 600.0;
  const int n = 6;
  for (int i = 0; i < n; ++i) {
    env.add_cell(Cell{static_cast<CellId>(i + 1), {spacing * i, 0}, "op"});
  }
  UeRadioConfig cfg;
  cfg.policy = policy;
  cfg.time_to_trigger = ttt;
  cfg.hysteresis_db = hysteresis_db;
  cfg.l3_filter_k = l3_k;
  cfg.channel.shadow_sigma_db = 6.0;
  cfg.channel.decorrelation_m = 60.0;
  cfg.channel.fast_fading = true;
  cfg.channel.fading_sigma_db = 3.0;
  cfg.channel.seed = channel_seed;
  UeRadio radio(sim, env, Trajectory::line(spacing * (n - 1), 10.0), cfg);
  radio.start(nullptr);
  sim.run_for(Duration::seconds(spacing * (n - 1) / 10.0));
  radio.stop();

  PolicyStats st;
  st.changes = radio.cell_changes();
  const auto& ev = radio.reselections();
  const Duration window = Duration::seconds(pingpong_window_s);
  for (std::size_t i = 1; i < ev.size(); ++i) {
    if (ev[i].to == ev[i - 1].from && ev[i].at - ev[i - 1].at <= window) ++st.pingpongs;
  }
  return st;
}

TEST(ReselectionPolicyKind, FromStringInvertsToString) {
  for (ReselectionPolicyKind k : {ReselectionPolicyKind::A3Hysteresis,
                                  ReselectionPolicyKind::A3TimeToTrigger,
                                  ReselectionPolicyKind::RankBased}) {
    EXPECT_EQ(from_string(to_string(k)), k) << to_string(k);
  }
  // cbfuzz's retired `--policy ttt`, a wrong case and the empty string.
  for (const char* bad : {"ttt", "A3", "MNO", ""}) {
    EXPECT_EQ(from_string(bad), std::nullopt) << "'" << bad << "'";
  }
}

TEST(PolicyProperties, TimeToTriggerDampsPingPong) {
  const std::uint64_t base = cb::test::seed_or(31000);
  SCOPED_TRACE(::testing::Message() << "replay with CB_TEST_SEED=" << base);
  const Duration ttt = Duration::ms(480);
  const double window_s = 2.0 * ttt.to_seconds();  // ping-pong: flip-back within 2xTTT
  std::uint64_t a3_pingpongs = 0;
  std::uint64_t ttt_pingpongs = 0;
  std::uint64_t ttt_changes = 0;
  for (std::uint64_t seed = base; seed < base + 40; ++seed) {
    a3_pingpongs += run_noisy_drive(seed, ReselectionPolicyKind::A3Hysteresis,
                                    Duration::zero(), 1.0, 0, window_s)
                        .pingpongs;
    const PolicyStats t = run_noisy_drive(seed, ReselectionPolicyKind::A3TimeToTrigger, ttt,
                                          1.0, 0, window_s);
    ttt_pingpongs += t.pingpongs;
    ttt_changes += t.changes;
  }
  // The undamped A3 run on this channel ping-pongs; TTT keeps the rate both
  // strictly below the TTT-off rate and bounded in absolute terms.
  EXPECT_GT(a3_pingpongs, 0u);
  EXPECT_LT(ttt_pingpongs, a3_pingpongs);
  EXPECT_LE(static_cast<double>(ttt_pingpongs) / static_cast<double>(std::max<std::uint64_t>(
                                                     ttt_changes, 1)),
            0.25)
      << "TTT ping-pong fraction out of bounds (pingpongs=" << ttt_pingpongs
      << " changes=" << ttt_changes << ")";
}

TEST(PolicyProperties, RaisingHysteresisNeverAddsCellChanges) {
  const std::uint64_t base = cb::test::seed_or(32000);
  SCOPED_TRACE(::testing::Message() << "replay with CB_TEST_SEED=" << base);
  const double levels[] = {0.5, 2.0, 4.0, 7.0};
  std::uint64_t total_prev = 0;
  std::uint64_t total_cur = 0;
  int per_seed_violations = 0;
  for (std::uint64_t seed = base; seed < base + 40; ++seed) {
    std::uint64_t prev = 0;
    for (std::size_t li = 0; li < std::size(levels); ++li) {
      const std::uint64_t changes =
          run_noisy_drive(seed, ReselectionPolicyKind::A3Hysteresis, Duration::zero(),
                          levels[li], 4, 1.0)
              .changes;
      if (li > 0) {
        total_prev += prev;
        total_cur += changes;
        // A wider margin is a strictly harder trigger at any fixed state, but
        // diverging serving sequences can produce rare per-seed inversions;
        // count them instead of asserting each.
        if (changes > prev) ++per_seed_violations;
      }
      prev = changes;
    }
  }
  EXPECT_LT(total_cur, total_prev) << "raising hysteresis must reduce churn in aggregate";
  EXPECT_LE(per_seed_violations, 6) << "hysteresis monotonicity violated too often";
}

TEST(PolicyProperties, FadingRunsReplayBitIdentically) {
  const std::uint64_t seed = cb::test::seed_or(33000);
  SCOPED_TRACE(::testing::Message() << "replay with CB_TEST_SEED=" << seed);
  auto run_once = [&](DriveTestTrace& trace) {
    sim::Simulator sim;
    RadioEnvironment env;
    for (int i = 0; i < 5; ++i) {
      env.add_cell(Cell{static_cast<CellId>(i + 1), {700.0 * i, 0}, "op"});
    }
    UeRadioConfig cfg;
    cfg.channel.shadow_sigma_db = 5.0;
    cfg.channel.fast_fading = true;
    cfg.channel.seed = seed;
    cfg.l3_filter_k = 4;
    UeRadio radio(sim, env, Trajectory::line(2800.0, 14.0), cfg);
    radio.set_drive_sink(&trace);
    radio.start(nullptr);
    sim.run_for(Duration::s(200));
    radio.stop();
  };
  DriveTestTrace a;
  DriveTestTrace b;
  run_once(a);
  run_once(b);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].at.nanos(), b.samples[i].at.nanos());
    EXPECT_EQ(a.samples[i].serving, b.samples[i].serving);
    ASSERT_EQ(a.samples[i].neighbors.size(), b.samples[i].neighbors.size());
    for (std::size_t j = 0; j < a.samples[i].neighbors.size(); ++j) {
      EXPECT_EQ(a.samples[i].neighbors[j].cell, b.samples[i].neighbors[j].cell);
      // Bitwise, not approximate: the channel is a pure hash of its inputs.
      EXPECT_EQ(a.samples[i].neighbors[j].rsrp_dbm, b.samples[i].neighbors[j].rsrp_dbm);
      EXPECT_EQ(a.samples[i].neighbors[j].filtered_dbm, b.samples[i].neighbors[j].filtered_dbm);
    }
  }
  ASSERT_EQ(a.reselections.size(), b.reselections.size());
}

// ---------------------------------------------------------------------------
// Drive-test traces: record -> JSON -> replay
// ---------------------------------------------------------------------------

DriveTestTrace replay_drive(const DriveTestTrace& trace) {
  RadioEnvironment env;
  for (const Cell& c : trace.cells) env.add_cell(c);
  sim::Simulator sim;
  UeRadio radio(sim, env, trace.trajectory(), trace.config);
  DriveTestTrace out;
  radio.set_drive_sink(&out);
  radio.start(nullptr);
  // +1ms guarantees the final recorded tick executes regardless of the
  // horizon's inclusivity; the next tick lands past it either way.
  sim.run_for(trace.samples.back().at + Duration::ms(1));
  radio.stop();
  return out;
}

void expect_trace_equal(const DriveTestTrace& a, const DriveTestTrace& b) {
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "sample " << i);
    EXPECT_EQ(a.samples[i].at.nanos(), b.samples[i].at.nanos());
    EXPECT_EQ(a.samples[i].position.x, b.samples[i].position.x);
    EXPECT_EQ(a.samples[i].position.y, b.samples[i].position.y);
    EXPECT_EQ(a.samples[i].serving, b.samples[i].serving);
    ASSERT_EQ(a.samples[i].neighbors.size(), b.samples[i].neighbors.size());
    for (std::size_t j = 0; j < a.samples[i].neighbors.size(); ++j) {
      EXPECT_EQ(a.samples[i].neighbors[j].cell, b.samples[i].neighbors[j].cell);
      EXPECT_EQ(a.samples[i].neighbors[j].rsrp_dbm, b.samples[i].neighbors[j].rsrp_dbm);
      EXPECT_EQ(a.samples[i].neighbors[j].filtered_dbm, b.samples[i].neighbors[j].filtered_dbm);
    }
  }
  ASSERT_EQ(a.reselections.size(), b.reselections.size());
  for (std::size_t i = 0; i < a.reselections.size(); ++i) {
    EXPECT_EQ(a.reselections[i].at.nanos(), b.reselections[i].at.nanos());
    EXPECT_EQ(a.reselections[i].from, b.reselections[i].from);
    EXPECT_EQ(a.reselections[i].to, b.reselections[i].to);
  }
  EXPECT_EQ(a.mttho_s(), b.mttho_s());
}

TEST(DriveTrace, JsonRoundTripReplaysBitExactly) {
  sim::Simulator sim;
  RadioEnvironment env;
  for (int i = 0; i < 6; ++i) {
    env.add_cell(Cell{static_cast<CellId>(i + 1), {800.0 * i, 0}, "op-" + std::to_string(i)});
  }
  UeRadioConfig cfg;
  cfg.policy = ReselectionPolicyKind::A3TimeToTrigger;
  cfg.time_to_trigger = Duration::ms(400);
  cfg.l3_filter_k = 4;
  cfg.channel.shadow_sigma_db = 4.0;
  cfg.channel.fast_fading = true;
  cfg.channel.seed = 9090;
  UeRadio radio(sim, env, Trajectory::line(4000.0, 16.0), cfg);
  DriveTestTrace recorded;
  radio.set_drive_sink(&recorded);
  radio.start(nullptr);
  sim.run_for(Duration::s(250));
  radio.stop();
  ASSERT_GE(recorded.reselections.size(), 2u);

  const std::string doc = check::write_trace(recorded);
  const DriveTestTrace loaded = check::load_trace(doc);
  expect_trace_equal(recorded, loaded);

  // Replaying the loaded trace over its own cell layout and config must make
  // the exact recorded decisions — positions, RSRP, and reselections.
  expect_trace_equal(recorded, replay_drive(loaded));
  // And the JSON itself is a serialization fixpoint.
  EXPECT_EQ(check::write_trace(loaded), doc);
}

// ---------------------------------------------------------------------------
// Committed fixtures (tests/data). Regenerate with CB_REGEN_FIXTURES=1.
// ---------------------------------------------------------------------------

std::string fixture_path(const char* name) {
  return std::string(CB_TEST_DATA_DIR) + "/" + name;
}

// Two cells, UE dithering across the midpoint on a noisy channel under the
// rank strawman: a ping-pong storm.
DriveTestTrace record_pingpong_fixture() {
  sim::Simulator sim;
  RadioEnvironment env;
  env.add_cell(Cell{1, {0, 0}, "btelco-0"});
  env.add_cell(Cell{2, {600, 0}, "btelco-1"});
  UeRadioConfig cfg;
  cfg.policy = ReselectionPolicyKind::RankBased;
  cfg.channel.shadow_sigma_db = 5.0;
  cfg.channel.fast_fading = true;
  cfg.channel.fading_sigma_db = 3.0;
  cfg.channel.seed = 77;  // fixture input, not sampled randomness
  UeRadio radio(sim, env, Trajectory({{290, 0}, {310, 0}}, 0.25), cfg);
  DriveTestTrace trace;
  radio.set_drive_sink(&trace);
  radio.start(nullptr);
  sim.run_for(Duration::s(80));
  radio.stop();
  return trace;
}

// Two towers 24 km apart: the path loss floor carves a multi-km coverage
// hole mid-route — serving drops to 0, then the far tower is reacquired.
DriveTestTrace record_coverage_hole_fixture() {
  sim::Simulator sim;
  RadioEnvironment env;
  env.add_cell(Cell{1, {0, 0}, "btelco-0"});
  env.add_cell(Cell{2, {24000, 0}, "btelco-1"});
  UeRadioConfig cfg;
  cfg.channel.shadow_sigma_db = 3.0;
  cfg.channel.seed = 424242;
  UeRadio radio(sim, env, Trajectory::line(24000.0, 240.0), cfg);
  DriveTestTrace trace;
  radio.set_drive_sink(&trace);
  radio.start(nullptr);
  sim.run_for(Duration::s(100));
  radio.stop();
  return trace;
}

TEST(DriveTraceFixtures, RegenerateWhenRequested) {
  if (std::getenv("CB_REGEN_FIXTURES") == nullptr) {
    GTEST_SKIP() << "set CB_REGEN_FIXTURES=1 to rewrite tests/data fixtures";
  }
  for (const auto& [name, trace] :
       {std::pair<const char*, DriveTestTrace>{"drivetest_pingpong.json",
                                               record_pingpong_fixture()},
        std::pair<const char*, DriveTestTrace>{"drivetest_coverage_hole.json",
                                               record_coverage_hole_fixture()}}) {
    std::ofstream out(fixture_path(name));
    ASSERT_TRUE(out) << "cannot write " << fixture_path(name);
    out << check::write_trace(trace) << "\n";
  }
}

DriveTestTrace load_fixture(const char* name) {
  std::ifstream in(fixture_path(name));
  EXPECT_TRUE(in) << "missing fixture " << fixture_path(name)
                  << " (regenerate with CB_REGEN_FIXTURES=1)";
  std::ostringstream buf;
  buf << in.rdbuf();
  return check::load_trace(buf.str());
}

TEST(DriveTraceFixtures, PingPongFixtureReplaysIdentically) {
  const DriveTestTrace fixture = load_fixture("drivetest_pingpong.json");
  ASSERT_FALSE(fixture.samples.empty());
  // The strawman really ping-pongs: at least one immediate flip-back.
  std::size_t flips = 0;
  for (std::size_t i = 1; i < fixture.reselections.size(); ++i) {
    if (fixture.reselections[i].to == fixture.reselections[i - 1].from &&
        (fixture.reselections[i].at - fixture.reselections[i - 1].at) <= Duration::s(1)) {
      ++flips;
    }
  }
  EXPECT_GE(flips, 3u);
  expect_trace_equal(fixture, replay_drive(fixture));
}

TEST(DriveTraceFixtures, CoverageHoleFixtureShowsOutageAndRecovery) {
  const DriveTestTrace fixture = load_fixture("drivetest_coverage_hole.json");
  ASSERT_FALSE(fixture.samples.empty());
  bool camped = false;
  bool outage_after_camped = false;
  bool recovered = false;
  for (const auto& s : fixture.samples) {
    if (s.serving != 0 && !outage_after_camped) camped = true;
    if (s.serving == 0 && camped) outage_after_camped = true;
    if (s.serving != 0 && outage_after_camped) recovered = true;
  }
  EXPECT_TRUE(camped);
  EXPECT_TRUE(outage_after_camped) << "route must cross a coverage hole";
  EXPECT_TRUE(recovered) << "the far tower must be reacquired";
  expect_trace_equal(fixture, replay_drive(fixture));
}

TEST(RatePolicy, SamplesWithinBounds) {
  Rng rng(1);
  const RatePolicy day = RatePolicy::day();
  Summary s;
  for (int i = 0; i < 5000; ++i) {
    const double v = day.sample(rng);
    EXPECT_GE(v, day.min_bps);
    EXPECT_LE(v, day.max_bps);
    s.add(v);
  }
  EXPECT_NEAR(s.mean(), day.mean_bps, 0.15e6);
}

TEST(RatePolicy, NightIsMuchFasterThanDay) {
  Rng rng(2);
  double day_sum = 0, night_sum = 0;
  for (int i = 0; i < 2000; ++i) {
    day_sum += RatePolicy::day().sample(rng);
    night_sum += RatePolicy::night().sample(rng);
  }
  // Appendix A: ~14.5x faster at night.
  EXPECT_GT(night_sum / day_sum, 8.0);
}

TEST(BearerShaper, AppliesPolicyToLink) {
  sim::Simulator sim;
  net::Network net(sim);
  net::Node* a = net.add_node("a");
  net::Node* b = net.add_node("b");
  net::Link* link = net.connect(a, b, net::LinkParams{.rate_bps = 100e6});
  BearerShaper shaper(sim, *link, a, RatePolicy::day(), nullptr);
  sim.run_for(Duration::s(2));
  const double rate = link->params(a).rate_bps;
  EXPECT_GT(rate, 0.0);
  EXPECT_LE(rate, RatePolicy::day().max_bps);
  // Symmetric shaping.
  EXPECT_DOUBLE_EQ(link->params(b).rate_bps, rate);
}

TEST(BearerShaper, QosCapWins) {
  sim::Simulator sim;
  net::Network net(sim);
  net::Node* a = net.add_node("a");
  net::Node* b = net.add_node("b");
  net::Link* link = net.connect(a, b, net::LinkParams{.rate_bps = 100e6});
  BearerShaper shaper(sim, *link, a, RatePolicy::night(), nullptr);
  shaper.set_cap_bps(1e6);
  sim.run_for(Duration::s(3));
  EXPECT_LE(link->params(a).rate_bps, 1e6 + 1.0);
}

TEST(BearerShaper, PhyLimitApplies) {
  sim::Simulator sim;
  net::Network net(sim);
  net::Node* a = net.add_node("a");
  net::Node* b = net.add_node("b");
  net::Link* link = net.connect(a, b, net::LinkParams{});
  BearerShaper shaper(sim, *link, a, RatePolicy::night(), [] { return 3e6; });
  sim.run_for(Duration::s(2));
  EXPECT_LE(link->params(a).rate_bps, 3e6 + 1.0);
  EXPECT_GT(link->params(a).rate_bps, 0.0);
}

}  // namespace
}  // namespace cb::ran
