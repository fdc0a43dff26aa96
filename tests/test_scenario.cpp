// Scenario-layer tests: route calibration, world construction invariants,
// determinism, the Fig.7 harness, attach storms, and a fast Table-1 cell.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/iperf.hpp"
#include "scenario/attach_experiment.hpp"
#include "scenario/table1.hpp"
#include "scenario/trial_runner.hpp"
#include "scenario/world.hpp"

namespace cb::scenario {

// Names the ctest entry by the protocol's canonical spelling instead of the
// enum's raw bytes. It sits in the enum's namespace so that gtest finds it.
static void PrintTo(AttachProtocol p, std::ostream* os) { *os << to_string(p); }

namespace {

TEST(Routes, MtthoCalibrationMatchesPaper) {
  // spacing/speed must equal the paper's measured MTTHO per route/time.
  EXPECT_NEAR(suburb_day().expected_mttho_s(), 73.50, 0.01);
  EXPECT_NEAR(suburb_night().expected_mttho_s(), 65.60, 0.01);
  EXPECT_NEAR(downtown_day().expected_mttho_s(), 68.16, 0.01);
  EXPECT_NEAR(downtown_night().expected_mttho_s(), 50.60, 0.01);
  EXPECT_NEAR(highway_day().expected_mttho_s(), 44.72, 0.01);
  EXPECT_NEAR(highway_night().expected_mttho_s(), 25.50, 0.01);
  EXPECT_EQ(all_routes().size(), 6u);
}

TEST(Routes, NightSelectsNightPolicy) {
  EXPECT_GT(suburb_night().policy.mean_bps, 10e6);
  EXPECT_LT(suburb_day().policy.mean_bps, 2e6);
}

class WorldProtocolSweep : public ::testing::TestWithParam<AttachProtocol> {};

TEST_P(WorldProtocolSweep, BuildsAndAcquiresCoverage) {
  WorldConfig cfg;
  cfg.protocol = GetParam();
  cfg.n_towers = 4;
  cfg.route = RouteSpec{"t", false, 10.0, 700.0, ran::RatePolicy::unlimited()};
  cfg.unlimited_policy = true;
  World world(cfg);
  world.start();
  world.simulator().run_for(Duration::s(5));
  // Initial acquisition happened and the UE has an address.
  EXPECT_NE(world.radio().serving_cell(), 0u);
  EXPECT_TRUE(world.ue_node()->primary_address().valid());
}

TEST_P(WorldProtocolSweep, DriveProducesExpectedHandovers) {
  WorldConfig cfg;
  cfg.protocol = GetParam();
  cfg.n_towers = 5;
  cfg.route = RouteSpec{"t", false, 20.0, 600.0, ran::RatePolicy::unlimited()};
  cfg.unlimited_policy = true;
  World world(cfg);
  int changes = 0;
  world.on_cell_change = [&](ran::CellId from, ran::CellId) { changes += (from != 0); };
  world.start();
  world.simulator().run_for(Duration::s(150));  // full 2400 m drive + margin
  EXPECT_EQ(world.handovers(), 4u);
  EXPECT_EQ(changes, 4);
}

INSTANTIATE_TEST_SUITE_P(BothWorlds, WorldProtocolSweep,
                         ::testing::Values(AttachProtocol::EpsAka, AttachProtocol::Sap));

TEST(WorldDeterminism, SameSeedSameOutcome) {
  auto run = [] {
    WorldConfig cfg;
    cfg.seed = 77;
    cfg.n_towers = 4;
    cfg.route = RouteSpec{"t", false, 15.0, 700.0, ran::RatePolicy::day()};
    World world(cfg);
    apps::IperfPushServer server(world.server_transport(), 5001, world.simulator(),
                                 Duration::s(60));
    world.start();
    world.simulator().run_for(Duration::s(3));
    apps::IperfDownloadClient client(world.ue_transport(),
                                     net::EndPoint{world.server_addr(), 5001},
                                     world.simulator());
    world.simulator().run_for(Duration::s(60));
    return std::make_pair(client.total_bytes(), world.handovers());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);  // bit-identical byte counts
  EXPECT_EQ(a.second, b.second);
}

TEST(AttachExperiment, Fig7ShapeHolds) {
  const auto bl_west =
      run_attach_experiment(AttachProtocol::EpsAka, Duration::millis(7.2), 20);
  const auto cb_west =
      run_attach_experiment(AttachProtocol::Sap, Duration::millis(7.2), 20);
  ASSERT_EQ(bl_west.attaches, 20);
  ASSERT_EQ(cb_west.attaches, 20);
  // CB beats BL at us-west by roughly the paper's 14%.
  EXPECT_LT(cb_west.total_ms, bl_west.total_ms);
  EXPECT_NEAR(cb_west.total_ms / bl_west.total_ms, 31.68 / 36.85, 0.05);
  // Breakdown accounting is self-consistent.
  EXPECT_NEAR(cb_west.total_ms,
              cb_west.agw_core_ms + cb_west.enb_ms + cb_west.ue_ms + cb_west.other_ms, 0.5);
}

TEST(AttachExperiment, BreakdownMatchesCalibratedProfiles) {
  const auto bl = run_attach_experiment(AttachProtocol::EpsAka, Duration::millis(0.5), 10);
  EXPECT_NEAR(bl.agw_core_ms, 17.5, 0.5);  // 4 x 3 ms MME + 2 x 2.75 ms HSS
  EXPECT_NEAR(bl.enb_ms, 3.0, 0.2);
  EXPECT_NEAR(bl.ue_ms, 2.0, 0.2);
  const auto cb = run_attach_experiment(AttachProtocol::Sap, Duration::millis(0.5), 10);
  EXPECT_NEAR(cb.agw_core_ms, 21.25, 0.5);  // 2 x 6.5 ms AGW + 8.25 ms broker
  EXPECT_NEAR(cb.ue_ms, 2.5, 0.2);
}

TEST(AttachStorm, AllCompleteAndLatencyGrowsWithLoad) {
  const AttachStorm small = run_attach_storm(AttachProtocol::Sap, 5,
                                             Duration::millis(7.2), 0.0);
  const AttachStorm big = run_attach_storm(AttachProtocol::Sap, 40,
                                           Duration::millis(7.2), 0.0);
  EXPECT_EQ(small.completed, 5);
  EXPECT_EQ(big.completed, 40);
  EXPECT_GT(big.p99_ms, small.p99_ms * 3);  // queueing at the broker
}

TEST(AttachStorm, RunsOnlyTheEpsAkaAndSapLadders) {
  EXPECT_THROW(run_attach_storm(AttachProtocol::Aka5g, 2, Duration::millis(7.2), 0.0),
               std::invalid_argument);
  EXPECT_THROW(run_attach_storm(AttachProtocol::SapResume, 2, Duration::millis(7.2), 0.0),
               std::invalid_argument);
  EXPECT_THROW(run_attach_storm(AttachProtocol::Default, 2, Duration::millis(7.2), 0.0),
               std::invalid_argument);
  EXPECT_EQ(run_attach_storm(AttachProtocol::EpsAka, 2, Duration::millis(7.2), 0.0).completed, 2);
}

TEST(AttachStorm, SurvivesControlPathLoss) {
  const AttachStorm lossy = run_attach_storm(AttachProtocol::Sap, 20,
                                             Duration::millis(7.2), 0.08);
  EXPECT_EQ(lossy.completed, 20);  // the SAP retransmission recovers everything
}

TEST(Routes, ExpectedMtthoIsSpacingOverSpeed) {
  const RouteSpec r{"Custom", false, 10.0, 500.0, ran::RatePolicy::unlimited()};
  EXPECT_DOUBLE_EQ(r.expected_mttho_s(), 50.0);
  // Every built-in route is self-consistent: name set, positive geometry.
  for (const RouteSpec& spec : all_routes()) {
    EXPECT_FALSE(spec.name.empty());
    EXPECT_GT(spec.speed_mps, 0.0);
    EXPECT_GT(spec.tower_spacing_m, 0.0);
    EXPECT_GT(spec.expected_mttho_s(), 0.0);
  }
}

TEST(WorldWiring, CellBricksBuildsOneBtelcoPerTower) {
  WorldConfig cfg;
  cfg.n_towers = 6;
  cfg.route = RouteSpec{"t", false, 10.0, 700.0, ran::RatePolicy::unlimited()};
  cfg.unlimited_policy = true;
  World world(cfg);
  ASSERT_NE(world.broker_cluster(), nullptr);
  ASSERT_EQ(world.n_btelcos(), 6u);
  // Each tower owns its own bTelco with a distinct SAP identity and its own
  // control path to the cloud (the fault surface indexes them 1:1).
  EXPECT_EQ(world.n_cloud_links(), 6u);
  std::set<std::string> ids;
  for (std::size_t i = 0; i < world.n_btelcos(); ++i) {
    ids.insert(world.btelco(i)->id());
  }
  EXPECT_EQ(ids.size(), 6u);
}

TEST(WorldWiring, MnoHasNoBrokerAndNoBtelcos) {
  WorldConfig cfg;
  cfg.protocol = AttachProtocol::EpsAka;
  cfg.n_towers = 3;
  cfg.route = RouteSpec{"t", false, 10.0, 700.0, ran::RatePolicy::unlimited()};
  cfg.unlimited_policy = true;
  World world(cfg);
  EXPECT_EQ(world.broker_cluster(), nullptr);
  EXPECT_EQ(world.n_btelcos(), 0u);
}

TEST(TrialRunnerEdge, ZeroTrialsReturnsEmptyWithoutBlocking) {
  TrialRunner pool(2);
  const std::vector<std::size_t> r = pool.map(0, [](std::size_t i) { return i; });
  EXPECT_TRUE(r.empty());
}

TEST(TrialRunnerEdge, MoreThreadsThanTrialsStillIndexOrdered) {
  TrialRunner pool(8);
  EXPECT_EQ(pool.thread_count(), 8u);
  const std::vector<std::size_t> r = pool.map(3, [](std::size_t i) { return i * i; });
  EXPECT_EQ(r, (std::vector<std::size_t>{0, 1, 4}));
}

TEST(TrialRunnerEdge, ZeroThreadsFallsBackToHardwareConcurrency) {
  TrialRunner pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
  const std::vector<std::size_t> r = pool.map(5, [](std::size_t i) { return i + 1; });
  EXPECT_EQ(r, (std::vector<std::size_t>{1, 2, 3, 4, 5}));
}

TEST(TrialRunnerEdge, FirstExceptionByIndexIsRethrownAfterBarrier) {
  TrialRunner pool(4);
  try {
    pool.map(4, [](std::size_t i) -> int {
      if (i == 1) throw std::runtime_error("trial 1");
      if (i == 3) throw std::runtime_error("trial 3");
      return 0;
    });
    FAIL() << "map must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "trial 1") << "lowest failing index wins, deterministically";
  }
}

TEST(Table1, QuickCellProducesSaneMetrics) {
  Table1Options opt;
  opt.duration = Duration::s(60);
  const Table1Cell cell = run_table1_cell(AttachProtocol::Sap, suburb_night(), opt);
  EXPECT_GT(cell.ping_p50_ms, 30.0);
  EXPECT_LT(cell.ping_p50_ms, 80.0);
  EXPECT_GT(cell.iperf_mbps, 1.0);
  EXPECT_GT(cell.voip_mos, 3.5);
  EXPECT_GT(cell.video_level, 2.0);
  EXPECT_GT(cell.web_load_s, 0.1);
}

}  // namespace
}  // namespace cb::scenario
