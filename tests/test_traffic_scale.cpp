// Scale-labeled traffic checks (`ctest -L scale`): mid-size fluid runs that
// gate the event-budget and memory properties behind the 100k-1M-UE claim.
// Kept out of the default unit tier — tools/ci.sh runs them in the Release
// leg only (they are too slow for the sanitizer leg).
#include <gtest/gtest.h>

#include <cmath>

#include "scenario/scale_traffic.hpp"
#include "test_seed.hpp"
#include "traffic/arena.hpp"

namespace cb::traffic {
namespace {

TEST(ScaleCurve, FluidEventCountScalesWithRateChanges) {
  scenario::ScaleTrafficConfig cfg;
  cfg.mode = scenario::TrafficMode::Fluid;
  cfg.n_ues = 5000;
  cfg.seed = cb::test::seed_or(13);
  cfg.mean_flow_mbytes = 5.0;
  cfg.start_window_s = 10.0;
  cfg.horizon_s = 3600.0;
  const auto r = scenario::run_scale_traffic(cfg);
  EXPECT_EQ(r.completed, cfg.n_ues);
  // Events per flow must be O(flows-per-cell), not O(packets): a 5 MB flow
  // is ~3.6k packets; fluid must be orders of magnitude below that.
  EXPECT_LT(static_cast<double>(r.events) / cfg.n_ues, 64.0);
  EXPECT_EQ(r.negative_residuals, 0u);

  // Shaper resampling costs events per epoch, not per UE: each epoch adds
  // one walk event and one drain of the cells it dirtied. A timer per live
  // UE would add ~15 events per UE here (74k on 5000 UEs).
  cfg.shaper_resample_s = 5.0;
  const auto resampled = scenario::run_scale_traffic(cfg);
  EXPECT_EQ(resampled.completed, cfg.n_ues);
  EXPECT_EQ(resampled.negative_residuals, 0u);
  const double epochs = std::floor(resampled.sim_s / cfg.shaper_resample_s) + 1.0;
  EXPECT_LE(static_cast<double>(resampled.events), static_cast<double>(r.events) + 4.0 * epochs)
      << "resample-off events " << r.events << ", epochs " << epochs;
}

TEST(ScaleCurve, ArenaWorkingSetStaysCacheResident) {
  // 100k sessions must fit the SoA budget: < 100 B per session, so the whole
  // working set is ~8 MB — inside L2/L3 on any bench machine.
  scenario::ScaleTrafficConfig cfg;
  cfg.mode = scenario::TrafficMode::Fluid;
  cfg.n_ues = 100000;
  cfg.seed = cb::test::seed_or(17);
  cfg.mean_flow_mbytes = 1.0;
  cfg.start_window_s = 20.0;
  cfg.horizon_s = 7200.0;
  const auto r = scenario::run_scale_traffic(cfg);
  EXPECT_EQ(r.completed, cfg.n_ues);
  EXPECT_LT(SessionArena::bytes_per_session(), 100u);
  EXPECT_LT(r.arena_bytes, 10u * 1024 * 1024);
  EXPECT_EQ(r.negative_residuals, 0u);
}

TEST(ScaleCurve, MillionUesCompleteWithinEventBudget) {
  // The headline point (ISSUE 8 / ROADMAP item 1): one million fluid UEs run
  // to completion. Trimmed relative to the committed bench point (smaller
  // flows, no mid-flow resampling) so the test stays in single-digit
  // seconds while still exercising the incremental order bookkeeping and
  // the dirty-epoch drain at full population.
  scenario::ScaleTrafficConfig cfg;
  cfg.mode = scenario::TrafficMode::Fluid;
  cfg.n_ues = 1000000;
  cfg.seed = cb::test::seed_or(23);
  cfg.mean_flow_mbytes = 2.0;
  cfg.start_window_s = 10.0;
  cfg.horizon_s = 7200.0;
  const auto r = scenario::run_scale_traffic(cfg);
  EXPECT_EQ(r.completed, cfg.n_ues);
  EXPECT_EQ(r.negative_residuals, 0u);
  // Event budget: O(flows-per-cell) per flow, nowhere near packet counts.
  EXPECT_LT(static_cast<double>(r.events) / cfg.n_ues, 16.0);
  // Arena working set stays within the 74 B/session SoA budget (~71 MB).
  EXPECT_LT(r.arena_bytes, 80u * 1024 * 1024);
}

}  // namespace
}  // namespace cb::traffic
