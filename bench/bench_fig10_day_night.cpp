// Fig.10 (Appendix A) — iperf throughput over the downtown route, day vs
// night: reproduces the bimodal pattern created by the operator's
// time-of-day rate limiting (paper: night mean 14.95 Mb/s ~ 14.5x the day's
// 1.03 Mb/s; night std 8.94 vs day 0.32; peaks 52.5 vs 1.75 Mb/s).
//
// With --fluid [N] the same day-vs-night contrast is produced at fluid-
// engine populations (default 20k UEs; ROADMAP item 1 tail): N bulk
// downloads under the Appendix-A day or night shaper policy, sampled every
// 10 s as aggregate delivered goodput per UE. Single-UE iperf measures one
// subscriber's radio; the fluid curve shows the same policy shaping an
// operator-scale population — same bimodal ratio, obtained ~10^4x faster
// than packet fidelity would allow.
//
// Usage: bench_fig10_day_night [--fluid [N_UES]]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.hpp"
#include "apps/iperf.hpp"
#include "common/stats.hpp"
#include "scenario/scale_traffic.hpp"
#include "scenario/world.hpp"
#include "sim/simulator.hpp"

using namespace cb;
using namespace cb::scenario;

namespace {

struct Stats {
  double mean, stddev, peak;
  std::vector<double> series;
};

Stats run(const RouteSpec& route) {
  WorldConfig cfg;
  cfg.protocol = AttachProtocol::EpsAka;  // Fig.10 measured today's MNO network
  cfg.seed = 10;
  cfg.route = route;
  const double distance = route.speed_mps * 520.0;
  cfg.n_towers = static_cast<int>(distance / route.tower_spacing_m) + 3;
  World world(cfg);
  apps::IperfPushServer server(world.server_transport(), 5001, world.simulator(),
                               Duration::s(520));
  world.start();
  world.simulator().run_for(Duration::s(5));
  apps::IperfDownloadClient client(world.ue_transport(),
                                   net::EndPoint{world.server_addr(), 5001},
                                   world.simulator());
  world.simulator().run_for(Duration::s(500));

  Stats out;
  Summary s;
  const auto rates = client.series().rates();
  for (std::size_t i = 6; i < rates.size(); ++i) {
    const double mbps = rates[i] * 8.0 / 1e6;
    s.add(mbps);
    out.series.push_back(mbps);
  }
  out.mean = s.mean();
  out.stddev = s.stddev();
  out.peak = s.max();
  return out;
}

/// Fluid-population variant: N bulk flows under the day or night shaper,
/// sampled as aggregate delivered goodput per UE every 10 s. Flows are
/// sized to span the window (the shaper, not completion, shapes the curve),
/// resampling caps at the Appendix-A cadence so the series fluctuates the
/// way Fig.10's per-UE trace does.
Stats run_fluid(bool night, int n_ues) {
  constexpr double kHorizonS = 520.0;
  constexpr double kSampleS = 10.0;
  ScaleTrafficConfig cfg;
  cfg.mode = TrafficMode::Fluid;
  cfg.n_ues = n_ues;
  // Thin cells (8 active bulk UEs each): the 150 Mb/s scheduler then has
  // per-UE headroom at the night policy's mean, so the time-of-day shaper —
  // the thing Fig.10 measures — is what binds; night's high draws still see
  // realistic cell contention, which clips the peaks the way a loaded
  // sector would.
  cfg.n_cells = std::max(1, n_ues / 8);
  cfg.seed = 10;
  cfg.night = night;
  cfg.mean_flow_mbytes = 5000.0;  // most flows outlive the 520 s window even at night rates
  cfg.start_window_s = 5.0;
  cfg.shaper_resample_s = 30.0;
  cfg.horizon_s = kHorizonS;

  ScaleTrafficSim sim(cfg);
  sim.start();
  Stats out;
  Summary s;
  double prev_bytes = 0.0;
  for (int k = 1; k * kSampleS <= kHorizonS; ++k) {
    sim.simulator().schedule_at(
        TimePoint::zero() + Duration::seconds(k * kSampleS), [&] {
          const double bytes = sim.delivered_now();
          const double mbps = (bytes - prev_bytes) * 8.0 / kSampleS / 1e6 / n_ues;
          prev_bytes = bytes;
          s.add(mbps);
          out.series.push_back(mbps);
        });
  }
  sim.simulator().run_until(TimePoint::zero() + Duration::seconds(kHorizonS));
  sim.collect();
  out.mean = s.mean();
  out.stddev = s.stddev();
  out.peak = s.max();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool fluid = false;
  int fluid_ues = 20000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fluid") == 0) {
      fluid = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') fluid_ues = std::atoi(argv[++i]);
    }
  }

  // Root obs registry: per-trial metrics merge here in index order
  // (TrialRunner) and the digest prints as the bench footer.
  obs::Registry metrics;
  obs::ScopedRegistry scoped(&metrics);

  Stats day, night;
  if (fluid) {
    std::printf("=== Fig.10 at scale: %d-UE fluid population, Day vs Night shaper "
                "(per-UE delivered goodput) ===\n\n", fluid_ues);
    day = run_fluid(false, fluid_ues);
    night = run_fluid(true, fluid_ues);
  } else {
    std::printf("=== Fig.10: downtown iperf throughput, Day vs Night rate policy ===\n\n");
    day = run(downtown_day());
    night = run(downtown_night());
  }

  if (fluid) {
    std::printf("per-UE goodput (mbps), every 10 s:\n%5s %8s %8s\n", "t(s)", "Day", "Night");
    for (std::size_t i = 0; i < std::min(day.series.size(), night.series.size()); ++i) {
      std::printf("%5zu %8.2f %8.2f\n", (i + 1) * 10, day.series[i], night.series[i]);
    }
  } else {
    std::printf("throughput (mbps), every 10 s:\n%5s %8s %8s\n", "t(s)", "Day", "Night");
    for (std::size_t i = 0; i + 10 <= std::min(day.series.size(), night.series.size());
         i += 10) {
      double d = 0, n = 0;
      for (std::size_t k = i; k < i + 10; ++k) {
        d += day.series[k];
        n += night.series[k];
      }
      std::printf("%5zu %8.2f %8.2f\n", i, d / 10, n / 10);
    }
  }

  std::printf("\n%8s %8s %8s %8s\n", "", "mean", "stddev", "peak");
  std::printf("%8s %8.2f %8.2f %8.2f   (paper: 1.03, 0.32, 1.75)\n", "Day", day.mean,
              day.stddev, day.peak);
  std::printf("%8s %8.2f %8.2f %8.2f   (paper: 14.95, 8.94, 52.5)\n", "Night", night.mean,
              night.stddev, night.peak);
  std::printf("night/day mean ratio: %.1fx (paper: 14.5x)\n", night.mean / day.mean);
  std::printf("\n%s\n", metrics.digest().c_str());
  return 0;
}
