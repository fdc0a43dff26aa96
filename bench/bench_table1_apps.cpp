// Table 1 — Application performance, CellBricks vs today's cellular (MNO):
// MTTHO, ping p50, iperf throughput, VoIP MOS, HLS video quality level, and
// web page load time across {suburb, downtown, highway} x {day, night}.
//
// The paper's headline: overall slowdown between -1.61% and +3.06%.
// Duration per app run is configurable via CB_TABLE1_DURATION (seconds).
#include <cstdio>
#include <cstdlib>

#include "obs/metrics.hpp"
#include "scenario/table1.hpp"

using namespace cb;
using namespace cb::scenario;

namespace {

struct PaperRow {
  const char* route;
  double mttho, ping, iperf, mos, video, web;  // CellBricks rows of Table 1
};
constexpr PaperRow kPaperCb[] = {
    {"Suburb/D", 73.50, 45.95, 1.20, 4.35, 1.98, 4.96},
    {"Suburb/N", 65.60, 46.71, 16.85, 4.33, 4.91, 1.76},
    {"Downtown/D", 68.16, 49.60, 1.11, 4.25, 1.97, 5.22},
    {"Downtown/N", 50.60, 48.53, 15.41, 4.32, 4.94, 1.89},
    {"Highway/D", 44.72, 49.48, 1.11, 4.27, 1.97, 5.18},
    {"Highway/N", 25.50, 48.38, 12.42, 4.30, 4.90, 1.80},
};

double pct(double cb, double mno) { return mno != 0.0 ? (1.0 - cb / mno) * 100.0 : 0.0; }

}  // namespace

int main() {
  // Root obs registry: every run's metrics land here, and the digest
  // prints as the bench footer.
  obs::Registry metrics;
  obs::ScopedRegistry scoped(&metrics);

  Table1Options opt;
  if (const char* env = std::getenv("CB_TABLE1_DURATION")) {
    opt.duration = Duration::s(std::atol(env));
  }
  std::printf("=== Table 1: application performance, MNO (TCP, network handover) vs "
              "CellBricks (MPTCP, host-driven mobility) ===\n");
  std::printf("Per-app drive duration: %.0f s. Paper CB values shown for reference.\n\n",
              opt.duration.to_seconds());
  std::printf("%-11s %-4s %9s %9s %11s %6s %7s %7s\n", "route", "arch", "MTTHO(s)",
              "ping(ms)", "iperf(mbps)", "MOS", "video", "web(s)");

  const auto routes = all_routes();
  double slow_iperf = 0, slow_mos = 0, slow_video = 0, slow_web = 0;

  for (std::size_t i = 0; i < routes.size(); ++i) {
    const RouteSpec& route = routes[i];
    const Table1Cell mno = run_table1_cell(AttachProtocol::EpsAka, route, opt);
    const Table1Cell cbr = run_table1_cell(AttachProtocol::Sap, route, opt);

    std::printf("%-11s %-4s %9s %9.2f %11.2f %6.2f %7.2f %7.2f\n", route.name.c_str(), "MNO",
                "-", mno.ping_p50_ms, mno.iperf_mbps, mno.voip_mos, mno.video_level,
                mno.web_load_s);
    std::printf("%-11s %-4s %9.2f %9.2f %11.2f %6.2f %7.2f %7.2f\n", route.name.c_str(), "CB",
                cbr.mttho_s, cbr.ping_p50_ms, cbr.iperf_mbps, cbr.voip_mos, cbr.video_level,
                cbr.web_load_s);
    const PaperRow& p = kPaperCb[i];
    std::printf("%-11s %-4s %9.2f %9.2f %11.2f %6.2f %7.2f %7.2f\n\n", "  (paper CB)", "",
                p.mttho, p.ping, p.iperf, p.mos, p.video, p.web);

    // Accumulate overall slowdown (positive = CB worse), like the last rows
    // of Table 1: higher-is-better metrics use 1 - cb/mno, load time uses
    // cb/mno - 1.
    slow_iperf += pct(cbr.iperf_mbps, mno.iperf_mbps);
    slow_mos += pct(cbr.voip_mos, mno.voip_mos);
    slow_video += pct(cbr.video_level, mno.video_level);
    slow_web += -pct(cbr.web_load_s, mno.web_load_s);
  }
  const double n_routes = static_cast<double>(routes.size());

  std::printf("Overall perf. slowdown of CellBricks (positive = CB worse):\n");
  std::printf("  iperf: %+.2f%%   VoIP MOS: %+.2f%%   video: %+.2f%%   web: %+.2f%%\n",
              slow_iperf / n_routes, slow_mos / n_routes, slow_video / n_routes,
              slow_web / n_routes);
  std::printf("  (paper: iperf 2.06-3.06%%, MOS 0.92-1.15%%, video -0.20-0.51%%, "
              "web -1.61-2.60%%)\n");
  std::printf("\n%s\n", metrics.digest().c_str());
  return 0;
}
