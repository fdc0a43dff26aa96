// Table 1 experiment harness: run each application class over a (route,
// time-of-day, attach protocol) configuration and collect the paper's
// metrics.
#pragma once

#include <string>
#include <vector>

#include "scenario/world.hpp"

namespace cb::scenario {

struct Table1Cell {
  std::string route;
  double mttho_s = 0.0;
  double ping_p50_ms = 0.0;
  double iperf_mbps = 0.0;
  double voip_mos = 0.0;
  double video_level = 0.0;
  double web_load_s = 0.0;
};

struct Table1Options {
  /// Per-application drive duration (longer = more handovers averaged).
  Duration duration = Duration::s(300);
  std::uint64_t seed = 7;
};

/// Run all four application classes (each in a fresh world with the same
/// seed, so handover patterns match) and fill one Table-1 cell.
Table1Cell run_table1_cell(AttachProtocol protocol, const RouteSpec& route,
                           const Table1Options& options = Table1Options());

}  // namespace cb::scenario
