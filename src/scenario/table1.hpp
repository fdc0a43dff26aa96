// Table 1 experiment harness: run each application class over a (route,
// time-of-day, attach protocol) configuration and collect the paper's
// metrics.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/world.hpp"

namespace cb::scenario {

/// The application classes of Table 1, in the order a Table-1 cell runs
/// them.
enum class App { Ping, Iperf, Voip, Video, Web };

/// Canonical spelling of the app axis (cbsim --app values).
inline const char* to_string(App app) {
  switch (app) {
    case App::Ping: return "ping";
    case App::Iperf: return "iperf";
    case App::Voip: return "voip";
    case App::Video: return "video";
    case App::Web: return "web";
  }
  return "?";
}

/// The one parser of the app axis: the inverse of to_string, nullopt for
/// any other spelling.
inline std::optional<App> app_from_string(std::string_view name) {
  for (App app : {App::Ping, App::Iperf, App::Voip, App::Video, App::Web}) {
    if (name == to_string(app)) return app;
  }
  return std::nullopt;
}

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

/// One metric of an application run, with the precision cbsim prints it at.
struct AppMetric {
  const char* name;
  double value;
  int decimals;
};

/// What one application run measured.
struct AppRun {
  /// The app's own metrics, in print order.
  std::vector<AppMetric> metrics;
  /// The one of them Table 1 reports: ping p50 (ms), iperf Mb/s, VoIP MOS,
  /// video quality level or web page load time (s).
  double table1 = 0.0;
  std::uint64_t handovers = 0;
  double mttho_s = 0.0;  // World::mttho_s(): sim time over handovers
  std::optional<double> attach_ms_mean;  // unset when no SAP attach completed
};

/// Run one application class for options.duration, after a warmup in which
/// the initial attach completes, in a fresh world on `route`.
AppRun run_app(App app, AttachProtocol protocol, const RouteSpec& route,
               const Table1Options& options);

/// Run every application class (each in a fresh world with the same seed,
/// so handover patterns match) and fill one Table-1 cell.
Table1Cell run_table1_cell(AttachProtocol protocol, const RouteSpec& route,
                           const Table1Options& options = Table1Options());

}  // namespace cb::scenario
