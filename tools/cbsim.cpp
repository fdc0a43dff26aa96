// cbsim — command-line driver for the CellBricks simulation library:
// `attach` runs N sequential attachments and prints latency + module
// breakdown, `drive` drives a route running one application and prints its
// metrics, `storm` sends N simultaneous attach requests against one cell
// (usage() lists the flags). Exit code 0 on success, 2 on an unknown flag
// or value; metrics go to stdout, one `key value` per line — convenient
// for scripting sweeps.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>

#include "apps/iperf.hpp"
#include "apps/ping.hpp"
#include "apps/video.hpp"
#include "apps/voip.hpp"
#include "apps/web.hpp"
#include "scenario/attach_experiment.hpp"
#include "scenario/table1.hpp"

using namespace cb;
using namespace cb::scenario;

namespace {

struct Args {
  std::string command;
  AttachProtocol protocol = AttachProtocol::Sap;
  std::string route = "suburb";
  bool night = false;
  std::string app = "iperf";
  double rtt_ms = 7.2;
  int n = 20;
  int ues = 50;
  double loss = 0.0;
  long secs = 120;
  std::uint64_t seed = 1;
};

int usage() {
  std::fprintf(stderr,
               "usage: cbsim attach [--protocol P] [--rtt-ms R] [--n N]\n"
               "       cbsim drive  [--protocol P] [--route suburb|downtown|highway]\n"
               "                    [--night] [--app iperf|ping|voip|video|web]\n"
               "                    [--secs S] [--seed K]\n"
               "       cbsim storm  [--protocol eps_aka|sap] [--ues N] [--loss P] [--rtt-ms R]\n"
               "       P: eps_aka | 5g_aka | sap (default) | sap_resume\n");
  return 2;
}

constexpr const char* kApps[] = {"iperf", "ping", "voip", "video", "web"};

bool unknown(const char* what, const std::string& value) {
  std::fprintf(stderr, "unknown %s: %s\n", what, value.c_str());
  return false;
}

/// The named route at the given time of day; nullopt for an unknown name.
std::optional<RouteSpec> pick_route(const std::string& name, bool night) {
  if (name == "suburb") return night ? suburb_night() : suburb_day();
  if (name == "downtown") return night ? downtown_night() : downtown_day();
  if (name == "highway") return night ? highway_night() : highway_day();
  return std::nullopt;
}

bool parse(int argc, char** argv, Args& out) {
  if (argc < 2) return false;
  out.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (flag == "--night") {
      out.night = true;
    } else if (flag == "--protocol") {
      const char* v = next();
      if (v == nullptr) return false;
      const auto protocol = from_string(v);
      if (!protocol || *protocol == AttachProtocol::Default) return unknown("protocol", v);
      out.protocol = *protocol;
    } else if (flag == "--route") {
      const char* v = next();
      if (v == nullptr) return false;
      out.route = v;
      if (!pick_route(out.route, false)) return unknown("route", v);
    } else if (flag == "--app") {
      const char* v = next();
      if (v == nullptr) return false;
      out.app = v;
      if (std::find(std::begin(kApps), std::end(kApps), out.app) == std::end(kApps)) {
        return unknown("app", v);
      }
    } else if (flag == "--rtt-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      out.rtt_ms = std::atof(v);
    } else if (flag == "--n") {
      const char* v = next();
      if (v == nullptr) return false;
      out.n = std::atoi(v);
    } else if (flag == "--ues") {
      const char* v = next();
      if (v == nullptr) return false;
      out.ues = std::atoi(v);
    } else if (flag == "--loss") {
      const char* v = next();
      if (v == nullptr) return false;
      out.loss = std::atof(v);
    } else if (flag == "--secs") {
      const char* v = next();
      if (v == nullptr) return false;
      out.secs = std::atol(v);
    } else if (flag == "--seed") {
      const char* v = next();
      if (v == nullptr) return false;
      out.seed = static_cast<std::uint64_t>(std::atoll(v));
    } else {
      return unknown("flag", flag);
    }
  }
  return true;
}

int cmd_attach(const Args& a) {
  const AttachBreakdown b =
      run_attach_experiment(a.protocol, Duration::millis(a.rtt_ms), a.n, a.seed);
  std::printf("protocol %s\nattaches %d\ntotal_ms %.3f\nagw_core_ms %.3f\nenb_ms %.3f\n"
              "ue_ms %.3f\nother_ms %.3f\n",
              to_string(b.protocol), b.attaches, b.total_ms, b.agw_core_ms, b.enb_ms, b.ue_ms,
              b.other_ms);
  // Under sap_resume, cycles that resumed or fell back are not `attaches`.
  return b.attaches + b.resumes + b.resume_fallbacks == a.n ? 0 : 1;
}

int cmd_storm(const Args& a) {
  AttachStorm s;
  try {
    s = run_attach_storm(a.protocol, a.ues, Duration::millis(a.rtt_ms), a.loss, a.seed);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "cbsim: %s\n", e.what());
    return usage();
  }
  std::printf("protocol %s\nues %d\ncompleted %d\nmean_ms %.3f\np99_ms %.3f\n",
              to_string(a.protocol), s.n_ues, s.completed, s.mean_ms, s.p99_ms);
  return s.completed == a.ues ? 0 : 1;
}

int cmd_drive(const Args& a) {
  const RouteSpec route = *pick_route(a.route, a.night);
  WorldConfig cfg;
  cfg.protocol = a.protocol;
  cfg.route = route;
  cfg.seed = a.seed;
  cfg.n_towers =
      static_cast<int>(route.speed_mps * static_cast<double>(a.secs) /
                       route.tower_spacing_m) +
      3;
  World world(cfg);
  const Duration run_time = Duration::s(a.secs);

  std::printf("protocol %s\nroute %s\n", to_string(world.protocol()), route.name.c_str());

  if (a.app == "ping") {
    apps::PingServer server(*world.server_node(), 7);
    apps::PingClient client(*world.ue_node(), {world.server_addr(), 7});
    world.start();
    world.simulator().run_for(Duration::s(3));
    client.start();
    world.simulator().run_for(run_time);
    client.stop();
    std::printf("probes %llu\nlost %llu\np50_ms %.2f\n",
                static_cast<unsigned long long>(client.sent()),
                static_cast<unsigned long long>(client.lost()),
                client.rtts_ms().empty() ? 0.0 : client.rtts_ms().p50());
  } else if (a.app == "voip") {
    apps::VoipEndpoint callee(*world.server_node(), 6000);
    apps::VoipEndpoint caller(*world.ue_node(), 6000);
    world.start();
    world.simulator().run_for(Duration::s(3));
    caller.call({world.server_addr(), 6000});
    world.simulator().run_for(run_time);
    std::printf("mos %.2f\nloss %.4f\ndelay_ms %.1f\njitter_ms %.2f\n",
                caller.stats().mos(), caller.stats().loss_rate(),
                caller.stats().avg_delay_ms, caller.stats().jitter_ms);
  } else if (a.app == "video") {
    apps::HlsServer server(world.server_transport(), 8080);
    world.start();
    world.simulator().run_for(Duration::s(3));
    apps::HlsClient client(world.ue_transport(), {world.server_addr(), 8080},
                           world.simulator());
    client.start();
    world.simulator().run_for(run_time);
    client.stop();
    std::printf("segments %llu\navg_level %.2f\nrebuffers %llu\n",
                static_cast<unsigned long long>(client.segments_played()),
                client.avg_quality_level(),
                static_cast<unsigned long long>(client.rebuffer_events()));
  } else if (a.app == "web") {
    apps::WebServer server(world.server_transport(), 80);
    world.start();
    world.simulator().run_for(Duration::s(3));
    apps::WebClient client(world.ue_transport(), {world.server_addr(), 80},
                           world.simulator());
    client.start();
    world.simulator().run_for(run_time);
    client.stop();
    std::printf("pages %llu\nfailed %llu\nload_s %.2f\n",
                static_cast<unsigned long long>(client.pages_loaded()),
                static_cast<unsigned long long>(client.pages_failed()),
                client.load_times_s().empty() ? 0.0 : client.load_times_s().mean());
  } else {  // iperf
    apps::IperfPushServer server(world.server_transport(), 5001, world.simulator(),
                                 run_time);
    world.start();
    world.simulator().run_for(Duration::s(3));
    apps::IperfDownloadClient client(world.ue_transport(), {world.server_addr(), 5001},
                                     world.simulator());
    world.simulator().run_for(run_time + Duration::s(5));
    std::printf("bytes %llu\nmbps %.3f\n",
                static_cast<unsigned long long>(client.total_bytes()),
                client.mean_throughput_bps() / 1e6);
  }

  std::printf("handovers %llu\nmttho_s %.2f\n",
              static_cast<unsigned long long>(world.handovers()), world.mttho_s());
  if (const Summary* lat = world.attach_latencies_ms(); lat && !lat->empty()) {
    std::printf("attach_ms_mean %.2f\n", lat->mean());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return usage();
  if (args.command == "attach") return cmd_attach(args);
  if (args.command == "drive") return cmd_drive(args);
  if (args.command == "storm") return cmd_storm(args);
  return usage();
}
