// cbsim — command-line driver for the CellBricks simulation library:
// `attach` runs N sequential attachments and prints latency + module
// breakdown, `drive` drives a route running one application and prints its
// metrics, `storm` sends N simultaneous attach requests against one cell
// (usage() lists the flags). Exit code 0 on success, 2 on an unknown flag
// or value, including a number that is malformed or out of range; metrics
// go to stdout, one `key value` per line — convenient for scripting sweeps.
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "common/parse.hpp"
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
  App app = App::Iperf;
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

/// Largest --n, --ues or --secs.
constexpr std::uint64_t kMaxCount = std::numeric_limits<int>::max();
constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();

bool unknown(const char* what, const std::string& value) {
  std::fprintf(stderr, "unknown %s: %s\n", what, value.c_str());
  return false;
}

/// A numeric flag whose value the checked parser refused (or that has no
/// value): false, so parse() fails and cbsim exits 2.
bool bad_number(const std::string& flag, const char* value, const char* want) {
  if (value != nullptr) std::fprintf(stderr, "cbsim: %s %s: want %s\n", flag.c_str(), value, want);
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
    // The flag's value as an integer in [min, max], into `dst`.
    auto integer = [&](auto& dst, std::uint64_t min, std::uint64_t max, const char* want) {
      const char* v = next();
      const auto n = v != nullptr ? parse_uint(v, min, max) : std::nullopt;
      if (!n) return bad_number(flag, v, want);
      dst = static_cast<std::remove_reference_t<decltype(dst)>>(*n);
      return true;
    };
    auto count = [&](auto& dst) { return integer(dst, 1, kMaxCount, "an integer >= 1"); };
    // The flag's value as a number in [0, max), into `dst`.
    auto real = [&](double& dst, double max, const char* want) {
      const char* v = next();
      const auto x = v != nullptr ? parse_real(v, 0.0, max) : std::nullopt;
      if (!x) return bad_number(flag, v, want);
      dst = *x;
      return true;
    };
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
      const auto app = app_from_string(v);
      if (!app) return unknown("app", v);
      out.app = *app;
    } else if (flag == "--rtt-ms") {
      if (!real(out.rtt_ms, kInf, "a number >= 0")) return false;
    } else if (flag == "--n") {
      if (!count(out.n)) return false;
    } else if (flag == "--ues") {
      if (!count(out.ues)) return false;
    } else if (flag == "--loss") {
      if (!real(out.loss, 1.0, "a number in [0, 1)")) return false;
    } else if (flag == "--secs") {
      if (!count(out.secs)) return false;
    } else if (flag == "--seed") {
      if (!integer(out.seed, 0, kMaxU64, "an integer >= 0")) return false;
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
  Table1Options options;
  options.duration = Duration::s(a.secs);
  options.seed = a.seed;
  const AppRun run = run_app(a.app, a.protocol, route, options);
  std::printf("protocol %s\nroute %s\n", to_string(a.protocol), route.name.c_str());
  for (const AppMetric& m : run.metrics) std::printf("%s %.*f\n", m.name, m.decimals, m.value);
  std::printf("handovers %llu\nmttho_s %.2f\n", static_cast<unsigned long long>(run.handovers),
              run.mttho_s);
  if (run.attach_ms_mean) std::printf("attach_ms_mean %.2f\n", *run.attach_ms_mean);
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
