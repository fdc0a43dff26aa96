// cbbench — the repository benchmark: four workloads through the
// simulator's public entry points, with end-to-end metrics from untraced
// repetitions and per-layer metrics from a traced run (see README.md).
//
// Usage: cbbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                [--trace-dir DIR] [--doctor KIND]
//
// Repeats the workload until --seconds of wall time have passed (at least
// twice untraced; in the traced run, untraced and traced repetitions
// alternate), checks every repetition's gates and that all repetitions
// share one fingerprint, prints every metric by name with its unit, and
// ends with one JSON line. Exits 1 when a gate fails, 2 on bad arguments.
// The default seed is 1; 7 is the held-out seed every gate must also pass.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "harness.hpp"
#include "obs/metrics.hpp"

using namespace cbbench;

namespace {

constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".bench_build/traces";
  Doctor doctor = Doctor::None;
};

int usage(const char* why) {
  std::fprintf(stderr, "cbbench: %s\n", why);
  std::fprintf(stderr,
               "usage: cbbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
               "               [--trace-dir DIR] [--doctor lost_verdict|unfinished_flow|"
               "violation|fingerprint]\nworkloads:");
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (o.seconds < 0) return false;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return false;
      o.trace = v == "1";
    } else if (flag == "--trace-dir") {
      o.trace_dir = v;
    } else if (flag == "--doctor") {
      if (v == "lost_verdict") o.doctor = Doctor::LostVerdict;
      else if (v == "unfinished_flow") o.doctor = Doctor::UnfinishedFlow;
      else if (v == "violation") o.doctor = Doctor::Violation;
      else if (v == "fingerprint") o.doctor = Doctor::Fingerprint;
      else return false;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !o.workload.empty();
}

/// Peak RSS (VmHWM) in MB; 0 when unavailable.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::sscanf(line, "VmHWM: %lf", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct Rep {
  RepResult result;
  bool traced = false;
};

void print_json_line(bool correct, std::size_t attempted, std::size_t failed,
                     const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) return usage("bad arguments");
  const Workload* workload = nullptr;
  for (const Workload& w : workloads()) {
    if (opt.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return usage(("unknown workload " + opt.workload).c_str());

  std::unique_ptr<Tracer> tracer;
  if (opt.trace) tracer = std::make_unique<Tracer>(traced_counters());

  std::vector<Rep> reps;
  auto run_rep = [&](bool traced) {
    RunContext ctx;
    ctx.seed = opt.seed;
    ctx.doctor = opt.doctor;
    Rep rep;
    rep.traced = traced;
    if (traced) {
      cb::obs::Registry registry;
      cb::obs::ScopedRegistry scope(&registry);
      tracer->set_run(static_cast<int>(reps.size()));
      ctx.tracer = tracer.get();
      rep.result = workload->run(ctx);
    } else {
      rep.result = workload->run(ctx);
    }
    reps.push_back(std::move(rep));
  };

  const std::int64_t start = wall_ns();
  auto elapsed_s = [&] { return static_cast<double>(wall_ns() - start) / 1e9; };
  // The first repetition runs in a fresh process, so the VmHWM watermark
  // after it is that workload's own peak plus the harness's small
  // baseline. Later repetitions reuse a heap the earlier ones grew, so
  // their peaks would depend on how many ran before them.
  double peak_rss = 0.0;
  do {
    run_rep(false);
    if (reps.size() == 1) peak_rss = peak_rss_mb();
    if (opt.trace) run_rep(true);
  } while ((!opt.trace && reps.size() < 2) || elapsed_s() < opt.seconds);

  if (opt.doctor == Doctor::Fingerprint) reps.back().result.fingerprint ^= 1;

  // Gates: every repetition's own, plus the determinism witness — every
  // repetition (traced or not) must reproduce the first bit for bit.
  std::vector<std::string> failures;
  std::size_t failed_reps = 0;
  const RepResult& first = reps.front().result;
  for (const Rep& rep : reps) {
    std::vector<std::string> mine = rep.result.failures;
    const char* what = rep.traced ? "determinism: traced run differs from untraced"
                                  : "determinism: repeated runs differ";
    bool same = rep.result.fingerprint == first.fingerprint &&
                rep.result.sim.size() == first.sim.size();
    for (std::size_t i = 0; same && i < first.sim.size(); ++i) {
      same = std::memcmp(&rep.result.sim[i].value, &first.sim[i].value, sizeof(double)) == 0;
    }
    if (!same) mine.push_back(what);
    if (!mine.empty()) ++failed_reps;
    for (const std::string& f : mine) {
      if (std::find(failures.begin(), failures.end(), f) == failures.end()) failures.push_back(f);
    }
  }

  std::vector<double> setup_s, run_s, run_wall_s, traced_run_s;
  for (const Rep& rep : reps) {
    if (rep.traced) {
      traced_run_s.push_back(rep.result.run_s);
      continue;
    }
    setup_s.push_back(rep.result.setup_s);
    run_s.push_back(rep.result.run_s);
    run_wall_s.push_back(rep.result.run_wall_s);
  }

  std::printf("cbbench %s  seed=%llu  trace=%d  repetitions=%zu (%zu untraced)\n",
              workload->name, static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
              reps.size(), run_s.size());
  std::printf("  why: %s\n", workload->why);
  std::printf("  open loop in simulated time: operations are timed from when they were due, "
              "so generator lateness is 0 by construction\n");
  std::printf("  end-to-end (host CPU time, median of untraced repetitions):\n");
  std::printf("    %-18s %14.6f s\n", "setup_s", median(setup_s));
  std::printf("    %-18s %14.6f s   (wall: %.6f s)\n", "run_s", median(run_s),
              median(run_wall_s));
  std::printf("    %-18s %14.3f MB   (first repetition)\n", "peak_rss_mb", peak_rss);
  std::printf("    run_s by repetition:");
  for (double s : run_s) std::printf(" %.4f", s);
  std::printf("\n");
  std::printf("  end-to-end (simulated time, identical in every repetition):\n");
  for (const Metric& m : first.sim) {
    std::printf("    %-18s %14.6f %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  std::printf("    %-18s 0x%016llx\n", "fingerprint",
              static_cast<unsigned long long>(first.fingerprint));

  std::vector<Metric> out;
  if (!opt.trace) {
    out = {{"setup_s", median(setup_s), "s", ""},
           {"run_s", median(run_s), "s", ""},
           {"peak_rss_mb", peak_rss, "MB", ""}};
  } else {
    // Per-layer metrics: median over the traced repetitions (counts repeat
    // exactly; host times vary), plus the tracing overhead.
    std::map<std::string, std::vector<double>> samples;
    for (const Rep& rep : reps) {
      for (const auto& [name, value] : rep.result.layer) samples[name].push_back(value);
    }
    samples["trace.overhead_s"] = {median(traced_run_s) - median(run_s)};
    std::printf("  per-layer (traced, median of %zu repetitions):\n", traced_run_s.size());
    for (const auto& [name, unit] : layer_metrics()) {
      const double v = samples.count(name) ? median(samples[name]) : 0.0;
      std::printf("    %-32s %16.6f %s\n", name.c_str(), v, unit.c_str());
      out.push_back({name, v, unit, ""});
    }
    std::error_code ec;
    std::filesystem::create_directories(opt.trace_dir, ec);
    const std::string path = opt.trace_dir + "/" + workload->name + "-seed" +
                             std::to_string(opt.seed) + ".json";
    if (tracer->write_json(path)) {
      std::printf("  spans: %zu written to %s\n", tracer->size(), path.c_str());
    } else {
      failures.push_back("trace: cannot write " + path);
    }
  }

  for (const std::string& f : failures) std::printf("  GATE FAILED: %s\n", f.c_str());
  std::printf("  gates: %s\n", failures.empty() ? "all passed" : "FAILED");
  print_json_line(failures.empty(), reps.size(), failed_reps, out);
  return failures.empty() ? 0 : 1;
}
