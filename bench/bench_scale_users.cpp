// Scaling benchmark — the §6 claim that CellBricks "scales to a large
// number of users under different radio conditions": an attach storm of N
// concurrent UEs against one bTelco/brokerd (and the EPC baseline), plus a
// control-path loss sweep exercising the SAP retransmission machinery.
//
// With --fluid it also measures the hybrid traffic engine (DESIGN.md §11):
//   - the scale curve: bulk-download workloads at 1k/10k/100k UEs in fluid
//     mode, reporting wall-clock, simulated-seconds-per-wall-second, and
//     peak RSS — the numbers behind the 100k-1M-UE claim;
//   - the packet-vs-fluid agreement gate at small N: same seed-derived
//     workload through both fidelity modes must agree byte-exactly on
//     delivered bytes + billing and within the documented tolerance on
//     completion times. Disagreement exits nonzero (CI hard gate);
//   - the parallel-drain gate: 10k UEs at 1 and 4 drain threads must be
//     bit-identical, and the 4-thread arm must have used the drain pool.
//
// Every sweep point is an independent seeded Simulator, so points run
// concurrently on a TrialRunner thread pool; results are collected in
// submission order and the tables print identically to a sequential run.
// The fluid scale-curve points run sequentially so each point's wall-clock
// and peak-RSS delta are attributable to that point alone.
//
// Usage: bench_scale_users [--smoke] [--fluid] [--fluid-threads N]
//                          [--json FILE] [--no-metrics]
//   --smoke          small point set (CI schema check, not a measurement)
//   --fluid          add the fluid scale curve + the agreement gates
//   --fluid-threads  worker threads for the fluid engine's reallocation
//                    drain on the curve points (default 1; any value is
//                    bit-identical — the 1-vs-4 gate below proves it)
//   --json           also write machine-readable results + wall-clock to FILE
//   --no-metrics     run with observability disabled (instrumentation-
//                    overhead baseline for tools/bench.sh)
//
// The storm sweep reports process CPU seconds (every pool thread) beside its
// wall time: tools/bench.sh's instrumentation-overhead guard compares CPU
// seconds, which hypervisor steal on a shared VM does not inflate.
#include <time.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "scenario/attach_experiment.hpp"
#include "scenario/scale_traffic.hpp"
#include "scenario/trial_runner.hpp"

using namespace cb;
using namespace cb::scenario;

namespace {

struct StormPoint {
  int n_ues;
  Architecture arch;
  double loss;
  AttachStorm result;
  double wall_s = 0.0;
};

struct FluidPoint {
  int n_ues;
  ScaleTrafficResult result;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
};

struct Agreement {
  int n_ues = 0;
  bool bytes_exact = false;
  bool billing_exact = false;
  double fluid_mean_s = 0.0, packet_mean_s = 0.0;
  double fluid_p99_s = 0.0, packet_p99_s = 0.0;
  double mean_err = 0.0, p99_err = 0.0;  // relative to packet ground truth
  bool pass = false;
};

const char* arch_name(Architecture a) { return a == Architecture::CellBricks ? "CB" : "BL"; }

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds consumed so far by the whole process (all threads).
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak RSS (VmHWM) in MB from /proc/self/status; 0 when unavailable.
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

/// Reset the kernel's peak-RSS watermark so each curve point reads its OWN
/// peak: VmHWM is a process-lifetime high-water mark, so without the reset
/// later points inherit earlier points' peaks and the 1M memory number
/// would be a lie. Returns false when /proc/self/clear_refs is unavailable
/// (non-Linux); callers fall back to reporting the watermark delta.
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (!f) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// Tracks which pool workers actually executed a trial, so the JSON can
/// report threads *used* rather than the pool size (on a small point set
/// the pool may be larger than the number of concurrent trials).
class ThreadUse {
 public:
  void note() {
    std::lock_guard<std::mutex> lock(mu_);
    ids_.insert(std::this_thread::get_id());
  }
  unsigned count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<unsigned>(ids_.size());
  }

 private:
  mutable std::mutex mu_;
  std::set<std::thread::id> ids_;
};

ScaleTrafficConfig curve_config(int n_ues, int fluid_threads = 1) {
  ScaleTrafficConfig cfg;
  cfg.mode = TrafficMode::Fluid;
  cfg.n_ues = n_ues;
  cfg.seed = 42;
  cfg.mean_flow_mbytes = 5.0;
  cfg.start_window_s = 10.0;
  cfg.shaper_resample_s = 30.0;
  cfg.horizon_s = 3600.0;
  cfg.fluid_threads = fluid_threads;
  return cfg;
}

/// The parallel-determinism gate (DESIGN.md §13): the same curve point at 1
/// and 4 drain threads must produce the same fingerprint (delivered bytes,
/// billing, segment ledger, event counts — all folded in) and byte-identical
/// metrics snapshots. Mismatch exits nonzero, like the agreement gate.
/// Necessary but not sufficient: a preemption-timing-dependent data race can
/// pass output equality on virtually every run, so the race class itself is
/// checked by the TSan leg in tools/ci.sh, not by this gate. The engine fills
/// small drains inline, so the gate also requires that the N-thread arm
/// handed drains to the pool; otherwise its two arms could not differ.
struct ThreadAgreement {
  int n_ues = 0;
  unsigned threads = 4;
  bool fingerprint_match = false;
  bool metrics_match = false;
  std::uint64_t fingerprint_serial = 0;
  std::uint64_t fingerprint_parallel = 0;
  std::uint64_t parallel_drains = 0;
  bool pass = false;
};

ThreadAgreement run_thread_agreement(int n_ues) {
  ThreadAgreement t;
  t.n_ues = n_ues;
  struct Arm {
    std::uint64_t fingerprint = 0;
    std::string metrics_json;
    std::uint64_t parallel_drains = 0;
  };
  auto run_with = [&](int threads) {
    obs::Registry reg;
    obs::ScopedRegistry scope(&reg);
    ScaleTrafficSim sim(curve_config(n_ues, threads));
    Arm arm;
    arm.fingerprint = sim.run_to_completion().fingerprint();
    arm.metrics_json = reg.to_json();
    arm.parallel_drains = sim.fluid()->parallel_drains();
    return arm;
  };
  const Arm serial = run_with(1);
  const Arm parallel = run_with(static_cast<int>(t.threads));
  t.fingerprint_serial = serial.fingerprint;
  t.fingerprint_parallel = parallel.fingerprint;
  t.parallel_drains = parallel.parallel_drains;
  t.fingerprint_match = t.fingerprint_serial == t.fingerprint_parallel;
  t.metrics_match = serial.metrics_json == parallel.metrics_json;
  t.pass = t.fingerprint_match && t.metrics_match && t.parallel_drains > 0;
  return t;
}

/// The CI hard gate: the PacketVsFluidAgreementSmallN tolerance, rerun as a
/// bench so the committed BENCH_scale.json carries the numbers. Runs in the
/// shaper-dominated regime (see EXPERIMENTS.md "scale curve") where the
/// fluid steady-state assumption holds; byte totals must match exactly in
/// every regime.
Agreement run_agreement_gate() {
  ScaleTrafficConfig cfg;
  cfg.n_ues = 24;
  cfg.n_cells = 2;
  cfg.seed = 3;
  cfg.mean_flow_mbytes = 2.0;
  cfg.start_window_s = 2.0;
  cfg.horizon_s = 600.0;
  cfg.scheduler_capacity_bps = 400e6;  // shaper caps are the bottleneck

  cfg.mode = TrafficMode::Fluid;
  const ScaleTrafficResult fluid = run_scale_traffic(cfg);
  cfg.mode = TrafficMode::Packet;
  const ScaleTrafficResult packet = run_scale_traffic(cfg);

  Agreement a;
  a.n_ues = cfg.n_ues;
  auto exact = [](double x, double y) {
    return std::abs(x - y) <= 1e-9 * std::max({1.0, std::abs(x), std::abs(y)});
  };
  a.bytes_exact = fluid.completed == cfg.n_ues && packet.completed == cfg.n_ues &&
                  exact(fluid.delivered_bytes, packet.delivered_bytes);
  a.billing_exact = exact(fluid.billing_usd, packet.billing_usd);
  a.fluid_mean_s = fluid.completion_mean_s;
  a.packet_mean_s = packet.completion_mean_s;
  a.fluid_p99_s = fluid.completion_p99_s;
  a.packet_p99_s = packet.completion_p99_s;
  a.mean_err = std::abs(a.fluid_mean_s - a.packet_mean_s) / a.packet_mean_s;
  a.p99_err = std::abs(a.fluid_p99_s - a.packet_p99_s) / a.packet_p99_s;
  a.pass = a.bytes_exact && a.billing_exact && a.mean_err <= 0.15 && a.p99_err <= 0.25;
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool fluid_axis = false;
  bool metrics_enabled = true;
  int fluid_threads = 1;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--fluid") == 0) fluid_axis = true;
    else if (std::strcmp(argv[i], "--fluid-threads") == 0 && i + 1 < argc)
      fluid_threads = std::max(std::atoi(argv[++i]), 1);
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
    else if (std::strcmp(argv[i], "--no-metrics") == 0) metrics_enabled = false;
  }

  // Root registry for the whole bench: TrialRunner gives each sweep point a
  // private per-trial registry and merges them back here in index order, so
  // the snapshot below is byte-identical across same-seed runs regardless of
  // thread count or completion order.
  obs::Registry metrics;
  obs::ScopedRegistry scoped(metrics_enabled ? &metrics : nullptr);

  const std::vector<int> storm_sizes = smoke ? std::vector<int>{1, 10}
                                             : std::vector<int>{1, 10, 50, 100, 200};
  const std::vector<double> losses = smoke ? std::vector<double>{0.0, 0.05}
                                           : std::vector<double>{0.0, 0.01, 0.05, 0.10};
  const int loss_ues = smoke ? 10 : 50;
  // The full curve ends at 1M UEs — the ROADMAP scale target. Release-only
  // in CI (scale ctest label covers the test-suite variant); the smoke set
  // stays small enough for the sanitizer legs.
  const std::vector<int> curve_sizes =
      smoke ? std::vector<int>{1000, 10000}
            : std::vector<int>{1000, 10000, 100000, 1000000};

  std::vector<StormPoint> points;
  for (int n : storm_sizes) {
    for (Architecture arch : {Architecture::Mno, Architecture::CellBricks}) {
      points.push_back({n, arch, 0.0, {}});
    }
  }
  std::vector<StormPoint> loss_points;
  for (double loss : losses) {
    loss_points.push_back({loss_ues, Architecture::CellBricks, loss, {}});
  }

  ThreadUse threads_used;
  const auto wall_start = std::chrono::steady_clock::now();
  const double cpu_start = process_cpu_s();
  TrialRunner runner;
  {
    auto timed_storm = [&](const StormPoint& p) {
      threads_used.note();
      const double t0 = now_s();
      StormPoint out = p;
      out.result = run_attach_storm(p.arch, p.n_ues, Duration::millis(7.2), p.loss);
      out.wall_s = now_s() - t0;
      return out;
    };
    auto storm = runner.map(points.size(), [&](std::size_t i) { return timed_storm(points[i]); });
    for (std::size_t i = 0; i < points.size(); ++i) points[i] = storm[i];

    auto swept =
        runner.map(loss_points.size(), [&](std::size_t i) { return timed_storm(loss_points[i]); });
    for (std::size_t i = 0; i < loss_points.size(); ++i) loss_points[i] = swept[i];
  }

  // The storm wall-clock is the number tracked against the frozen pre-PR3
  // baseline in BENCH_scale.json — keep it storm-only so the speedup stays
  // comparable; the fluid axis gets its own timer.
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  const double cpu_s = process_cpu_s() - cpu_start;

  // Fluid scale curve + agreement gates — sequential on purpose (see header).
  std::vector<FluidPoint> curve;
  Agreement agreement;
  ThreadAgreement thread_agreement;
  bool rss_reset_ok = true;
  const auto fluid_start = std::chrono::steady_clock::now();
  if (fluid_axis) {
    for (int n : curve_sizes) {
      FluidPoint p;
      p.n_ues = n;
      const double rss_before = peak_rss_mb();
      const bool did_reset = reset_peak_rss();
      rss_reset_ok = rss_reset_ok && did_reset;
      const double t0 = now_s();
      p.result = run_scale_traffic(curve_config(n, fluid_threads));
      p.wall_s = now_s() - t0;
      // Post-reset VmHWM is this point's own peak; without clear_refs fall
      // back to the watermark delta (a floor of the true per-point peak).
      p.peak_rss_mb = did_reset ? peak_rss_mb() : std::max(peak_rss_mb() - rss_before, 0.0);
      curve.push_back(p);
    }
    agreement = run_agreement_gate();
    // 10k UEs in 20 cells: the epoch drains cross the engine's pool-size
    // rule, which 1000 UEs in 2 cells never do.
    thread_agreement = run_thread_agreement(10000);
  }
  const double fluid_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - fluid_start).count();

  std::printf("=== Scale: N simultaneous attach requests (one cell, brokerd at "
              "us-west RTT) ===\n\n");
  std::printf("%6s %-4s %12s %12s %10s\n", "N UEs", "arch", "mean(ms)", "p99(ms)",
              "completed");
  for (const StormPoint& p : points) {
    std::printf("%6d %-4s %12.2f %12.2f %6d/%d\n", p.n_ues, arch_name(p.arch),
                p.result.mean_ms, p.result.p99_ms, p.result.completed, p.n_ues);
  }
  std::printf("\n(Queueing at the serial control-plane services dominates at high N;\n"
              " CB queues once at brokerd, BL queues twice at the HSS.)\n");

  std::printf("\n=== Degraded control path: %d UEs, loss on the tower<->cloud link "
              "(CellBricks, SAP retransmission active) ===\n\n", loss_ues);
  std::printf("%8s %12s %12s %10s\n", "loss", "mean(ms)", "p99(ms)", "completed");
  for (const StormPoint& p : loss_points) {
    std::printf("%7.0f%% %12.2f %12.2f %7d/%d\n", p.loss * 100, p.result.mean_ms,
                p.result.p99_ms, p.result.completed, p.n_ues);
  }
  std::printf("\n(Lost SAP datagrams are recovered by the bTelco's 1 s retransmission;\n"
              " completion stays high while tail latency grows with loss.)\n");

  if (fluid_axis) {
    std::printf("\n=== Fluid scale curve: N bulk downloads, hybrid engine in fluid mode "
                "(5 MB mean flows, Appendix-A night shaper) ===\n\n");
    std::printf("%8s %10s %10s %12s %12s %12s %10s\n", "N UEs", "wall(s)", "sim(s)",
                "sim-s/wall-s", "events/UE", "peakRSS(MB)", "completed");
    for (const FluidPoint& p : curve) {
      std::printf("%8d %10.3f %10.1f %12.1f %12.1f %12.1f %6d/%d\n", p.n_ues, p.wall_s,
                  p.result.sim_s, p.result.sim_s / std::max(p.wall_s, 1e-9),
                  static_cast<double>(p.result.events) / p.n_ues, p.peak_rss_mb,
                  p.result.completed, p.n_ues);
    }
    std::printf("\n(Events scale with rate changes, not packets: the arena keeps\n"
                " per-session state at %zu B so 1M sessions stay in ~74 MB.\n"
                " peakRSS is per-point%s; fluid drain threads: %d.)\n",
                traffic::SessionArena::bytes_per_session(),
                rss_reset_ok ? " (VmHWM reset between points)"
                             : " (watermark delta — clear_refs unavailable)",
                fluid_threads);

    std::printf("\n=== Parallel-drain determinism gate (%d UEs, 1 vs %u fluid threads) ===\n\n",
                thread_agreement.n_ues, thread_agreement.threads);
    std::printf("  fingerprint:      %016llx vs %016llx -> %s\n",
                static_cast<unsigned long long>(thread_agreement.fingerprint_serial),
                static_cast<unsigned long long>(thread_agreement.fingerprint_parallel),
                thread_agreement.fingerprint_match ? "identical" : "DIVERGED");
    std::printf("  metrics snapshot: %s\n",
                thread_agreement.metrics_match ? "byte-identical" : "DIVERGED");
    std::printf("  pool drains:      %llu%s\n",
                static_cast<unsigned long long>(thread_agreement.parallel_drains),
                thread_agreement.parallel_drains > 0 ? "" : " (pool never ran)");
    std::printf("  => %s\n", thread_agreement.pass ? "PASS" : "FAIL");

    std::printf("\n=== Packet-vs-fluid agreement gate (%d UEs, shaper-dominated) ===\n\n",
                agreement.n_ues);
    std::printf("  delivered bytes exact: %s\n", agreement.bytes_exact ? "yes" : "NO");
    std::printf("  billing exact:         %s\n", agreement.billing_exact ? "yes" : "NO");
    std::printf("  completion mean:  fluid %.3f s vs packet %.3f s (%.1f%%, budget 15%%)\n",
                agreement.fluid_mean_s, agreement.packet_mean_s, agreement.mean_err * 100);
    std::printf("  completion p99:   fluid %.3f s vs packet %.3f s (%.1f%%, budget 25%%)\n",
                agreement.fluid_p99_s, agreement.packet_p99_s, agreement.p99_err * 100);
    std::printf("  => %s\n", agreement.pass ? "PASS" : "FAIL");
  }

  std::printf("\nwall-clock: %.3f s storms (%.3f s CPU) on %u threads (%u-thread pool)%s\n",
              wall_s, cpu_s, threads_used.count(), runner.thread_count(),
              smoke ? " (smoke mode)" : "");
  if (fluid_axis) std::printf("wall-clock: %.3f s fluid curve + agreement gate\n", fluid_wall_s);
  if (metrics_enabled) std::printf("%s\n", metrics.digest().c_str());

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"scale_users\",\n  \"mode\": \"%s\",\n"
                 "  \"wall_s\": %.3f,\n  \"cpu_s\": %.4f,\n  \"threads\": %u,\n"
                 "  \"thread_pool\": %u,\n  \"points\": [\n",
                 smoke ? "smoke" : "full", wall_s, cpu_s, threads_used.count(),
                 runner.thread_count());
    bool first = true;
    auto emit = [&](const StormPoint& p) {
      std::fprintf(f,
                   "%s    {\"n_ues\": %d, \"arch\": \"%s\", \"loss\": %.2f, "
                   "\"mean_ms\": %.2f, \"p99_ms\": %.2f, \"completed\": %d, "
                   "\"wall_s\": %.4f, \"sim_s\": %.4f, \"sim_per_wall\": %.1f}",
                   first ? "" : ",\n", p.n_ues, arch_name(p.arch), p.loss,
                   p.result.mean_ms, p.result.p99_ms, p.result.completed, p.wall_s,
                   p.result.sim_s, p.result.sim_s / std::max(p.wall_s, 1e-9));
      first = false;
    };
    for (const StormPoint& p : points) emit(p);
    for (const StormPoint& p : loss_points) emit(p);
    std::fprintf(f, "\n  ]");
    if (fluid_axis) {
      std::fprintf(f, ",\n  \"fluid_wall_s\": %.3f,\n  \"scale_curve\": [\n", fluid_wall_s);
      first = true;
      for (const FluidPoint& p : curve) {
        std::fprintf(f,
                     "%s    {\"n_ues\": %d, \"completed\": %d, \"wall_s\": %.3f, "
                     "\"sim_s\": %.1f, \"sim_per_wall\": %.1f, \"events\": %llu, "
                     "\"rate_events\": %llu, \"peak_rss_mb\": %.1f, "
                     "\"arena_mb\": %.2f, \"total_gbytes\": %.2f}",
                     first ? "" : ",\n", p.n_ues, p.result.completed, p.wall_s,
                     p.result.sim_s, p.result.sim_s / std::max(p.wall_s, 1e-9),
                     static_cast<unsigned long long>(p.result.events),
                     static_cast<unsigned long long>(p.result.rate_events), p.peak_rss_mb,
                     p.result.arena_bytes / (1024.0 * 1024.0), p.result.total_gbytes);
        first = false;
      }
      std::fprintf(f,
                   "\n  ],\n  \"fluid_threads\": %d,\n  \"rss_mode\": \"%s\",\n"
                   "  \"agreement\": {\"n_ues\": %d, \"pass\": %s, "
                   "\"bytes_exact\": %s, \"billing_exact\": %s, "
                   "\"mean_err_pct\": %.2f, \"p99_err_pct\": %.2f, "
                   "\"mean_budget_pct\": 15.0, \"p99_budget_pct\": 25.0},\n"
                   "  \"thread_agreement\": {\"n_ues\": %d, \"threads\": %u, "
                   "\"pass\": %s, \"fingerprint_match\": %s, \"metrics_match\": %s, "
                   "\"parallel_drains\": %llu, \"fingerprint\": \"%016llx\"}",
                   fluid_threads, rss_reset_ok ? "reset" : "delta",
                   agreement.n_ues, agreement.pass ? "true" : "false",
                   agreement.bytes_exact ? "true" : "false",
                   agreement.billing_exact ? "true" : "false", agreement.mean_err * 100,
                   agreement.p99_err * 100, thread_agreement.n_ues,
                   thread_agreement.threads, thread_agreement.pass ? "true" : "false",
                   thread_agreement.fingerprint_match ? "true" : "false",
                   thread_agreement.metrics_match ? "true" : "false",
                   static_cast<unsigned long long>(thread_agreement.parallel_drains),
                   static_cast<unsigned long long>(thread_agreement.fingerprint_serial));
    }
    std::fprintf(f, ",\n  \"metrics_enabled\": %s",
                 metrics_enabled ? "true" : "false");
    if (metrics_enabled) {
      std::fprintf(f, ",\n  \"metrics\": %s", metrics.to_json().c_str());
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
  }

  if (fluid_axis && !agreement.pass) {
    std::fprintf(stderr, "FAIL: packet-vs-fluid agreement outside tolerance\n");
    return 1;
  }
  if (fluid_axis && !thread_agreement.pass) {
    std::fprintf(stderr, "FAIL: parallel drain diverged from serial engine, or never ran\n");
    return 1;
  }
  return 0;
}
