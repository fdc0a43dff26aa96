// Sharded-broker scaling + failover benchmark (DESIGN.md §12).
//
// Two experiments against the replicated-settlement-log broker cluster,
// driven by the synthetic SAP/report load generator (broker_loadgen.hpp):
//
//   1. Scaling: a fixed report-ingest load offered to 1/2/4/8 shards. The
//      offered rate is sized above one shard's report service capacity
//      (BrokerShard::kReportServiceTime = 1 ms -> ~1000 rps/shard), so the
//      single-shard point saturates and the curve shows ingest spreading
//      across bucket owners.
//   2. Failover availability: 4 shards under steady load; one shard is
//      killed at t=10 s for 10 s. The acceptance gate: ZERO billing verdicts
//      lost (every ingested report pair gets exactly one verdict, possibly
//      late) and no verdict-content conflicts from failover double-pairing.
//
// Determinism: --replay runs the failover trial twice with the same seed and
// compares run fingerprints; divergence exits nonzero (CI hard gate, also
// the chaos-replay leg of tools/ci.sh).
//
// Usage: bench_broker_shards [--smoke] [--json FILE] [--replay]
//   --smoke   shorter load phase + fewer clients (CI schema check)
//   --json    also write machine-readable results to FILE
//   --replay  determinism gate only (skips the scaling sweep)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "scenario/broker_loadgen.hpp"
#include "scenario/trial_runner.hpp"

using namespace cb;
using namespace cb::scenario;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ScalePoint {
  int n_shards = 0;
  BrokerLoadgenResult r;
  double wall_s = 0.0;
};

BrokerLoadgenConfig scaling_config(int n_shards, bool smoke) {
  BrokerLoadgenConfig cfg;
  cfg.n_shards = n_shards;
  // 48 clients x 2 reports / 80 ms = 1200 rps offered: above a single
  // shard's ~1000 rps report service capacity, below two shards'.
  cfg.n_clients = smoke ? 8 : 48;
  cfg.report_interval = Duration::millis(80);
  cfg.duration_s = smoke ? 5.0 : 30.0;
  cfg.drain_s = smoke ? 20.0 : 60.0;
  cfg.seed = 42;
  return cfg;
}

BrokerLoadgenConfig failover_config(bool smoke) {
  BrokerLoadgenConfig cfg;
  cfg.n_shards = 4;
  cfg.n_clients = smoke ? 8 : 32;
  cfg.report_interval = Duration::millis(500);
  cfg.duration_s = smoke ? 12.0 : 30.0;
  cfg.drain_s = 60.0;  // full: pair_timeout (45 s) + takeover slack
  cfg.seed = 42;
  cfg.kill_shard = 1;
  cfg.kill_at_s = smoke ? 3.0 : 10.0;
  cfg.kill_duration_s = smoke ? 5.0 : 10.0;
  return cfg;
}

void print_result(const char* tag, const BrokerLoadgenResult& r) {
  std::printf(
      "  %-10s sessions=%llu ingested=%llu (%.0f rps) acked=%llu/%llu "
      "abandoned=%llu redirects=%llu takeovers=%llu\n"
      "  %-10s verdicts: paired=%llu missing=%llu conflicts=%llu LOST=%llu "
      "ack p50/p99=%.1f/%.1f ms\n",
      tag, (unsigned long long)r.sessions_issued, (unsigned long long)r.reports_ingested,
      r.ingest_rps, (unsigned long long)r.reports_acked, (unsigned long long)r.reports_sent,
      (unsigned long long)r.reports_abandoned, (unsigned long long)r.redirects_sent,
      (unsigned long long)r.takeovers, "", (unsigned long long)r.verdicts_paired,
      (unsigned long long)r.verdicts_missing, (unsigned long long)r.verdict_conflicts,
      (unsigned long long)r.verdicts_lost, r.ack_p50_ms, r.ack_p99_ms);
}

void json_result(FILE* f, const BrokerLoadgenResult& r, double wall_s) {
  std::fprintf(f,
               "{\"sessions_issued\": %llu, \"reports_sent\": %llu, "
               "\"reports_acked\": %llu, \"reports_abandoned\": %llu, "
               "\"reports_ingested\": %llu, \"reports_deduped\": %llu, "
               "\"ingest_rps\": %.1f, \"redirects_sent\": %llu, "
               "\"takeovers\": %llu, \"verdicts_paired\": %llu, "
               "\"verdicts_missing\": %llu, \"verdict_conflicts\": %llu, "
               "\"verdicts_lost\": %llu, \"ack_p50_ms\": %.2f, "
               "\"ack_p99_ms\": %.2f, \"fingerprint\": \"%llx\", "
               "\"wall_s\": %.2f}",
               (unsigned long long)r.sessions_issued, (unsigned long long)r.reports_sent,
               (unsigned long long)r.reports_acked, (unsigned long long)r.reports_abandoned,
               (unsigned long long)r.reports_ingested, (unsigned long long)r.reports_deduped,
               r.ingest_rps, (unsigned long long)r.redirects_sent,
               (unsigned long long)r.takeovers, (unsigned long long)r.verdicts_paired,
               (unsigned long long)r.verdicts_missing,
               (unsigned long long)r.verdict_conflicts, (unsigned long long)r.verdicts_lost,
               r.ack_p50_ms, r.ack_p99_ms, (unsigned long long)r.fingerprint(), wall_s);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false, replay_only = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--replay") == 0) replay_only = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }

  bool ok = true;

  // --- Determinism gate: same seed, same config -> identical fingerprint ---
  std::printf("# Failover determinism (two same-seed runs)\n");
  const BrokerLoadgenConfig fo_cfg = failover_config(smoke || replay_only);
  double wall0 = now_s();
  BrokerLoadgenResult fo_a = BrokerLoadgen(fo_cfg).run();
  const double fo_wall = now_s() - wall0;
  BrokerLoadgenResult fo_b = BrokerLoadgen(fo_cfg).run();
  const bool replay_ok = fo_a.fingerprint() == fo_b.fingerprint();
  std::printf("  fingerprints %016llx / %016llx -> %s\n",
              (unsigned long long)fo_a.fingerprint(), (unsigned long long)fo_b.fingerprint(),
              replay_ok ? "IDENTICAL" : "DIVERGED (FAIL)");
  ok = ok && replay_ok;

  // --- Failover availability gate ---
  std::printf("# Failover: kill shard %d at %.0fs for %.0fs (%d shards, %d clients)\n",
              fo_cfg.kill_shard, fo_cfg.kill_at_s, fo_cfg.kill_duration_s, fo_cfg.n_shards,
              fo_cfg.n_clients);
  print_result("failover", fo_a);
  const bool failover_ok = fo_a.verdicts_lost == 0 && fo_a.verdict_conflicts == 0 &&
                           fo_a.takeovers > 0 && fo_a.sessions_issued > 0;
  std::printf("  gate: lost=0 conflicts=0 takeovers>0 -> %s\n",
              failover_ok ? "PASS" : "FAIL");
  ok = ok && failover_ok;

  std::vector<ScalePoint> points;
  if (!replay_only) {
    // --- Scaling sweep (independent sims -> thread pool) ---
    std::printf("# Scaling: %d clients @ %.0f ms period vs shard count\n",
                scaling_config(1, smoke).n_clients,
                scaling_config(1, smoke).report_interval.to_millis());
    for (int n : {1, 2, 4, 8}) {
      ScalePoint p;
      p.n_shards = n;
      points.push_back(std::move(p));
    }
    TrialRunner runner;
    runner.map(points.size(), [&points, smoke](std::size_t i) {
      const double w0 = now_s();
      points[i].r = BrokerLoadgen(scaling_config(points[i].n_shards, smoke)).run();
      points[i].wall_s = now_s() - w0;
      return 0;
    });
    for (const auto& p : points) {
      std::printf("shards=%d\n", p.n_shards);
      print_result("scale", p.r);
      // Gate: every offered report eventually ingested+deduped (no loss in
      // steady state) and zero pairing anomalies at every shard count.
      const bool point_ok = p.r.verdicts_lost == 0 && p.r.verdict_conflicts == 0 &&
                            p.r.attach_failures == 0 && p.r.sessions_issued > 0;
      if (!point_ok) {
        std::printf("  gate FAIL at shards=%d\n", p.n_shards);
        ok = false;
      }
    }
    // The sharded points must clear the single-shard saturation ceiling.
    if (points.size() == 4 && points[0].r.ingest_rps > 0) {
      const double speedup = points[2].r.ingest_rps / points[0].r.ingest_rps;
      std::printf("# 4-shard / 1-shard sustained ingest: %.2fx\n", speedup);
    }
  }

  if (json_path != nullptr) {
    FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::perror("bench_broker_shards: --json open");
      return 1;
    }
    std::fprintf(f, "{\n  \"smoke\": %s,\n  \"replay_identical\": %s,\n",
                 smoke ? "true" : "false", replay_ok ? "true" : "false");
    std::fprintf(f, "  \"failover\": ");
    json_result(f, fo_a, fo_wall);
    std::fprintf(f, ",\n  \"scaling\": [");
    for (std::size_t i = 0; i < points.size(); ++i) {
      std::fprintf(f, "%s\n    {\"n_shards\": %d, \"point\": ", i ? "," : "",
                   points[i].n_shards);
      json_result(f, points[i].r, points[i].wall_s);
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
  }

  std::printf("%s\n", ok ? "bench_broker_shards: OK" : "bench_broker_shards: FAILED");
  return ok ? 0 : 1;
}
