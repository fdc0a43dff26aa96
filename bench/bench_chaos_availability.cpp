// Chaos availability — drives a mobile UE (suburb route) through a scripted
// fault schedule and reports what the recovery machinery delivers:
// availability during/after faults, the re-attach latency distribution, and
// billing-pair completion. The scenario runs twice on the same seed and
// fails if the state fingerprints differ: fault injection must be
// bit-reproducible for regression hunting. A second replica pair repeats the
// gate with the noisy measurement channel (shadowing + fast fading + L3
// filter) enabled, pinning the channel's hash-not-RNG determinism contract.
//
// `--dump-faults F` writes the schedule as JSON; `--replay F` substitutes a
// schedule from such a file — or from a cbfuzz repro document, whose
// scenario.faults array is written by the same codec
// (check::faults_to_json) — for the built-in one.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "check/json.hpp"
#include "check/repro.hpp"
#include "obs/metrics.hpp"
#include "scenario/chaos.hpp"
#include "scenario/trial_runner.hpp"

using namespace cb;
using namespace cb::scenario;

namespace {

/// Replace cfg's schedule with the `faults` array of a dump or repro file.
void apply_faults(ChaosConfig& cfg, const check::JsonValue& doc) {
  const check::JsonValue& root = doc.contains("scenario") ? doc.at("scenario") : doc;
  cfg.faults = check::faults_from_json(root.at("faults"));
  double last_end_s = 0.0;
  for (const FuzzFault& f : cfg.faults) {
    const TimePoint end =
        TimePoint::zero() + Duration::seconds(f.start_s) + Duration::seconds(f.duration_s);
    last_end_s = std::max(last_end_s, end.to_seconds());
  }
  // Keep enough horizon past the last fault for the recovery machinery
  // (and the availability-after-faults window) to mean something.
  const double needed = last_end_s + 60.0;
  if (cfg.duration.to_seconds() < needed) cfg.duration = Duration::seconds(needed);
}

ChaosConfig make_config() {
  ChaosConfig cfg;
  cfg.world.seed = 42;
  cfg.world.route = suburb_day();
  cfg.world.n_towers = 8;
  cfg.duration = Duration::s(240);
  // Tighten recovery clocks so every mechanism resolves within the run.
  cfg.world.btelco_config.session_timeout = Duration::s(30);
  cfg.world.btelco_config.gc_interval = Duration::s(5);
  cfg.world.ue_config.attach_timeout = Duration::s(2);

  // The UE serves from cell 1 (btelco-0) until ~73 s, then cell 2, ...
  // The order is FaultPlan spec order and the --dump-faults order.
  using Kind = FuzzFault::Kind;
  cfg.faults = {
      {.kind = Kind::BrokerOutage, .start_s = 70.0, .duration_s = 15.0},
      {.kind = Kind::TelcoCrash, .start_s = 30.0, .duration_s = 20.0, .telco = 0},
      {.kind = Kind::RadioDrop, .start_s = 120.0},
      {.kind = Kind::WanDegrade, .start_s = 150.0, .duration_s = 30.0, .loss = 0.25,
       .corrupt = 0.10},
  };
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string replay_path;
  std::string dump_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
    else if (std::strcmp(argv[i], "--replay") == 0 && i + 1 < argc) replay_path = argv[++i];
    else if (std::strcmp(argv[i], "--dump-faults") == 0 && i + 1 < argc) dump_path = argv[++i];
  }

  ChaosConfig cfg = make_config();
  if (!replay_path.empty()) {
    std::ifstream in(replay_path);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", replay_path.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
      apply_faults(cfg, check::json_parse(text.str()));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad fault log %s: %s\n", replay_path.c_str(), e.what());
      return 1;
    }
    std::printf("replaying fault schedule from %s\n", replay_path.c_str());
  }
  if (!dump_path.empty()) {
    std::ofstream out(dump_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", dump_path.c_str());
      return 1;
    }
    check::JsonObject doc;
    doc["format"] = "chaos-faults-v1";
    doc["faults"] = check::faults_to_json(cfg.faults);
    out << check::JsonValue(std::move(doc)).dump(2) << "\n";
    std::printf("fault schedule written to %s\n", dump_path.c_str());
  }

  std::printf("=== Chaos availability: scripted faults vs recovery machinery ===\n\n");
  // The two same-seed replicas are independent simulators, so they run
  // concurrently on the trial pool; the determinism check compares them.
  TrialRunner runner;
  const auto replicas = runner.map(2, [&cfg](std::size_t) { return run_chaos(cfg); });
  const ChaosResult& r1 = replicas[0];
  const ChaosResult& r2 = replicas[1];

  std::printf("fault schedule (as executed):\n");
  for (const auto& e : r1.fault_log) {
    std::printf("  %7.1f s  %s\n", e.at.to_seconds(), e.what.c_str());
  }

  std::printf("\n%-34s %12s\n", "metric", "value");
  std::printf("%-34s %11.1f%%\n", "availability (whole run)", 100.0 * r1.availability);
  std::printf("%-34s %11.1f%%\n", "availability (after faults clear)",
              100.0 * r1.availability_after_faults);
  const Summary& lat = r1.reattach_latency_ms;
  std::printf("%-34s %12zu\n", "recoveries", static_cast<std::size_t>(lat.count()));
  if (lat.count() > 0) {
    std::printf("%-34s %9.0f ms\n", "re-attach latency (mean)", lat.mean());
    std::printf("%-34s %9.0f ms\n", "re-attach latency (max)", lat.max());
  }
  std::printf("%-34s %12llu\n", "bearer losses detected",
              static_cast<unsigned long long>(r1.bearer_losses));
  std::printf("%-34s %12llu\n", "attach failures",
              static_cast<unsigned long long>(r1.attach_failures));
  std::printf("%-34s %12llu\n", "sessions GCed (orphans reclaimed)",
              static_cast<unsigned long long>(r1.sessions_gced));
  std::printf("%-34s %12zu\n", "orphan sessions at end", r1.orphan_sessions);
  std::printf("%-34s %12s\n", "UE attached at end", r1.ue_attached_at_end ? "yes" : "no");
  std::printf("%-34s %12llu\n", "reports ingested",
              static_cast<unsigned long long>(r1.reports_ingested));
  std::printf("%-34s %12llu\n", "duplicate reports filtered",
              static_cast<unsigned long long>(r1.reports_deduped));
  std::printf("%-34s %12llu\n", "unpaired reports expired",
              static_cast<unsigned long long>(r1.unpaired_expired));
  std::printf("%-34s %12llu\n", "reports abandoned",
              static_cast<unsigned long long>(r1.reports_abandoned));
  std::printf("%-34s %12llu\n", "report pairs compared",
              static_cast<unsigned long long>(r1.pairs_compared));
  std::printf("%-34s %11.1f%%\n", "billing-pair completion", 100.0 * r1.pair_completion);
  std::printf("%-34s %#12llx\n", "state fingerprint",
              static_cast<unsigned long long>(r1.fingerprint));
  std::printf("%-34s %#12llx\n", "trace fingerprint",
              static_cast<unsigned long long>(r1.trace_fingerprint));

  bool ok = true;
  if (r1.fingerprint != r2.fingerprint) {
    std::printf("\nFAIL: same-seed runs diverged (%#llx vs %#llx)\n",
                static_cast<unsigned long long>(r1.fingerprint),
                static_cast<unsigned long long>(r2.fingerprint));
    ok = false;
  }
  // The obs layer must be as deterministic as the engine: both replicas'
  // metric snapshots must match byte for byte, traces bit for bit.
  if (r1.metrics_json != r2.metrics_json || r1.trace_fingerprint != r2.trace_fingerprint) {
    std::printf("\nFAIL: same-seed runs produced different metrics snapshots\n");
    ok = false;
  }
  if (r1.availability_after_faults < 0.95) {
    std::printf("\nFAIL: UE did not stay attached once faults cleared (%.1f%%)\n",
                100.0 * r1.availability_after_faults);
    ok = false;
  }
  if (r1.orphan_sessions != 0) {
    std::printf("\nFAIL: %zu orphaned sessions never GCed\n", r1.orphan_sessions);
    ok = false;
  }
  // Same gate with the measurement channel fully noisy: shadowing + fast
  // fading + the L3 filter must not cost bit-reproducibility (the channel is
  // a pure hash of (seed, UE, cell, position, tick), not an RNG stream).
  ChaosConfig fading_cfg = cfg;
  fading_cfg.world.radio_config.channel.shadow_sigma_db = 4.0;
  fading_cfg.world.radio_config.channel.decorrelation_m = 60.0;
  fading_cfg.world.radio_config.channel.fast_fading = true;
  fading_cfg.world.radio_config.l3_filter_k = 4;
  const auto fading = runner.map(2, [&fading_cfg](std::size_t) { return run_chaos(fading_cfg); });
  const bool fading_ok = fading[0].fingerprint == fading[1].fingerprint &&
                         fading[0].metrics_json == fading[1].metrics_json &&
                         fading[0].trace_fingerprint == fading[1].trace_fingerprint;
  std::printf("\nfading replica pair (shadowing 4 dB + fast fading): %s (fp %#llx)\n",
              fading_ok ? "bit-identical" : "DIVERGED",
              static_cast<unsigned long long>(fading[0].fingerprint));
  if (!fading_ok) {
    std::printf("FAIL: fading-enabled same-seed runs diverged\n");
    ok = false;
  }

  if (ok) std::printf("\ndeterminism + recovery checks passed\n");

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"chaos_availability\",\n"
                 "  \"availability\": %.6f,\n"
                 "  \"availability_after_faults\": %.6f,\n"
                 "  \"fingerprint\": \"%#llx\",\n"
                 "  \"trace_fingerprint\": \"%#llx\",\n"
                 "  \"deterministic\": %s,\n"
                 "  \"fading_deterministic\": %s,\n"
                 "  \"metrics\": %s\n}\n",
                 r1.availability, r1.availability_after_faults,
                 static_cast<unsigned long long>(r1.fingerprint),
                 static_cast<unsigned long long>(r1.trace_fingerprint), ok ? "true" : "false",
                 fading_ok ? "true" : "false", r1.metrics_json.c_str());
    std::fclose(f);
  }
  return ok ? 0 : 1;
}
