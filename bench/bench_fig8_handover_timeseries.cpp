// Fig.8 — iperf throughput over time around a handover event: MNO (TCP,
// network handover, IP preserved) vs CellBricks (MPTCP, detach + SAP
// re-attach + new subflow).
//
// Reproduces the paper's qualitative shape: at the handover the MPTCP line
// dips toward zero (the 500 ms address_worker wait + re-attach), then ramps
// back in slow start and briefly OVERSHOOTS the TCP line before both settle
// at the policy rate.
//
// The re-attach section replays the same drive under sap_resume: the target
// bTelco verifies the broker-minted resumption ticket locally, so the
// re-attach d drops by the broker leg. The bench self-gates on that delta —
// sap_resume's re-attach latency must be STRICTLY below plain sap's (the
// number tools/bench.sh freezes into BENCH_sap.json) — and exits nonzero
// otherwise.
//
// The MTTHO section drives the full suburb/day route (12 towers, ~810 s)
// through the noisy measurement pipeline (shadowing + L3 filter) under all
// three reselection policies and reports the MEASURED mean time between
// handovers — the Table 1 number is an output of the reselection loop, not
// a configured constant. The a3_ttt arm gates against the route's
// calibration target (900 m / 73.50 s) at +-20%; tools/bench.sh freezes it
// into BENCH_scale.json.
//
// Usage: bench_fig8_handover_timeseries [--json FILE]
#include <cstdio>
#include <cstring>
#include <vector>

#include "obs/metrics.hpp"
#include "apps/iperf.hpp"
#include "scenario/world.hpp"

using namespace cb;
using namespace cb::scenario;

namespace {

struct Trace {
  std::vector<double> mbps;       // per-second
  std::vector<double> handovers;  // seconds
  Summary reattach_ms;            // attach d of every post-initial attach
  std::uint64_t resumes = 0;
  std::uint64_t fallbacks = 0;
};

Trace run(AttachProtocol protocol) {
  WorldConfig cfg;
  cfg.protocol = protocol;
  cfg.seed = 42;
  cfg.n_towers = 3;
  // ~20 m/s over 700 m spacing: the (single) handover lands near t=23 s
  // into the measurement window, as in the paper's Fig.8 trace.
  cfg.route = RouteSpec{"fig8", false, 20.0, 700.0, ran::RatePolicy::day()};
  World world(cfg);

  Trace trace;
  world.on_cell_change = [&](ran::CellId from, ran::CellId) {
    if (from != 0) trace.handovers.push_back(world.simulator().now().to_seconds() - 8.0);
  };
  // Per-attach d (radio excluded): everything after the first attach is a
  // handover re-attach. Installed before start() so World chains it.
  int attaches = 0;
  if (world.ue_agent() != nullptr) {
    world.ue_agent()->on_attached = [&](ran::CellId, Duration d) {
      if (attaches++ > 0) trace.reattach_ms.add(d.to_millis());
    };
  }

  apps::IperfPushServer server(world.server_transport(), 5001, world.simulator(),
                               Duration::s(60));
  world.start();
  world.simulator().run_for(Duration::s(8));  // initial attach + warmup
  apps::IperfDownloadClient client(world.ue_transport(),
                                   net::EndPoint{world.server_addr(), 5001},
                                   world.simulator());
  const double t0 = world.simulator().now().to_seconds();
  world.simulator().run_for(Duration::s(50));

  const auto rates = client.series().rates();
  const auto first = static_cast<std::size_t>(t0);
  for (std::size_t i = first; i < rates.size() && trace.mbps.size() < 50; ++i) {
    trace.mbps.push_back(rates[i] * 8.0 / 1e6);
  }
  if (world.ue_agent() != nullptr) {
    trace.resumes = world.ue_agent()->resumes_succeeded();
    trace.fallbacks = world.ue_agent()->resume_fallbacks();
  }
  return trace;
}

// One policy arm of the measured-MTTHO A/B: the full suburb/day route under
// a noisy channel, handover statistics read back from the reselection log.
struct MtthoArm {
  ran::ReselectionPolicyKind policy = ran::ReselectionPolicyKind::A3Hysteresis;
  std::uint64_t handovers = 0;
  double measured_s = 0.0;  // mean gap between consecutive handovers
};

MtthoArm run_mttho(ran::ReselectionPolicyKind policy, Duration ttt) {
  WorldConfig cfg;
  cfg.seed = 42;
  cfg.n_towers = 12;
  cfg.route = suburb_day();
  // Moderate suburban shadowing; the k=4 L3 filter is the 3GPP-shaped
  // smoothing every arm shares so the A/B isolates the policy itself.
  cfg.radio_config.channel.shadow_sigma_db = 3.5;
  cfg.radio_config.channel.decorrelation_m = 60.0;
  cfg.radio_config.l3_filter_k = 4;
  cfg.radio_config.policy = policy;
  cfg.radio_config.time_to_trigger = ttt;
  World world(cfg);
  world.start();
  const double route_s =
      cfg.route.tower_spacing_m * (cfg.n_towers - 1) / cfg.route.speed_mps;
  world.simulator().run_for(Duration::seconds(route_s + 4.0));

  MtthoArm arm;
  arm.policy = policy;
  arm.handovers = world.handovers();
  // Mean gap between handover instants (initial acquisition excluded): the
  // measured MTTHO, independent of warmup and of where the route ends.
  const auto& events = world.radio().reselections();
  std::vector<TimePoint> at;
  for (const auto& e : events) {
    if (e.from != 0) at.push_back(e.at);
  }
  if (at.size() >= 2) {
    arm.measured_s = (at.back() - at.front()).to_seconds() /
                     static_cast<double>(at.size() - 1);
  }
  return arm;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_fig8_handover_timeseries [--json FILE]\n");
      return 2;
    }
  }

  // Root obs registry: per-trial metrics merge here in index order
  // (TrialRunner) and the digest prints as the bench footer.
  obs::Registry metrics;
  obs::ScopedRegistry scoped(&metrics);

  std::printf("=== Fig.8: iperf throughput around a handover (Day policy) ===\n\n");
  const Trace mno = run(AttachProtocol::EpsAka);
  const Trace cbr = run(AttachProtocol::Sap);
  const Trace cbt = run(AttachProtocol::SapResume);

  std::printf("%4s %12s %12s\n", "t(s)", "MNO(mbps)", "CB(mbps)");
  for (std::size_t t = 0; t < 50; ++t) {
    const bool ho = [&] {
      for (double h : cbr.handovers) {
        if (t <= h && h < t + 1) return true;
      }
      return false;
    }();
    std::printf("%4zu %12.2f %12.2f%s\n", t, t < mno.mbps.size() ? mno.mbps[t] : 0.0,
                t < cbr.mbps.size() ? cbr.mbps[t] : 0.0, ho ? "   <-- handover" : "");
  }

  // Shape verification: dip at handover, recovery within a few seconds.
  if (!cbr.handovers.empty()) {
    const auto h = static_cast<std::size_t>(cbr.handovers.front());
    auto avg = [&](const std::vector<double>& v, std::size_t from, std::size_t to) {
      double s = 0;
      std::size_t n = 0;
      for (std::size_t i = from; i < to && i < v.size(); ++i, ++n) s += v[i];
      return n ? s / static_cast<double>(n) : 0.0;
    };
    std::printf("\nCB around handover at t=%.1f s:\n", cbr.handovers.front());
    std::printf("  before [h-5,h):   %.2f mbps\n", avg(cbr.mbps, h - 5, h));
    std::printf("  dip    [h,h+2):   %.2f mbps (paper: drops toward 0 for ~0.5 s)\n",
                avg(cbr.mbps, h, h + 2));
    std::printf("  after  [h+2,h+7): %.2f mbps (paper: ramps back, briefly overshoots)\n",
                avg(cbr.mbps, h + 2, h + 7));
  }

  // --- Re-attach latency: sap vs sap_resume ---------------------------------
  std::printf("\n=== Handover re-attach latency d (radio excluded) ===\n");
  const double sap_ms = cbr.reattach_ms.empty() ? 0.0 : cbr.reattach_ms.mean();
  const double resume_ms = cbt.reattach_ms.empty() ? 0.0 : cbt.reattach_ms.mean();
  std::printf("  sap        : %7.2f ms mean over %zu re-attach(es)\n", sap_ms,
              cbr.reattach_ms.count());
  std::printf("  sap_resume : %7.2f ms mean over %zu re-attach(es), %llu resumed, "
              "%llu fallback(s)\n",
              resume_ms, cbt.reattach_ms.count(),
              static_cast<unsigned long long>(cbt.resumes),
              static_cast<unsigned long long>(cbt.fallbacks));
  const double delta_ms = sap_ms - resume_ms;
  const bool reattach_pass = !cbr.reattach_ms.empty() && !cbt.reattach_ms.empty() &&
                             cbt.resumes > 0 && resume_ms < sap_ms;
  std::printf("  delta      : %7.2f ms (ticket resume skips the broker round-trip)\n", delta_ms);

  // --- Measured MTTHO: policy A/B over the full suburb/day route -----------
  std::printf("\n=== Measured MTTHO, Suburb/D route (shadowing 3.5 dB, L3 k=4) ===\n");
  const double expected_s = suburb_day().expected_mttho_s();
  const MtthoArm a3 = run_mttho(ran::ReselectionPolicyKind::A3Hysteresis, Duration::ms(0));
  const MtthoArm ttt = run_mttho(ran::ReselectionPolicyKind::A3TimeToTrigger, Duration::ms(480));
  const MtthoArm rank = run_mttho(ran::ReselectionPolicyKind::RankBased, Duration::ms(0));
  for (const MtthoArm* arm : {&a3, &ttt, &rank}) {
    std::printf("  %-7s: %3llu handover(s), mttho %6.2f s\n", ran::to_string(arm->policy),
                static_cast<unsigned long long>(arm->handovers), arm->measured_s);
  }
  // Calibration gate on the damped (a3_ttt) arm: the reselection loop must
  // REPRODUCE the Table 1 number from geometry + noise, within +-20%.
  const bool mttho_pass = ttt.handovers >= 2 && ttt.measured_s > expected_s * 0.8 &&
                          ttt.measured_s < expected_s * 1.2 &&
                          rank.handovers >= a3.handovers;
  std::printf("  expected %.2f s (Table 1); a3_ttt arm %s the +-20%% calibration band;\n"
              "  rank arm churns >= a3 (%llu vs %llu changes)\n",
              expected_s, mttho_pass ? "is WITHIN" : "MISSES",
              static_cast<unsigned long long>(rank.handovers),
              static_cast<unsigned long long>(a3.handovers));

  const bool pass = reattach_pass && mttho_pass;

  if (json_path != nullptr) {
    FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::perror("bench_fig8_handover_timeseries: --json open");
      return 2;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"fig8_handover\",\n  \"reattach\": {\n"
                 "    \"%s\": {\"mean_ms\": %.3f, \"count\": %zu},\n"
                 "    \"%s\": {\"mean_ms\": %.3f, \"count\": %zu, "
                 "\"resumes\": %llu, \"fallbacks\": %llu},\n"
                 "    \"delta_ms\": %.3f,\n    \"pass\": %s\n  },\n"
                 "  \"mttho\": {\n    \"route\": \"Suburb/D\",\n"
                 "    \"expected_s\": %.3f,\n    \"measured_s\": %.3f,\n"
                 "    \"policy\": \"%s\",\n    \"handovers\": %llu,\n"
                 "    \"arms\": {\n"
                 "      \"%s\": {\"handovers\": %llu, \"mttho_s\": %.3f},\n"
                 "      \"%s\": {\"handovers\": %llu, \"mttho_s\": %.3f},\n"
                 "      \"%s\": {\"handovers\": %llu, \"mttho_s\": %.3f}\n"
                 "    },\n    \"pass\": %s\n  }\n}\n",
                 to_string(AttachProtocol::Sap), sap_ms, cbr.reattach_ms.count(),
                 to_string(AttachProtocol::SapResume), resume_ms, cbt.reattach_ms.count(),
                 static_cast<unsigned long long>(cbt.resumes),
                 static_cast<unsigned long long>(cbt.fallbacks), delta_ms,
                 reattach_pass ? "true" : "false", expected_s, ttt.measured_s,
                 ran::to_string(ttt.policy), static_cast<unsigned long long>(ttt.handovers),
                 ran::to_string(a3.policy), static_cast<unsigned long long>(a3.handovers),
                 a3.measured_s, ran::to_string(ttt.policy),
                 static_cast<unsigned long long>(ttt.handovers), ttt.measured_s,
                 ran::to_string(rank.policy), static_cast<unsigned long long>(rank.handovers),
                 rank.measured_s, mttho_pass ? "true" : "false");
    std::fclose(f);
  }

  std::printf("\n%s\n", metrics.digest().c_str());
  if (!reattach_pass) {
    std::fprintf(stderr,
                 "FAIL: sap_resume re-attach latency (%.2f ms) is not strictly below "
                 "sap (%.2f ms)\n",
                 resume_ms, sap_ms);
  }
  if (!mttho_pass) {
    std::fprintf(stderr,
                 "FAIL: measured MTTHO %.2f s (a3_ttt) outside +-20%% of the %.2f s "
                 "calibration target, or rank arm did not churn >= a3\n",
                 ttt.measured_s, expected_s);
  }
  return pass ? 0 : 1;
}
