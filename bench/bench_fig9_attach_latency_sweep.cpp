// Fig.9 — Impact of attachment latency on post-handover throughput.
//
// CellBricks runs with the MPTCP 500 ms address_worker wait removed and
// attachment latency d in {32, 64, 128} ms (realized by moving brokerd so
// the SAP round-trip produces that d), plus the unmodified 500 ms variant.
// For each window of n seconds after a handover, throughput is normalized
// to the TCP/MNO baseline of the same geometry — the paper's finding: lower
// d recovers faster, and without the wait CellBricks routinely OVERSHOOTS
// TCP (>100%) in the first seconds after handover thanks to slow-start.
//
// The protocol axis rides the same harness: sap_resume re-runs the d=32 ms
// geometry with broker-minted resumption tickets, where the re-attach skips
// the broker round-trip entirely — the per-protocol recovery curves are the
// JSON that tools/bench.sh schema-checks.
//
// Usage: bench_fig9_attach_latency_sweep [--smoke] [--json FILE]
//   --smoke  120 s drive instead of 300 s and only the d=32 ms sweep point
//            (schema validation; smoke numbers are not representative)
//   --json   write per-protocol recovery windows to FILE
#include <cstdio>
#include <cstring>
#include <vector>

#include "obs/metrics.hpp"
#include "apps/iperf.hpp"
#include "scenario/world.hpp"

using namespace cb;
using namespace cb::scenario;

namespace {

constexpr int kWindows = 9;

struct Run {
  std::vector<double> bytes_100ms;  // 100 ms buckets
  std::vector<double> handovers_s;
};

Run run(AttachProtocol protocol, Duration cloud_rtt, Duration wait, std::uint64_t seed,
        double drive_s) {
  WorldConfig cfg;
  cfg.protocol = protocol;
  cfg.seed = seed;
  cfg.n_towers = 10;
  // Night policy: "We measure performance at night so that performance is
  // less constrained by T-Mobile's rate limits."
  cfg.route = RouteSpec{"fig9", true, 25.0, 900.0, ran::RatePolicy::night()};
  cfg.cloud_rtt = cloud_rtt;
  cfg.mptcp_address_wait = wait;
  World world(cfg);

  Run out;
  world.on_cell_change = [&](ran::CellId from, ran::CellId) {
    if (from != 0) out.handovers_s.push_back(world.simulator().now().to_seconds());
  };
  apps::IperfPushServer server(world.server_transport(), 5001, world.simulator(),
                               Duration::s(400));
  world.start();
  world.simulator().run_for(Duration::s(5));
  apps::IperfDownloadClient client(world.ue_transport(),
                                   net::EndPoint{world.server_addr(), 5001},
                                   world.simulator(), Duration::ms(100));
  world.simulator().run_for(Duration::seconds(drive_s));

  for (std::size_t i = 0; i < client.series().buckets(); ++i) {
    out.bytes_100ms.push_back(client.series().bucket(i));
  }
  return out;
}

// Mean throughput (bytes/s) in [h, h+n) seconds.
double window_rate(const Run& r, double h, int n) {
  const std::size_t from = static_cast<std::size_t>(h * 10.0);
  const std::size_t to = from + static_cast<std::size_t>(n) * 10;
  double sum = 0;
  for (std::size_t i = from; i < to && i < r.bytes_100ms.size(); ++i) sum += r.bytes_100ms[i];
  return sum / n;
}

// Post-handover throughput in the n-second windows, normalized to the
// TCP/MNO baseline over the same windows (percent; mean over handovers).
std::vector<double> rel_windows(const Run& cb, const Run& baseline, double base_mean) {
  std::vector<double> out;
  for (int n = 1; n <= kWindows; ++n) {
    double rel_sum = 0;
    int count = 0;
    for (double h : cb.handovers_s) {
      const double base = window_rate(baseline, h, n);
      const double mine = window_rate(cb, h, n);
      if (base > 0.2 * base_mean) {  // skip degenerate baseline windows
        rel_sum += mine / base * 100.0;
        ++count;
      }
    }
    out.push_back(count ? rel_sum / count : 0.0);
  }
  return out;
}

void print_row(const char* name, const std::vector<double>& windows, std::size_t handovers) {
  std::printf("%-20s", name);
  for (double w : windows) std::printf(" %5.0f", w);
  std::printf("   (%% of TCP, %zu handovers)\n", handovers);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_fig9_attach_latency_sweep [--smoke] [--json FILE]\n");
      return 2;
    }
  }
  const double drive_s = smoke ? 120.0 : 300.0;

  // Root obs registry: per-trial metrics merge here in index order
  // (TrialRunner) and the digest prints as the bench footer.
  obs::Registry metrics;
  obs::ScopedRegistry scoped(&metrics);

  std::printf("=== Fig.9: relative post-handover throughput vs attachment latency ===\n");
  std::printf("(CB throughput in the n seconds after each handover, normalized to the\n"
              " TCP/MNO baseline over the same windows; night policy; mean over handovers)\n\n");

  struct Config {
    const char* name;
    Duration cloud_rtt;
    Duration wait;
  };
  // cloud_rtt chosen so d = 24.5 ms processing + RTT hits the target.
  const Config configs[] = {
      {"mod. 32ms", Duration::millis(7.5), Duration::zero()},
      {"mod. 64ms", Duration::millis(39.5), Duration::zero()},
      {"mod. 128ms", Duration::millis(103.5), Duration::zero()},
      {"unmod.(500ms wait)", Duration::millis(7.5), Duration::ms(500)},
  };
  const std::size_t n_configs = smoke ? 1 : std::size(configs);

  const Run baseline = run(AttachProtocol::EpsAka, Duration::millis(7.5), Duration::zero(), 9,
                           drive_s);
  // Overall baseline rate, for excluding degenerate windows (the MNO
  // baseline has its own brief handover dips; normalizing by a near-zero
  // window would explode the ratio — the paper's real-network baseline did
  // not stall at the emulated UE's handover instants).
  double base_total = 0;
  for (double v : baseline.bytes_100ms) base_total += v;
  const double base_mean =
      base_total / (static_cast<double>(baseline.bytes_100ms.size()) / 10.0);

  std::printf("%-20s", "elapsed since HO:");
  for (int n = 1; n <= kWindows; ++n) std::printf("   %2ds", n);
  std::printf("\n");

  std::vector<double> sap32;  // the d=32 ms sap curve, reused for the JSON
  std::size_t sap32_handovers = 0;
  for (std::size_t i = 0; i < n_configs; ++i) {
    const Config& c = configs[i];
    const Run cb = run(AttachProtocol::Sap, c.cloud_rtt, c.wait, 9, drive_s);
    const std::vector<double> windows = rel_windows(cb, baseline, base_mean);
    print_row(c.name, windows, cb.handovers_s.size());
    if (i == 0) {
      sap32 = windows;
      sap32_handovers = cb.handovers_s.size();
    }
  }

  // Per-protocol axis: the same d=32 ms geometry with resumption tickets.
  const Run resume32 = run(AttachProtocol::SapResume, configs[0].cloud_rtt, configs[0].wait, 9,
                           drive_s);
  const std::vector<double> resume_windows = rel_windows(resume32, baseline, base_mean);
  print_row("resume 32ms", resume_windows, resume32.handovers_s.size());

  std::printf("\nShape check (paper Fig.9): lower d => faster recovery; modified variants\n"
              "reach/exceed 100%% within a few seconds (slow-start overshoot: 10-30%% above\n"
              "TCP right after handover); the unmodified 500 ms wait lags behind early on;\n"
              "resume 32ms removes the broker leg from the re-attach and recovers fastest.\n");

  if (json_path != nullptr) {
    FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::perror("bench_fig9_attach_latency_sweep: --json open");
      return 2;
    }
    auto emit_windows = [f](const std::vector<double>& w) {
      for (std::size_t i = 0; i < w.size(); ++i) {
        std::fprintf(f, "%s%.2f", i == 0 ? "" : ", ", w[i]);
      }
    };
    std::fprintf(f, "{\n  \"bench\": \"fig9_sweep\",\n  \"mode\": \"%s\",\n"
                    "  \"protocols\": {\n",
                 smoke ? "smoke" : "full");
    std::fprintf(f, "    \"%s\": {\"windows_pct\": [", to_string(AttachProtocol::Sap));
    emit_windows(sap32);
    std::fprintf(f, "], \"handovers\": %zu},\n", sap32_handovers);
    std::fprintf(f, "    \"%s\": {\"windows_pct\": [", to_string(AttachProtocol::SapResume));
    emit_windows(resume_windows);
    std::fprintf(f, "], \"handovers\": %zu}\n  }\n}\n", resume32.handovers_s.size());
    std::fclose(f);
  }

  std::printf("\n%s\n", metrics.digest().c_str());
  return 0;
}
