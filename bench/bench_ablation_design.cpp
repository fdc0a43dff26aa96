// Ablations over CellBricks design choices (DESIGN.md §5):
//
//  A. MPTCP address_worker wait — sweep the wait between address change and
//     subflow creation (Linux hard-codes 500 ms; §6.2 argues for removing
//     it). Metric: mean goodput over a multi-handover drive.
//  B. Billing report interval — §4.3 says reports go "every many seconds";
//     shorter intervals detect fraud faster but cost more crypto/traffic.
//     Metric: reports sent + time until a 1.5x over-reporter drops below
//     the authorization threshold.
//  C. Broker placement — SAP's single round-trip means attach latency (the
//     paper's d) degrades linearly with broker RTT; this quantifies how
//     far a broker can sit before d hurts the drive workload.
//  D. Attach protocol — the protocol axis (eps_aka | 5g_aka | sap |
//     sap_resume) under the same us-west-1 placement: 5G-AKA's third home
//     round-trip vs SAP's single broker trip vs the ticket-resume re-attach
//     that needs no broker at all (DESIGN.md §14).
#include <cstdio>

#include "obs/metrics.hpp"
#include "apps/iperf.hpp"
#include "scenario/attach_experiment.hpp"
#include "scenario/world.hpp"

using namespace cb;
using namespace cb::scenario;

namespace {

double drive_goodput_mbps(Duration wait, Duration cloud_rtt) {
  WorldConfig cfg;
  cfg.seed = 31;
  cfg.route = RouteSpec{"ablation", true, 25.0, 900.0, ran::RatePolicy::night()};
  cfg.n_towers = 10;
  cfg.mptcp_address_wait = wait;
  cfg.cloud_rtt = cloud_rtt;
  World world(cfg);
  apps::IperfPushServer server(world.server_transport(), 5001, world.simulator(),
                               Duration::s(250));
  world.start();
  world.simulator().run_for(Duration::s(3));
  apps::IperfDownloadClient client(world.ue_transport(),
                                   net::EndPoint{world.server_addr(), 5001},
                                   world.simulator());
  world.simulator().run_for(Duration::s(240));
  return client.mean_throughput_bps() / 1e6;
}

}  // namespace

int main() {
  // Root obs registry: every run's metrics land here, and the digest
  // prints as the bench footer.
  obs::Registry metrics;
  obs::ScopedRegistry scoped(&metrics);

  std::printf("=== Ablation A: MPTCP address_worker wait (night drive, ~9 handovers) ===\n");
  std::printf("%12s %16s\n", "wait (ms)", "goodput (mbps)");
  for (int wait_ms : {0, 100, 250, 500, 1000, 2000}) {
    std::printf("%12d %16.2f\n",
                wait_ms, drive_goodput_mbps(Duration::ms(wait_ms), Duration::millis(7.2)));
  }
  std::printf("(longer waits stretch every re-attach outage; 0 is strictly best —\n"
              " the flap-damping rationale does not apply to hard address loss)\n\n");

  std::printf("=== Ablation B: billing report interval vs fraud-detection latency ===\n");
  std::printf("%14s %14s %22s %12s\n", "interval (s)", "reports", "detection (s)", "caught");
  for (int interval_s : {2, 5, 10, 30}) {
    WorldConfig cfg;
    cfg.seed = 32;
    cfg.n_towers = 1;
    cfg.route = RouteSpec{"static", false, 0.1, 500.0, ran::RatePolicy::unlimited()};
    cfg.unlimited_policy = true;
    cfg.telco0_overreport = 1.5;
    cfg.report_interval = Duration::s(interval_s);
    World world(cfg);
    apps::IperfPushServer server(world.server_transport(), 5001, world.simulator(),
                                 Duration::s(600));
    bool attached = false;
    world.ue_agent()->attach(1, [&](Result<net::Ipv4Addr> r) { attached = r.ok(); });
    world.simulator().run_for(Duration::s(2));
    if (!attached) continue;
    apps::IperfDownloadClient client(world.ue_transport(),
                                     net::EndPoint{world.server_addr(), 5001},
                                     world.simulator());
    double detected_at = -1;
    for (int t = 0; t < 120; ++t) {
      world.simulator().run_for(Duration::s(1));
      if (world.broker_cluster()->reputation().telco_score("btelco-0") < 0.5) {
        detected_at = world.simulator().now().to_seconds();
        break;
      }
    }
    std::printf("%14d %14llu %22.1f %12s\n", interval_s,
                static_cast<unsigned long long>(world.broker_cluster()->reports_received()),
                detected_at, detected_at > 0 ? "yes" : "no");
  }
  std::printf("(shorter reporting cycles catch a 1.5x over-reporter proportionally\n"
              " faster — at the cost of proportionally more signed/sealed reports)\n\n");

  std::printf("=== Ablation C: broker placement (attach latency d under the drive) ===\n");
  std::printf("%16s %16s\n", "broker RTT (ms)", "goodput (mbps)");
  for (double rtt_ms : {0.5, 7.2, 30.0, 73.5, 150.0}) {
    std::printf("%16.1f %16.2f\n",
                rtt_ms, drive_goodput_mbps(Duration::ms(500), Duration::millis(rtt_ms)));
  }
  std::printf("(d = 24.5 ms processing + broker RTT; even a cross-continent broker\n"
              " costs little because d is small next to the MPTCP wait + slow start)\n\n");

  std::printf("=== Ablation D: attach protocol (us-west-1 placement, 40 cycles) ===\n");
  std::printf("%-12s %12s %12s %10s %10s\n", "protocol", "attach (ms)", "resume (ms)",
              "resumes", "fallbacks");
  for (AttachProtocol proto : {AttachProtocol::EpsAka, AttachProtocol::Aka5g,
                               AttachProtocol::Sap, AttachProtocol::SapResume}) {
    const AttachBreakdown b = run_attach_experiment(proto, Duration::millis(7.2), 40);
    if (proto == AttachProtocol::SapResume) {
      std::printf("%-12s %12.2f %12.2f %10d %10d\n", to_string(proto), b.total_ms, b.resume_ms,
                  b.resumes, b.resume_fallbacks);
    } else {
      std::printf("%-12s %12.2f %12s %10s %10s\n", to_string(proto), b.total_ms, "-", "-", "-");
    }
  }
  std::printf("(5g_aka pays a third HSS round-trip + SUCI/RES* crypto over eps_aka;\n"
              " sap_resume's ticket re-attach cuts the broker leg out of d entirely)\n");
  std::printf("\n%s\n", metrics.digest().c_str());
  return 0;
}
