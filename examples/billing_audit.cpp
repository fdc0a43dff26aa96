// Billing audit: the §4.3 threat model in action.
//
// Scenario A — a bTelco inflates its reported downlink usage by 50%. The
// broker aligns its reports with the UE baseband's signed reports, flags
// the discrepancies (Fig.5 heuristic), decays the bTelco's reputation, and
// eventually refuses to authorize attachments through it — while an honest
// bTelco keeps serving the same user.
//
// Scenario B — a tampered UE under-reports across multiple honest bTelcos;
// the cross-provider pattern puts the USER on the suspect list instead.
//
//   $ ./examples/billing_audit
#include <cstdio>

#include "apps/iperf.hpp"
#include "scenario/world.hpp"

using namespace cb;
using namespace cb::scenario;

namespace {

WorldConfig base_config() {
  WorldConfig cfg;
  cfg.n_towers = 2;
  cfg.route = RouteSpec{"static", false, 0.1, 500.0, ran::RatePolicy::unlimited()};
  cfg.unlimited_policy = true;
  return cfg;
}

void drive_traffic(World& world, ran::CellId cell, Duration for_time) {
  bool attached = false;
  world.ue_agent()->attach(cell, [&](Result<net::Ipv4Addr> r) { attached = r.ok(); });
  world.simulator().run_for(Duration::s(2));
  if (!attached) {
    std::printf("  (attach to cell %u DENIED by broker)\n", cell);
    return;
  }
  apps::IperfDownloadClient client(world.ue_transport(), {world.server_addr(), 5001},
                                   world.simulator());
  world.simulator().run_for(for_time);
  std::printf("  cell %u: transferred %.1f MB\n", cell, client.total_bytes() / 1e6);
  world.ue_agent()->detach();
  world.simulator().run_for(Duration::s(1));
}

}  // namespace

int main() {
  std::printf("Scenario A: over-reporting bTelco\n---------------------------------\n");
  {
    WorldConfig cfg = base_config();
    cfg.telco0_overreport = 1.5;  // btelco-0 bills for 50%% more than it served
    World world(cfg);
    apps::IperfPushServer server(world.server_transport(), 5001, world.simulator(),
                                 Duration::s(300));

    std::printf("user streams via the dishonest btelco-0 for 40 s...\n");
    drive_traffic(world, 1, Duration::s(40));

    const auto& rep = world.broker_cluster()->reputation();
    std::printf("broker compared report pairs: mismatches for btelco-0: %llu, "
                "reputation: %.2f\n",
                static_cast<unsigned long long>(rep.mismatches("btelco-0")),
                rep.telco_score("btelco-0"));

    std::printf("user tries to attach to btelco-0 again:\n");
    drive_traffic(world, 1, Duration::s(5));
    std::printf("user attaches to the honest btelco-1 instead:\n");
    drive_traffic(world, 2, Duration::s(10));
    std::printf("btelco-1 reputation: %.2f; user suspect? %s\n",
                rep.telco_score("btelco-1"),
                rep.is_suspect("user-001") ? "YES (wrong!)" : "no");
  }

  std::printf("\nScenario B: tampered UE under-reporting\n"
              "---------------------------------------\n");
  {
    WorldConfig cfg = base_config();
    cfg.ue_underreport = 0.5;  // baseband reports half the real usage
    World world(cfg);
    apps::IperfPushServer server(world.server_transport(), 5001, world.simulator(),
                                 Duration::s(300));

    std::printf("tampered UE streams via honest btelco-0, then btelco-1...\n");
    drive_traffic(world, 1, Duration::s(35));
    drive_traffic(world, 2, Duration::s(35));

    const auto& rep = world.broker_cluster()->reputation();
    std::printf("mismatches recorded: btelco-0: %llu, btelco-1: %llu\n",
                static_cast<unsigned long long>(rep.mismatches("btelco-0")),
                static_cast<unsigned long long>(rep.mismatches("btelco-1")));
    std::printf("user-001 on the suspect list? %s (disagreeing with >=2 independent\n"
                "providers points at the user, not the providers)\n",
                rep.is_suspect("user-001") ? "YES" : "no");
    std::printf("future attach attempts by the suspect:\n");
    drive_traffic(world, 1, Duration::s(5));
  }

  std::printf("\nDone. Dishonesty on either side of the radio shows up as report\n"
              "discrepancies beyond the loss-adjusted Fig.5 threshold; the reputation\n"
              "system attributes it to the right party.\n");
  return 0;
}
