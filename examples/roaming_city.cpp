// Roaming city: the paper's motivating scenario — a user drives through a
// city where EVERY tower belongs to a different small operator (the §6.2
// extreme design point), streaming video the whole way.
//
// Shows: host-driven mobility across many untrusted providers, per-attach
// SAP latencies, MPTCP survival, video QoE, and the billing trail the
// broker accumulates from both sides of every session.
//
//   $ ./examples/roaming_city
#include <cstdio>

#include "apps/video.hpp"
#include "scenario/world.hpp"

using namespace cb;
using namespace cb::scenario;

int main() {
  std::printf("Roaming through a city of single-tower bTelcos\n"
              "==============================================\n\n");

  WorldConfig cfg;
  cfg.seed = 2026;
  cfg.n_towers = 8;
  cfg.route = RouteSpec{"downtown", true, 14.0, 700.0, ran::RatePolicy::night()};
  World world(cfg);
  auto& sim = world.simulator();

  world.on_cell_change = [&](ran::CellId from, ran::CellId to) {
    if (from == 0) {
      std::printf("[%7.2fs] initial acquisition: cell %u (%s)\n", sim.now().to_seconds(), to,
                  world.btelco(to - 1)->id().c_str());
    } else {
      std::printf("[%7.2fs] provider switch: %s -> %s (host-driven detach + SAP)\n",
                  sim.now().to_seconds(), world.btelco(from - 1)->id().c_str(),
                  world.btelco(to - 1)->id().c_str());
    }
  };
  world.ue_agent()->on_attached = [&](ran::CellId cell, Duration latency) {
    std::printf("[%7.2fs]   attached to cell %u in %.2f ms; new IP %s\n",
                sim.now().to_seconds(), cell, latency.to_millis(),
                world.ue_agent()->current_ip().to_string().c_str());
  };

  apps::HlsServer server(world.server_transport(), 8080);
  world.start();
  sim.run_for(Duration::s(3));

  apps::HlsClient player(world.ue_transport(), {world.server_addr(), 8080}, sim);
  player.start();
  const Duration drive = Duration::s(330);
  sim.run_for(drive);
  player.stop();
  sim.run_for(Duration::s(2));

  std::printf("\n--- drive summary (%.0f s) ---\n", drive.to_seconds());
  std::printf("provider switches:    %llu (MTTHO %.1f s)\n",
              static_cast<unsigned long long>(world.handovers()), world.mttho_s());
  if (const Summary* lat = world.attach_latencies_ms(); lat && !lat->empty()) {
    std::printf("SAP attach latency:   mean %.2f ms, p99 %.2f ms over %zu attaches\n",
                lat->mean(), lat->p99(), lat->count());
  }
  std::printf("video: %llu segments played, avg quality level %.2f/5, %llu rebuffers\n",
              static_cast<unsigned long long>(player.segments_played()),
              player.avg_quality_level(),
              static_cast<unsigned long long>(player.rebuffer_events()));

  std::printf("\n--- broker's view (billing & reputation) ---\n");
  std::printf("sessions issued: %llu   reports received: %llu   rejected: %llu\n",
              static_cast<unsigned long long>(world.broker_cluster()->sessions_issued()),
              static_cast<unsigned long long>(world.broker_cluster()->reports_received()),
              static_cast<unsigned long long>(world.broker_cluster()->reports_rejected()));
  for (std::size_t i = 0; i < world.n_btelcos(); ++i) {
    const std::string id = world.btelco(i)->id();
    std::printf("  %-10s reputation %.2f, mismatches %llu\n", id.c_str(),
                world.broker_cluster()->reputation().telco_score(id),
                static_cast<unsigned long long>(world.broker_cluster()->reputation().mismatches(id)));
  }
  std::printf("\nEvery hop above crossed a provider boundary with no roaming agreement —\n"
              "authentication and billing ran through the broker instead.\n");
  return 0;
}
