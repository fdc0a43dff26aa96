// Quickstart: the smallest end-to-end CellBricks run.
//
// Builds a world with two single-tower bTelcos, a broker in the cloud, and
// one subscriber. The UE attaches via the Secure Attachment Protocol, opens
// an MPTCP connection to an internet server, moves to the second bTelco
// (new provider, new IP), and the transfer survives.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "scenario/world.hpp"

using namespace cb;
using namespace cb::scenario;

int main() {
  std::printf("CellBricks quickstart\n=====================\n\n");

  WorldConfig cfg;
  cfg.n_towers = 2;
  cfg.route = RouteSpec{"static", false, 0.1, 500.0, ran::RatePolicy::unlimited()};
  cfg.unlimited_policy = true;
  World world(cfg);
  auto& sim = world.simulator();

  // 1. Attach to bTelco #0 via SAP (UE -> bTelco -> broker -> back).
  world.ue_agent()->attach(1, [&](Result<net::Ipv4Addr> r) {
    if (!r.ok()) {
      std::printf("attach failed: %s\n", r.error().c_str());
      return;
    }
    std::printf("[%.3fs] attached to %s, IP %s (SAP latency %.2f ms)\n",
                sim.now().to_seconds(), world.btelco(0)->id().c_str(),
                r.value().to_string().c_str(),
                world.ue_agent()->last_attach_latency().to_millis());
  });
  sim.run_for(Duration::s(1));

  // 2. Open an MPTCP connection and start a transfer.
  std::uint64_t received = 0;
  std::shared_ptr<transport::StreamSocket> server_side;
  auto server_transport = world.server_transport();
  server_transport.listen(9000, [&](std::shared_ptr<transport::StreamSocket> s) {
    server_side = std::move(s);
    server_side->on_data = [&](BytesView d) { received += d.size(); };
  });
  auto ue_transport = world.ue_transport();
  auto socket = ue_transport.connect({world.server_addr(), 9000});
  const Bytes chunk(16384, 0x42);
  std::size_t sent = 0;
  auto pump = std::make_shared<std::function<void()>>();
  // The callbacks below keep `pump` alive; capturing it here too would make
  // the function own itself (a shared_ptr cycle LeakSanitizer flags).
  *pump = [&] {
    while (sent < 256 * 1024 * 1024) {
      const std::size_t n = socket->send(chunk);
      if (n == 0) return;
      sent += n;
    }
  };
  socket->on_connected = [pump] { (*pump)(); };
  socket->on_send_space = [pump] { (*pump)(); };
  sim.run_for(Duration::s(2));
  std::printf("[%.3fs] transfer running: %.1f KB delivered\n", sim.now().to_seconds(),
              received / 1e3);

  // 3. Host-driven mobility: detach, re-attach to bTelco #1 (a DIFFERENT
  //    provider — no roaming agreement, no coordination between the two).
  std::printf("[%.3fs] moving: detach from %s...\n", sim.now().to_seconds(),
              world.btelco(0)->id().c_str());
  world.ue_agent()->detach();
  world.ue_agent()->attach(2, [&](Result<net::Ipv4Addr> r) {
    std::printf("[%.3fs] attached to %s, NEW IP %s — MPTCP will add a subflow\n",
                sim.now().to_seconds(), world.btelco(1)->id().c_str(),
                r.value().to_string().c_str());
  });
  sim.run_for(Duration::s(3));

  const std::uint64_t at_switch = received;
  sim.run_for(Duration::s(10));
  std::printf("[%.3fs] transfer continued across providers: %.1f KB more delivered\n",
              sim.now().to_seconds(), (received - at_switch) / 1e3);
  std::printf("\ntotal: %.1f / %.1f KB delivered; broker issued %llu sessions; "
              "billing reports received: %llu\n",
              received / 1e3, sent / 1e3,
              static_cast<unsigned long long>(world.broker_cluster()->sessions_issued()),
              static_cast<unsigned long long>(world.broker_cluster()->reports_received()));
  std::printf("%s\n", received > at_switch ? "OK: the connection survived the provider switch."
                                           : "ERROR: transfer stalled!");
  return received > at_switch ? 0 : 1;
}
