#include "scenario/table1.hpp"

#include "apps/iperf.hpp"
#include "apps/ping.hpp"
#include "apps/video.hpp"
#include "apps/voip.hpp"
#include "apps/web.hpp"

namespace cb::scenario {

namespace {

WorldConfig make_config(AttachProtocol protocol, const RouteSpec& route,
                        const Table1Options& opt) {
  WorldConfig cfg;
  cfg.protocol = protocol;
  cfg.route = route;
  cfg.seed = opt.seed;
  // Enough towers to cover the drive plus margin.
  const double distance = route.speed_mps * opt.duration.to_seconds();
  cfg.n_towers = static_cast<int>(distance / route.tower_spacing_m) + 3;
  return cfg;
}

// Let the initial attach complete before starting the workload.
constexpr Duration kWarmup = Duration::s(3);

}  // namespace

Table1Cell run_table1_cell(AttachProtocol protocol, const RouteSpec& route,
                           const Table1Options& opt) {
  Table1Cell cell;
  cell.route = route.name;

  {  // --- ping + MTTHO (cheap; share one world) -------------------------
    World world(make_config(protocol, route, opt));
    apps::PingServer server(*world.server_node(), 7);
    apps::PingClient client(*world.ue_node(), net::EndPoint{world.server_addr(), 7});
    world.start();
    world.simulator().run_for(kWarmup);
    client.start();
    world.simulator().run_for(opt.duration);
    client.stop();
    if (!client.rtts_ms().empty()) cell.ping_p50_ms = client.rtts_ms().p50();
    cell.mttho_s = world.handovers() > 0
                       ? opt.duration.to_seconds() / static_cast<double>(world.handovers())
                       : 0.0;
  }

  {  // --- iperf (download) ----------------------------------------------
    World world(make_config(protocol, route, opt));
    apps::IperfPushServer server(world.server_transport(), 5001, world.simulator(),
                                 opt.duration);
    world.start();
    world.simulator().run_for(kWarmup);
    apps::IperfDownloadClient client(world.ue_transport(),
                                     net::EndPoint{world.server_addr(), 5001},
                                     world.simulator());
    world.simulator().run_for(opt.duration + Duration::s(5));
    cell.iperf_mbps = client.mean_throughput_bps() / 1e6;
  }

  {  // --- VoIP -----------------------------------------------------------
    World world(make_config(protocol, route, opt));
    apps::VoipEndpoint callee(*world.server_node(), 6000);
    apps::VoipEndpoint caller(*world.ue_node(), 6000);
    world.start();
    world.simulator().run_for(kWarmup);
    caller.call(net::EndPoint{world.server_addr(), 6000});
    world.simulator().run_for(opt.duration);
    caller.hang_up();
    callee.hang_up();
    // Downlink MOS (measured at the UE): the direction affected by
    // re-INVITE behaviour after IP changes.
    cell.voip_mos = caller.stats().mos();
  }

  {  // --- video ----------------------------------------------------------
    World world(make_config(protocol, route, opt));
    apps::HlsServer server(world.server_transport(), 8080);
    world.start();
    world.simulator().run_for(kWarmup);
    apps::HlsClient client(world.ue_transport(), net::EndPoint{world.server_addr(), 8080},
                           world.simulator());
    client.start();
    world.simulator().run_for(opt.duration);
    client.stop();
    cell.video_level = client.avg_quality_level();
  }

  {  // --- web ------------------------------------------------------------
    World world(make_config(protocol, route, opt));
    apps::WebServer server(world.server_transport(), 80);
    world.start();
    world.simulator().run_for(kWarmup);
    apps::WebClient client(world.ue_transport(), net::EndPoint{world.server_addr(), 80},
                           world.simulator());
    client.start();
    world.simulator().run_for(opt.duration);
    client.stop();
    if (!client.load_times_s().empty()) cell.web_load_s = client.load_times_s().mean();
  }

  return cell;
}

}  // namespace cb::scenario
