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

double count(std::uint64_t n) { return static_cast<double>(n); }

}  // namespace

AppRun run_app(App app, AttachProtocol protocol, const RouteSpec& route,
               const Table1Options& opt) {
  World world(make_config(protocol, route, opt));
  sim::Simulator& sim = world.simulator();
  const auto warm_up = [&] {
    world.start();
    sim.run_for(kWarmup);
  };
  AppRun run;
  switch (app) {
    case App::Ping: {
      apps::PingServer server(*world.server_node(), 7);
      apps::PingClient client(*world.ue_node(), net::EndPoint{world.server_addr(), 7});
      warm_up();
      client.start();
      sim.run_for(opt.duration);
      client.stop();
      run.table1 = client.rtts_ms().empty() ? 0.0 : client.rtts_ms().p50();
      run.metrics = {{"probes", count(client.sent()), 0},
                     {"lost", count(client.lost()), 0},
                     {"p50_ms", run.table1, 2}};
      break;
    }
    case App::Iperf: {
      apps::IperfPushServer server(world.server_transport(), 5001, sim, opt.duration);
      warm_up();
      apps::IperfDownloadClient client(world.ue_transport(),
                                       net::EndPoint{world.server_addr(), 5001}, sim);
      sim.run_for(opt.duration + Duration::s(5));
      run.table1 = client.mean_throughput_bps() / 1e6;
      run.metrics = {{"bytes", count(client.total_bytes()), 0}, {"mbps", run.table1, 3}};
      break;
    }
    case App::Voip: {
      apps::VoipEndpoint callee(*world.server_node(), 6000);
      apps::VoipEndpoint caller(*world.ue_node(), 6000);
      warm_up();
      caller.call(net::EndPoint{world.server_addr(), 6000});
      sim.run_for(opt.duration);
      caller.hang_up();
      callee.hang_up();
      // Downlink quality, measured at the UE: the direction affected by
      // re-INVITE behaviour after IP changes.
      const auto& stats = caller.stats();
      run.table1 = stats.mos();
      run.metrics = {{"mos", run.table1, 2},
                     {"loss", stats.loss_rate(), 4},
                     {"delay_ms", stats.avg_delay_ms, 1},
                     {"jitter_ms", stats.jitter_ms, 2}};
      break;
    }
    case App::Video: {
      apps::HlsServer server(world.server_transport(), 8080);
      warm_up();
      apps::HlsClient client(world.ue_transport(), net::EndPoint{world.server_addr(), 8080},
                             sim);
      client.start();
      sim.run_for(opt.duration);
      client.stop();
      run.table1 = client.avg_quality_level();
      run.metrics = {{"segments", count(client.segments_played()), 0},
                     {"avg_level", run.table1, 2},
                     {"rebuffers", count(client.rebuffer_events()), 0}};
      break;
    }
    case App::Web: {
      apps::WebServer server(world.server_transport(), 80);
      warm_up();
      apps::WebClient client(world.ue_transport(), net::EndPoint{world.server_addr(), 80}, sim);
      client.start();
      sim.run_for(opt.duration);
      client.stop();
      run.table1 = client.load_times_s().empty() ? 0.0 : client.load_times_s().mean();
      run.metrics = {{"pages", count(client.pages_loaded()), 0},
                     {"failed", count(client.pages_failed()), 0},
                     {"load_s", run.table1, 2}};
      break;
    }
  }
  run.handovers = world.handovers();
  run.mttho_s = world.mttho_s();
  if (const Summary* lat = world.attach_latencies_ms(); lat && !lat->empty()) {
    run.attach_ms_mean = lat->mean();
  }
  return run;
}

Table1Cell run_table1_cell(AttachProtocol protocol, const RouteSpec& route,
                           const Table1Options& opt) {
  Table1Cell cell;
  cell.route = route.name;
  // The ping world also gives the MTTHO: drive time over its handovers.
  const AppRun ping = run_app(App::Ping, protocol, route, opt);
  cell.ping_p50_ms = ping.table1;
  cell.mttho_s = ping.handovers > 0
                     ? opt.duration.to_seconds() / static_cast<double>(ping.handovers)
                     : 0.0;
  cell.iperf_mbps = run_app(App::Iperf, protocol, route, opt).table1;
  cell.voip_mos = run_app(App::Voip, protocol, route, opt).table1;
  cell.video_level = run_app(App::Video, protocol, route, opt).table1;
  cell.web_load_s = run_app(App::Web, protocol, route, opt).table1;
  return cell;
}

}  // namespace cb::scenario
