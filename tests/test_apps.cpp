// Application-workload tests over a simple two-host topology: iperf
// download, ping, VoIP MOS behaviour, HLS ABR adaptation, and web loads.
#include <gtest/gtest.h>

#include "apps/iperf.hpp"
#include "apps/ping.hpp"
#include "apps/video.hpp"
#include "apps/voip.hpp"
#include "apps/web.hpp"
#include "net/network.hpp"

namespace cb::apps {
namespace {

struct AppWorld {
  explicit AppWorld(net::LinkParams link = {.rate_bps = 10e6, .delay = Duration::ms(20)},
                    std::uint64_t seed = 1)
      : sim(seed), network(sim) {
    client = network.add_node("client");
    server = network.add_node("server");
    network.register_address(net::Ipv4Addr(10, 0, 0, 1), client);
    network.register_address(net::Ipv4Addr(1, 1, 1, 1), server);
    this->link = network.connect(client, server, link);
    network.recompute_routes();
    client_tcp = std::make_unique<transport::TcpStack>(*client);
    server_tcp = std::make_unique<transport::TcpStack>(*server);
  }
  net::EndPoint server_ep(std::uint16_t port) const {
    return {net::Ipv4Addr(1, 1, 1, 1), port};
  }

  sim::Simulator sim;
  net::Network network;
  net::Node *client, *server;
  net::Link* link;
  std::unique_ptr<transport::TcpStack> client_tcp;
  std::unique_ptr<transport::TcpStack> server_tcp;
};

TEST(Iperf, DownloadMeasuresNearLinkRate) {
  AppWorld w;
  IperfPushServer server(transport::make_tcp_transport(*w.server_tcp), 5001, w.sim,
                         Duration::s(20));
  IperfDownloadClient client(transport::make_tcp_transport(*w.client_tcp), w.server_ep(5001),
                             w.sim);
  w.sim.run_for(Duration::s(30));
  EXPECT_GT(client.mean_throughput_bps(), 6e6);
  // The time series has roughly one bucket per second of transfer.
  EXPECT_GE(client.series().buckets(), 15u);
}

TEST(Ping, MeasuresRoundTrip) {
  AppWorld w;
  PingServer server(*w.server, 7);
  PingClient client(*w.client, w.server_ep(7), Duration::ms(200));
  client.start();
  w.sim.run_for(Duration::s(10));
  client.stop();
  ASSERT_GT(client.rtts_ms().count(), 20u);
  EXPECT_NEAR(client.rtts_ms().p50(), 40.0, 3.0);  // 2 x 20 ms
  EXPECT_EQ(client.lost(), 0u);
}

TEST(Ping, CountsLossOnDeadLink) {
  AppWorld w;
  PingServer server(*w.server, 7);
  PingClient client(*w.client, w.server_ep(7), Duration::ms(100), Duration::ms(500));
  client.start();
  w.sim.run_for(Duration::s(2));
  w.link->set_up(false);
  w.sim.run_for(Duration::s(2));
  w.link->set_up(true);
  w.sim.run_for(Duration::s(2));
  client.stop();
  w.sim.run_for(Duration::s(1));
  EXPECT_GT(client.lost(), 10u);
}

TEST(Voip, CleanCallScoresExcellent) {
  AppWorld w(net::LinkParams{.rate_bps = 10e6, .delay = Duration::ms(20)});
  VoipEndpoint callee(*w.server, 6000);
  VoipEndpoint caller(*w.client, 6000);
  caller.call(w.server_ep(6000));
  w.sim.run_for(Duration::s(30));
  caller.hang_up();
  callee.hang_up();
  // Both directions flowed (callee auto-answered).
  EXPECT_GT(caller.stats().received, 1000u);
  EXPECT_GT(callee.stats().received, 1000u);
  EXPECT_GT(caller.stats().mos(), 4.2);
  EXPECT_LT(caller.stats().loss_rate(), 0.01);
}

TEST(Voip, LossDegradesMos) {
  net::LinkParams lossy{.rate_bps = 10e6, .delay = Duration::ms(20)};
  lossy.loss = 0.08;
  AppWorld w(lossy);
  VoipEndpoint callee(*w.server, 6000);
  VoipEndpoint caller(*w.client, 6000);
  caller.call(w.server_ep(6000));
  w.sim.run_for(Duration::s(30));
  EXPECT_LT(caller.stats().mos(), 4.0);
  EXPECT_GT(caller.stats().loss_rate(), 0.03);
}

TEST(Voip, MosFormulaKnownPoints) {
  VoipStats clean;
  clean.received = 100;
  clean.expected = 100;
  clean.avg_delay_ms = 60.0;
  EXPECT_GT(clean.mos(), 4.3);

  VoipStats bad;
  bad.received = 70;
  bad.expected = 100;  // 30% loss
  bad.avg_delay_ms = 300.0;
  EXPECT_LT(bad.mos(), 2.0);
}

TEST(Voip, ReInviteFollowsNewSourceAddress) {
  AppWorld w;
  VoipEndpoint callee(*w.server, 6000);
  VoipEndpoint caller(*w.client, 6000);
  caller.call(w.server_ep(6000));
  w.sim.run_for(Duration::s(5));
  const auto before = callee.peer();

  // The client re-addresses (CellBricks re-attach).
  w.network.unregister_address(net::Ipv4Addr(10, 0, 0, 1));
  w.client->remove_address(net::Ipv4Addr(10, 0, 0, 1));
  w.network.register_address(net::Ipv4Addr(10, 9, 0, 1), w.client);
  w.network.recompute_routes();
  w.sim.run_for(Duration::s(5));

  EXPECT_NE(callee.peer(), before);
  EXPECT_EQ(callee.peer().addr, net::Ipv4Addr(10, 9, 0, 1));
  // The callee's return stream reaches the new address: caller keeps
  // receiving after the change.
  const auto received_before = caller.stats().received;
  w.sim.run_for(Duration::s(5));
  EXPECT_GT(caller.stats().received, received_before + 100);
}

TEST(Hls, FastLinkReachesTopQuality) {
  AppWorld w(net::LinkParams{.rate_bps = 20e6, .delay = Duration::ms(20)});
  HlsServer server(transport::make_tcp_transport(*w.server_tcp), 8080);
  HlsClient client(transport::make_tcp_transport(*w.client_tcp), w.server_ep(8080), w.sim);
  client.start();
  w.sim.run_for(Duration::s(120));
  client.stop();
  EXPECT_GT(client.segments_played(), 20u);
  EXPECT_GT(client.avg_quality_level(), 4.0);  // near the top of the ladder
  EXPECT_EQ(client.rebuffer_events(), 0u);
}

TEST(Hls, SlowLinkStaysAtLowQuality) {
  AppWorld w(net::LinkParams{.rate_bps = 0.6e6, .delay = Duration::ms(20)});
  HlsServer server(transport::make_tcp_transport(*w.server_tcp), 8080);
  HlsClient client(transport::make_tcp_transport(*w.client_tcp), w.server_ep(8080), w.sim);
  client.start();
  w.sim.run_for(Duration::s(120));
  client.stop();
  EXPECT_GT(client.segments_played(), 5u);
  EXPECT_LT(client.avg_quality_level(), 1.5);
}

TEST(Hls, AbrAdaptsWhenRateDrops) {
  AppWorld w(net::LinkParams{.rate_bps = 20e6, .delay = Duration::ms(20)});
  HlsServer server(transport::make_tcp_transport(*w.server_tcp), 8080);
  HlsClient client(transport::make_tcp_transport(*w.client_tcp), w.server_ep(8080), w.sim);
  client.start();
  w.sim.run_for(Duration::s(60));
  // Throttle hard.
  net::LinkParams slow{.rate_bps = 0.5e6, .delay = Duration::ms(20)};
  w.link->set_params(w.client, slow);
  w.link->set_params(w.server, slow);
  w.sim.run_for(Duration::s(120));
  client.stop();
  // Player kept going (buffering + downshift), maybe with a stall or two.
  EXPECT_GT(client.segments_played(), 20u);
  // It adapted instead of dying: some segments after the throttle played at
  // a level the slow link can sustain.
  EXPECT_LT(client.avg_quality_level(), 5.0);
}

TEST(Web, LoadTimeMatchesBandwidthMath) {
  AppWorld w(net::LinkParams{.rate_bps = 10e6, .delay = Duration::ms(20)});
  WebServer server(transport::make_tcp_transport(*w.server_tcp), 80);
  WebClient client(transport::make_tcp_transport(*w.client_tcp), w.server_ep(80), w.sim);
  client.start();
  w.sim.run_for(Duration::s(60));
  client.stop();
  ASSERT_GT(client.pages_loaded(), 5u);
  // 8 x 80 KB = 5.1 Mb over 10 Mb/s ~= 0.5 s + handshakes/slow start.
  EXPECT_GT(client.load_times_s().mean(), 0.4);
  EXPECT_LT(client.load_times_s().mean(), 3.0);
  EXPECT_EQ(client.pages_failed(), 0u);
}

TEST(Web, SlowerLinkSlowerPages) {
  auto run = [](double rate) {
    AppWorld w(net::LinkParams{.rate_bps = rate, .delay = Duration::ms(20)});
    WebServer server(transport::make_tcp_transport(*w.server_tcp), 80);
    WebClient client(transport::make_tcp_transport(*w.client_tcp), w.server_ep(80), w.sim);
    client.start();
    w.sim.run_for(Duration::s(120));
    client.stop();
    EXPECT_GT(client.pages_loaded(), 0u);
    return client.load_times_s().mean();
  };
  EXPECT_GT(run(1e6), run(10e6) * 2);
}

}  // namespace
}  // namespace cb::apps
