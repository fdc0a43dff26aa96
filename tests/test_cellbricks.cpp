// End-to-end CellBricks integration tests built on the scenario World:
// attach via SAP over the real control path, host-driven mobility with
// MPTCP survival, verifiable billing with honest and dishonest parties,
// and the reputation-driven authorization loop.
#include <gtest/gtest.h>

#include "apps/iperf.hpp"
#include "obs/metrics.hpp"
#include "scenario/world.hpp"

namespace cb::scenario {
namespace {

WorldConfig static_cb_config(int towers = 2) {
  WorldConfig cfg;
  cfg.n_towers = towers;
  cfg.route = RouteSpec{"static", false, 0.1, 500.0, ran::RatePolicy::unlimited()};
  cfg.unlimited_policy = true;
  cfg.radio_loss = 0.0;
  return cfg;
}

TEST(CellBricksAttach, EndToEndOverControlPath) {
  World world(static_cb_config());
  bool done = false;
  net::Ipv4Addr ip;
  world.ue_agent()->attach(1, [&](Result<net::Ipv4Addr> r) {
    ASSERT_TRUE(r.ok()) << r.error();
    ip = r.value();
    done = true;
  });
  world.simulator().run_for(Duration::s(5));
  ASSERT_TRUE(done);
  EXPECT_TRUE(ip.valid());
  EXPECT_TRUE(world.ue_node()->has_address(ip));
  EXPECT_EQ(world.broker_cluster()->sessions_issued(), 1u);
  EXPECT_EQ(world.btelco(0)->active_sessions(), 1u);
}

TEST(CellBricksAttach, LatencyMatchesCalibration) {
  // 24.5 ms processing + 7.2 ms broker RTT ~= 31.7 ms (paper: 31.68 ms).
  World world(static_cb_config());
  bool done = false;
  world.ue_agent()->attach(1, [&](Result<net::Ipv4Addr>) { done = true; });
  world.simulator().run_for(Duration::s(5));
  ASSERT_TRUE(done);
  EXPECT_NEAR(world.ue_agent()->last_attach_latency().to_millis(), 31.7, 2.0);
}

TEST(CellBricksAttach, FasterThanEpcWhenCloudIsFar) {
  // One broker round-trip vs two HSS round-trips (the Fig.7 headline).
  auto run = [](AttachProtocol protocol) {
    WorldConfig cfg = static_cb_config(1);
    cfg.protocol = protocol;
    cfg.cloud_rtt = Duration::millis(73.5);  // us-east-1
    World world(cfg);
    bool done = false;
    double ms = 0;
    if (protocol == AttachProtocol::Sap) {
      world.ue_agent()->attach(1, [&](Result<net::Ipv4Addr>) { done = true; });
      world.simulator().run_for(Duration::s(5));
      ms = world.ue_agent()->last_attach_latency().to_millis();
    } else {
      world.ue_nas()->attach(1, [&](Result<net::Ipv4Addr>) { done = true; });
      world.simulator().run_for(Duration::s(5));
      ms = world.ue_nas()->last_attach_latency().to_millis();
    }
    EXPECT_TRUE(done);
    return ms;
  };
  const double cb = run(AttachProtocol::Sap);
  const double bl = run(AttachProtocol::EpsAka);
  EXPECT_LT(cb, bl);
  // Paper: 98.62 vs 166.48 ms — roughly 40% lower.
  EXPECT_NEAR(cb / bl, 98.62 / 166.48, 0.12);
}

TEST(CellBricksMobility, DetachInvalidatesAddress) {
  World world(static_cb_config());
  bool attached = false;
  world.ue_agent()->attach(1, [&](Result<net::Ipv4Addr> r) { attached = r.ok(); });
  world.simulator().run_for(Duration::s(5));
  ASSERT_TRUE(attached);
  const net::Ipv4Addr ip = world.ue_agent()->current_ip();
  world.ue_agent()->detach();
  EXPECT_FALSE(world.ue_agent()->attached());
  EXPECT_FALSE(world.ue_node()->has_address(ip));
  world.simulator().run_for(Duration::s(1));
  EXPECT_EQ(world.btelco(0)->active_sessions(), 0u);
}

TEST(CellBricksMobility, ReattachGetsDifferentProviderAddress) {
  World world(static_cb_config(2));
  net::Ipv4Addr ip1, ip2;
  world.ue_agent()->attach(1, [&](Result<net::Ipv4Addr> r) { ip1 = r.value(); });
  world.simulator().run_for(Duration::s(5));
  world.ue_agent()->detach();
  world.ue_agent()->attach(2, [&](Result<net::Ipv4Addr> r) { ip2 = r.value(); });
  world.simulator().run_for(Duration::s(5));
  ASSERT_TRUE(ip1.valid());
  ASSERT_TRUE(ip2.valid());
  EXPECT_NE(ip1, ip2);
  // Different bTelcos allocate from different pools.
  EXPECT_NE(ip1.value() >> 24, ip2.value() >> 24);
}

TEST(CellBricksMobility, DriveSurvivesWithMptcpBulkTransfer) {
  obs::Registry metrics;
  obs::ScopedRegistry scoped(&metrics);
  WorldConfig cfg;
  cfg.n_towers = 5;
  cfg.route = RouteSpec{"drive", false, 25.0, 700.0, ran::RatePolicy::unlimited()};
  cfg.unlimited_policy = true;
  World world(cfg);

  apps::IperfPushServer server(world.server_transport(), 5001, world.simulator(),
                               Duration::s(100));
  world.start();
  world.simulator().run_for(Duration::s(3));
  apps::IperfDownloadClient client(world.ue_transport(),
                                   net::EndPoint{world.server_addr(), 5001},
                                   world.simulator());
  world.simulator().run_for(Duration::s(110));

  EXPECT_GE(world.handovers(), 3u);  // several provider switches happened
  EXPECT_GT(client.total_bytes(), 10u * 1024 * 1024);
  // Data flowed after the final handover too (the stream survived).
  const auto& series = client.series();
  ASSERT_GT(series.buckets(), 100u);
  double tail = 0;
  for (std::size_t i = series.buckets() - 10; i < series.buckets(); ++i) {
    tail += series.bucket(i);
  }
  EXPECT_GT(tail, 0.0);

  // Pinned at this seed: a transport change that moves one event, RNG draw
  // or wire byte moves at least one of these.
  const obs::Counter* retransmits = metrics.find_counter("tcp.retransmits");
  ASSERT_NE(retransmits, nullptr);
  EXPECT_EQ(client.total_bytes(), 534934648u);
  EXPECT_EQ(world.handovers(), 4u);
  EXPECT_EQ(world.simulator().events_executed(), 7046576u);
  EXPECT_EQ(retransmits->value(), 1948u);
}

TEST(CellBricksBilling, HonestPartiesProduceMatchingReports) {
  World world(static_cb_config());
  apps::IperfPushServer server(world.server_transport(), 5001, world.simulator(),
                               Duration::s(25));
  bool attached = false;
  world.ue_agent()->attach(1, [&](Result<net::Ipv4Addr> r) { attached = r.ok(); });
  world.simulator().run_for(Duration::s(2));
  ASSERT_TRUE(attached);
  apps::IperfDownloadClient client(world.ue_transport(),
                                   net::EndPoint{world.server_addr(), 5001},
                                   world.simulator());
  world.simulator().run_for(Duration::s(35));  // several 10 s report periods

  EXPECT_GT(world.broker_cluster()->reports_received(), 2u);
  EXPECT_EQ(world.broker_cluster()->reports_rejected(), 0u);
  // All compared pairs matched; the bTelco's reputation is intact.
  EXPECT_DOUBLE_EQ(world.broker_cluster()->reputation().telco_score("btelco-0"), 1.0);
  EXPECT_EQ(world.broker_cluster()->reputation().mismatches("btelco-0"), 0u);
}

TEST(CellBricksBilling, OverReportingTelcoIsCaughtAndEventuallyRefused) {
  WorldConfig cfg = static_cb_config(2);
  cfg.telco0_overreport = 1.5;  // bTelco-0 inflates DL usage by 50%
  World world(cfg);
  apps::IperfPushServer server(world.server_transport(), 5001, world.simulator(),
                               Duration::s(60));
  bool attached = false;
  world.ue_agent()->attach(1, [&](Result<net::Ipv4Addr> r) { attached = r.ok(); });
  world.simulator().run_for(Duration::s(2));
  ASSERT_TRUE(attached);
  apps::IperfDownloadClient client(world.ue_transport(),
                                   net::EndPoint{world.server_addr(), 5001},
                                   world.simulator());
  world.simulator().run_for(Duration::s(70));

  // Mismatches accumulated; btelco-0's score decayed.
  EXPECT_GT(world.broker_cluster()->reputation().mismatches("btelco-0"), 2u);
  EXPECT_LT(world.broker_cluster()->reputation().telco_score("btelco-0"), 0.5);
  // The broker now refuses to authorize attachments via btelco-0...
  world.ue_agent()->detach();
  world.simulator().run_for(Duration::s(1));
  bool denied = false;
  world.ue_agent()->attach(1, [&](Result<net::Ipv4Addr> r) { denied = !r.ok(); });
  world.simulator().run_for(Duration::s(10));
  EXPECT_TRUE(denied);
  // ...while the honest btelco-1 still serves the user.
  bool ok2 = false;
  world.ue_agent()->attach(2, [&](Result<net::Ipv4Addr> r) { ok2 = r.ok(); });
  world.simulator().run_for(Duration::s(10));
  EXPECT_TRUE(ok2);
  // The honest user was NOT blamed.
  EXPECT_FALSE(world.broker_cluster()->reputation().is_suspect("user-001"));
}

TEST(CellBricksBilling, UnderReportingUeFlaggedAcrossTelcos) {
  WorldConfig cfg = static_cb_config(2);
  cfg.ue_underreport = 0.5;  // tampered baseband halves reported usage
  World world(cfg);
  apps::IperfPushServer server(world.server_transport(), 5001, world.simulator(),
                               Duration::s(120));

  for (ran::CellId cell : {ran::CellId{1}, ran::CellId{2}}) {
    bool attached = false;
    world.ue_agent()->attach(cell, [&](Result<net::Ipv4Addr> r) { attached = r.ok(); });
    world.simulator().run_for(Duration::s(2));
    ASSERT_TRUE(attached);
    apps::IperfDownloadClient client(world.ue_transport(),
                                     net::EndPoint{world.server_addr(), 5001},
                                     world.simulator());
    world.simulator().run_for(Duration::s(35));
    world.ue_agent()->detach();
    world.simulator().run_for(Duration::s(1));
    // Re-attach briefly so the pending final report gets flushed.
    bool re = false;
    world.ue_agent()->attach(cell, [&](Result<net::Ipv4Addr> r) { re = r.ok(); });
    world.simulator().run_for(Duration::s(2));
    if (re) {
      world.ue_agent()->detach();
      world.simulator().run_for(Duration::s(1));
    }
  }
  // Mismatches against two distinct bTelcos: the user lands on the suspect
  // list (the bTelcos' own honesty is what exonerates them).
  EXPECT_TRUE(world.broker_cluster()->reputation().is_suspect("user-001"));
}

TEST(CellBricksAttach, BrokerDenialLeavesRadioDown) {
  // A failed attach must fully unwind: no IP, no session, and the radio
  // bearer back down (it is optimistically raised before SAP runs).
  World world(static_cb_config(1));
  world.broker_cluster()->remove_subscriber("user-001");
  bool failed = false;
  world.ue_agent()->attach(1, [&](Result<net::Ipv4Addr> r) { failed = !r.ok(); });
  world.simulator().run_for(Duration::s(5));
  EXPECT_TRUE(failed);
  EXPECT_FALSE(world.ue_agent()->attached());
  EXPECT_FALSE(world.ran_map().site(1).radio_link->is_up());
  EXPECT_EQ(world.btelco(0)->active_sessions(), 0u);
  EXPECT_EQ(world.ue_agent()->attach_failures(), 1u);
}

TEST(CellBricksAttach, FinalReportSurvivesDetachViaRetransmission) {
  // The final report's first copy races the radio teardown; the reliable
  // channel must deliver it after the next attach so billing pairs close.
  World world(static_cb_config(1));
  bool attached = false;
  world.ue_agent()->attach(1, [&](Result<net::Ipv4Addr> r) { attached = r.ok(); });
  world.simulator().run_for(Duration::s(12));  // one report period
  ASSERT_TRUE(attached);
  world.ue_agent()->detach();
  world.simulator().run_for(Duration::s(3));
  bool re = false;
  world.ue_agent()->attach(1, [&](Result<net::Ipv4Addr> r) { re = r.ok(); });
  world.simulator().run_for(Duration::s(5));
  ASSERT_TRUE(re);
  // Nothing is stuck in the retransmission queue, nothing was rejected.
  EXPECT_EQ(world.ue_agent()->outstanding_reports(), 0u);
  EXPECT_EQ(world.broker_cluster()->reports_rejected(), 0u);
  EXPECT_GE(world.broker_cluster()->reports_ingested(), 2u);
}

TEST(CellBricksScale, ManySequentialAttachesAllSucceed) {
  World world(static_cb_config(2));
  int ok = 0;
  for (int i = 0; i < 20; ++i) {
    const ran::CellId cell = (i % 2) + 1;
    bool done = false;
    world.ue_agent()->attach(cell, [&](Result<net::Ipv4Addr> r) {
      if (r.ok()) ++ok;
      done = true;
    });
    world.simulator().run_for(Duration::s(2));
    ASSERT_TRUE(done);
    world.ue_agent()->detach();
    world.simulator().run_for(Duration::ms(100));
  }
  EXPECT_EQ(ok, 20);
  EXPECT_EQ(world.broker_cluster()->sessions_issued(), 20u);
}

}  // namespace
}  // namespace cb::scenario
