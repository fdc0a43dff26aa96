// MPTCP tests: framing, stream integrity, and — the paper's crux — surviving
// address changes via subflow replacement (detach → new IP → JOIN →
// REMOVE_ADDR → go-back retransmission).
#include <gtest/gtest.h>

#include "net/network.hpp"
#include "transport/mptcp.hpp"

namespace cb::transport {
namespace {

using net::Ipv4Addr;
using net::LinkParams;

// Client reachable via two gateways (two potential addresses), server behind
// a WAN link — a miniature CellBricks topology without the cellular control
// plane.
struct MobileWorld {
  explicit MobileWorld(std::uint64_t seed = 1, Duration address_wait = kMptcpAddressWait)
      : sim(seed), net(sim) {
    ue = net.add_node("ue");
    gw1 = net.add_node("gw1");
    gw2 = net.add_node("gw2");
    server = net.add_node("server");
    net.register_address(server_addr, server);
    net.connect(gw1, server, LinkParams{.rate_bps = 100e6, .delay = Duration::ms(20)});
    net.connect(gw2, server, LinkParams{.rate_bps = 100e6, .delay = Duration::ms(20)});
    radio1 = net.connect(ue, gw1, LinkParams{.rate_bps = 20e6, .delay = Duration::ms(10)});
    radio2 = net.connect(ue, gw2, LinkParams{.rate_bps = 20e6, .delay = Duration::ms(10)});
    radio2->set_up(false);
    net.register_address(ip1, ue);
    net.recompute_routes();

    ue_tcp = std::make_unique<TcpStack>(*ue);
    server_tcp = std::make_unique<TcpStack>(*server);
    ue_mptcp = std::make_unique<MptcpStack>(*ue, *ue_tcp, address_wait);
    server_mptcp = std::make_unique<MptcpStack>(*server, *server_tcp, address_wait);
  }

  // Handover number `i` of a ping-pong between the gateways (even numbers
  // move the UE from gw1 to gw2, odd ones back): address invalidation, then
  // after `attach_latency` the new address exists and MPTCP is told.
  void handover(Duration attach_latency, int i = 0) {
    auto* from = (i % 2 == 0) ? radio1 : radio2;
    auto* to = (i % 2 == 0) ? radio2 : radio1;
    const auto from_ip = (i % 2 == 0) ? ip1 : ip2;
    const auto to_ip = (i % 2 == 0) ? ip2 : ip1;
    from->set_up(false);
    net.unregister_address(from_ip);
    ue->remove_address(from_ip);
    net.recompute_routes();
    ue_mptcp->notify_address_invalidated(from_ip);
    sim.schedule(attach_latency, [this, to, to_ip] {
      to->set_up(true);
      net.register_address(to_ip, ue);
      net.recompute_routes();
      ue_mptcp->notify_address_available(to_ip);
    });
  }

  const Ipv4Addr server_addr{Ipv4Addr(1, 1, 1, 1)};
  const Ipv4Addr ip1{Ipv4Addr(10, 1, 0, 1)};
  const Ipv4Addr ip2{Ipv4Addr(10, 2, 0, 1)};

  sim::Simulator sim;
  net::Network net;
  net::Node* ue;
  net::Node* gw1;
  net::Node* gw2;
  net::Node* server;
  net::Link* radio1;
  net::Link* radio2;
  std::unique_ptr<TcpStack> ue_tcp;
  std::unique_ptr<TcpStack> server_tcp;
  std::unique_ptr<MptcpStack> ue_mptcp;
  std::unique_ptr<MptcpStack> server_mptcp;
};

Bytes pattern_bytes(std::size_t n) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(i * 197 + 13);
  return out;
}

struct BulkOverMptcp {
  BulkOverMptcp(MobileWorld& w, std::size_t total) : payload(pattern_bytes(total)) {
    w.server_mptcp->listen(80, [this](std::shared_ptr<MptcpSocket> s) {
      server_side = std::move(s);
      server_side->on_data = [this](BytesView d) {
        received.insert(received.end(), d.begin(), d.end());
      };
      server_side->on_closed = [this](const std::string& r) {
        if (r.empty() && server_side) server_side->close();
      };
    });
    client_side = w.ue_mptcp->connect({w.server_addr, 80});
    client_side->on_connected = [this] { pump(); };
    client_side->on_send_space = [this] { pump(); };
    client_side->on_closed = [this](const std::string& r) { closed_reason = r; done = true; };
  }

  void pump() {
    while (sent < payload.size()) {
      const std::size_t n = client_side->send(
          BytesView(payload.data() + sent, std::min<std::size_t>(16384, payload.size() - sent)));
      if (n == 0) return;
      sent += n;
    }
    if (!close_sent) {
      close_sent = true;
      client_side->close();
    }
  }

  Bytes payload;
  Bytes received;
  std::shared_ptr<MptcpSocket> client_side;
  std::shared_ptr<MptcpSocket> server_side;
  std::size_t sent = 0;
  bool close_sent = false;
  bool done = false;
  std::string closed_reason = "unset";
};

TEST(Mptcp, ConnectAndTransfer) {
  MobileWorld w;
  BulkOverMptcp t(w, 200 * 1024);
  w.sim.run_for(Duration::s(30));
  ASSERT_EQ(t.received.size(), t.payload.size());
  EXPECT_EQ(t.received, t.payload);
  EXPECT_TRUE(t.done);
  EXPECT_EQ(t.closed_reason, "");
}

TEST(Mptcp, EchoBothDirections) {
  MobileWorld w;
  std::shared_ptr<MptcpSocket> srv;
  Bytes echoed;
  w.server_mptcp->listen(7, [&](std::shared_ptr<MptcpSocket> s) {
    srv = std::move(s);
    srv->on_data = [&](BytesView d) { srv->send(d); };
  });
  auto c = w.ue_mptcp->connect({w.server_addr, 7});
  c->on_connected = [&] { c->send(to_bytes("hello mptcp")); };
  c->on_data = [&](BytesView d) { echoed.insert(echoed.end(), d.begin(), d.end()); };
  w.sim.run_for(Duration::s(5));
  EXPECT_EQ(echoed, to_bytes("hello mptcp"));
}

TEST(Mptcp, SurvivesAddressChange) {
  MobileWorld w;
  BulkOverMptcp t(w, 2 * 1024 * 1024);
  w.sim.run_for(Duration::s(3));
  EXPECT_GT(t.received.size(), 0u);
  w.handover(Duration::ms(32));
  w.sim.run_for(Duration::s(60));
  ASSERT_EQ(t.received.size(), t.payload.size());
  EXPECT_EQ(t.received, t.payload);
  EXPECT_EQ(t.closed_reason, "");
}

TEST(Mptcp, SurvivesManyConsecutiveHandovers) {
  MobileWorld w(11);
  BulkOverMptcp t(w, 3 * 1024 * 1024);
  // Ping-pong between the two gateways every 2 s.
  for (int i = 0; i < 6; ++i) {
    w.sim.schedule(Duration::s(2) * (i + 1), [&w, i] { w.handover(Duration::ms(32), i); });
  }
  w.sim.run_for(Duration::s(120));
  ASSERT_EQ(t.received.size(), t.payload.size());
  EXPECT_EQ(t.received, t.payload);
}

TEST(Mptcp, AddressWaitDelaysRecovery) {
  // With the mainline 500 ms wait the first byte after handover appears
  // noticeably later than with the wait removed (Fig.9's comparison).
  auto run = [](Duration wait) {
    MobileWorld w(5, wait);
    BulkOverMptcp t(w, 8 * 1024 * 1024);
    w.sim.run_for(Duration::s(3));
    const TimePoint handover_at = w.sim.now();
    w.handover(Duration::ms(32));
    // Bytes already past the radio keep arriving for one propagation delay;
    // flush them before measuring when NEW data (via the replacement
    // subflow) resumes.
    w.sim.run_for(Duration::ms(100));
    const std::size_t before = t.received.size();
    while (t.received.size() == before &&
           w.sim.now() < handover_at + Duration::s(10)) {
      w.sim.run_for(Duration::ms(10));
    }
    return (w.sim.now() - handover_at).to_seconds();
  };
  const double with_wait = run(Duration::ms(500));
  const double without_wait = run(Duration::zero());
  EXPECT_GT(with_wait, 0.45);
  EXPECT_LT(without_wait, 0.30);
}

TEST(Mptcp, TearsDownAfterPathTimeout) {
  MobileWorld w(3);
  BulkOverMptcp t(w, 4 * 1024 * 1024);
  w.sim.run_for(Duration::s(2));
  // Detach and never provide a new address.
  w.radio1->set_up(false);
  w.net.unregister_address(w.ip1);
  w.ue->remove_address(w.ip1);
  w.net.recompute_routes();
  w.ue_mptcp->notify_address_invalidated(w.ip1);
  w.sim.run_for(kMptcpPathTimeout - Duration::s(1));
  EXPECT_FALSE(t.done) << "torn down before the watch window ran out";
  w.sim.run_for(Duration::s(2));
  EXPECT_TRUE(t.done);
  EXPECT_NE(t.closed_reason, "");
  EXPECT_NE(t.closed_reason, "unset");
}

TEST(Mptcp, RecoveryBeforeTimeoutKeepsConnection) {
  MobileWorld w(4);
  BulkOverMptcp t(w, 512 * 1024);
  w.sim.run_for(Duration::s(2));
  // The attach completes 10 s before the watch window runs out.
  w.handover(kMptcpPathTimeout - Duration::s(10));
  w.sim.run_for(kMptcpPathTimeout + Duration::s(60));
  ASSERT_EQ(t.received.size(), t.payload.size());
  EXPECT_EQ(t.received, t.payload);
}

TEST(Mptcp, ServerPushSurvivesHandover) {
  // Data flowing server -> UE (download direction, like video/web).
  MobileWorld w(6);
  const Bytes payload = pattern_bytes(1024 * 1024);
  Bytes received;
  std::shared_ptr<MptcpSocket> srv;
  std::size_t sent = 0;
  bool close_sent = false;
  w.server_mptcp->listen(80, [&](std::shared_ptr<MptcpSocket> s) {
    srv = std::move(s);
    auto pump = std::make_shared<std::function<void()>>();
    // on_send_space keeps `pump` alive; capturing it here too would make the
    // function own itself (a shared_ptr cycle LeakSanitizer flags).
    *pump = [&] {
      while (sent < payload.size()) {
        const std::size_t n = srv->send(BytesView(
            payload.data() + sent, std::min<std::size_t>(16384, payload.size() - sent)));
        if (n == 0) return;
        sent += n;
      }
      if (!close_sent) {
        close_sent = true;
        srv->close();
      }
    };
    srv->on_send_space = [pump] { (*pump)(); };
    (*pump)();
  });
  auto c = w.ue_mptcp->connect({w.server_addr, 80});
  c->on_data = [&](BytesView d) { received.insert(received.end(), d.begin(), d.end()); };
  w.sim.run_for(Duration::s(1));
  w.handover(Duration::ms(64));
  w.sim.run_for(Duration::s(60));
  ASSERT_EQ(received.size(), payload.size());
  EXPECT_EQ(received, payload);
}

// Property sweep: integrity across loss rates and handover timing.
struct MobilityCase {
  double loss;
  int handover_at_ms;
  std::uint64_t seed;
};

// Names the ctest entry by value, so it is the same in every build: gtest's
// default prints the struct's raw bytes, including the padding after
// handover_at_ms.
void PrintTo(const MobilityCase& c, std::ostream* os) {
  *os << "loss=" << c.loss << " handover=" << c.handover_at_ms << "ms seed=" << c.seed;
}

class MptcpMobilitySweep : public ::testing::TestWithParam<MobilityCase> {};

TEST_P(MptcpMobilitySweep, StreamIntegrityAcrossHandover) {
  const MobilityCase c = GetParam();
  MobileWorld w(c.seed);
  // Apply loss to both radio links.
  LinkParams lossy{.rate_bps = 20e6, .delay = Duration::ms(10)};
  lossy.loss = c.loss;
  w.radio1->set_params(w.ue, lossy);
  w.radio1->set_params(w.gw1, lossy);
  w.radio2->set_params(w.ue, lossy);
  w.radio2->set_params(w.gw2, lossy);

  BulkOverMptcp t(w, 400 * 1024);
  w.sim.schedule(Duration::ms(c.handover_at_ms), [&] { w.handover(Duration::ms(32)); });
  w.sim.run_for(Duration::s(240));
  ASSERT_EQ(t.received.size(), t.payload.size());
  EXPECT_EQ(t.received, t.payload);
}

INSTANTIATE_TEST_SUITE_P(
    MobilityGrid, MptcpMobilitySweep,
    ::testing::Values(MobilityCase{0.0, 500, 21}, MobilityCase{0.02, 700, 22},
                      MobilityCase{0.05, 300, 23}, MobilityCase{0.0, 50, 24},
                      MobilityCase{0.02, 1500, 25}, MobilityCase{0.08, 900, 26}));

// Buffer release: a subflow killed by a handover keeps its entry in the
// connection (its callbacks index it), but neither side keeps its bytes.
// The UE's old TCP socket is aborted with unacked data in flight, and the
// server's old subflow dies on REMOVE_ADDR holding record bytes. Checked
// every 50 ms until the connection starts to close (a graceful close lets
// each subflow's TCP drain, so only then may a dead subflow hold bytes).
TEST(Mptcp, DeadSubflowsReleaseTheirBuffers) {
  MobileWorld w(12);
  LinkParams lossy{.rate_bps = 20e6, .delay = Duration::ms(10)};
  lossy.loss = 0.02;
  w.radio1->set_params(w.ue, lossy);
  w.radio1->set_params(w.gw1, lossy);
  w.radio2->set_params(w.ue, lossy);
  w.radio2->set_params(w.gw2, lossy);
  BulkOverMptcp t(w, 3 * 1024 * 1024);
  for (int i = 0; i < 3; ++i) {
    w.sim.schedule(Duration::s(2) * (i + 1), [&w, i] { w.handover(Duration::ms(32), i); });
  }
  const TimePoint deadline = w.sim.now() + Duration::s(120);
  while (w.sim.now() < deadline) {
    w.sim.run_for(Duration::ms(50));
    if (t.done) break;
    EXPECT_EQ(t.client_side->dead_subflow_bytes(), 0u) << "at " << w.sim.now().to_seconds();
    if (t.server_side) {
      EXPECT_EQ(t.server_side->dead_subflow_bytes(), 0u) << "at " << w.sim.now().to_seconds();
    }
  }
  // The transfer outlived the last handover's replacement subflow.
  EXPECT_GT(w.sim.now().to_seconds(), 7.0);
  ASSERT_EQ(t.received.size(), t.payload.size());
  EXPECT_EQ(t.received, t.payload);
}

TEST(Mptcp, SubflowCountReflectsPathState) {
  MobileWorld w;
  BulkOverMptcp t(w, 4 * 1024 * 1024);
  w.sim.run_for(Duration::s(2));
  EXPECT_EQ(t.client_side->subflow_count(), 1u);
  w.handover(Duration::ms(32));
  w.sim.run_for(Duration::ms(100));
  EXPECT_EQ(t.client_side->subflow_count(), 0u);  // inside the 500 ms wait
  w.sim.run_for(Duration::s(2));
  EXPECT_EQ(t.client_side->subflow_count(), 1u);  // replacement established
}

}  // namespace
}  // namespace cb::transport
