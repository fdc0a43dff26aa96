// Unit tests for the simulated network layer: links (delay/rate/loss/queue),
// node forwarding, routing, proxy anchors, and dynamic re-addressing, plus
// the all-pairs oracle property test for incremental routing.
#include <gtest/gtest.h>

#include <limits>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "test_seed.hpp"

namespace cb::net {
namespace {

Packet make_udp(EndPoint src, EndPoint dst, std::size_t payload_size) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.proto = Proto::Udp;
  p.payload.assign(payload_size, 0xAB);
  return p;
}

struct TwoNodes {
  sim::Simulator sim;
  Network network{sim};
  Node* a = network.add_node("a");
  Node* b = network.add_node("b");
};

TEST(Address, Formatting) {
  EXPECT_EQ(Ipv4Addr(10, 0, 0, 1).to_string(), "10.0.0.1");
  EXPECT_EQ((EndPoint{Ipv4Addr(1, 2, 3, 4), 80}).to_string(), "1.2.3.4:80");
  EXPECT_FALSE(Ipv4Addr().valid());
  EXPECT_TRUE(Ipv4Addr(10, 0, 0, 1).valid());
}

TEST(Network, AddressAllocatorIsUnique) {
  sim::Simulator sim;
  Network net(sim);
  const Ipv4Addr x = net.alloc_address(10);
  const Ipv4Addr y = net.alloc_address(10);
  const Ipv4Addr z = net.alloc_address(20);
  EXPECT_NE(x, y);
  EXPECT_NE(x, z);
  EXPECT_EQ(x.value() >> 24, 10u);
  EXPECT_EQ(z.value() >> 24, 20u);
}

TEST(Link, DeliversWithPropagationDelay) {
  TwoNodes t;
  t.network.register_address(Ipv4Addr(10, 0, 0, 1), t.a);
  t.network.register_address(Ipv4Addr(10, 0, 0, 2), t.b);
  t.network.connect(t.a, t.b, LinkParams{.delay = Duration::ms(10)});
  t.network.recompute_routes();

  TimePoint arrival;
  t.b->bind_udp(5000, [&](const Packet&) { arrival = t.sim.now(); });
  t.a->send(make_udp({Ipv4Addr(10, 0, 0, 1), 1}, {Ipv4Addr(10, 0, 0, 2), 5000}, 100));
  t.sim.run();
  EXPECT_EQ(arrival.nanos(), Duration::ms(10).nanos());
}

TEST(Link, SerializationDelayDependsOnRate) {
  TwoNodes t;
  t.network.register_address(Ipv4Addr(10, 0, 0, 1), t.a);
  t.network.register_address(Ipv4Addr(10, 0, 0, 2), t.b);
  // 1 Mb/s: a 1000+40 byte packet takes 8.32 ms to serialize.
  t.network.connect(t.a, t.b, LinkParams{.rate_bps = 1e6, .delay = Duration::zero()});
  t.network.recompute_routes();

  TimePoint arrival;
  t.b->bind_udp(5000, [&](const Packet&) { arrival = t.sim.now(); });
  t.a->send(make_udp({Ipv4Addr(10, 0, 0, 1), 1}, {Ipv4Addr(10, 0, 0, 2), 5000}, 1000));
  t.sim.run();
  EXPECT_NEAR(arrival.to_seconds(), 1040.0 * 8.0 / 1e6, 1e-9);
}

TEST(Link, BackToBackPacketsQueueBehindEachOther) {
  TwoNodes t;
  t.network.register_address(Ipv4Addr(10, 0, 0, 1), t.a);
  t.network.register_address(Ipv4Addr(10, 0, 0, 2), t.b);
  t.network.connect(t.a, t.b, LinkParams{.rate_bps = 1e6});
  t.network.recompute_routes();

  std::vector<double> arrivals;
  t.b->bind_udp(5000, [&](const Packet&) { arrivals.push_back(t.sim.now().to_seconds()); });
  for (int i = 0; i < 3; ++i) {
    t.a->send(make_udp({Ipv4Addr(10, 0, 0, 1), 1}, {Ipv4Addr(10, 0, 0, 2), 5000}, 960));
  }
  t.sim.run();
  ASSERT_EQ(arrivals.size(), 3u);
  const double unit = 1000.0 * 8.0 / 1e6;  // 8 ms per 1000-wire-byte packet
  EXPECT_NEAR(arrivals[0], unit, 1e-9);
  EXPECT_NEAR(arrivals[1], 2 * unit, 1e-9);
  EXPECT_NEAR(arrivals[2], 3 * unit, 1e-9);
}

TEST(Link, QueueOverflowDrops) {
  TwoNodes t;
  t.network.register_address(Ipv4Addr(10, 0, 0, 1), t.a);
  t.network.register_address(Ipv4Addr(10, 0, 0, 2), t.b);
  LinkParams params{.rate_bps = 1e6};
  params.queue_bytes = 3000;
  Link* link = t.network.connect(t.a, t.b, params);
  t.network.recompute_routes();

  int received = 0;
  t.b->bind_udp(5000, [&](const Packet&) { ++received; });
  for (int i = 0; i < 10; ++i) {
    t.a->send(make_udp({Ipv4Addr(10, 0, 0, 1), 1}, {Ipv4Addr(10, 0, 0, 2), 5000}, 960));
  }
  t.sim.run();
  EXPECT_LT(received, 10);
  EXPECT_GT(link->drops(), 0u);
}

TEST(Link, RandomLossDropsRoughlyAtRate) {
  TwoNodes t;
  t.network.register_address(Ipv4Addr(10, 0, 0, 1), t.a);
  t.network.register_address(Ipv4Addr(10, 0, 0, 2), t.b);
  LinkParams params;
  params.loss = 0.3;
  t.network.connect(t.a, t.b, params);
  t.network.recompute_routes();

  int received = 0;
  t.b->bind_udp(5000, [&](const Packet&) { ++received; });
  const int total = 2000;
  for (int i = 0; i < total; ++i) {
    t.a->send(make_udp({Ipv4Addr(10, 0, 0, 1), 1}, {Ipv4Addr(10, 0, 0, 2), 5000}, 10));
  }
  t.sim.run();
  EXPECT_NEAR(static_cast<double>(received) / total, 0.7, 0.05);
}

TEST(Link, DownLinkDropsEverything) {
  TwoNodes t;
  t.network.register_address(Ipv4Addr(10, 0, 0, 1), t.a);
  t.network.register_address(Ipv4Addr(10, 0, 0, 2), t.b);
  Link* link = t.network.connect(t.a, t.b, LinkParams{});
  t.network.recompute_routes();

  int received = 0;
  t.b->bind_udp(5000, [&](const Packet&) { ++received; });
  link->set_up(false);
  t.a->send(make_udp({Ipv4Addr(10, 0, 0, 1), 1}, {Ipv4Addr(10, 0, 0, 2), 5000}, 10));
  t.sim.run();
  EXPECT_EQ(received, 0);

  link->set_up(true);
  t.a->send(make_udp({Ipv4Addr(10, 0, 0, 1), 1}, {Ipv4Addr(10, 0, 0, 2), 5000}, 10));
  t.sim.run();
  EXPECT_EQ(received, 1);
}

TEST(Routing, MultiHopForwarding) {
  sim::Simulator sim;
  Network net(sim);
  Node* a = net.add_node("a");
  Node* r1 = net.add_node("r1");
  Node* r2 = net.add_node("r2");
  Node* b = net.add_node("b");
  net.register_address(Ipv4Addr(10, 0, 0, 1), a);
  net.register_address(Ipv4Addr(10, 0, 0, 2), b);
  net.connect(a, r1, LinkParams{.delay = Duration::ms(1)});
  net.connect(r1, r2, LinkParams{.delay = Duration::ms(1)});
  net.connect(r2, b, LinkParams{.delay = Duration::ms(1)});
  net.recompute_routes();

  TimePoint arrival;
  int count = 0;
  b->bind_udp(80, [&](const Packet&) {
    arrival = sim.now();
    ++count;
  });
  a->send(make_udp({Ipv4Addr(10, 0, 0, 1), 1}, {Ipv4Addr(10, 0, 0, 2), 80}, 50));
  sim.run();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(arrival.nanos(), Duration::ms(3).nanos());
  EXPECT_EQ(r1->forwarded(), 1u);
  EXPECT_EQ(r2->forwarded(), 1u);
}

TEST(Routing, ShortestDelayPathWins) {
  sim::Simulator sim;
  Network net(sim);
  Node* a = net.add_node("a");
  Node* fast = net.add_node("fast");
  Node* slow = net.add_node("slow");
  Node* b = net.add_node("b");
  net.register_address(Ipv4Addr(10, 0, 0, 1), a);
  net.register_address(Ipv4Addr(10, 0, 0, 2), b);
  net.connect(a, fast, LinkParams{.delay = Duration::ms(1)});
  net.connect(fast, b, LinkParams{.delay = Duration::ms(1)});
  net.connect(a, slow, LinkParams{.delay = Duration::ms(50)});
  net.connect(slow, b, LinkParams{.delay = Duration::ms(50)});
  net.recompute_routes();

  int count = 0;
  b->bind_udp(80, [&](const Packet&) { ++count; });
  a->send(make_udp({Ipv4Addr(10, 0, 0, 1), 1}, {Ipv4Addr(10, 0, 0, 2), 80}, 50));
  sim.run();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(fast->forwarded(), 1u);
  EXPECT_EQ(slow->forwarded(), 0u);
}

TEST(Routing, ReaddressingMovesDelivery) {
  // A UE-style node loses one address and gains another anchored elsewhere.
  sim::Simulator sim;
  Network net(sim);
  Node* server = net.add_node("server");
  Node* gw1 = net.add_node("gw1");
  Node* gw2 = net.add_node("gw2");
  Node* ue = net.add_node("ue");
  net.register_address(Ipv4Addr(1, 1, 1, 1), server);
  net.connect(server, gw1, LinkParams{.delay = Duration::ms(5)});
  net.connect(server, gw2, LinkParams{.delay = Duration::ms(5)});
  Link* radio1 = net.connect(gw1, ue, LinkParams{.delay = Duration::ms(2)});
  Link* radio2 = net.connect(gw2, ue, LinkParams{.delay = Duration::ms(2)});
  radio2->set_up(false);

  const Ipv4Addr ip1(10, 1, 0, 1);
  net.register_address(ip1, ue);
  net.recompute_routes();

  int received = 0;
  ue->bind_udp(9000, [&](const Packet&) { ++received; });
  server->send(make_udp({Ipv4Addr(1, 1, 1, 1), 1}, {ip1, 9000}, 10));
  sim.run();
  EXPECT_EQ(received, 1);

  // Detach from gw1, attach to gw2 with a new address.
  radio1->set_up(false);
  radio2->set_up(true);
  net.unregister_address(ip1);
  const Ipv4Addr ip2(10, 2, 0, 1);
  net.register_address(ip2, ue);
  net.recompute_routes();

  server->send(make_udp({Ipv4Addr(1, 1, 1, 1), 1}, {ip2, 9000}, 10));
  sim.run();
  EXPECT_EQ(received, 2);
  EXPECT_FALSE(ue->has_address(ip1));
}

TEST(Node, ProxyAddressInterceptsPackets) {
  TwoNodes t;
  t.network.register_address(Ipv4Addr(10, 0, 0, 1), t.a);
  // 99.0.0.1 is anchored at b but NOT local there.
  t.network.register_address(Ipv4Addr(99, 0, 0, 1), t.b, /*proxy_only=*/true);
  t.network.connect(t.a, t.b, LinkParams{});
  t.network.recompute_routes();

  int proxied = 0;
  t.b->add_proxy_address(Ipv4Addr(99, 0, 0, 1), [&](Packet&&) { ++proxied; });
  t.a->send(make_udp({Ipv4Addr(10, 0, 0, 1), 1}, {Ipv4Addr(99, 0, 0, 1), 80}, 10));
  t.sim.run();
  EXPECT_EQ(proxied, 1);
}

TEST(Node, ForwardHookCanConsume) {
  sim::Simulator sim;
  Network net(sim);
  Node* a = net.add_node("a");
  Node* mid = net.add_node("mid");
  Node* b = net.add_node("b");
  net.register_address(Ipv4Addr(10, 0, 0, 1), a);
  net.register_address(Ipv4Addr(10, 0, 0, 2), b);
  net.connect(a, mid, LinkParams{});
  net.connect(mid, b, LinkParams{});
  net.recompute_routes();

  int hook_count = 0, received = 0;
  mid->set_forward_hook([&](Packet&) {
    ++hook_count;
    return true;  // swallow everything
  });
  b->bind_udp(80, [&](const Packet&) { ++received; });
  a->send(make_udp({Ipv4Addr(10, 0, 0, 1), 1}, {Ipv4Addr(10, 0, 0, 2), 80}, 10));
  sim.run();
  EXPECT_EQ(hook_count, 1);
  EXPECT_EQ(received, 0);
}

TEST(Node, TtlPreventsRoutingLoops) {
  sim::Simulator sim;
  Network net(sim);
  Node* a = net.add_node("a");
  Node* b = net.add_node("b");
  Link* ab = net.connect(a, b, LinkParams{});
  // Deliberately broken routing: each node points back across the link for
  // an address neither owns.
  a->set_route(Ipv4Addr(77, 0, 0, 1), ab);
  b->set_route(Ipv4Addr(77, 0, 0, 1), ab);

  a->send(make_udp({Ipv4Addr(10, 0, 0, 1), 1}, {Ipv4Addr(77, 0, 0, 1), 80}, 10));
  sim.run();  // must terminate
  EXPECT_GT(a->dropped_no_route() + b->dropped_no_route(), 0u);
}

TEST(Node, UdpPortBindingRules) {
  sim::Simulator sim;
  Network net(sim);
  Node* n = net.add_node("n");
  n->bind_udp(80, [](const Packet&) {});
  EXPECT_THROW(n->bind_udp(80, [](const Packet&) {}), std::logic_error);
  n->unbind_udp(80);
  n->bind_udp(80, [](const Packet&) {});

  const std::uint16_t e1 = n->alloc_port();
  const std::uint16_t e2 = n->alloc_port();
  EXPECT_NE(e1, e2);
  EXPECT_GE(e1, 49152);
}

TEST(Network, ReRegisteringAtAnotherOwnerMovesTheAddress) {
  // An address registered over a live registration belongs to the new
  // owner alone: the old owner must stop delivering it locally, on both the
  // full and the incremental routing path.
  TwoNodes t;
  t.network.register_address(Ipv4Addr(10, 0, 0, 1), t.a);
  t.network.register_address(Ipv4Addr(10, 0, 0, 2), t.b);
  t.network.connect(t.a, t.b, LinkParams{.delay = Duration::ms(1)});
  const Ipv4Addr moving(10, 0, 0, 9);
  t.network.register_address(moving, t.a);
  t.network.recompute_routes();
  ASSERT_TRUE(t.a->has_address(moving));

  t.network.register_address(moving, t.b);
  t.network.recompute_routes();
  EXPECT_EQ(t.network.owner_of(moving), t.b);
  EXPECT_FALSE(t.a->has_address(moving));
  EXPECT_TRUE(t.b->has_address(moving));
  EXPECT_EQ(t.network.all_pairs_runs(), 1u);  // b owned an address already

  int at_a = 0, at_b = 0;
  t.a->bind_udp(80, [&](const Packet&) { ++at_a; });
  t.b->bind_udp(80, [&](const Packet&) { ++at_b; });
  t.a->send(make_udp({Ipv4Addr(10, 0, 0, 1), 1}, {moving, 80}, 10));
  t.sim.run();
  EXPECT_EQ(at_a, 0);
  EXPECT_EQ(at_b, 1);
}

TEST(Routing, SessionAnchorsOnAStarTakeNoAllPairsRun) {
  // The attach-storm shape: one gateway hub with 200 UE leaves. Anchoring
  // a session /32 at the hub must not rerun all-pairs Dijkstra; a link
  // toggle or a delay change must (one run each), a rate-only change not.
  sim::Simulator sim;
  Network net(sim);
  Node* hub = net.add_node("hub");
  net.register_address(Ipv4Addr(4, 0, 0, 1), hub);
  std::vector<Node*> leaves;
  std::vector<Link*> radios;
  for (int i = 0; i < 200; ++i) {
    leaves.push_back(net.add_node("ue-" + std::to_string(i)));
    radios.push_back(net.connect(leaves.back(), hub, LinkParams{.rate_bps = 50e6}));
  }
  net.recompute_routes();
  EXPECT_EQ(net.all_pairs_runs(), 1u);

  std::vector<Ipv4Addr> sessions;
  for (int i = 0; i < 200; ++i) {
    sessions.push_back(net.alloc_address(100));
    net.register_address(sessions.back(), hub, /*proxy_only=*/true);
    net.recompute_routes();
  }
  EXPECT_EQ(net.all_pairs_runs(), 1u);
  for (std::size_t i = 0; i < leaves.size(); i += 37) {
    for (Ipv4Addr ip : sessions) {
      auto it = leaves[i]->host_routes().find(ip);
      ASSERT_NE(it, leaves[i]->host_routes().end());
      EXPECT_EQ(it->second, radios[i]);
    }
  }
  EXPECT_TRUE(hub->host_routes().find(sessions.front()) == hub->host_routes().end());

  radios[7]->set_up(false);
  net.recompute_routes();
  EXPECT_EQ(net.all_pairs_runs(), 2u);
  EXPECT_TRUE(leaves[7]->host_routes().empty());

  LinkParams slower{.rate_bps = 50e6, .delay = Duration::ms(1)};
  radios[3]->set_params(hub, slower);
  net.recompute_routes();
  EXPECT_EQ(net.all_pairs_runs(), 3u);

  LinkParams faster = slower;
  faster.rate_bps = 100e6;
  radios[3]->set_params(hub, faster);
  net.recompute_routes();
  EXPECT_EQ(net.all_pairs_runs(), 3u);
}

using RouteTable = std::unordered_map<Ipv4Addr, Link*>;

/// The reference router: Dijkstra from every node over up links (weight =
/// propagation delay + a 1 ns hop cost), then one host route per registered
/// address toward its owner. This is the original all-pairs
/// Network::recompute_routes, kept as the oracle for the incremental one.
std::vector<RouteTable> all_pairs_oracle(const Network& net,
                                         const std::vector<Ipv4Addr>& addresses) {
  const auto& nodes = net.nodes();
  std::unordered_map<const Node*, std::size_t> index;
  for (std::size_t i = 0; i < nodes.size(); ++i) index[nodes[i].get()] = i;

  const std::size_t n = nodes.size();
  std::vector<RouteTable> tables(n);
  for (std::size_t src = 0; src < n; ++src) {
    std::vector<double> dist(n, std::numeric_limits<double>::infinity());
    std::vector<Link*> first_hop(n, nullptr);
    using QEntry = std::pair<double, std::size_t>;
    std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> pq;
    dist[src] = 0.0;
    pq.push({0.0, src});

    while (!pq.empty()) {
      auto [d, u] = pq.top();
      pq.pop();
      if (d > dist[u]) continue;
      for (Link* link : nodes[u]->links()) {
        if (!link->is_up()) continue;
        Node* peer = link->peer(nodes[u].get());
        auto pit = index.find(peer);
        if (pit == index.end()) continue;
        const std::size_t v = pit->second;
        const double w = link->params(nodes[u].get()).delay.to_seconds() + 1e-9;
        if (dist[u] + w < dist[v]) {
          dist[v] = dist[u] + w;
          first_hop[v] = (u == src) ? link : first_hop[u];
          pq.push({dist[v], v});
        }
      }
    }

    for (Ipv4Addr addr : addresses) {
      Node* owner = net.owner_of(addr);
      if (owner == nullptr || owner == nodes[src].get()) continue;
      auto oit = index.find(owner);
      if (oit == index.end()) continue;
      if (Link* hop = first_hop[oit->second]) tables[src][addr] = hop;
    }
  }
  return tables;
}

TEST(Routing, IncrementalRoutesMatchAllPairsOracle) {
  // Seeded random churn on small meshes with zero-delay links (so equal-
  // cost ties occur): register, unregister, move to another owner, proxy-
  // only anchors, link up/down, delay changes, rate-only changes, and nodes
  // (some isolated) and links added after a run. After every
  // recompute_routes() each node's host routes must equal the all-pairs
  // oracle's, whichever path (full or incremental) the network took.
  constexpr int kSeeds = 40;
  constexpr int kOps = 160;
  constexpr std::size_t kMaxNodes = 12;
  const Duration delays[] = {Duration::zero(), Duration::zero(), Duration::ms(1),
                             Duration::ms(2), Duration::ms(3)};
  std::uint64_t calls = 0, full_runs = 0;
  for (int s = 0; s < kSeeds; ++s) {
    const std::uint64_t seed = cb::test::seed_or(500) + static_cast<std::uint64_t>(s);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    sim::Simulator sim(seed);
    Network net(sim);
    Rng rng(seed);
    std::vector<Node*> nodes;
    std::vector<Link*> links;
    auto random_params = [&] {
      LinkParams p;
      p.delay = delays[rng.next_below(std::size(delays))];
      p.rate_bps = rng.chance(0.5) ? 0.0 : 1e6 * static_cast<double>(1 + rng.next_below(100));
      return p;
    };
    auto add_node = [&] {
      nodes.push_back(net.add_node(std::string("n").append(std::to_string(nodes.size()))));
      return nodes.back();
    };
    auto random_node = [&] { return nodes[rng.next_below(nodes.size())]; };
    auto connect_random = [&](Node* a) {
      Node* b = random_node();
      while (b == a) b = random_node();
      if (rng.chance(0.3)) {
        links.push_back(net.connect(a, b, random_params(), random_params()));
      } else {
        links.push_back(net.connect(a, b, random_params()));
      }
    };

    const std::size_t n0 = 4 + rng.next_below(5);
    for (std::size_t i = 0; i < n0; ++i) {
      Node* node = add_node();
      if (i > 0) connect_random(node);
    }
    for (std::size_t extra = rng.next_below(n0); extra > 0; --extra) connect_random(random_node());

    std::vector<Ipv4Addr> addresses;
    for (std::uint8_t i = 1; i <= 10; ++i) addresses.push_back(Ipv4Addr(10, 0, 0, i));
    auto random_address = [&] { return addresses[rng.next_below(addresses.size())]; };
    for (std::size_t i = 0; i < 3; ++i) {
      net.register_address(random_address(), random_node(), rng.chance(0.3));
    }

    auto check = [&](int op) {
      net.recompute_routes();
      ++calls;
      const std::vector<RouteTable> expected = all_pairs_oracle(net, addresses);
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        ASSERT_TRUE(nodes[i]->host_routes() == expected[i])
            << "node " << nodes[i]->name() << " diverged from the oracle after op " << op
            << " (" << nodes[i]->host_routes().size() << " routes vs "
            << expected[i].size() << " expected)";
      }
    };
    check(-1);

    for (int op = 0; op < kOps; ++op) {
      switch (rng.next_below(14)) {
        case 0: case 1: case 2: case 3:  // register (fresh, or re-register anywhere)
          net.register_address(random_address(), random_node(), rng.chance(0.3));
          break;
        case 4: case 5: {  // move a live address to a different owner
          const Ipv4Addr addr = random_address();
          Node* from = net.owner_of(addr);
          if (from == nullptr) break;
          Node* to = random_node();
          while (to == from) to = random_node();
          net.register_address(addr, to, rng.chance(0.3));
          EXPECT_FALSE(from->has_address(addr));
          break;
        }
        case 6: case 7:  // unregister
          net.unregister_address(random_address());
          break;
        case 8: {  // link toggle
          Link* link = links[rng.next_below(links.size())];
          link->set_up(!link->is_up());
          break;
        }
        case 9: {  // delay change in one direction
          Link* link = links[rng.next_below(links.size())];
          Node* from = rng.chance(0.5) ? link->endpoint_a() : link->endpoint_b();
          LinkParams p = link->params(from);
          p.delay = delays[rng.next_below(std::size(delays))];
          link->set_params(from, p);
          break;
        }
        case 10: {  // rate-only change
          Link* link = links[rng.next_below(links.size())];
          Node* from = rng.chance(0.5) ? link->endpoint_a() : link->endpoint_b();
          LinkParams p = link->params(from);
          p.rate_bps = 1e6 * static_cast<double>(1 + rng.next_below(100));
          link->set_params(from, p);
          break;
        }
        case 11:  // a node (sometimes isolated) or a link added after a run
          if (nodes.size() < kMaxNodes) {
            Node* node = add_node();
            if (rng.chance(0.7)) connect_random(node);
          } else {
            connect_random(random_node());
          }
          break;
        default:  // no change: an idle recompute
          break;
      }
      if (rng.chance(0.6)) {
        check(op);
        if (HasFatalFailure()) return;
      }
    }
    full_runs += net.all_pairs_runs();
  }
  // Both paths must have been exercised, the incremental one substantially.
  EXPECT_GT(full_runs, static_cast<std::uint64_t>(kSeeds));
  EXPECT_GT(calls - full_runs, calls / 4);
}

}  // namespace
}  // namespace cb::net
