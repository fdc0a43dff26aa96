// EPC tests: EPS-AKA vectors, HSS service, the full MME attach dialog (two
// S6A round-trips), SPGW anchoring/accounting, and X2 handover keeping the
// UE IP while traffic flows.
#include <gtest/gtest.h>

#include "epc/auth.hpp"
#include "epc/auth5g.hpp"
#include "epc/hss.hpp"
#include "epc/mme.hpp"
#include "epc/spgw.hpp"
#include "epc/ue_nas.hpp"
#include "net/network.hpp"
#include "transport/tcp.hpp"

namespace cb::epc {
namespace {

TEST(EpsAka, VectorRoundTrip) {
  Rng rng(1);
  const Bytes k(32, 0x42);
  const AuthVector v = generate_auth_vector(k, rng);
  EXPECT_EQ(v.rand.size(), 16u);
  EXPECT_TRUE(verify_autn(k, v.rand, v.autn));
  EXPECT_EQ(compute_res(k, v.rand), v.xres);
  EXPECT_EQ(derive_kasme(k, v.rand), v.kasme);
}

TEST(EpsAka, WrongKeyFailsBothDirections) {
  Rng rng(2);
  const Bytes k(32, 0x42), wrong(32, 0x43);
  const AuthVector v = generate_auth_vector(k, rng);
  EXPECT_FALSE(verify_autn(wrong, v.rand, v.autn));
  EXPECT_NE(compute_res(wrong, v.rand), v.xres);
}

TEST(EpsAka, VectorsAreFresh) {
  Rng rng(3);
  const Bytes k(32, 1);
  const AuthVector a = generate_auth_vector(k, rng);
  const AuthVector b = generate_auth_vector(k, rng);
  EXPECT_NE(a.rand, b.rand);
  EXPECT_NE(a.kasme, b.kasme);
}

// --- SQN state machine (TS 33.102 §6.3 shape) ------------------------------

// Table-driven freshness check: HSS issues its next SQN, the UE judges it
// against its high-water mark. Covers the first-attach regression (a fresh
// HSS starts at 1, not 0), the window edges, and 48-bit wraparound.
TEST(EpsAkaSqn, FreshnessWindowTable) {
  struct Case {
    const char* name;
    std::uint64_t hss_sqn;    // next-to-issue before the vector
    std::uint64_t ue_sqn_ms;  // UE high-water mark before the check
    AutnVerdict want;
  };
  const Case cases[] = {
      {"factory-fresh first vector", 1, 0, AutnVerdict::Ok},
      {"next in sequence", 42, 41, AutnVerdict::Ok},
      {"replayed sqn (delta 0)", 41, 41, AutnVerdict::SyncFailure},
      {"stale vector", 10, 40, AutnVerdict::SyncFailure},
      {"top of the freshness window", kSqnWindow, 0, AutnVerdict::Ok},
      {"one past the window", kSqnWindow + 1, 0, AutnVerdict::SyncFailure},
      {"wraparound is fresh", 5, kSqnModulus - 3, AutnVerdict::Ok},
      {"reverse wraparound is stale", kSqnModulus - 3, 5, AutnVerdict::SyncFailure},
  };
  const Bytes k(32, 0x42);
  for (const Case& c : cases) {
    Rng rng(77);
    HssSqnState hss{c.hss_sqn};
    UeSqnState ue{c.ue_sqn_ms};
    const AuthVector v = generate_auth_vector_sqn(k, hss, rng);
    EXPECT_EQ(hss.sqn, (c.hss_sqn + 1) % kSqnModulus) << c.name;
    const AutnCheck check = verify_autn_sqn(k, v.rand, v.autn, ue);
    EXPECT_EQ(check.verdict, c.want) << c.name;
    EXPECT_EQ(check.sqn, c.hss_sqn) << c.name;  // AK deconcealment worked
    if (c.want == AutnVerdict::Ok) {
      EXPECT_EQ(ue.sqn_ms, c.hss_sqn) << c.name;  // high-water mark advanced
    } else {
      EXPECT_EQ(ue.sqn_ms, c.ue_sqn_ms) << c.name;  // state untouched
      EXPECT_FALSE(check.auts.empty()) << c.name;
    }
  }
}

TEST(EpsAkaSqn, MacFailureTable) {
  const Bytes k(32, 0x42);
  Rng rng(78);
  HssSqnState hss;
  UeSqnState ue;
  const AuthVector v = generate_auth_vector_sqn(k, hss, rng);

  // Wrong subscriber key: the network does not know K.
  {
    UeSqnState fresh;
    const Bytes wrong(32, 0x43);
    EXPECT_EQ(verify_autn_sqn(wrong, v.rand, v.autn, fresh).verdict, AutnVerdict::MacFailure);
  }
  // A single flipped bit anywhere in AUTN (concealed SQN or MAC) fails.
  for (std::size_t i : {std::size_t{0}, std::size_t{7}, std::size_t{8}, v.autn.size() - 1}) {
    Bytes tampered = v.autn;
    tampered[i] ^= 0x01;
    UeSqnState fresh;
    EXPECT_EQ(verify_autn_sqn(k, v.rand, tampered, fresh).verdict, AutnVerdict::MacFailure)
        << "byte " << i;
  }
  // Truncated/oversized tokens fail closed without touching state.
  {
    UeSqnState fresh;
    Bytes shorter(v.autn.begin(), v.autn.end() - 1);
    EXPECT_EQ(verify_autn_sqn(k, v.rand, shorter, fresh).verdict, AutnVerdict::MacFailure);
    EXPECT_EQ(fresh.sqn_ms, 0u);
  }
  // MAC failure never yields an AUTS: AUTS would leak a valid resync token
  // to whoever forged the challenge.
  UeSqnState fresh;
  const Bytes wrong(32, 0x43);
  EXPECT_TRUE(verify_autn_sqn(wrong, v.rand, v.autn, fresh).auts.empty());
  // The original vector still verifies: tampering checks consumed no state.
  EXPECT_EQ(verify_autn_sqn(k, v.rand, v.autn, ue).verdict, AutnVerdict::Ok);
}

TEST(EpsAkaSqn, ResyncRoundTripRecoversAnOutOfStepHss) {
  // The UE is far ahead of the HSS (e.g. the HSS restored from an old
  // backup): the challenge is stale, the AUTS carries SQN_MS back, and the
  // next vector is fresh again.
  const Bytes k(32, 0x42);
  Rng rng(79);
  HssSqnState hss{100};
  UeSqnState ue{5'000'000'000ull};  // way past hss.sqn + window
  const AuthVector stale = generate_auth_vector_sqn(k, hss, rng);
  const AutnCheck check = verify_autn_sqn(k, stale.rand, stale.autn, ue);
  ASSERT_EQ(check.verdict, AutnVerdict::SyncFailure);
  ASSERT_FALSE(check.auts.empty());

  ASSERT_TRUE(resynchronize_sqn(k, stale.rand, check.auts, hss));
  EXPECT_EQ(hss.sqn, ue.sqn_ms + 1);  // resume one past the UE's mark
  const AuthVector fresh = generate_auth_vector_sqn(k, hss, rng);
  EXPECT_EQ(verify_autn_sqn(k, fresh.rand, fresh.autn, ue).verdict, AutnVerdict::Ok);
  EXPECT_EQ(ue.sqn_ms, 5'000'000'001ull);
}

TEST(EpsAkaSqn, ForgedAutsRejected) {
  const Bytes k(32, 0x42);
  Rng rng(80);
  HssSqnState hss{100};
  UeSqnState ue{kSqnWindow + 200};
  const AuthVector v = generate_auth_vector_sqn(k, hss, rng);
  const AutnCheck check = verify_autn_sqn(k, v.rand, v.autn, ue);
  ASSERT_EQ(check.verdict, AutnVerdict::SyncFailure);

  const HssSqnState before = hss;
  Bytes tampered = check.auts;
  tampered[2] ^= 0x80;  // attacker steers the concealed SQN_MS
  EXPECT_FALSE(resynchronize_sqn(k, v.rand, tampered, hss));
  Bytes truncated(check.auts.begin(), check.auts.end() - 1);
  EXPECT_FALSE(resynchronize_sqn(k, v.rand, truncated, hss));
  // An AUTS bound to a different RAND must not resync this challenge.
  const Bytes other_rand = rng.random_bytes(16);
  EXPECT_FALSE(resynchronize_sqn(k, other_rand, check.auts, hss));
  EXPECT_EQ(hss.sqn, before.sqn);  // every rejection left the state alone

  EXPECT_TRUE(resynchronize_sqn(k, v.rand, check.auts, hss));
  EXPECT_EQ(hss.sqn, ue.sqn_ms + 1);
}

TEST(EpsAkaSqn, WraparoundIssueAndResyncStayModular) {
  const Bytes k(32, 0x42);
  Rng rng(81);
  // Issuing at the modulus edge wraps the next-to-issue counter to 0, and a
  // UE just below the edge accepts the top value as fresh.
  HssSqnState hss{kSqnModulus - 1};
  UeSqnState ue{kSqnModulus - 2};
  const AuthVector v = generate_auth_vector_sqn(k, hss, rng);
  EXPECT_EQ(hss.sqn, 0u);
  EXPECT_EQ(verify_autn_sqn(k, v.rand, v.autn, ue).verdict, AutnVerdict::Ok);
  EXPECT_EQ(ue.sqn_ms, kSqnModulus - 1);
  // The wrapped challenge (SQN = 0 against SQN_MS = 2^48-1) is fresh too:
  // delta = 1 under the modular subtraction.
  const AuthVector wrapped = generate_auth_vector_sqn(k, hss, rng);
  EXPECT_EQ(verify_autn_sqn(k, wrapped.rand, wrapped.autn, ue).verdict, AutnVerdict::Ok);
  EXPECT_EQ(ue.sqn_ms, 0u);

  // Resync against a UE parked at the top wraps the HSS back to 0 as well.
  HssSqnState behind{kSqnWindow * 4};  // far from the UE in both directions
  UeSqnState at_top{kSqnModulus - 1};
  const AuthVector stale = generate_auth_vector_sqn(k, behind, rng);
  const AutnCheck check = verify_autn_sqn(k, stale.rand, stale.autn, at_top);
  ASSERT_EQ(check.verdict, AutnVerdict::SyncFailure);
  ASSERT_TRUE(resynchronize_sqn(k, stale.rand, check.auts, behind));
  EXPECT_EQ(behind.sqn, 0u);  // (2^48-1 + 1) mod 2^48
  const AuthVector fresh = generate_auth_vector_sqn(k, behind, rng);
  EXPECT_EQ(verify_autn_sqn(k, fresh.rand, fresh.autn, at_top).verdict, AutnVerdict::Ok);
}

// --- 5G-AKA vectors (TS 33.501 §6.1 shape) ---------------------------------

TEST(Aka5g, SuciConcealsAndRoundTrips) {
  Rng rng(90);
  const auto hn = crypto::RsaKeyPair::generate(rng, 512);
  const Bytes suci = conceal_supi(hn.public_key(), "imsi-123456", rng);
  // The permanent identifier never appears in the clear on the wire.
  const std::string wire(suci.begin(), suci.end());
  EXPECT_EQ(wire.find("imsi-123456"), std::string::npos);
  auto supi = deconceal_suci(hn, suci);
  ASSERT_TRUE(supi.ok()) << supi.error();
  EXPECT_EQ(supi.value(), "imsi-123456");
  // Concealment is randomized: same SUPI, different SUCI every attach.
  EXPECT_NE(conceal_supi(hn.public_key(), "imsi-123456", rng), suci);
  // A different home network cannot deconceal.
  const auto other = crypto::RsaKeyPair::generate(rng, 512);
  EXPECT_FALSE(deconceal_suci(other, suci).ok());
}

TEST(Aka5g, VectorResStarChainAndKeyHierarchyAgree) {
  Rng rng(91);
  const Bytes k(32, 0x42);
  HssSqnState sqn;
  const Auth5gVector v = generate_auth5g_vector(k, sqn, rng);
  // UE side recomputes RES* from K and RAND; the serving side checks
  // HXRES* locally without ever learning K.
  const Bytes res_star = compute_res_star(k, v.rand);
  EXPECT_EQ(res_star, v.xres_star);
  EXPECT_EQ(hash_res_star(v.rand, res_star), v.hxres_star);
  EXPECT_NE(compute_res_star(Bytes(32, 0x43), v.rand), v.xres_star);
  // KAUSF -> KSEAF chain is derivable by both ends and binds the SUPI at
  // the KAMF level.
  const Bytes kausf = derive_kausf(k, v.rand);
  EXPECT_EQ(kausf, v.kausf);
  EXPECT_EQ(derive_kseaf(kausf), v.kseaf);
  EXPECT_NE(derive_kamf(v.kseaf, "imsi-1"), derive_kamf(v.kseaf, "imsi-2"));
}

TEST(Aka5g, AutnReusesTheSqnMachinery) {
  // The 5G AUTN is the same SQN-carrying token as 4G: replay/resync
  // semantics carry over unchanged.
  Rng rng(92);
  const Bytes k(32, 0x42);
  HssSqnState hss;
  UeSqnState ue;
  const Auth5gVector v = generate_auth5g_vector(k, hss, rng);
  EXPECT_EQ(verify_autn_sqn(k, v.rand, v.autn, ue).verdict, AutnVerdict::Ok);
  // Replaying the identical challenge is a SyncFailure, not a MacFailure.
  UeSqnState replay_state = ue;
  EXPECT_EQ(verify_autn_sqn(k, v.rand, v.autn, replay_state).verdict,
            AutnVerdict::SyncFailure);
}

// A small EPC world: UE -- tower -- AGW -- internet -- server, HSS in cloud.
struct EpcWorld {
  explicit EpcWorld(Duration cloud_rtt = Duration::millis(7.2), std::uint64_t seed = 1)
      : sim(seed), network(sim) {
    ue = network.add_node("ue");
    tower1 = network.add_node("tower1");
    tower2 = network.add_node("tower2");
    agw = network.add_node("agw");
    cloud = network.add_node("cloud");
    server = network.add_node("server");
    network.register_address(net::Ipv4Addr(1, 1, 1, 1), server);
    network.register_address(net::Ipv4Addr(2, 2, 2, 2), cloud);
    network.register_address(net::Ipv4Addr(3, 3, 3, 3), agw);

    radio1 = network.connect(ue, tower1, net::LinkParams{.rate_bps = 20e6, .delay = Duration::ms(4)});
    radio2 = network.connect(ue, tower2, net::LinkParams{.rate_bps = 20e6, .delay = Duration::ms(4)});
    radio1->set_up(false);
    radio2->set_up(false);
    network.connect(tower1, agw, net::LinkParams{.rate_bps = 10e9, .delay = Duration::ms(2)});
    network.connect(tower2, agw, net::LinkParams{.rate_bps = 10e9, .delay = Duration::ms(2)});
    network.connect(agw, cloud, net::LinkParams{.rate_bps = 1e9, .delay = cloud_rtt / 2});
    network.connect(agw, server, net::LinkParams{.rate_bps = 10e9, .delay = Duration::ms(17)});
    network.recompute_routes();

    ran_map.add(1, ran::TowerSite{tower1, radio1});
    ran_map.add(2, ran::TowerSite{tower2, radio2});

    hss = std::make_unique<Hss>(*cloud);
    hss->add_subscriber("imsi-1", Bytes(32, 0x42));
    spgw = std::make_unique<SgwPgw>(network, *agw, 10);
    mme = std::make_unique<Mme>(*agw, *spgw, net::EndPoint{net::Ipv4Addr(2, 2, 2, 2), kHssPort});
    nas = std::make_unique<UeNas>(network, *ue, "imsi-1", Bytes(32, 0x42), *mme, ran_map);
  }

  Result<net::Ipv4Addr> attach(ran::CellId cell) {
    Result<net::Ipv4Addr> out = Result<net::Ipv4Addr>::err("not finished");
    bool done = false;
    nas->attach(cell, [&](Result<net::Ipv4Addr> r) {
      out = std::move(r);
      done = true;
    });
    sim.run_for(Duration::s(30));
    EXPECT_TRUE(done);
    if (out.ok()) network.recompute_routes();
    return out;
  }

  sim::Simulator sim;
  net::Network network;
  net::Node *ue, *tower1, *tower2, *agw, *cloud, *server;
  net::Link *radio1, *radio2;
  ran::RanMap ran_map;
  std::unique_ptr<Hss> hss;
  std::unique_ptr<SgwPgw> spgw;
  std::unique_ptr<Mme> mme;
  std::unique_ptr<UeNas> nas;
};

TEST(EpcAttach, SucceedsAndAssignsIp) {
  EpcWorld w;
  auto result = w.attach(1);
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_TRUE(result.value().valid());
  EXPECT_TRUE(w.ue->has_address(result.value()));
  EXPECT_TRUE(w.nas->attached());
  EXPECT_EQ(w.mme->attaches_completed(), 1u);
  EXPECT_EQ(w.hss->requests_served(), 2u);  // AIR + ULR: the 2-RTT baseline
}

TEST(EpcAttach, UnknownImsiRejected) {
  EpcWorld w;
  UeNas rogue(w.network, *w.ue, "imsi-unknown", Bytes(32, 0x42), *w.mme, w.ran_map);
  Result<net::Ipv4Addr> out = Result<net::Ipv4Addr>::err("not finished");
  rogue.attach(1, [&](Result<net::Ipv4Addr> r) { out = std::move(r); });
  w.sim.run_for(Duration::s(30));
  EXPECT_FALSE(out.ok());
}

TEST(EpcAttach, WrongKeyNeverCompletes) {
  EpcWorld w;
  // UE holds a different K than the HSS: AUTN verification fails at the UE,
  // which aborts silently (no RES ever sent).
  UeNas bad(w.network, *w.ue, "imsi-1", Bytes(32, 0x99), *w.mme, w.ran_map);
  bool completed = false;
  bad.attach(1, [&](Result<net::Ipv4Addr>) { completed = true; });
  w.sim.run_for(Duration::s(30));
  EXPECT_FALSE(completed);
  EXPECT_EQ(w.mme->attaches_completed(), 0u);
}

TEST(EpcAttach, LatencyMatchesCalibration) {
  // Processing 22.5 ms + 2 x 7.2 ms RTT ~= 36.9 ms (paper: 36.85 ms).
  EpcWorld w(Duration::millis(7.2));
  auto result = w.attach(1);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(w.nas->last_attach_latency().to_millis(), 36.9, 2.0);
}

TEST(EpcAttach, LatencyScalesWithCloudRtt) {
  EpcWorld near(Duration::millis(0.5));
  EpcWorld far(Duration::millis(73.5));
  ASSERT_TRUE(near.attach(1).ok());
  ASSERT_TRUE(far.attach(1).ok());
  const double near_ms = near.nas->last_attach_latency().to_millis();
  const double far_ms = far.nas->last_attach_latency().to_millis();
  // Two round-trips to the subscriber DB: ~2x RTT difference.
  EXPECT_NEAR(far_ms - near_ms, 2 * 73.0, 6.0);
}

TEST(EpcUserPlane, TrafficFlowsAndIsAccounted) {
  EpcWorld w;
  auto ip = w.attach(1);
  ASSERT_TRUE(ip.ok());

  // UDP echo through the anchor.
  int received = 0;
  w.server->bind_udp(9000, [&](const net::Packet& p) {
    ++received;
    net::Packet reply;
    reply.src = p.dst;
    reply.dst = p.src;
    reply.proto = net::Proto::Udp;
    reply.payload = Bytes(500, 1);
    w.server->send(std::move(reply));
  });
  int ue_received = 0;
  w.ue->bind_udp(9001, [&](const net::Packet&) { ++ue_received; });
  net::Packet p;
  p.src = net::EndPoint{ip.value(), 9001};
  p.dst = net::EndPoint{net::Ipv4Addr(1, 1, 1, 1), 9000};
  p.proto = net::Proto::Udp;
  p.payload = Bytes(300, 2);
  w.ue->send(std::move(p));
  w.sim.run_for(Duration::s(2));

  EXPECT_EQ(received, 1);
  EXPECT_EQ(ue_received, 1);
  const auto usage = w.spgw->usage("imsi-1");
  EXPECT_GT(usage.ul_bytes, 300u);
  EXPECT_GT(usage.dl_bytes, 500u);
}

TEST(EpcHandover, PreservesIpAndTcpSession) {
  EpcWorld w;
  auto ip = w.attach(1);
  ASSERT_TRUE(ip.ok());

  transport::TcpStack ue_tcp(*w.ue);
  transport::TcpStack server_tcp(*w.server);
  Bytes received;
  std::shared_ptr<transport::TcpSocket> srv;
  server_tcp.listen(80, [&](std::shared_ptr<transport::TcpSocket> s) {
    srv = std::move(s);
    srv->on_data = [&](BytesView d) { received.insert(received.end(), d.begin(), d.end()); };
  });
  auto client = ue_tcp.connect({net::Ipv4Addr(1, 1, 1, 1), 80});
  const Bytes payload(200 * 1024, 0x7A);
  std::size_t sent = 0;
  auto pump = [&] {
    while (sent < payload.size()) {
      const std::size_t n = client->send(
          BytesView(payload.data() + sent, std::min<std::size_t>(8192, payload.size() - sent)));
      if (n == 0) return;
      sent += n;
    }
  };
  client->on_connected = pump;
  client->on_send_space = pump;

  w.sim.run_for(Duration::s(1));
  const net::Ipv4Addr before = ip.value();
  bool handover_done = false;
  w.nas->handover(2, Duration::ms(30), [&] { handover_done = true; });
  w.sim.run_for(Duration::s(30));

  EXPECT_TRUE(handover_done);
  EXPECT_EQ(w.nas->current_ip(), before);  // IP preserved: the anchor works
  ASSERT_EQ(received.size(), payload.size());
  EXPECT_EQ(received, payload);
}

TEST(EpcDetach, ReleasesEverything) {
  EpcWorld w;
  auto ip = w.attach(1);
  ASSERT_TRUE(ip.ok());
  w.nas->detach();
  EXPECT_FALSE(w.nas->attached());
  EXPECT_FALSE(w.ue->has_address(ip.value()));
  EXPECT_FALSE(w.spgw->has_session("imsi-1"));
  EXPECT_FALSE(w.radio1->is_up());
}

TEST(EpcSpgw, SessionIpsAreDistinct) {
  EpcWorld w;
  w.hss->add_subscriber("imsi-2", Bytes(32, 0x55));
  auto ip1 = w.spgw->create_session("imsi-1", w.ue, w.tower1, w.radio1);
  auto ip2 = w.spgw->create_session("imsi-2", w.ue, w.tower1, w.radio1);
  EXPECT_NE(ip1, ip2);
  w.spgw->release_session("imsi-1");
  w.spgw->release_session("imsi-2");
  EXPECT_FALSE(w.spgw->has_session("imsi-1"));
}

}  // namespace
}  // namespace cb::epc
