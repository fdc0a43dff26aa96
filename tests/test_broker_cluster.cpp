// Broker cluster (DESIGN.md §12): routing, settlement-log fold, replication
// determinism, crash-mid-pair failover, and one-shard housekeeping.
#include <gtest/gtest.h>

#include "cellbricks/broker_cluster.hpp"
#include "cellbricks/settlement_log.hpp"
#include "crypto/box.hpp"
#include "net/network.hpp"
#include "scenario/broker_loadgen.hpp"
#include "sim/simulator.hpp"

using namespace cb;
using namespace cb::cellbricks;

// --- Routing ---------------------------------------------------------------

TEST(ShardRouting, BucketedSessionIdRoundTrips) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t raw = rng.next_u64();
    const auto bucket = static_cast<std::uint16_t>(rng.next_below(kRouteBuckets));
    const std::uint64_t sid = bucketed_session_id(raw, bucket);
    EXPECT_EQ(session_bucket(sid), bucket);
    // The low bits keep the raw id's entropy (ids stay unique per draw).
    EXPECT_EQ(sid & 0xFFFFFFFFFFFFull, raw & 0xFFFFFFFFFFFFull);
  }
}

TEST(ShardRouting, SubscriberBucketIsStableAndInRange) {
  const std::uint16_t b = bucket_of_subscriber("user-001");
  EXPECT_LT(b, kRouteBuckets);
  EXPECT_EQ(bucket_of_subscriber("user-001"), b);
  // Different subscribers spread over more than one bucket.
  std::set<std::uint16_t> seen;
  for (int i = 0; i < 64; ++i) seen.insert(bucket_of_subscriber("user-" + std::to_string(i)));
  EXPECT_GT(seen.size(), 8u);
}

TEST(ShardRouting, HrwRemovalOnlyMovesVictimBuckets) {
  // The consistent-hashing property failover relies on: dropping shard 2
  // re-homes only the buckets shard 2 owned.
  const std::vector<std::size_t> all{0, 1, 2, 3};
  const std::vector<std::size_t> minus2{0, 1, 3};
  for (std::uint32_t b = 0; b < kRouteBuckets; ++b) {
    const std::size_t before = hrw_owner(static_cast<std::uint16_t>(b), all);
    const std::size_t after = hrw_owner(static_cast<std::uint16_t>(b), minus2);
    if (before != 2) {
      EXPECT_EQ(after, before) << "bucket " << b;
    } else {
      EXPECT_NE(after, 2u) << "bucket " << b;
    }
  }
}

TEST(ShardRouting, RouterFailsOverAfterTimeoutsAndRecovers) {
  ShardRouter::Config rcfg;
  rcfg.suspect_after = 2;
  rcfg.suspect_hold = Duration::s(3);
  std::vector<net::EndPoint> eps;
  for (int i = 0; i < 4; ++i) {
    eps.push_back(net::EndPoint{net::Ipv4Addr(2, 2, 2, static_cast<std::uint8_t>(10 + i)),
                                kBrokerPort});
  }
  ShardRouter router(eps, rcfg);
  const TimePoint t0 = TimePoint::zero();
  const std::uint64_t sid = bucketed_session_id(0x1234, 7);
  const std::size_t owner = router.pick_for_session(sid, t0);
  // Two strikes mark the owner suspect; the pick moves elsewhere.
  router.note_timeout(owner, t0);
  router.note_timeout(owner, t0);
  EXPECT_TRUE(router.suspect(owner, t0));
  EXPECT_NE(router.pick_for_session(sid, t0), owner);
  // After the hold expires the original owner is eligible again.
  const TimePoint later = t0 + Duration::s(4);
  EXPECT_FALSE(router.suspect(owner, later));
  EXPECT_EQ(router.pick_for_session(sid, later), owner);
  // A learned redirect overrides rendezvous until its target goes suspect.
  const std::size_t other = (owner + 1) % 4;
  router.learn_redirect(7, static_cast<std::uint16_t>(other));
  EXPECT_EQ(router.pick_for_session(sid, later), other);
  EXPECT_EQ(router.redirects_learned(), 1u);
}

// --- Settlement log + fold -------------------------------------------------

namespace {

SettlementEntry report_entry(std::uint64_t sid, std::uint32_t period, Reporter side,
                             std::uint64_t dl) {
  SettlementEntry e;
  e.kind = SettlementEntry::Kind::ReportIngested;
  e.session_id = sid;
  e.period = period;
  e.reporter = side;
  e.id_u = "u";
  e.id_t = "t";
  e.report.session_id = sid;
  e.report.reporter = side;
  e.report.period = period;
  e.report.dl_bytes = dl;
  return e;
}

SettlementEntry verdict_entry(std::uint64_t sid, std::uint32_t period, bool mismatch,
                              std::int64_t delta) {
  SettlementEntry e;
  e.kind = SettlementEntry::Kind::VerdictPaired;
  e.session_id = sid;
  e.period = period;
  e.id_u = "u";
  e.id_t = "t";
  e.mismatch = mismatch;
  e.delta = delta;
  return e;
}

}  // namespace

TEST(SettlementFold, DuplicateReportsAbsorbedOnce) {
  SettlementState s;
  s.apply(report_entry(9, 0, Reporter::Ue, 1000));
  s.apply(report_entry(9, 0, Reporter::Ue, 1000));  // double-authoring window
  EXPECT_EQ(s.reports_folded(), 1u);
  EXPECT_EQ(s.reports_refolded(), 1u);
  EXPECT_EQ(s.pending().size(), 1u);
  EXPECT_TRUE(s.report_seen(9, 0, Reporter::Ue));
  EXPECT_FALSE(s.report_seen(9, 0, Reporter::Telco));
}

TEST(SettlementFold, ReplayedVerdictsDedupButConflictsAreCounted) {
  SettlementState s;
  s.apply(report_entry(9, 0, Reporter::Ue, 1000));
  s.apply(report_entry(9, 0, Reporter::Telco, 1000));
  s.apply(verdict_entry(9, 0, false, 0));
  ASSERT_TRUE(s.pair_decided(9, 0));
  EXPECT_EQ(s.verdicts_paired(), 1u);
  // Identical replay (the other failover owner authored the same verdict).
  s.apply(verdict_entry(9, 0, false, 0));
  EXPECT_EQ(s.verdicts_paired(), 1u);
  EXPECT_EQ(s.verdicts_deduped(), 1u);
  EXPECT_EQ(s.verdict_conflicts(), 0u);
  // Conflicting replay: must be flagged, never applied.
  s.apply(verdict_entry(9, 0, true, 555));
  EXPECT_EQ(s.verdict_conflicts(), 1u);
  EXPECT_EQ(s.verdicts_paired(), 1u);
}

TEST(SettlementLog, OutOfOrderStoreBuffersUntilGapCloses) {
  SettlementLog author(2), replica(2);
  std::vector<std::uint64_t> applied_order;
  const SettlementLog::ApplyFn track = [&](std::size_t, std::uint64_t index,
                                           const SettlementEntry&) {
    applied_order.push_back(index);
  };
  const SettlementLog::ApplyFn noop = [](std::size_t, std::uint64_t,
                                         const SettlementEntry&) {};
  for (std::uint64_t i = 0; i < 4; ++i) {
    author.append(0, report_entry(1, static_cast<std::uint32_t>(i), Reporter::Ue, i), noop);
  }
  // Deliver 2, 3 first (gap), then 0, 1 (closes it).
  replica.store(0, 2, author.entry(0, 2), track);
  replica.store(0, 3, author.entry(0, 3), track);
  EXPECT_EQ(replica.applied_len(0), 0u);
  EXPECT_EQ(replica.gap_buffered(), 2u);
  replica.store(0, 0, author.entry(0, 0), track);
  replica.store(0, 1, author.entry(0, 1), track);
  EXPECT_EQ(replica.applied_len(0), 4u);
  // Buffered entries are applied only when the gap closes, in index order.
  EXPECT_EQ(applied_order, (std::vector<std::uint64_t>{0, 1, 2, 3}));
  // Duplicate store of an applied index is ignored.
  replica.store(0, 1, author.entry(0, 1), track);
  EXPECT_EQ(replica.applied_len(0), 4u);
  EXPECT_EQ(applied_order.size(), 4u);
  // Same prefix -> same chain hash, on every stream.
  EXPECT_EQ(replica.chain_hash_at(0, 4), author.chain_hash_at(0, 4));
  EXPECT_EQ(replica.chain_hash_at(1, 0), author.chain_hash_at(1, 0));
}

// --- Cluster failover (loadgen-driven integration) -------------------------

namespace {

scenario::BrokerLoadgenConfig small_cluster_config() {
  scenario::BrokerLoadgenConfig cfg;
  cfg.n_shards = 3;
  cfg.n_clients = 6;
  cfg.report_interval = Duration::millis(400);
  cfg.duration_s = 8.0;
  cfg.drain_s = 25.0;
  cfg.seed = 5;
  // Shorten the pair timeout so expiry paths run inside the drain.
  cfg.shard.broker.pair_timeout = Duration::s(10);
  return cfg;
}

}  // namespace

TEST(BrokerClusterFailover, CrashMidPairLosesNoVerdicts) {
  // Kill a shard while report pairs are in flight: the takeover owner must
  // finish every pairing from the replicated log — exactly one verdict per
  // (session, period), no conflicting double-verdicts, no losses.
  scenario::BrokerLoadgenConfig cfg = small_cluster_config();
  cfg.kill_shard = 1;
  cfg.kill_at_s = 3.0;
  cfg.kill_duration_s = 4.0;
  scenario::BrokerLoadgen gen(cfg);
  const scenario::BrokerLoadgenResult r = gen.run();

  EXPECT_EQ(r.sessions_issued, 6u);
  EXPECT_EQ(r.attach_failures, 0u);
  EXPECT_GT(r.takeovers, 0u);
  EXPECT_EQ(r.verdicts_lost, 0u) << "a billing verdict was lost across the crash";
  EXPECT_EQ(r.verdict_conflicts, 0u) << "failover double-pairing produced conflicting verdicts";
  // Every decided pair got exactly one verdict; with honest clients each
  // period pairs cleanly unless one half was genuinely never delivered.
  EXPECT_GT(r.verdicts_paired, 0u);
  EXPECT_EQ(r.verdicts_paired + r.verdicts_missing, r.reports_ingested / 2 + r.verdicts_missing);

  // Reputation must not double-count across the failover: the observer fold
  // (auditor ground truth) saw every pair exactly once.
  const auto& obs = gen.cluster().observer();
  for (const auto& [sid, info] : obs.sessions()) {
    EXPECT_LE(info.pairs_compared, 1u + static_cast<std::uint64_t>(
                                            cfg.duration_s /
                                            cfg.report_interval.to_seconds()))
        << "session " << sid << " compared more pairs than periods sent";
    EXPECT_EQ(info.mismatches, 0u) << "honest pair flagged on session " << sid;
  }

  // Surviving shards' folds agree with the observer on their applied prefix.
  auto& cluster = gen.cluster();
  for (std::size_t i = 0; i < cluster.n_shards(); ++i) {
    if (cluster.shard(i).crashed()) continue;
    const auto& log = cluster.shard(i).log();
    for (std::size_t s = 0; s < log.n_streams(); ++s) {
      const std::uint64_t common =
          std::min(log.applied_len(s), cluster.observer_log().applied_len(s));
      EXPECT_EQ(log.chain_hash_at(s, common),
                cluster.observer_log().chain_hash_at(s, common))
          << "shard " << i << " stream " << s << " forked from the authored entries";
    }
  }
}

TEST(BrokerClusterFailover, SameSeedRunsAreBitIdentical) {
  // Covers the decorrelated-jitter retry satellite too: all jitter comes
  // from seeded per-client streams, so chaos replays stay deterministic.
  scenario::BrokerLoadgenConfig cfg = small_cluster_config();
  cfg.kill_shard = 0;
  cfg.kill_at_s = 2.0;
  cfg.kill_duration_s = 3.0;
  const scenario::BrokerLoadgenResult a = scenario::BrokerLoadgen(cfg).run();
  const scenario::BrokerLoadgenResult b = scenario::BrokerLoadgen(cfg).run();
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.verdicts_per_s, b.verdicts_per_s);

  // And a different seed actually changes the run (the fingerprint is not
  // degenerate).
  scenario::BrokerLoadgenConfig other = cfg;
  other.seed = 6;
  const scenario::BrokerLoadgenResult c = scenario::BrokerLoadgen(other).run();
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

// --- Broker ack-cache / pair-expiry interaction (regression) ---------------

namespace {

/// Minimal single-broker wire harness: a one-shard cluster, one client node
/// speaking raw BrokerMsg packets, no bTelco/UE agents in between.
struct BrokerHarness {
  sim::Simulator sim{1};
  net::Network network{sim};
  net::Node* broker_node = nullptr;
  net::Node* client_node = nullptr;
  net::Ipv4Addr client_addr{9, 9, 9, 9};
  std::unique_ptr<crypto::CertificateAuthority> ca;
  std::unique_ptr<SapUe> ue;
  std::unique_ptr<SapTelco> telco;
  crypto::Certificate broker_cert;
  std::unique_ptr<BrokerCluster> cluster;
  Rng rng{99};
  std::vector<Bytes> received;  // every packet the client got

  explicit BrokerHarness(BrokerConfig bcfg) {
    Rng key_rng = sim.rng().fork(0xCA11);
    ca = std::make_unique<crypto::CertificateAuthority>("cb-root", key_rng, 512);
    const TimePoint not_after = TimePoint::zero() + Duration::s(86400);
    auto broker_keys = crypto::RsaKeyPair::generate(key_rng, 512);
    broker_cert = ca->issue("broker-0", broker_keys.public_key(), TimePoint::zero(), not_after);
    auto ue_keys = crypto::RsaKeyPair::generate(key_rng, 512);
    auto telco_keys = crypto::RsaKeyPair::generate(key_rng, 512);
    auto telco_cert = ca->issue("t-0", telco_keys.public_key(), TimePoint::zero(), not_after);

    broker_node = network.add_node("broker");
    client_node = network.add_node("client");
    network.register_address(net::Ipv4Addr(2, 2, 2, 2), broker_node);
    network.register_address(client_addr, client_node);
    network.connect(client_node, broker_node,
                    net::LinkParams{.rate_bps = 1e9, .delay = Duration::ms(5)});
    network.recompute_routes();

    ue = std::make_unique<SapUe>("user-9", "broker-0", std::move(ue_keys),
                                 broker_cert.key());
    telco = std::make_unique<SapTelco>("t-0", std::move(telco_keys), std::move(telco_cert),
                                       ca->public_key());
    BrokerShard::Config scfg;
    scfg.broker = bcfg;
    cluster = std::make_unique<BrokerCluster>(scfg);
    cluster->add_shard(*broker_node,
                       SapBroker("broker-0", std::move(broker_keys), broker_cert,
                                 ca->public_key()));
    cluster->add_subscriber("user-9", ue->public_key());
    cluster->start();
    client_node->bind_udp(4599, [this](const net::Packet& p) {
      received.push_back(Bytes(p.payload.view().begin(), p.payload.view().end()));
    });
  }

  void send(Bytes wire) {
    net::Packet p;
    p.src = net::EndPoint{client_addr, 4599};
    p.dst = net::EndPoint{net::Ipv4Addr(2, 2, 2, 2), kBrokerPort};
    p.proto = net::Proto::Udp;
    p.payload = std::move(wire);
    client_node->send(std::move(p));
  }

  std::uint64_t attach() {
    const Bytes auth_req_u = ue->make_auth_req("t-0", rng);
    const Bytes auth_req_t = telco->make_auth_req_t(auth_req_u, QosCap{});
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(BrokerMsg::AuthReq));
    w.u64(1);
    w.bytes(auth_req_t);
    send(w.take());
    sim.run_for(Duration::s(1));
    // Telco processing registers its report key server-side in real
    // deployments; the harness registers it directly.
    for (const Bytes& msg : received) {
      ByteReader r(msg);
      if (static_cast<BrokerMsg>(r.u8()) != BrokerMsg::AuthOk) continue;
      r.u64();  // txn
      const Bytes auth_resp_t = r.bytes();
      const Bytes auth_resp_u = r.bytes();
      auto ts = telco->process_auth_resp(auth_resp_t, broker_cert, sim.now());
      auto us = ue->process_auth_resp(auth_resp_u);
      if (ts.ok() && us.ok()) return us.value().session_id;
    }
    return 0;
  }

  Bytes report_wire(std::uint64_t session_id, std::uint64_t seq, std::uint32_t period) {
    TrafficReport report;
    report.session_id = session_id;
    report.reporter = Reporter::Ue;
    report.period = period;
    report.dl_bytes = 4242;
    const Bytes sealed = ReportFrame::seal(
        report, "user-9", [this](BytesView b) { return ue->sign(b); }, broker_cert.key(), rng);
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(BrokerMsg::Report));
    w.u64(seq);
    w.bytes(sealed);
    return w.take();
  }

  BrokerShard& shard() { return cluster->shard(0); }

  std::size_t acks_received() const {
    std::size_t n = 0;
    for (const Bytes& msg : received) {
      ByteReader r(msg);
      if (static_cast<BrokerMsg>(r.u8()) == BrokerMsg::ReportAck) ++n;
    }
    return n;
  }
};

}  // namespace

// The shard checks a UE report's signature against the key the auth path
// holds: once the subscriber is removed, its reports are refused unacked,
// while the same report from a registered subscriber is ingested and acked.
TEST(BrokerReports, RemovedSubscriberReportIsRejectedUnacked) {
  BrokerHarness h(BrokerConfig{});
  const std::uint64_t sid = h.attach();
  ASSERT_NE(sid, 0u);

  h.send(h.report_wire(sid, /*seq=*/1, /*period=*/0));
  h.sim.run_for(Duration::millis(100));
  ASSERT_EQ(h.shard().reports_ingested(), 1u);
  ASSERT_EQ(h.acks_received(), 1u);

  h.cluster->remove_subscriber("user-9");
  h.send(h.report_wire(sid, /*seq=*/2, /*period=*/1));
  h.sim.run_for(Duration::millis(100));
  EXPECT_EQ(h.shard().reports_rejected(), 1u);
  EXPECT_EQ(h.shard().reports_ingested(), 1u);
  EXPECT_EQ(h.acks_received(), 1u);
}

TEST(BrokerHousekeeping, PairExpiryEvictsReportAckCacheEntry) {
  // Regression: a retransmit arriving AFTER its pending pair expired must be
  // re-processed (hitting the dedup filter and earning a fresh ack), not
  // answered from an ack cache whose decision the missing-counterpart
  // verdict superseded.
  BrokerConfig bcfg;
  bcfg.pair_timeout = Duration::s(5);
  bcfg.gc_interval = Duration::s(1);
  bcfg.reply_cache_ttl = Duration::s(120);  // TTL alone would NOT evict below
  BrokerHarness h(bcfg);
  const std::uint64_t sid = h.attach();
  ASSERT_NE(sid, 0u);

  const Bytes wire = h.report_wire(sid, /*seq=*/1, /*period=*/0);
  h.send(wire);
  h.sim.run_for(Duration::millis(100));
  EXPECT_EQ(h.shard().reports_ingested(), 1u);
  EXPECT_EQ(h.shard().report_ack_cache_size(), 1u);
  EXPECT_EQ(h.acks_received(), 1u);

  // A prompt retransmit is answered from the cache.
  h.send(wire);
  h.sim.run_for(Duration::millis(100));
  EXPECT_EQ(h.shard().report_ack_cache_hits(), 1u);
  EXPECT_EQ(h.acks_received(), 2u);

  // The telco counterpart never arrives: the pair expires, and the eviction
  // must take the cached ack with it even though its TTL is nowhere near.
  h.sim.run_for(Duration::s(8));
  EXPECT_EQ(h.cluster->unpaired_expired(), 1u);
  EXPECT_EQ(h.cluster->observer().pending().size(), 0u);
  EXPECT_EQ(h.shard().report_ack_cache_size(), 0u);

  // The late retransmit is re-processed: dedup filter (not cache hit), and
  // the sender still gets an ack so it stops retransmitting.
  h.send(wire);
  h.sim.run_for(Duration::millis(100));
  EXPECT_EQ(h.shard().report_ack_cache_hits(), 1u) << "served from a stale cache entry";
  EXPECT_EQ(h.shard().reports_deduped(), 1u);
  EXPECT_EQ(h.shard().reports_ingested(), 1u) << "billing double-count";
  EXPECT_EQ(h.acks_received(), 3u);
}

TEST(BrokerClusterSteadyState, NoKillMeansNoRedirectsAndCleanPairing) {
  scenario::BrokerLoadgenConfig cfg = small_cluster_config();
  scenario::BrokerLoadgen gen(cfg);
  const scenario::BrokerLoadgenResult r = gen.run();
  EXPECT_EQ(r.sessions_issued, 6u);
  EXPECT_EQ(r.reports_acked, r.reports_sent);
  EXPECT_EQ(r.reports_abandoned, 0u);
  EXPECT_EQ(r.verdicts_lost, 0u);
  EXPECT_EQ(r.verdicts_missing, 0u);
  EXPECT_EQ(r.verdict_conflicts, 0u);
  // Client-side rendezvous agrees with cluster-side ownership when all
  // shards are healthy: no stale-route redirects at all.
  EXPECT_EQ(r.redirects_sent, 0u);
  EXPECT_EQ(r.verdicts_paired, r.reports_ingested / 2);
}
