// Fault injection and end-to-end failure recovery: the ChaosController
// scheduling machinery, link corruption / node-down primitives, UE attach
// deadlines + backoff + candidate fallback, the reliable report channel
// (broker ACK + dedup), bTelco session GC, broker reply-cache bounding, and
// the full chaos scenario's determinism witness.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "net/network.hpp"
#include "scenario/chaos.hpp"
#include "scenario/trial_runner.hpp"
#include "scenario/world.hpp"
#include "sim/fault.hpp"

namespace cb::scenario {
namespace {

WorldConfig static_cb_config(int towers = 2) {
  WorldConfig cfg;
  cfg.arch = Architecture::CellBricks;
  cfg.n_towers = towers;
  cfg.route = RouteSpec{"static", false, 0.1, 500.0, ran::RatePolicy::unlimited()};
  cfg.unlimited_policy = true;
  cfg.radio_loss = 0.0;
  return cfg;
}

// --- FaultPlan / ChaosController --------------------------------------

TEST(FaultPlan, WindowsInjectAndHealOnSchedule) {
  sim::Simulator sim(1);
  int state = 0;
  sim::FaultPlan plan;
  plan.window(
      "outage", TimePoint::zero() + Duration::s(5), Duration::s(10),
      [&] { state = 1; }, [&] { state = 2; });
  plan.at("blip", TimePoint::zero() + Duration::s(7), [&] { state += 10; });
  sim::ChaosController chaos(sim, std::move(plan));
  chaos.arm();

  sim.run_until(TimePoint::zero() + Duration::s(6));
  EXPECT_EQ(state, 1);
  EXPECT_TRUE(chaos.fault_active("outage"));
  EXPECT_EQ(chaos.active_faults(), 1u);

  sim.run_until(TimePoint::zero() + Duration::s(8));
  EXPECT_EQ(state, 11);  // one-shot fired inside the window

  sim.run_until(TimePoint::zero() + Duration::s(20));
  EXPECT_EQ(state, 2);
  EXPECT_FALSE(chaos.fault_active("outage"));
  EXPECT_EQ(chaos.active_faults(), 0u);

  ASSERT_EQ(chaos.log().size(), 3u);
  EXPECT_EQ(chaos.log()[0].what, "inject:outage");
  EXPECT_EQ(chaos.log()[1].what, "inject:blip");
  EXPECT_EQ(chaos.log()[2].what, "heal:outage");
  EXPECT_EQ(chaos.plan().last_event().nanos(), (TimePoint::zero() + Duration::s(15)).nanos());
}

TEST(FaultPlan, ArmTwiceThrows) {
  sim::Simulator sim(1);
  sim::FaultPlan plan;
  plan.at("x", TimePoint::zero() + Duration::s(1), [] {});
  sim::ChaosController chaos(sim, std::move(plan));
  chaos.arm();
  EXPECT_THROW(chaos.arm(), std::logic_error);
}

TEST(FaultPlan, SameSeedRunsProduceIdenticalLogs) {
  auto run = [] {
    sim::Simulator sim(7);
    sim::FaultPlan plan;
    for (int i = 0; i < 5; ++i) {
      plan.window(
          "w" + std::to_string(i), TimePoint::zero() + Duration::millis(100 * i),
          Duration::millis(250), [] {}, [] {});
    }
    sim::ChaosController chaos(sim, std::move(plan));
    chaos.arm();
    sim.run();
    std::vector<std::pair<std::int64_t, std::string>> out;
    for (const auto& e : chaos.log()) out.emplace_back(e.at.nanos(), e.what);
    return out;
  };
  EXPECT_EQ(run(), run());
}

// --- Network fault primitives -----------------------------------------

TEST(NetFaults, LinkCorruptionFlipsPayloadBytes) {
  sim::Simulator sim(3);
  net::Network network(sim);
  net::Node* a = network.add_node("a");
  net::Node* b = network.add_node("b");
  network.register_address(net::Ipv4Addr(10, 0, 0, 1), a);
  network.register_address(net::Ipv4Addr(10, 0, 0, 2), b);
  net::LinkParams params;
  params.corrupt = 1.0;  // every packet gets one byte flipped
  net::Link* link = network.connect(a, b, params);
  network.recompute_routes();

  int received = 0, garbled = 0;
  b->bind_udp(5000, [&](const net::Packet& p) {
    ++received;
    for (std::uint8_t byte : p.payload) {
      if (byte != 0xAB) ++garbled;
    }
  });
  for (int i = 0; i < 8; ++i) {
    net::Packet p;
    p.src = net::EndPoint{net::Ipv4Addr(10, 0, 0, 1), 1};
    p.dst = net::EndPoint{net::Ipv4Addr(10, 0, 0, 2), 5000};
    p.proto = net::Proto::Udp;
    p.payload.assign(64, 0xAB);
    a->send(std::move(p));
  }
  sim.run();
  EXPECT_EQ(received, 8);         // corruption never drops the packet
  EXPECT_EQ(garbled, 8);          // exactly one byte flipped per packet
  EXPECT_EQ(link->corrupted(), 8u);
}

TEST(NetFaults, DownNodeDropsTrafficInsteadOfForwarding) {
  sim::Simulator sim(3);
  net::Network network(sim);
  net::Node* a = network.add_node("a");
  net::Node* b = network.add_node("b");
  network.register_address(net::Ipv4Addr(10, 0, 0, 1), a);
  network.register_address(net::Ipv4Addr(10, 0, 0, 2), b);
  network.connect(a, b, net::LinkParams{});
  network.recompute_routes();

  int received = 0;
  b->bind_udp(5000, [&](const net::Packet&) { ++received; });
  b->set_up(false);
  net::Packet p;
  p.src = net::EndPoint{net::Ipv4Addr(10, 0, 0, 1), 1};
  p.dst = net::EndPoint{net::Ipv4Addr(10, 0, 0, 2), 5000};
  p.proto = net::Proto::Udp;
  p.payload.assign(16, 0x01);
  a->send(p);
  sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_GE(b->dropped_down(), 1u);

  b->set_up(true);
  a->send(p);
  sim.run();
  EXPECT_EQ(received, 1);
}

// --- UE attach failure handling ---------------------------------------

TEST(AttachRecovery, AttachTimesOutAgainstCrashedTelco) {
  WorldConfig cfg = static_cb_config(1);
  cfg.ue_config.attach_timeout = Duration::s(1);
  World world(cfg);
  world.btelco(0)->crash();

  bool failed = false;
  std::string error;
  world.ue_agent()->attach(1, [&](Result<net::Ipv4Addr> r) {
    failed = !r.ok();
    if (failed) error = r.error();
  });
  world.simulator().run_for(Duration::s(5));
  EXPECT_TRUE(failed);
  EXPECT_EQ(error, "attach timeout");
  EXPECT_EQ(world.ue_agent()->attach_failures(), 1u);
  // Satellite fix: the failed attach must not leave the bearer admin-up.
  EXPECT_FALSE(world.ran_map().site(1).radio_link->is_up());
}

TEST(AttachRecovery, CrashBetweenAuthAndInstallLeavesNoSession) {
  // The broker's AuthOk reaches the bTelco at ~23.6 ms, and the install job
  // it queues runs at ~30.1 ms. A crash in between must kill that job: the
  // dead AGW installs no session and tells the UE nothing.
  World world(static_cb_config(1));
  bool done = false;
  std::string error;
  world.ue_agent()->attach(1, [&](Result<net::Ipv4Addr> r) {
    done = true;
    if (!r.ok()) error = r.error();
  });
  world.simulator().run_until(TimePoint::zero() + Duration::ms(27));
  ASSERT_EQ(world.broker_cluster()->sessions_issued(), 1u) << "the broker has not answered yet";
  ASSERT_FALSE(done);

  world.btelco(0)->crash();
  world.simulator().run_for(Duration::s(5));
  EXPECT_TRUE(done);
  EXPECT_EQ(error, "attach timeout");
  EXPECT_EQ(world.btelco(0)->active_sessions(), 0u);

  world.btelco(0)->restart();
  world.simulator().run_for(Duration::s(30));
  EXPECT_EQ(world.btelco(0)->active_sessions(), 0u);
}

TEST(AttachRecovery, CrashDropsQueuedAgwJobs) {
  // The AGW serves one message at a time. A restart inside its backlog must
  // not run the jobs queued before the crash, and the restarted AGW serves
  // new work one service time after it arrives. Each resume request here is
  // junk, so each served job answers with a rejection.
  World world(static_cb_config(1));
  cellbricks::Btelco& telco = *world.btelco(0);
  int stale = 0;
  bool fresh = false;
  const Duration busy_before = telco.busy_time();
  for (int i = 0; i < 10; ++i) {
    telco.handle_resume(Bytes{0x01}, nullptr, nullptr, [&](auto) { ++stale; });
  }
  const Duration job = (telco.busy_time() - busy_before) / 10;
  world.simulator().run_for(job * 2 + job / 2);
  ASSERT_EQ(stale, 2);

  telco.crash();
  telco.restart();
  telco.handle_resume(Bytes{0x01}, nullptr, nullptr, [&](auto) { fresh = true; });
  world.simulator().run_for(job);
  EXPECT_TRUE(fresh) << "the new request waited behind the dead backlog";
  world.simulator().run_for(Duration::s(1));
  EXPECT_EQ(stale, 2) << "a job queued before the crash ran after the restart";
}

TEST(AttachRecovery, TelcoAuthSendsFourCopiesOneSecondApartThenDenies) {
  // Pins the bTelco's SAP auth schedule toward a dead broker: a fixed 1 s
  // gap, 4 copies, then a denial.
  WorldConfig cfg = static_cb_config(1);
  cfg.ue_config.attach_timeout = Duration::s(10);
  World world(cfg);
  world.cloud_node()->set_up(false);
  const net::Link::Counters& to_cloud =
      world.cloud_link(0)->counters(&world.btelco(0)->node());

  std::string error;
  TimePoint failed_at;
  world.ue_agent()->attach(1, [&](Result<net::Ipv4Addr> r) {
    if (!r.ok()) error = r.error();
    failed_at = world.simulator().now();
  });
  // The first copy leaves after the UE, eNB and AGW legs: 8.125 ms.
  for (std::uint64_t k = 0; k < 4; ++k) {
    const TimePoint due = TimePoint::zero() + Duration::s(static_cast<std::int64_t>(k)) +
                          Duration::millis(8.125);
    world.simulator().run_until(due - Duration::us(1));
    EXPECT_EQ(to_cloud.sent_packets, k) << "before copy " << k;
    world.simulator().run_until(due + Duration::us(1));
    EXPECT_EQ(to_cloud.sent_packets, k + 1) << "after copy " << k;
  }
  world.simulator().run_for(Duration::s(10));
  EXPECT_EQ(to_cloud.sent_packets, 4u);
  EXPECT_EQ(error, "broker denied attachment");
  EXPECT_EQ(failed_at, TimePoint::zero() + Duration::millis(4009.75));
}

TEST(AttachRecovery, FallsBackToNextBestCellWhenPreferredIsDead) {
  WorldConfig cfg = static_cb_config(2);
  cfg.ue_config.attach_timeout = Duration::s(1);
  World world(cfg);
  world.btelco(0)->crash();
  world.ue_agent()->set_candidate_source(
      [] { return std::vector<ran::CellId>{1, 2}; });

  world.ue_agent()->attach_with_recovery(1);
  world.simulator().run_for(Duration::s(10));
  EXPECT_TRUE(world.ue_agent()->attached());
  EXPECT_EQ(world.ue_agent()->serving_cell(), 2u);  // dead cell 1 blacklisted
  EXPECT_GE(world.ue_agent()->attach_failures(), 1u);
  EXPECT_EQ(world.btelco(1)->active_sessions(), 1u);
}

TEST(AttachRecovery, BrokerOutageRetriedUntilHealed) {
  WorldConfig cfg = static_cb_config(1);
  cfg.ue_config.attach_timeout = Duration::s(1);
  World world(cfg);
  world.cloud_node()->set_up(false);
  TimePoint attached_at;
  world.ue_agent()->on_attached = [&](ran::CellId, Duration) {
    attached_at = world.simulator().now();
  };

  world.ue_agent()->attach_with_recovery(1);
  world.simulator().run_for(Duration::s(5));
  EXPECT_FALSE(world.ue_agent()->attached());
  EXPECT_GE(world.ue_agent()->attach_failures(), 1u);
  EXPECT_TRUE(world.ue_agent()->in_recovery());

  const TimePoint healed = world.simulator().now();
  world.cloud_node()->set_up(true);
  world.simulator().run_for(Duration::s(20));
  EXPECT_TRUE(world.ue_agent()->attached());
  EXPECT_FALSE(world.ue_agent()->in_recovery());
  EXPECT_GE(world.ue_agent()->reattach_latencies().count(), 1u);
  // Each failed attach blacklists the only cell for 10 s, but with no other
  // cell to move to the retries keep trying it on the backoff: the first
  // retry after the heal comes within one capped backoff (8 s) and attaches
  // within the 1 s deadline. Waiting out the blacklist takes longer.
  EXPECT_LE((attached_at - healed).to_seconds(), 8.0 + 1.0);
}

TEST(AttachRecovery, WatchdogDetectsBearerLossAndReattaches) {
  WorldConfig cfg = static_cb_config(2);
  cfg.ue_config.attach_timeout = Duration::s(1);
  World world(cfg);
  world.ue_agent()->set_candidate_source(
      [] { return std::vector<ran::CellId>{1, 2}; });

  world.ue_agent()->attach_with_recovery(1);
  world.simulator().run_for(Duration::s(2));
  ASSERT_TRUE(world.ue_agent()->attached());
  ASSERT_EQ(world.ue_agent()->serving_cell(), 1u);

  // The serving bTelco dies without any signalling.
  world.btelco(0)->crash();
  world.simulator().run_for(Duration::s(10));
  EXPECT_EQ(world.ue_agent()->bearer_losses(), 1u);
  EXPECT_TRUE(world.ue_agent()->attached());
  EXPECT_EQ(world.ue_agent()->serving_cell(), 2u);
}

// --- Reliable reports + broker dedup ----------------------------------

TEST(ReliableReports, DuplicatesAreFilteredBeforeBilling) {
  WorldConfig cfg = static_cb_config(1);
  cfg.report_interval = Duration::s(2);
  World world(cfg);
  // The broker's first ReportAck for each (requester, seq) is lost on its
  // way out of the cloud host, so every report is sent again. Every copy
  // past the first must be absorbed idempotently — answered from the
  // report-ack cache or dropped by the dedup filter — NOT rejected, and NOT
  // double-billed.
  std::set<std::tuple<std::uint32_t, std::uint16_t, std::uint64_t>> acks_seen;
  std::uint64_t acks_dropped = 0;
  world.cloud_node()->set_forward_hook([&](net::Packet& p) {
    ByteReader r(p.payload);
    if (p.payload.size() < 9 ||
        r.u8() != static_cast<std::uint8_t>(cellbricks::BrokerMsg::ReportAck)) {
      return false;
    }
    if (!acks_seen.emplace(p.dst.addr.value(), p.dst.port, r.u64()).second) return false;
    ++acks_dropped;
    return true;
  });

  bool attached = false;
  world.ue_agent()->attach(1, [&](Result<net::Ipv4Addr> r) { attached = r.ok(); });
  // The last report (~10 s) is resent 1 s later and acked before 11.5 s.
  world.simulator().run_for(Duration::millis(11500));
  ASSERT_TRUE(attached);

  const cellbricks::BrokerCluster& broker = *world.broker_cluster();
  EXPECT_GT(acks_dropped, 0u);
  EXPECT_GE(broker.reports_deduped() + broker.shard(0).report_ack_cache_hits(), acks_dropped);
  EXPECT_GT(broker.reports_ingested(), 0u);
  EXPECT_EQ(broker.reports_rejected(), 0u);
  // Double-counted UE bytes would show up as billing mismatches.
  EXPECT_EQ(broker.reputation().mismatches("btelco-0"), 0u);
  EXPECT_DOUBLE_EQ(broker.reputation().telco_score("btelco-0"), 1.0);
  // Every ACKed report left the retransmission queue.
  EXPECT_EQ(world.ue_agent()->outstanding_reports(), 0u);
}

TEST(ReliableReports, MalformedAndTruncatedPacketsAreDropped) {
  World world(static_cb_config(1));
  bool attached = false;
  world.ue_agent()->attach(1, [&](Result<net::Ipv4Addr> r) { attached = r.ok(); });
  world.simulator().run_for(Duration::s(2));
  ASSERT_TRUE(attached);

  auto send_to_broker = [&](Bytes payload) {
    net::Packet p;
    p.src = net::EndPoint{world.server_addr(), 9999};
    p.dst = net::EndPoint{world.cloud_addr(), cellbricks::kBrokerPort};
    p.proto = net::Proto::Udp;
    p.payload = std::move(payload);
    world.server_node()->send(std::move(p));
  };

  // Garbage sealed box with a valid header.
  ByteWriter garbage;
  garbage.u8(static_cast<std::uint8_t>(cellbricks::BrokerMsg::Report));
  garbage.u64(1);
  garbage.bytes(Bytes(40, 0x5A));
  send_to_broker(garbage.take());
  // Truncated: type byte only.
  send_to_broker(Bytes(1, static_cast<std::uint8_t>(cellbricks::BrokerMsg::Report)));
  // Unknown message type.
  send_to_broker(Bytes(3, 0x7F));

  world.simulator().run_for(Duration::s(1));
  EXPECT_GE(world.broker_cluster()->reports_rejected(), 1u);
  // The broker survived and still serves SAP + reports.
  world.ue_agent()->detach();
  world.simulator().run_for(Duration::s(1));
  bool again = false;
  world.ue_agent()->attach(1, [&](Result<net::Ipv4Addr> r) { again = r.ok(); });
  world.simulator().run_for(Duration::s(2));
  EXPECT_TRUE(again);
}

// --- Session GC + reply cache bounding --------------------------------

TEST(SessionGc, VanishedUeIsReclaimedByInactivityTimeout) {
  WorldConfig cfg = static_cb_config(1);
  cfg.btelco_config.session_timeout = Duration::s(5);
  cfg.btelco_config.gc_interval = Duration::s(1);
  World world(cfg);

  bool attached = false;
  world.ue_agent()->attach(1, [&](Result<net::Ipv4Addr> r) { attached = r.ok(); });
  world.simulator().run_for(Duration::s(2));
  ASSERT_TRUE(attached);
  ASSERT_EQ(world.btelco(0)->active_sessions(), 1u);

  // The UE vanishes mid-session: bearer gone, no detach signalling.
  world.ran_map().site(1).radio_link->set_up(false);
  world.simulator().run_for(Duration::s(15));
  EXPECT_EQ(world.btelco(0)->active_sessions(), 0u);
  EXPECT_EQ(world.btelco(0)->sessions_gced(), 1u);
}

TEST(BrokerHousekeeping, ReplyCacheIsTtlBounded) {
  WorldConfig cfg = static_cb_config(1);
  cfg.shard_config.broker.reply_cache_ttl = Duration::s(2);
  cfg.shard_config.broker.gc_interval = Duration::s(1);
  World world(cfg);

  bool attached = false;
  world.ue_agent()->attach(1, [&](Result<net::Ipv4Addr> r) { attached = r.ok(); });
  world.simulator().run_for(Duration::s(1));
  ASSERT_TRUE(attached);
  EXPECT_GE(world.broker_cluster()->shard(0).reply_cache_size(), 1u);

  world.simulator().run_for(Duration::s(5));
  EXPECT_EQ(world.broker_cluster()->shard(0).reply_cache_size(), 0u);
}

TEST(BrokerHousekeeping, UnpairedReportExpiresIntoMissingVerdict) {
  WorldConfig cfg = static_cb_config(1);
  cfg.btelco_config.session_timeout = Duration::s(5);
  cfg.btelco_config.gc_interval = Duration::s(1);
  cfg.shard_config.broker.pair_timeout = Duration::s(10);
  cfg.shard_config.broker.gc_interval = Duration::s(2);
  World world(cfg);

  bool attached = false;
  world.ue_agent()->attach(1, [&](Result<net::Ipv4Addr> r) { attached = r.ok(); });
  world.simulator().run_for(Duration::s(2));
  ASSERT_TRUE(attached);

  // UE vanishes: the bTelco's GC sends a final report whose UE counterpart
  // can never arrive; after pair_timeout the broker charges the absent side.
  world.ran_map().site(1).radio_link->set_up(false);
  world.simulator().run_for(Duration::s(30));
  const cellbricks::BrokerCluster& broker = *world.broker_cluster();
  EXPECT_GE(broker.unpaired_expired(), 1u);
  EXPECT_GE(broker.reputation().missing_reports("user-001"), 1u);
  EXPECT_EQ(broker.observer().pending().size(), 0u);
  // A vanished UE is not tampering evidence.
  EXPECT_FALSE(broker.reputation().is_suspect("user-001"));
}

// --- Full chaos scenario ----------------------------------------------

TEST(Chaos, EndToEndRecoveryAndBitIdenticalReplay) {
  auto make = [] {
    ChaosConfig cfg;
    cfg.world.seed = 11;
    cfg.world.route = suburb_day();
    cfg.world.n_towers = 4;
    cfg.duration = Duration::s(90);
    cfg.world.btelco_config.session_timeout = Duration::s(15);
    cfg.world.btelco_config.gc_interval = Duration::s(3);
    cfg.world.ue_config.attach_timeout = Duration::s(2);
    cfg.faults = {
        {.kind = FuzzFault::Kind::BrokerOutage, .start_s = 40.0, .duration_s = 8.0},
        {.kind = FuzzFault::Kind::TelcoCrash, .start_s = 15.0, .duration_s = 10.0, .telco = 0},
        {.kind = FuzzFault::Kind::RadioDrop, .start_s = 60.0},
    };
    return cfg;
  };
  const ChaosResult r1 = run_chaos(make());
  const ChaosResult r2 = run_chaos(make());

  // Determinism witness: identical fingerprints and fault logs.
  EXPECT_EQ(r1.fingerprint, r2.fingerprint);
  ASSERT_EQ(r1.fault_log.size(), r2.fault_log.size());
  EXPECT_EQ(r1.fault_log.size(), 5u);  // 2 windows x2 + 1 one-shot

  // Recovery: faults were felt, and the system healed end to end.
  EXPECT_GE(r1.bearer_losses, 1u);
  EXPECT_GT(r1.availability, 0.5);
  EXPECT_GT(r1.availability_after_faults, 0.9);
  EXPECT_TRUE(r1.ue_attached_at_end);
  EXPECT_EQ(r1.orphan_sessions, 0u);  // every orphan was GC'd
  EXPECT_GT(r1.pair_completion, 0.0);
}

TEST(Chaos, EngineEquivalenceGolden) {
  // Golden witness for the event-engine/COW-packet overhaul: this exact
  // scenario (the bench_chaos_availability config) was run on the seed
  // engine (std::function queue, deep-copied payloads) and produced the
  // values below. The slab/generation engine and the copy-on-write wire
  // path must reproduce them bit-identically — any drift means the swap
  // changed execution order or payload contents somewhere.
  //
  // Re-frozen for the sharded-broker PR: retry backoff is now decorrelated
  // jitter drawn from a dedicated per-agent RNG stream (shifts retransmit
  // timing, hence the fingerprint), and the broker's idempotent report-ack
  // cache answers most retransmits before they reach the ingest dedup
  // filter (reports_deduped 7 -> 1). All other counters are unchanged.
  ChaosConfig cfg;
  cfg.world.seed = 42;
  cfg.world.route = suburb_day();
  cfg.world.n_towers = 8;
  cfg.duration = Duration::s(240);
  cfg.world.btelco_config.session_timeout = Duration::s(30);
  cfg.world.btelco_config.gc_interval = Duration::s(5);
  cfg.world.ue_config.attach_timeout = Duration::s(2);
  cfg.faults = {
      {.kind = FuzzFault::Kind::BrokerOutage, .start_s = 70.0, .duration_s = 15.0},
      {.kind = FuzzFault::Kind::TelcoCrash, .start_s = 30.0, .duration_s = 20.0, .telco = 0},
      {.kind = FuzzFault::Kind::RadioDrop, .start_s = 120.0},
      {.kind = FuzzFault::Kind::WanDegrade,
       .start_s = 150.0,
       .duration_s = 30.0,
       .loss = 0.25,
       .corrupt = 0.10},
  };

  const ChaosResult r = run_chaos(cfg);
  EXPECT_EQ(r.fingerprint, 0x7cac7660fc2c3249ULL);
  EXPECT_EQ(r.reattach_latency_ms.count(), 6u);
  EXPECT_EQ(r.bearer_losses, 2u);
  EXPECT_EQ(r.attach_failures, 0u);
  EXPECT_EQ(r.sessions_gced, 1u);
  EXPECT_EQ(r.orphan_sessions, 0u);
  EXPECT_EQ(r.reports_ingested, 54u);
  EXPECT_EQ(r.reports_deduped, 1u);
  EXPECT_EQ(r.unpaired_expired, 6u);
  EXPECT_EQ(r.pairs_compared, 24u);
  EXPECT_TRUE(r.ue_attached_at_end);
}

TEST(Chaos, TrialRunnerWorkerThreadIsBitIdentical) {
  // A trial executed on a TrialRunner worker thread must match one run on
  // the main thread exactly: simulators are self-contained and the logger
  // time source is thread-local, so thread placement cannot leak into
  // results.
  auto make = [] {
    ChaosConfig cfg;
    cfg.world.seed = 1234;
    cfg.world.n_towers = 4;
    cfg.duration = Duration::s(60);
    cfg.faults = {{.kind = FuzzFault::Kind::BrokerOutage, .start_s = 20.0, .duration_s = 5.0}};
    return cfg;
  };
  const ChaosResult main_thread = run_chaos(make());
  TrialRunner runner(2);
  const auto pooled = runner.map(3, [&](std::size_t) { return run_chaos(make()); });
  for (const ChaosResult& r : pooled) {
    EXPECT_EQ(r.fingerprint, main_thread.fingerprint);
  }
}

}  // namespace
}  // namespace cb::scenario
