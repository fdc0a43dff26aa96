// Unit tests for BrokerChannel, the client side of the broker protocol: a
// client node wired to fake broker shards that only record what arrives.
// Acks and redirects are delivered by calling the channel directly, or as
// reply packets through receive(), the way an owner's UDP handler does.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "cellbricks/broker_channel.hpp"
#include "net/network.hpp"

namespace cb::cellbricks {
namespace {

constexpr Duration kLinkDelay = Duration::ms(5);

struct Arrival {
  TimePoint at;
  std::uint64_t key = 0;
};

/// One client node linked straight to `n_shards` fake broker nodes.
struct Harness {
  explicit Harness(std::size_t n_shards) {
    client = network.add_node("client");
    network.register_address(net::Ipv4Addr(9, 0, 0, 1), client);
    arrivals.resize(n_shards);
    for (std::size_t i = 0; i < n_shards; ++i) {
      net::Node* shard = network.add_node("shard-" + std::to_string(i));
      const net::Ipv4Addr addr(2, 2, 2, static_cast<std::uint8_t>(10 + i));
      network.register_address(addr, shard);
      network.connect(client, shard, net::LinkParams{.rate_bps = 1e9, .delay = kLinkDelay});
      shard->bind_udp(kBrokerPort, [this, i](const net::Packet& p) {
        ByteReader r(p.payload);
        r.u8();
        arrivals[i].push_back({sim.now(), r.u64()});
      });
      endpoints.push_back(net::EndPoint{addr, kBrokerPort});
    }
    network.recompute_routes();
  }

  BrokerChannel channel(RetrySchedule schedule, BrokerMsg request = BrokerMsg::Report) {
    return BrokerChannel(*client, request, net::EndPoint{net::Ipv4Addr(9, 0, 0, 1), 4599},
                         endpoints.front(), jitter, schedule);
  }

  /// A broker reply whose fields `w` already holds, as it would arrive.
  static net::Packet reply(ByteWriter& w) {
    net::Packet p;
    p.proto = net::Proto::Udp;
    p.payload = w.take();
    return p;
  }

  std::vector<std::uint64_t> keys_at(std::size_t shard) const {
    std::vector<std::uint64_t> keys;
    for (const Arrival& a : arrivals[shard]) keys.push_back(a.key);
    return keys;
  }

  /// A session id whose bucket `router` currently routes to `shard`.
  static std::uint64_t session_on(ShardRouter& router, std::size_t shard) {
    for (std::uint32_t bucket = 0; bucket < kRouteBuckets; ++bucket) {
      const std::uint64_t sid = bucketed_session_id(1, static_cast<std::uint16_t>(bucket));
      if (router.pick_for_session(sid, TimePoint::zero()) == shard) return sid;
    }
    throw std::logic_error("no bucket routes to that shard");
  }

  sim::Simulator sim{1};
  net::Network network{sim};
  net::Node* client = nullptr;
  std::vector<net::EndPoint> endpoints;
  std::vector<std::vector<Arrival>> arrivals;  // per shard
  Rng jitter{7};
};

constexpr RetrySchedule kSchedule{Duration::s(1), 4, Duration::s(30)};

TEST(BrokerChannel, AckStopsResendsAndClearsOnlyTheShardSentTo) {
  Harness h(2);
  ShardRouter router(h.endpoints);
  BrokerChannel ch = h.channel(kSchedule);
  ch.set_router(&router);
  const std::uint64_t sid = Harness::session_on(router, 1);

  router.note_timeout(0, h.sim.now());  // shard 0: one strike
  ch.send(1, {}, sid);
  h.sim.run_for(Duration::ms(100));
  ASSERT_EQ(h.keys_at(1), std::vector<std::uint64_t>{1});
  const auto acked = ch.ack(1);
  ASSERT_TRUE(acked.has_value());
  EXPECT_EQ(acked->session_id, sid);
  EXPECT_EQ(acked->queued_at, TimePoint::zero());
  EXPECT_EQ(ch.size(), 0u);
  EXPECT_FALSE(ch.ack(1).has_value()) << "a second ack finds nothing";

  h.sim.run_for(Duration::s(120));
  EXPECT_EQ(h.keys_at(1).size(), 1u) << "no resend after the ack";
  // The ack cleared shard 1 only: shard 0's strike stands, so one more
  // makes it suspect (suspect_after = 2).
  router.note_timeout(0, h.sim.now());
  EXPECT_TRUE(router.suspect(0, h.sim.now()));

  // A message that was never sent clears nobody when it is acked.
  ch.pause();
  ch.send(2, {}, sid);
  ASSERT_TRUE(ch.ack(2).has_value());
  EXPECT_TRUE(router.suspect(0, h.sim.now()));
}

TEST(BrokerChannel, ExhaustionAbandonsOnceAfterExactlyAttemptsSends) {
  Harness h(1);
  BrokerChannel ch = h.channel(kSchedule);
  std::vector<std::uint64_t> abandoned;
  int transmits = 0;
  ch.on_abandon = [&](std::uint64_t key) {
    abandoned.push_back(key);
    EXPECT_EQ(ch.size(), 0u) << "the message is dropped before the hook runs";
  };
  ch.on_transmit = [&](std::uint64_t) { ++transmits; };
  ch.send(42, {}, 1);
  h.sim.run();
  EXPECT_EQ(h.arrivals[0].size(), static_cast<std::size_t>(kSchedule.attempts));
  EXPECT_EQ(transmits, kSchedule.attempts);
  EXPECT_EQ(abandoned, std::vector<std::uint64_t>{42});
  EXPECT_EQ(ch.size(), 0u);
}

TEST(BrokerChannel, GapsAreFirstThenDecorrelatedBackoffFromTheOwnersRngCapped) {
  Harness h(1);
  const RetrySchedule schedule{Duration::ms(500), 7, Duration::s(4)};
  Rng expected_rng = h.jitter;  // same state: replay the draws
  BrokerChannel ch = h.channel(schedule);
  ch.send(1, {}, 1);
  h.sim.run();
  ASSERT_EQ(h.arrivals[0].size(), 7u);

  // delays[k] is the wait after send k+1; the channel draws one per send.
  std::vector<Duration> delays{schedule.first};
  for (int i = 0; i < schedule.attempts; ++i) {
    delays.push_back(
        decorrelated_backoff(expected_rng, schedule.first, delays.back(), schedule.cap));
  }
  bool capped = false;
  for (std::size_t i = 1; i < h.arrivals[0].size(); ++i) {
    const Duration gap = h.arrivals[0][i].at - h.arrivals[0][i - 1].at;
    EXPECT_EQ(gap, delays[i - 1]) << "gap " << i;
    EXPECT_LE(gap, schedule.cap);
    capped = capped || gap == schedule.cap;
  }
  EXPECT_TRUE(capped) << "the cap never bound; pick a tighter cap";
  // The draws came from the owner's stream, no more and no fewer.
  EXPECT_EQ(h.jitter.next_u64(), expected_rng.next_u64());
}

TEST(BrokerChannel, PauseCancelsTimersAndKeepsEntries) {
  Harness h(1);
  BrokerChannel ch = h.channel(kSchedule);
  bool abandoned = false;
  ch.on_abandon = [&](std::uint64_t) { abandoned = true; };
  ch.send(1, {}, 1);
  ch.send(2, {}, 1);
  h.sim.run_for(Duration::ms(100));
  ch.pause();
  ch.send(3, {}, 1);  // held: nothing goes out while paused
  h.sim.run();
  EXPECT_EQ(h.keys_at(0), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(ch.size(), 3u);
  EXPECT_FALSE(abandoned);
}

TEST(BrokerChannel, ResumeFlushesOldestFirstAndStrikesNoShard) {
  Harness h(1);
  // Two strikes mark a shard suspect (ShardRouter::kSuspectAfter), and each
  // timer-driven resend of the three keys below strikes once.
  static_assert(ShardRouter::kSuspectAfter <= 3);
  ShardRouter router(h.endpoints);
  BrokerChannel ch = h.channel(kSchedule);
  ch.set_router(&router);
  for (std::uint64_t key : {5, 3, 9}) ch.send(key, {}, 1);
  h.sim.run_for(Duration::ms(100));
  ch.pause();
  h.sim.run_for(Duration::s(10));
  h.arrivals[0].clear();

  ch.resume();
  h.sim.run_for(Duration::ms(100));
  EXPECT_EQ(h.keys_at(0), (std::vector<std::uint64_t>{3, 5, 9}));
  EXPECT_FALSE(router.suspect(0, h.sim.now())) << "the flush struck the shard";
  EXPECT_EQ(ch.size(), 3u);

  // The flushed copies restart the schedule: the next resend comes `first`
  // later and, being timer-driven, does strike.
  h.sim.run_for(kSchedule.first);
  EXPECT_EQ(h.arrivals[0].size(), 6u);
  EXPECT_TRUE(router.suspect(0, h.sim.now()));
}

TEST(BrokerChannel, ClearDropsEverythingWithoutAbandoning) {
  Harness h(1);
  BrokerChannel ch = h.channel(kSchedule);
  bool abandoned = false;
  ch.on_abandon = [&](std::uint64_t) { abandoned = true; };
  for (std::uint64_t key : {1, 2, 3}) ch.send(key, {}, 1);
  ch.clear();
  EXPECT_EQ(ch.size(), 0u);
  h.sim.run();
  EXPECT_EQ(h.arrivals[0].size(), 3u) << "only the first copies went out";
  EXPECT_FALSE(abandoned);
}

TEST(BrokerChannel, AuthRoutesThroughTheStickyAuthPick) {
  Harness h(3);
  ShardRouter router(h.endpoints);
  BrokerChannel auth = h.channel(kSchedule, BrokerMsg::AuthReq);
  BrokerChannel reports = h.channel(kSchedule);
  auth.set_router(&router);
  reports.set_router(&router);
  // Shard 0 is suspect, so the sticky auth pick moves to shard 1, while
  // this session's bucket lives on shard 2.
  router.note_timeout(0, h.sim.now());
  router.note_timeout(0, h.sim.now());
  const std::uint64_t sid = Harness::session_on(router, 2);
  auth.send(1, {}, sid);
  reports.send(2, {}, sid);
  h.sim.run_for(Duration::ms(100));
  EXPECT_TRUE(h.arrivals[0].empty());
  EXPECT_EQ(h.keys_at(1), std::vector<std::uint64_t>{1});
  EXPECT_EQ(h.keys_at(2), std::vector<std::uint64_t>{2});
}

TEST(BrokerChannel, RedirectResendsToTheOwnerWithoutStrikingTheRedirector) {
  Harness h(2);
  ShardRouter router(h.endpoints);  // suspect_after = 2
  BrokerChannel ch = h.channel(kSchedule);
  ch.set_router(&router);
  const std::uint64_t sid = Harness::session_on(router, 0);
  ch.send(7, {}, sid);
  h.sim.run_for(Duration::ms(100));
  ASSERT_EQ(h.keys_at(0), std::vector<std::uint64_t>{7});

  // Shard 0 answers that shard 1 owns the bucket now.
  EXPECT_TRUE(ch.redirect(7, session_bucket(sid), 1));
  h.sim.run_for(Duration::ms(100));
  EXPECT_EQ(h.keys_at(1), std::vector<std::uint64_t>{7}) << "resend goes to the owner";
  EXPECT_EQ(h.keys_at(0).size(), 1u);
  // Shard 0 answered, so it holds no strike: one later timeout there must
  // not make it suspect.
  router.note_timeout(0, h.sim.now());
  EXPECT_FALSE(router.suspect(0, h.sim.now()));

  // A redirect for a key no longer outstanding still teaches the router.
  ASSERT_TRUE(ch.ack(7).has_value());
  EXPECT_FALSE(ch.redirect(7, session_bucket(sid), 0));
  EXPECT_EQ(router.redirects_learned(), 2u);
}

TEST(BrokerChannel, NoRouterSendsToTheFixedBrokerAndIgnoresRedirects) {
  Harness h(2);
  BrokerChannel ch = h.channel(kSchedule);
  ch.send(1, {}, 1);
  EXPECT_FALSE(ch.redirect(1, 0, 1));
  h.sim.run_for(Duration::ms(100));
  EXPECT_EQ(h.keys_at(0), std::vector<std::uint64_t>{1});
  EXPECT_TRUE(h.arrivals[1].empty());
}


/// A well-formed reply of type `reply` to `key`, with every field the broker
/// writes after the key.
net::Packet full_reply(BrokerMsg reply, std::uint64_t key) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(reply));
  w.u64(key);
  switch (reply) {
    case BrokerMsg::AuthOk:
      w.bytes(Bytes{1, 2});
      w.bytes(Bytes{3});
      break;
    case BrokerMsg::AuthErr:
      w.str("denied");
      break;
    case BrokerMsg::Redirect:
      w.u16(0);
      w.u16(1);
      break;
    case BrokerMsg::ResumeNotifyAck:
      w.u8(0);
      break;
    default:
      break;
  }
  return Harness::reply(w);
}

TEST(BrokerChannel, ReceiveTakesExactlyTheRepliesToItsOwnRequestType) {
  using M = BrokerMsg;
  const std::vector<std::pair<M, std::vector<M>>> answers{
      {M::AuthReq, {M::AuthOk, M::AuthErr}},
      {M::Report, {M::ReportAck, M::Redirect}},
      {M::ResumeNotify, {M::ResumeNotifyAck}},
  };
  const std::vector<M> every_type{M::AuthReq, M::AuthOk, M::AuthErr, M::Report, M::ReportAck,
                                  M::Redirect, M::ResumeNotify, M::ResumeNotifyAck};
  for (const auto& [request, replies] : answers) {
    for (M type : every_type) {
      SCOPED_TRACE(testing::Message() << "request " << static_cast<int>(request) << ", reply "
                                      << static_cast<int>(type));
      Harness h(1);
      BrokerChannel ch = h.channel(kSchedule, request);
      std::vector<BrokerMsg> acked;
      ch.on_ack = [&](std::uint64_t, const BrokerChannel::Acked& a, ByteReader&) {
        acked.push_back(a.reply);
      };
      ch.send(1, {}, 1);
      const bool mine = std::find(replies.begin(), replies.end(), type) != replies.end();
      EXPECT_EQ(ch.receive(full_reply(type, 1)), mine);
      // A Redirect without a router changes nothing; every other answer acks.
      const bool acks = mine && type != M::Redirect;
      EXPECT_EQ(ch.size(), acks ? 0u : 1u);
      EXPECT_EQ(acked, acks ? std::vector<BrokerMsg>{type} : std::vector<BrokerMsg>{});
    }
  }
  // An empty datagram answers nobody.
  Harness h(1);
  BrokerChannel ch = h.channel(kSchedule);
  EXPECT_FALSE(ch.receive(net::Packet{}));
}

TEST(BrokerChannel, TruncatedReplyIsDroppedAndTheMessageStaysOutstanding) {
  Harness h(2);
  ShardRouter router(h.endpoints);
  BrokerChannel ch = h.channel(kSchedule);
  ch.set_router(&router);
  int hooks = 0;
  ch.on_ack = [&](std::uint64_t, const BrokerChannel::Acked&, ByteReader&) { ++hooks; };
  ch.on_redirect = [&](std::uint64_t) { ++hooks; };
  const std::uint64_t sid = Harness::session_on(router, 0);
  ch.send(7, {}, sid);

  ByteWriter short_key;  // a ReportAck whose key is cut off
  short_key.u8(static_cast<std::uint8_t>(BrokerMsg::ReportAck));
  short_key.u32(7);
  EXPECT_TRUE(ch.receive(Harness::reply(short_key)));
  ByteWriter no_owner;  // a Redirect missing its owner field
  no_owner.u8(static_cast<std::uint8_t>(BrokerMsg::Redirect));
  no_owner.u64(7);
  no_owner.u16(session_bucket(sid));
  EXPECT_TRUE(ch.receive(Harness::reply(no_owner)));

  EXPECT_EQ(hooks, 0);
  EXPECT_EQ(ch.size(), 1u);
  EXPECT_EQ(router.redirects_learned(), 0u) << "half a redirect taught the router";
  h.sim.run_for(kSchedule.first + Duration::ms(100));
  EXPECT_EQ(h.keys_at(0), (std::vector<std::uint64_t>{7, 7})) << "resends go on";

  EXPECT_TRUE(ch.receive(full_reply(BrokerMsg::ReportAck, 7)));
  EXPECT_EQ(hooks, 1);
  EXPECT_EQ(ch.size(), 0u);
}

TEST(BrokerChannel, OnAckReadsTheReplyRightAfterTheKey) {
  Harness h(1);
  BrokerChannel notifies = h.channel(kSchedule, BrokerMsg::ResumeNotify);
  std::vector<int> revokes;
  notifies.on_ack = [&](std::uint64_t key, const BrokerChannel::Acked& acked, ByteReader& rest) {
    EXPECT_EQ(key, 3u);
    EXPECT_EQ(acked.session_id, 42u);
    EXPECT_EQ(acked.reply, BrokerMsg::ResumeNotifyAck);
    revokes.push_back(rest.u8());
    EXPECT_EQ(rest.remaining(), 0u);
  };
  notifies.send(3, {}, 42);
  ByteWriter revoke;
  revoke.u8(static_cast<std::uint8_t>(BrokerMsg::ResumeNotifyAck));
  revoke.u64(3);
  revoke.u8(1);
  EXPECT_TRUE(notifies.receive(Harness::reply(revoke)));
  EXPECT_EQ(revokes, std::vector<int>{1});

  BrokerChannel auth = h.channel(kSchedule, BrokerMsg::AuthReq);
  std::vector<Bytes> fields;
  auth.on_ack = [&](std::uint64_t, const BrokerChannel::Acked& acked, ByteReader& rest) {
    EXPECT_EQ(acked.reply, BrokerMsg::AuthOk);
    fields.push_back(rest.bytes());
    fields.push_back(rest.bytes());
  };
  auth.send(5, {}, 0);
  EXPECT_TRUE(auth.receive(full_reply(BrokerMsg::AuthOk, 5)));
  EXPECT_EQ(fields, (std::vector<Bytes>{Bytes{1, 2}, Bytes{3}}));
}

TEST(BrokerChannel, FixedScheduleResendsEverySecondAndDrawsNoJitter) {
  Harness h(1);
  const Rng untouched = h.jitter;
  const RetrySchedule fixed{Duration::s(1), 4, Duration::s(1)};
  BrokerChannel ch = h.channel(fixed, BrokerMsg::AuthReq);
  std::vector<TimePoint> abandoned;
  ch.on_abandon = [&](std::uint64_t) { abandoned.push_back(h.sim.now()); };
  ch.send(1, {}, 0);
  h.sim.run();  // the broker never answers

  // Copy i left at i seconds: arrivals keep the send gaps.
  ASSERT_EQ(h.arrivals[0].size(), 4u);
  EXPECT_LT(h.arrivals[0][0].at, TimePoint::zero() + kLinkDelay + Duration::ms(1));
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(h.arrivals[0][i].at - h.arrivals[0][0].at,
              Duration::s(static_cast<std::int64_t>(i)))
        << "copy " << i;
  }
  EXPECT_EQ(abandoned, std::vector<TimePoint>{TimePoint::zero() + Duration::s(4)});
  Rng expected = untouched;
  EXPECT_EQ(h.jitter.next_u64(), expected.next_u64()) << "the fixed schedule drew jitter";
}

}  // namespace
}  // namespace cb::cellbricks
