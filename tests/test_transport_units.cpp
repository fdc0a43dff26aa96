// Transport-layer unit tests below the socket level: ByteQueue, segment
// wire format (including SACK blocks), malformed-input robustness, and
// configuration knobs.
#include <gtest/gtest.h>

#include <deque>

#include "net/network.hpp"
#include "sim/service_queue.hpp"
#include "transport/byte_queue.hpp"
#include "transport/tcp.hpp"
#include "test_seed.hpp"

namespace cb::transport {
namespace {

// --- ByteQueue -------------------------------------------------------------

// The queue hands out views; a test that keeps bytes copies them out.
Bytes owned(BytesView v) { return Bytes(v.begin(), v.end()); }

TEST(ByteQueue, AppendViewPop) {
  ByteQueue q;
  EXPECT_TRUE(q.empty());
  q.append(to_bytes("hello "));
  q.append(to_bytes("world"));
  EXPECT_EQ(q.size(), 11u);
  EXPECT_EQ(owned(q.view(0, 5)), to_bytes("hello"));
  EXPECT_EQ(owned(q.view(6, 5)), to_bytes("world"));
  q.pop(6);
  EXPECT_EQ(owned(q.view(0, 5)), to_bytes("world"));
  q.pop(100);  // clamped
  EXPECT_TRUE(q.empty());
}

TEST(ByteQueue, ViewBeyondEndClamps) {
  ByteQueue q;
  q.append(to_bytes("abc"));
  EXPECT_EQ(owned(q.view(1, 100)), to_bytes("bc"));
  EXPECT_TRUE(q.view(3, 10).empty());
  EXPECT_TRUE(q.view(99, 1).empty());
}

TEST(ByteQueue, LargeChurn) {
  ByteQueue q;
  Rng rng(4);
  std::uint64_t pushed = 0, popped = 0;
  for (int i = 0; i < 500; ++i) {
    const Bytes chunk = rng.random_bytes(1 + rng.next_below(4000));
    q.append(chunk);
    pushed += chunk.size();
    const std::size_t take = rng.next_below(q.size() + 1);
    q.pop(take);
    popped += take;
    EXPECT_EQ(q.size(), pushed - popped);
  }
}

TEST(ByteQueue, ClearFreesStorage) {
  ByteQueue q;
  q.append(Bytes(5000, 7));
  q.pop(10);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), 0u);
}

// Property: random append/pop/view sequences agree with a std::deque oracle.
// Every view equals the oracle's bytes, a view taken before a pop still
// reads the popped bytes (pop moves nothing), and storage stays within 2x
// the peak live bytes plus one append. Under ASan a view read after the
// queue moved its bytes is a heap use-after-free.
TEST(ByteQueue, MatchesDequeOracle) {
  const std::uint64_t seed = test::seed_or(1);
  SCOPED_TRACE(::testing::Message() << "replay with CB_TEST_SEED=" << seed);
  Rng rng(seed);
  ByteQueue q;
  std::deque<std::uint8_t> oracle;
  auto oracle_bytes = [&](std::size_t offset, std::size_t len) {
    offset = std::min(offset, oracle.size());
    len = std::min(len, oracle.size() - offset);
    const auto first = oracle.begin() + static_cast<std::ptrdiff_t>(offset);
    return Bytes(first, first + static_cast<std::ptrdiff_t>(len));
  };
  std::size_t peak_live = 0, largest_append = 0;
  for (int step = 0; step < 5000; ++step) {
    switch (rng.next_below(4)) {
      case 0:
      case 1: {
        const Bytes chunk = rng.random_bytes(rng.next_below(3000));
        q.append(chunk);
        oracle.insert(oracle.end(), chunk.begin(), chunk.end());
        peak_live = std::max(peak_live, oracle.size());
        largest_append = std::max(largest_append, chunk.size());
        break;
      }
      case 2: {
        // Sometimes drain everything (and past the end: pop clamps).
        const std::size_t n = rng.next_below(4) == 0 ? oracle.size() + 1
                                                     : rng.next_below(oracle.size() + 1);
        const BytesView front = q.view(0, n);
        const Bytes expected = oracle_bytes(0, n);
        q.pop(n);
        oracle.erase(oracle.begin(),
                     oracle.begin() + static_cast<std::ptrdiff_t>(expected.size()));
        ASSERT_EQ(owned(front), expected) << "step " << step;
        break;
      }
      default: {
        const std::size_t offset = rng.next_below(oracle.size() + 2);
        const std::size_t len = rng.next_below(2000);
        ASSERT_EQ(owned(q.view(offset, len)), oracle_bytes(offset, len)) << "step " << step;
        break;
      }
    }
    ASSERT_EQ(q.size(), oracle.size());
    ASSERT_LE(q.capacity(), 2 * peak_live + largest_append) << "step " << step;
  }
}

// --- Segment wire format ------------------------------------------------------

TEST(TcpWire, SackBlocksRoundTrip) {
  TcpHeader h;
  h.seq = 1000;
  h.ack = 2000;
  h.ack_flag = true;
  h.window = 65535;
  h.sack = {{3000, 4400}, {5800, 7200}, {9000, 9001}};
  const Bytes wire = serialize_segment(h, to_bytes("payload"));

  TcpHeader out;
  BytesView payload;
  ASSERT_TRUE(parse_segment(wire, out, payload));
  ASSERT_EQ(out.sack.size(), 3u);
  EXPECT_EQ(out.sack[0], (std::pair<std::uint32_t, std::uint32_t>{3000, 4400}));
  EXPECT_EQ(out.sack[2], (std::pair<std::uint32_t, std::uint32_t>{9000, 9001}));
  EXPECT_EQ(owned(payload), to_bytes("payload"));
  EXPECT_EQ(payload.data() + payload.size(), wire.data() + wire.size());  // a view
}

TEST(TcpWire, EmptySackAndPayload) {
  TcpHeader h;
  h.seq = 7;
  const Bytes wire = serialize_segment(h, {});
  TcpHeader out;
  BytesView payload;
  ASSERT_TRUE(parse_segment(wire, out, payload));
  EXPECT_TRUE(out.sack.empty());
  EXPECT_TRUE(payload.empty());
  EXPECT_EQ(out.seq, 7u);
}

class TcpWireTruncation : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TcpWireTruncation, TruncatedHeadersRejected) {
  TcpHeader h;
  h.sack = {{1, 2}, {3, 4}};
  const Bytes wire = serialize_segment(h, to_bytes("xy"));
  const std::size_t keep = GetParam();
  if (keep >= wire.size()) GTEST_SKIP();
  TcpHeader out;
  BytesView payload;
  // Either cleanly rejected or parsed as a shorter-but-valid frame; it must
  // never crash or throw.
  (void)parse_segment(BytesView(wire.data(), keep), out, payload);
}

INSTANTIATE_TEST_SUITE_P(Cuts, TcpWireTruncation,
                         ::testing::Values(0, 1, 5, 13, 14, 15, 16, 22, 30));

TEST(TcpWire, RandomBytesNeverCrashParser) {
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    const Bytes junk = rng.random_bytes(rng.next_below(80));
    TcpHeader h;
    BytesView payload;
    (void)parse_segment(junk, h, payload);
  }
}

// --- Config knobs ---------------------------------------------------------------

struct MssWorld {
  explicit MssWorld(std::size_t mss) : sim(1), net(sim) {
    TcpConfig cfg;
    cfg.mss = mss;
    a = net.add_node("a");
    b = net.add_node("b");
    net.register_address(net::Ipv4Addr(10, 0, 0, 1), a);
    net.register_address(net::Ipv4Addr(10, 0, 0, 2), b);
    net.connect(a, b, net::LinkParams{.rate_bps = 10e6, .delay = Duration::ms(5)});
    net.recompute_routes();
    stack_a = std::make_unique<TcpStack>(*a, cfg);
    stack_b = std::make_unique<TcpStack>(*b, cfg);
  }
  sim::Simulator sim;
  net::Network net;
  net::Node *a, *b;
  std::unique_ptr<TcpStack> stack_a, stack_b;
};

class TcpMssSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TcpMssSweep, TransfersWithAnyMss) {
  MssWorld w(GetParam());
  Bytes received;
  std::shared_ptr<TcpSocket> srv;
  w.stack_b->listen(80, [&](std::shared_ptr<TcpSocket> s) {
    srv = std::move(s);
    srv->on_data = [&](BytesView d) { received.insert(received.end(), d.begin(), d.end()); };
  });
  auto c = w.stack_a->connect({net::Ipv4Addr(10, 0, 0, 2), 80});
  Bytes payload(50'000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31);
  }
  std::size_t sent = 0;
  auto pump = [&] {
    while (sent < payload.size()) {
      const std::size_t n =
          c->send(BytesView(payload.data() + sent, payload.size() - sent));
      if (n == 0) return;
      sent += n;
    }
  };
  c->on_connected = pump;
  c->on_send_space = pump;
  w.sim.run_for(Duration::s(20));
  EXPECT_EQ(received, payload);
}

INSTANTIATE_TEST_SUITE_P(MssValues, TcpMssSweep, ::testing::Values(128, 536, 1400, 9000));

// --- ServiceQueue ----------------------------------------------------------------

TEST(ServiceQueue, SerializesWork) {
  sim::Simulator sim;
  sim::ServiceQueue q(sim);
  std::vector<double> done_at;
  for (int i = 0; i < 3; ++i) {
    q.submit(Duration::ms(10), [&] { done_at.push_back(sim.now().to_seconds()); });
  }
  sim.run();
  ASSERT_EQ(done_at.size(), 3u);
  EXPECT_NEAR(done_at[0], 0.010, 1e-9);
  EXPECT_NEAR(done_at[1], 0.020, 1e-9);  // queued behind the first
  EXPECT_NEAR(done_at[2], 0.030, 1e-9);
  EXPECT_EQ(q.busy_time().to_millis(), 30.0);
  EXPECT_EQ(q.jobs(), 3u);
}

TEST(ServiceQueue, IdleGapsDoNotAccumulate) {
  sim::Simulator sim;
  sim::ServiceQueue q(sim);
  double second_done = 0;
  q.submit(Duration::ms(5), [] {});
  sim.run_for(Duration::s(1));  // long idle gap
  q.submit(Duration::ms(5), [&] { second_done = sim.now().to_seconds(); });
  sim.run();
  EXPECT_NEAR(second_done, 1.005, 1e-9);  // served immediately after the gap
  EXPECT_EQ(q.busy_time().to_millis(), 10.0);
}

TEST(ServiceQueue, BacklogReflectsQueueing) {
  sim::Simulator sim;
  sim::ServiceQueue q(sim);
  EXPECT_EQ(q.backlog().nanos(), 0);
  q.submit(Duration::ms(50), [] {});
  q.submit(Duration::ms(50), [] {});
  EXPECT_EQ(q.backlog().to_millis(), 100.0);
}

}  // namespace
}  // namespace cb::transport
