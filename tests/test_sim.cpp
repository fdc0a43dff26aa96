// Unit tests for the discrete-event engine: ordering, cancellation,
// determinism, and bounded runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "test_seed.hpp"

namespace cb::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(Duration::ms(30), [&] { order.push_back(3); });
  sim.schedule(Duration::ms(10), [&] { order.push_back(1); });
  sim.schedule(Duration::ms(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().to_seconds(), 0.03);
}

TEST(Simulator, EqualTimesRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(Duration::ms(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) sim.schedule(Duration::ms(1), tick);
  };
  sim.schedule(Duration::ms(1), tick);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now().nanos(), Duration::ms(5).nanos());
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  EventHandle h = sim.schedule(Duration::ms(1), [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  EventHandle h = sim.schedule(Duration::ms(1), [] {});
  sim.run();
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule(Duration::ms(i * 10), [&] { ++count; });
  }
  sim.run_until(TimePoint::zero() + Duration::ms(35));
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.now().nanos(), Duration::ms(35).nanos());
  sim.run();
  EXPECT_EQ(count, 10);
}

TEST(Simulator, RunUntilAdvancesClockWhenQueueEmpty) {
  Simulator sim;
  sim.run_until(TimePoint::zero() + Duration::s(5));
  EXPECT_EQ(sim.now().to_seconds(), 5.0);
}

TEST(Simulator, RunUntilSkipsCancelledHeadWithoutOvershoot) {
  Simulator sim;
  bool late_ran = false;
  EventHandle head = sim.schedule(Duration::ms(1), [] {});
  sim.schedule(Duration::ms(100), [&] { late_ran = true; });
  head.cancel();
  sim.run_until(TimePoint::zero() + Duration::ms(50));
  EXPECT_FALSE(late_ran);  // the 100ms event must not leak past the deadline
}

TEST(Simulator, RunForIsRelative) {
  Simulator sim;
  sim.run_for(Duration::s(1));
  sim.run_for(Duration::s(1));
  EXPECT_EQ(sim.now().to_seconds(), 2.0);
}

TEST(Simulator, NegativeDelayThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(Duration::ms(-1), [] {}), std::invalid_argument);
}

TEST(Simulator, DeterministicRngAcrossRuns) {
  std::vector<std::uint64_t> a, b;
  {
    Simulator sim(42);
    for (int i = 0; i < 10; ++i) a.push_back(sim.rng().next_u64());
  }
  {
    Simulator sim(42);
    for (int i = 0; i < 10; ++i) b.push_back(sim.rng().next_u64());
  }
  EXPECT_EQ(a, b);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule(Duration::ms(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(Simulator, CancelReleasesClosureEagerly) {
  // Regression: a cancelled event's closure (and everything it captures)
  // must be destroyed at cancel() time, not when its timestamp pops.
  Simulator sim;
  auto captured = std::make_shared<int>(7);
  std::weak_ptr<int> watch = captured;
  EventHandle h = sim.schedule(Duration::s(3600), [captured] { (void)*captured; });
  captured.reset();
  EXPECT_FALSE(watch.expired());  // queue still owns the closure
  h.cancel();
  EXPECT_TRUE(watch.expired());  // cancel released it without running anything
  sim.run();
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulator, DestructionReleasesPendingClosures) {
  auto captured = std::make_shared<int>(1);
  std::weak_ptr<int> watch = captured;
  EventHandle h;
  {
    Simulator sim;
    h = sim.schedule(Duration::s(10), [captured] { (void)*captured; });
    captured.reset();
    EXPECT_TRUE(h.pending());
  }
  EXPECT_TRUE(watch.expired());   // simulator death freed the closure
  EXPECT_FALSE(h.pending());      // surviving handle is safely inert
  h.cancel();                     // and cancelling it is a no-op
}

TEST(Simulator, SlotReuseDoesNotConfuseStaleHandles) {
  // A handle to a fired event must stay non-pending even after its pool
  // slot is recycled by a later schedule (seq stamps, not flags).
  Simulator sim;
  int ran = 0;
  EventHandle first = sim.schedule(Duration::ms(1), [&] { ++ran; });
  sim.run();
  EXPECT_FALSE(first.pending());
  EventHandle second = sim.schedule(Duration::ms(1), [&] { ++ran; });
  EXPECT_FALSE(first.pending());  // stale handle, recycled slot
  first.cancel();                 // must not cancel the new event
  sim.run();
  EXPECT_EQ(ran, 2);
  EXPECT_TRUE(second.pending() == false);
}

TEST(Simulator, HeapEventDueNowRunsBeforeZeroDelayEvent) {
  // B was queued for 1 ms before the clock got there; C is scheduled at
  // 1 ms from inside A. (time, seq) order runs B first.
  Simulator sim;
  std::vector<char> order;
  sim.schedule(Duration::ms(1), [&] {
    order.push_back('A');
    sim.schedule(Duration::zero(), [&] { order.push_back('C'); });
  });
  sim.schedule(Duration::ms(1), [&] { order.push_back('B'); });
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'C'}));
}

TEST(Simulator, ZeroDelayEventsRunInFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  // Two generations of zero-delay events at one instant: every first-
  // generation event runs before any event they schedule.
  sim.schedule(Duration::ms(2), [&] {
    for (int i = 0; i < 4; ++i) {
      sim.schedule(Duration::zero(), [&, i] {
        order.push_back(i);
        sim.schedule(Duration::zero(), [&, i] { order.push_back(10 + i); });
      });
    }
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 10, 11, 12, 13}));
  EXPECT_EQ(sim.now().nanos(), Duration::ms(2).nanos());
  EXPECT_EQ(sim.events_executed(), 9u);
  EXPECT_EQ(sim.heap_pushes(), 1u);  // only the 2 ms event used the heap
}

TEST(Simulator, LongZeroDelayChainsStayInFifoOrder) {
  // Three interleaved chains at one instant, each event scheduling the
  // next id of its chain: the lane drops its consumed prefix many times on
  // the way (it compacts every few thousand entries), and the order must
  // stay 0, 1, 2, ... throughout.
  constexpr int kEvents = 20000;
  Simulator sim;
  std::vector<int> order;
  std::function<void(int)> fire = [&](int id) {
    order.push_back(id);
    if (id + 3 < kEvents) sim.schedule(Duration::zero(), [&fire, id] { fire(id + 3); });
  };
  for (int id = 0; id < 3; ++id) sim.schedule(Duration::zero(), [&fire, id] { fire(id); });
  sim.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) ASSERT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(sim.heap_pushes(), 0u);
}

TEST(Simulator, CancelledZeroDelayEventNeverRunsAndReleasesClosure) {
  Simulator sim;
  auto captured = std::make_shared<int>(3);
  std::weak_ptr<int> watch = captured;
  bool ran = false;
  EventHandle h = sim.schedule(Duration::zero(), [&ran, captured] { ran = *captured == 3; });
  captured.reset();
  EXPECT_TRUE(h.pending());
  EXPECT_FALSE(watch.expired());
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(watch.expired());
  bool later_ran = false;
  sim.schedule(Duration::zero(), [&] { later_ran = true; });
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(later_ran);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(Simulator, RunUntilDeadlineEqualToNow) {
  Simulator sim;
  sim.run_until(TimePoint::zero() + Duration::ms(5));
  std::vector<int> order;
  sim.schedule(Duration::zero(), [&] {
    order.push_back(1);
    sim.schedule(Duration::zero(), [&] { order.push_back(2); });
  });
  sim.schedule(Duration::ns(1), [&] { order.push_back(3); });
  sim.run_until(sim.now());  // runs what is due at now, zero-delay chains included
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now().nanos(), Duration::ms(5).nanos());
  sim.run_until(sim.now() - Duration::ns(1));  // a deadline behind the clock runs nothing
  sim.schedule(Duration::zero(), [&] { order.push_back(4); });
  sim.run_until(sim.now() - Duration::ns(1));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 3}));
}

// The order the engine promises, from scratch: a map keyed by (time,
// scheduling order), popped from the front.
class ReferenceEngine {
 public:
  using Key = std::pair<std::int64_t, std::uint64_t>;
  struct Handle {
    ReferenceEngine* eng = nullptr;
    Key key{};
    void cancel() {
      if (eng) eng->pending_.erase(key);
    }
  };

  TimePoint now() const { return now_; }
  Handle schedule(Duration delay, std::function<void()> fn) {
    const Key key{(now_ + delay).nanos(), next_order_++};
    pending_.emplace(key, std::move(fn));
    return Handle{this, key};
  }
  void run_until(TimePoint deadline) {
    while (!pending_.empty() && pending_.begin()->first.first <= deadline.nanos()) pop();
    if (now_ < deadline) now_ = deadline;
  }
  void run() {
    while (!pending_.empty()) pop();
  }

 private:
  void pop() {
    auto it = pending_.begin();
    now_ = TimePoint::from_nanos(it->first.first);
    std::function<void()> fn = std::move(it->second);
    pending_.erase(it);
    fn();
  }

  TimePoint now_;
  std::uint64_t next_order_ = 0;
  std::map<Key, std::function<void()>> pending_;
};

// One random event program: bursts scheduled from outside, events that
// schedule children (a third of them zero-delay, the rest on a 4-value
// grid, so timestamps collide constantly) and cancel recent handles (lane
// entries included), and run_until slices whose deadline is often now.
// Every choice is drawn from `rng` in execution order, so two engines that
// run events in the same order produce the same trace, and the first event
// they order differently makes the traces differ.
template <class Engine>
std::vector<std::pair<int, std::int64_t>> run_program(std::uint64_t seed) {
  constexpr int kBudget = 600;  // events scheduled per program
  Engine eng;
  Rng rng(seed);
  std::vector<std::pair<int, std::int64_t>> trace;
  std::vector<decltype(eng.schedule(Duration::zero(), std::function<void()>{}))> handles;
  int next_id = 0;
  std::function<void(int)> fire;
  auto add = [&] {
    if (next_id == kBudget) return;
    const int id = next_id++;
    const Duration delay = rng.chance(1.0 / 3.0)
                               ? Duration::zero()
                               : Duration::us(1 + static_cast<std::int64_t>(rng.next_below(4)));
    handles.push_back(eng.schedule(delay, std::function<void()>([&fire, id] { fire(id); })));
  };
  auto cancel_recent = [&] {
    if (handles.empty()) return;
    const std::size_t back = std::min<std::size_t>(handles.size(), 6);
    handles[handles.size() - 1 - rng.next_below(back)].cancel();
  };
  fire = [&](int id) {
    trace.emplace_back(id, eng.now().nanos());
    const auto children = rng.next_below(3);
    for (std::uint64_t k = 0; k < children; ++k) add();
    if (rng.chance(0.2)) cancel_recent();
  };
  while (next_id < kBudget) {
    const auto burst = 1 + rng.next_below(12);
    for (std::uint64_t k = 0; k < burst; ++k) add();
    if (rng.chance(0.3)) cancel_recent();
    eng.run_until(eng.now() + Duration::us(static_cast<std::int64_t>(rng.next_below(3))));
  }
  eng.run();
  trace.emplace_back(-1, eng.now().nanos());
  return trace;
}

TEST(Simulator, MatchesReferenceOrderUnderChurn) {
  // The lane, the 4-ary heap and the seq stamps together must run events in
  // exactly (time, scheduling order), skipping cancelled ones wherever they
  // sit, across run_until slices. 40 programs of 600 scheduled events each.
  constexpr int kPrograms = 40;
  const std::uint64_t base = cb::test::seed_or(1);
  SCOPED_TRACE(::testing::Message() << "replay with CB_TEST_SEED=" << base);
  std::size_t executed = 0;
  for (int p = 0; p < kPrograms; ++p) {
    const std::uint64_t seed = base * 1000 + static_cast<std::uint64_t>(p);
    SCOPED_TRACE("program seed=" + std::to_string(seed));
    const auto got = run_program<Simulator>(seed);
    const auto want = run_program<ReferenceEngine>(seed);
    ASSERT_EQ(got, want);
    executed += got.size() - 1;
  }
  // Cancels must leave most events running, or the comparison says little.
  EXPECT_GT(executed, static_cast<std::size_t>(kPrograms) * 400);
}

}  // namespace
}  // namespace cb::sim
