// Discrete-event simulation engine.
//
// A Simulator owns a virtual clock and an ordered queue of callbacks.
// Everything else in the repo — links, TCP timers, attach procedures, app
// workloads — schedules work through it. Events at equal timestamps run in
// scheduling order (a monotonic sequence number breaks ties), so runs are
// deterministic for a fixed seed.
//
// Storage layout: callables live in a slab-allocated pool of fixed-size
// slots (small-buffer optimized, see inplace_fn.hpp); the queue holds only
// 24-byte {time, seq, slot} entries. A slot stores the seq of its pending
// event, or kNoEvent when it has none: an entry (or a handle) is live while
// its seq matches the slot's. Seq values are never reused, so a stale
// handle can never match a recycled slot. Cancellation resets the stamp and
// destroys the callable eagerly — a cancelled closure releases everything
// it captured immediately, not when its timestamp would have popped; its
// entry is discarded when it reaches the front.
//
// The queue has two parts. Events due later than now go on a 4-ary implicit
// min-heap on (time, seq). Events scheduled AT now (zero-delay: the fluid
// engine's drains, same-instant hand-offs) go on a FIFO lane and never touch
// the heap. The order is still (time, seq): a heap entry due at now was
// scheduled before the clock reached now, so its seq is below every lane
// entry's, and step() runs heap entries due at now first, then the lane in
// FIFO (= seq) order, then the rest of the heap.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/inplace_fn.hpp"

namespace cb::sim {

class Simulator;

namespace detail {

/// Slab of event slots. Shared (via shared_ptr) between the simulator and
/// outstanding EventHandles so a handle can still answer pending()/cancel()
/// safely after the simulator is destroyed.
struct EventPool {
  /// The stamp of a slot with no pending event; no event is ever given it.
  static constexpr std::uint64_t kNoEvent = std::numeric_limits<std::uint64_t>::max();

  struct Slot {
    std::uint64_t seq = kNoEvent;  // seq of the pending event in this slot
    InplaceFn fn;
  };

  std::vector<Slot> slots;
  std::vector<std::uint32_t> free_list;

  std::uint32_t acquire(InplaceFn fn, std::uint64_t seq) {
    std::uint32_t idx;
    if (!free_list.empty()) {
      idx = free_list.back();
      free_list.pop_back();
    } else {
      idx = static_cast<std::uint32_t>(slots.size());
      slots.emplace_back();
    }
    slots[idx].seq = seq;
    slots[idx].fn = std::move(fn);
    return idx;
  }

  void release(std::uint32_t idx) {
    slots[idx].seq = kNoEvent;
    slots[idx].fn.reset();
    free_list.push_back(idx);
  }
};

}  // namespace detail

/// Cancellation handle for a scheduled event. Cheap to copy; cancelling an
/// already-fired event is a no-op.
class EventHandle {
 public:
  EventHandle() = default;
  /// Prevent the event from firing (if it has not already). The event's
  /// closure is destroyed immediately.
  void cancel();
  /// True if the event is still pending.
  bool pending() const;

 private:
  friend class Simulator;
  EventHandle(std::shared_ptr<detail::EventPool> pool, std::uint32_t slot, std::uint64_t seq)
      : pool_(std::move(pool)), slot_(slot), seq_(seq) {}

  std::shared_ptr<detail::EventPool> pool_;
  std::uint32_t slot_ = 0;
  std::uint64_t seq_ = 0;
};

/// Engine-health observation point for the invariant checker (src/check).
/// A Simulator carries an optional probe pointer; when none is installed the
/// per-event cost is one predictable null-check branch (the same contract as
/// the obs layer's handles).
/// The probe only *counts* — it never mutates engine state — so installing
/// one cannot perturb event order or the chaos golden fingerprints.
struct EngineProbe {
  /// Events executed while the probe was installed.
  std::uint64_t executed = 0;
  /// Events that popped with a timestamp below the clock at pop time (the
  /// heap or the scheduling guard is broken if this ever moves).
  std::uint64_t past_events = 0;
  /// Pops whose timestamp was below the previous pop's (heap monotonicity).
  std::uint64_t order_regressions = 0;
  TimePoint last_pop;
};

/// The event engine. Not thread-safe; a whole experiment runs on one engine.
/// Independent engines on different threads are fine (the logger's time
/// source is thread-local), which is what the parallel trial-runner uses.
class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  TimePoint now() const { return now_; }

  /// The engine's root RNG; components should `fork()` children from it.
  Rng& rng() { return rng_; }

  /// Run `fn` after `delay`. Returns a handle that can cancel it.
  template <typename F>
  EventHandle schedule(Duration delay, F&& fn) {
    if (delay < Duration::zero()) throw std::invalid_argument("schedule: negative delay");
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Run `fn` at absolute time `at` (>= now).
  template <typename F>
  EventHandle schedule_at(TimePoint at, F&& fn) {
    if (at < now_) throw std::invalid_argument("schedule_at: time in the past");
    const std::uint64_t seq = next_seq_++;
    const std::uint32_t slot = pool_->acquire(InplaceFn(std::forward<F>(fn)), seq);
    if (at == now_) {
      lane_.push_back(Entry{at, seq, slot});
    } else {
      heap_push(Entry{at, seq, slot});
    }
    return EventHandle{pool_, slot, seq};
  }

  /// Process events until the queue is empty.
  void run();
  /// Process events with timestamps <= deadline; the clock ends at
  /// `deadline` even if the queue drains early.
  void run_until(TimePoint deadline);
  /// Convenience: run_until(now + d).
  void run_for(Duration d);

  /// Number of events executed so far (for tests/debug).
  std::uint64_t events_executed() const { return executed_; }
  /// Entries pushed onto the heap so far; zero-delay events take the lane
  /// and are not counted. The engine's unit of queue work: deterministic,
  /// and kept out of fingerprints and metrics snapshots.
  std::uint64_t heap_pushes() const { return heap_pushes_; }

  /// Install (or remove, with nullptr) the engine-health probe. The caller
  /// keeps ownership; the probe must outlive the simulator or be removed
  /// first.
  void set_probe(EngineProbe* probe) {
    probe_ = probe;
    if (probe_) probe_->last_pop = now_;
  }

 private:
  struct Entry {
    TimePoint at;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  // (at, seq) order, spelled as one select on whether the times differ.
  // GCC turns `a.at < b.at || (a.at == b.at && ...)` into a branch on the
  // time comparison, which a sift mispredicts about half the time: about
  // 45 ns more per event on a 440-entry heap (GCC -O3, x86-64 VM).
  static bool earlier(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }
  bool live(const Entry& e) const { return pool_->slots[e.slot].seq == e.seq; }
  void heap_push(const Entry& e);
  void heap_pop();

  // Execute one event (skipping cancelled ones); false if nothing ran.
  // With a deadline, events after it stay queued and false is returned.
  bool step(const TimePoint* deadline);

  TimePoint now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t heap_pushes_ = 0;
  /// 4-ary min-heap on (at, seq) of the events due after the time they
  /// were scheduled at.
  static constexpr std::size_t kHeapReserve = 1024;
  std::vector<Entry> heap_;
  /// Events scheduled at now, in seq order; lane_[lane_head_] is next.
  /// The consumed prefix is dropped when the lane empties, or once it is
  /// kLaneCompactAt entries long and at least half the vector.
  static constexpr std::size_t kLaneCompactAt = 4096;
  std::vector<Entry> lane_;
  std::size_t lane_head_ = 0;
  std::shared_ptr<detail::EventPool> pool_;
  Rng rng_;
  EngineProbe* probe_ = nullptr;
};

}  // namespace cb::sim
