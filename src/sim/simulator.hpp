// Discrete-event simulation engine.
//
// A Simulator owns a virtual clock and an ordered queue of callbacks.
// Everything else in the repo — links, TCP timers, attach procedures, app
// workloads — schedules work through it. Events at equal timestamps run in
// scheduling order (a monotonic sequence number breaks ties), so runs are
// deterministic for a fixed seed.
//
// Storage layout: callables live in a slab-allocated pool of fixed-size
// slots (small-buffer optimized, see inplace_fn.hpp) and the priority queue
// holds only {time, seq, slot, generation} records. Cancellation bumps the
// slot's generation counter and destroys the callable eagerly — a cancelled
// closure releases everything it captured immediately, not when its
// timestamp would have popped.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
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
  struct Slot {
    std::uint64_t gen = 0;  // bumped on fire/cancel; handles compare against it
    InplaceFn fn;
  };

  std::vector<Slot> slots;
  std::vector<std::uint32_t> free_list;

  std::uint32_t acquire(InplaceFn fn) {
    std::uint32_t idx;
    if (!free_list.empty()) {
      idx = free_list.back();
      free_list.pop_back();
    } else {
      idx = static_cast<std::uint32_t>(slots.size());
      slots.emplace_back();
    }
    slots[idx].fn = std::move(fn);
    return idx;
  }

  void release(std::uint32_t idx) {
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
  EventHandle(std::shared_ptr<detail::EventPool> pool, std::uint32_t slot, std::uint64_t gen)
      : pool_(std::move(pool)), slot_(slot), gen_(gen) {}

  std::shared_ptr<detail::EventPool> pool_;
  std::uint32_t slot_ = 0;
  std::uint64_t gen_ = 0;
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
    const std::uint32_t slot = pool_->acquire(InplaceFn(std::forward<F>(fn)));
    const std::uint64_t gen = pool_->slots[slot].gen;
    queue_.push(Event{at, next_seq_++, slot, gen});
    return EventHandle{pool_, slot, gen};
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

  /// Install (or remove, with nullptr) the engine-health probe. The caller
  /// keeps ownership; the probe must outlive the simulator or be removed
  /// first.
  void set_probe(EngineProbe* probe) {
    probe_ = probe;
    if (probe_) probe_->last_pop = now_;
  }

 private:
  struct Event {
    TimePoint at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint64_t gen;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  // Execute one event (skipping cancelled ones); false if nothing ran.
  // With a deadline, events after it stay queued and false is returned.
  bool step(const TimePoint* deadline);

  TimePoint now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::shared_ptr<detail::EventPool> pool_;
  Rng rng_;
  EngineProbe* probe_ = nullptr;
};

}  // namespace cb::sim
