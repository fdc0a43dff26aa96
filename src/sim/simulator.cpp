#include "sim/simulator.hpp"

#include "common/log.hpp"

namespace cb::sim {

namespace {
// The most recently constructed simulator on THIS thread feeds the logger's
// time prefix. thread_local so independent engines can run concurrently on
// worker threads (parallel sweep runner) without touching each other.
thread_local Simulator* g_active = nullptr;
TimePoint log_now() { return g_active ? g_active->now() : TimePoint::zero(); }
}  // namespace

Simulator::Simulator(std::uint64_t seed)
    : pool_(std::make_shared<detail::EventPool>()), rng_(seed) {
  g_active = this;
  log_detail::set_time_source(&log_now);
}

Simulator::~Simulator() {
  if (g_active == this) {
    g_active = nullptr;
    log_detail::set_time_source(nullptr);
  }
  // Destroy all outstanding closures and invalidate handles: a closure must
  // not outlive the simulator (it may capture shared_ptrs keeping whole
  // node graphs alive), and a handle surviving past this point must report
  // non-pending rather than touch freed state.
  for (auto& slot : pool_->slots) {
    ++slot.gen;
    slot.fn.reset();
  }
}

void EventHandle::cancel() {
  if (!pool_) return;
  auto& slot = pool_->slots[slot_];
  if (slot.gen != gen_) return;  // already fired or cancelled
  ++slot.gen;
  pool_->release(slot_);  // destroys the closure eagerly
}

bool EventHandle::pending() const { return pool_ && pool_->slots[slot_].gen == gen_; }

bool Simulator::step(const TimePoint* deadline) {
  while (!queue_.empty()) {
    const Event& top = queue_.top();
    if (pool_->slots[top.slot].gen != top.gen) {
      queue_.pop();  // cancelled: the closure was already released
      continue;
    }
    if (deadline && top.at > *deadline) return false;
    const Event ev = top;
    queue_.pop();
    if (probe_) {
      ++probe_->executed;
      if (ev.at < now_) ++probe_->past_events;
      if (ev.at < probe_->last_pop) ++probe_->order_regressions;
      probe_->last_pop = ev.at;
    }
    now_ = ev.at;
    auto& slot = pool_->slots[ev.slot];
    InplaceFn fn = std::move(slot.fn);
    ++slot.gen;  // mark fired so handles report non-pending (even inside fn)
    pool_->release(ev.slot);
    ++executed_;
    fn();
    return true;
  }
  return false;
}

void Simulator::run() {
  while (step(nullptr)) {
  }
}

void Simulator::run_until(TimePoint deadline) {
  while (step(&deadline)) {
  }
  if (now_ < deadline) now_ = deadline;
}

void Simulator::run_for(Duration d) { run_until(now_ + d); }

}  // namespace cb::sim
