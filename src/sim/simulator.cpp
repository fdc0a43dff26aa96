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
  // Room for kHeapReserve entries up front, so a small simulation never
  // regrows its heap. The regrowth trail is what glibc's heap layout is
  // sensitive to: without this, 24-byte entries moved mobile_e2e's peak RSS
  // between 12.8 and 14.6 MB by seed (and by nothing else: with a fixed
  // mmap threshold both seeds read 10.6 MB either way).
  heap_.reserve(kHeapReserve);
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
    slot.seq = detail::EventPool::kNoEvent;
    slot.fn.reset();
  }
}

void EventHandle::cancel() {
  if (pending()) pool_->release(slot_);  // destroys the closure eagerly
}

bool EventHandle::pending() const { return pool_ && pool_->slots[slot_].seq == seq_; }

void Simulator::heap_push(const Entry& e) {
  ++heap_pushes_;
  std::size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Simulator::heap_pop() {
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Sift the former last entry down from the root, one level per step
  // towards the earliest of up to four children.
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

bool Simulator::step(const TimePoint* deadline) {
  // Cancelled entries are discarded at the front: their closures were
  // already released.
  while (!heap_.empty() && !live(heap_.front())) heap_pop();
  while (lane_head_ < lane_.size() && !live(lane_[lane_head_])) ++lane_head_;
  const bool lane_empty = lane_head_ == lane_.size();
  if (lane_empty) {
    lane_.clear();
    lane_head_ = 0;
    if (heap_.empty()) return false;
  } else if (lane_head_ >= kLaneCompactAt && 2 * lane_head_ >= lane_.size()) {
    // A long zero-delay chain at one instant: drop the consumed prefix so
    // the lane stays bounded by its live entries.
    lane_.erase(lane_.begin(), lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
    lane_head_ = 0;
  }
  // Heap entries due at now precede the lane (smaller seq, see header).
  const bool from_heap = !heap_.empty() && (lane_empty || heap_.front().at == now_);
  const Entry ev = from_heap ? heap_.front() : lane_[lane_head_];
  if (deadline && ev.at > *deadline) return false;
  if (from_heap) {
    heap_pop();
  } else {
    ++lane_head_;
  }
  if (probe_) {
    ++probe_->executed;
    if (ev.at < now_) ++probe_->past_events;
    if (ev.at < probe_->last_pop) ++probe_->order_regressions;
    probe_->last_pop = ev.at;
  }
  now_ = ev.at;
  // Mark fired before running so handles report non-pending (even inside fn).
  InplaceFn fn = std::move(pool_->slots[ev.slot].fn);
  pool_->release(ev.slot);
  ++executed_;
  fn();
  return true;
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
