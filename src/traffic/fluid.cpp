#include "traffic/fluid.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace cb::traffic {

namespace {

/// A flow whose residual is within this of zero is complete; the remainder
/// is banked as its final segment at the completion instant.
constexpr double kCompleteEpsBytes = 0.5;
/// Completion events are scheduled this far past the analytic completion
/// instant so integer-nanosecond truncation can never fire them early.
constexpr Duration kEventGuard = Duration::us(1);

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

std::uint32_t FluidEngine::add_cell(double capacity_bps) {
  Cell c;
  c.capacity_bps = capacity_bps;
  c.clock_at = sim_.now();
  cells_.push_back(std::move(c));
  return static_cast<std::uint32_t>(cells_.size() - 1);
}

void FluidEngine::set_cell_capacity(std::uint32_t cell, double capacity_bps) {
  // No banking: the drain's fill advances the clock at the OLD level up to
  // now before it computes the new one, so the change is not retroactive.
  cells_[cell].capacity_bps = capacity_bps;
  mark_dirty(cell);
}

void FluidEngine::start_flow(SessionId id, double bytes) {
  assert(arena_.mode(id) == FlowMode::Idle);
  arena_.mode(id) = FlowMode::Fluid;
  arena_.demand_bytes(id) = bytes;
  arena_.delivered_bytes(id) = 0.0;
  arena_.rate_bps(id) = 0.0;
  arena_.start_ns(id) = sim_.now().nanos();
  Cell& c = cells_[arena_.cell(id)];
  advance(c);  // the newcomer's tag is relative to the clock at now
  insert_member(c, id);
  ++active_fluid_;
  mark_dirty(arena_.cell(id));
}

void FluidEngine::handover(SessionId id, std::uint32_t new_cell) {
  const std::uint32_t old_cell = arena_.cell(id);
  if (old_cell == new_cell) return;
  // The flow earns its final window in the old cell at the old rate, then
  // takes a tag on the new cell's clock.
  Cell& from = cells_[old_cell];
  Cell& to = cells_[new_cell];
  advance(from);
  advance(to);
  if (arena_.mode(id) == FlowMode::Fluid) bank(from, id);
  remove_member(from, id);
  arena_.cell(id) = new_cell;
  insert_member(to, id);
  mark_dirty(old_cell);
  mark_dirty(new_cell);
}

void FluidEngine::set_flow_cap(SessionId id, double cap_bps) {
  const FlowMode mode = arena_.mode(id);
  if (mode != FlowMode::Fluid && mode != FlowMode::Packet) {
    arena_.cap_bps(id) = cap_bps;  // not a cell member — no order to maintain
    return;
  }
  // Reposition in the fill order: out at the old key, in at the new one
  // (O(log n) search + one memmove). A fluid flow banks at its old rate
  // first and is re-tagged at its new class on the way back in.
  Cell& c = cells_[arena_.cell(id)];
  advance(c);
  if (mode == FlowMode::Fluid) bank(c, id);
  remove_member(c, id);
  arena_.cap_bps(id) = cap_bps;
  insert_member(c, id);
  mark_dirty(arena_.cell(id));
}

double FluidEngine::demote(SessionId id) {
  assert(arena_.mode(id) == FlowMode::Fluid);
  // Bank progress up to this instant, then hand the residual to the lane.
  // The flow keeps its place in the order (and its share); only its tag and
  // heap entry go.
  Cell& c = cells_[arena_.cell(id)];
  advance(c);
  bank(c, id);
  delist(c, id);
  arena_.mode(id) = FlowMode::Packet;
  arena_.rate_bps(id) = 0.0;  // the fill below publishes the ghost share
  enlist(c, id);
  --active_fluid_;
  ++demotions_;
  // Immediate fill (not deferred to the drain): the caller sizes the packet
  // lane from the ghost share the moment we return.
  fill_cell(arena_.cell(id));
  return arena_.residual_bytes(id);
}

void FluidEngine::promote(SessionId id) {
  assert(arena_.mode(id) == FlowMode::Packet);
  // The tag is re-derived from the arena ledger, which already holds every
  // byte the lane delivered: the packet window earns no fluid bytes.
  Cell& c = cells_[arena_.cell(id)];
  advance(c);
  delist(c, id);
  arena_.mode(id) = FlowMode::Fluid;
  arena_.rate_bps(id) = 0.0;  // the column holds only ghost shares
  enlist(c, id);
  ++active_fluid_;
  ++promotions_;
  fill_cell(arena_.cell(id));
}

void FluidEngine::finish_packet_flow(SessionId id) {
  assert(arena_.mode(id) == FlowMode::Packet);
  Cell& c = cells_[arena_.cell(id)];
  remove_member(c, id);
  arena_.mode(id) = FlowMode::Done;
  arena_.rate_bps(id) = 0.0;
  arena_.finish_ns(id) = sim_.now().nanos();
  mark_dirty(arena_.cell(id));
}

double FluidEngine::rate_bps(SessionId id) const {
  const FlowMode mode = arena_.mode(id);
  if (mode != FlowMode::Fluid && mode != FlowMode::Packet) return 0.0;
  if (at_cap(id)) return arena_.cap_bps(id);
  return cells_[arena_.cell(id)].level;
}

void FluidEngine::accrue_all() {
  for (Cell& c : cells_) {
    advance(c);
    for (SessionId id : c.open) bank(c, id);
    for (SessionId id : c.at_cap) bank(c, id);
  }
}

void FluidEngine::flush() {
  if (drain_scheduled_) {
    drain_event_.cancel();
    drain_scheduled_ = false;
  }
  drain();
}

// --- virtual clock and banking ----------------------------------------------

void FluidEngine::advance(Cell& c) {
  const TimePoint now = sim_.now();
  if (c.open.empty()) {
    c.vclock = 0.0;  // no tag is on this clock: rebase, keeping it small
  } else {
    c.vclock += c.level * (now - c.clock_at).to_seconds();
  }
  c.clock_at = now;
}

double FluidEngine::owed_bytes(const Cell& c, SessionId id) const {
  return at_cap(id) ? arena_.cap_bps(id) * (tag_[id] - sim_.now().to_seconds()) / 8.0
                    : (tag_[id] - c.vclock) / 8.0;
}

void FluidEngine::bank(const Cell& c, SessionId id) {
  ++member_ops_;
  // Everything the tag no longer owes was served since the last bank.
  const double residual = arena_.residual_bytes(id);
  const double offered = residual - owed_bytes(c, id);
  if (!(offered > 0.0)) return;
  if (residual < 0.0) ++negative_residuals_;
  const double add = std::min(offered, std::max(residual, 0.0));
  arena_.delivered_bytes(id) += add;
  segment_bytes_ += add;
}

void FluidEngine::retag(const Cell& c, SessionId id) {
  const double bits = arena_.residual_bytes(id) * 8.0;
  tag_[id] = at_cap(id) ? sim_.now().to_seconds() + bits / arena_.cap_bps(id) : c.vclock + bits;
}

// --- water-filling ----------------------------------------------------------

double FluidEngine::order_key(SessionId id) const {
  const double cap = arena_.cap_bps(id);
  return cap > 0.0 ? cap : kInf;
}

void FluidEngine::flip(Cell& c, SessionId id) {
  ++member_ops_;
  const bool fluid = arena_.mode(id) == FlowMode::Fluid;
  const bool to_cap = !at_cap(id);
  if (fluid) {
    bank(c, id);
    delist(c, id);
  }
  const double cap = arena_.cap_bps(id);
  if (to_cap) {
    ++c.capped;
    c.capped_bps += cap;
    slot_[id] |= kAtCapBit;
  } else {
    --c.capped;
    c.capped_bps = c.capped == 0 ? 0.0 : c.capped_bps - cap;
    slot_[id] &= ~kAtCapBit;
  }
  if (fluid) enlist(c, id);
}

void FluidEngine::fill_cell(std::uint32_t cell_id) {
  Cell& c = cells_[cell_id];
  c.dirty = false;  // a later drain_queue_ entry for this cell is skipped
  ++rate_events_;
  advance(c);  // the elapsed window is served at the old level

  // Max-min fairness with per-flow caps: member order[k] is capped iff its
  // key is below the level of the prefix before it, (C − Σcap[0,k)) / (n − k).
  // That predicate holds for a prefix of the order and fails for the rest,
  // so the boundary only has to move past the keys the new level crossed —
  // in one direction.
  const std::size_t n = c.order.size();
  const auto uncapped = [&] { return static_cast<double>(n - c.capped); };
  bool raised = false;
  while (c.capped < n) {
    const SessionId id = c.order[c.capped];
    if (!(key_[id] < (c.capacity_bps - c.capped_bps) / uncapped())) break;
    flip(c, id);
    raised = true;
  }
  while (!raised && c.capped > 0) {
    const SessionId id = c.order[c.capped - 1];
    const double level =
        (c.capacity_bps - c.capped_bps + arena_.cap_bps(id)) / (uncapped() + 1.0);
    if (key_[id] < level) break;
    flip(c, id);
  }
  c.level = c.capped < n ? std::max((c.capacity_bps - c.capped_bps) / uncapped(), 0.0) : 0.0;

  // The next rate-change point this cell generates on its own: the earlier
  // of the two heap heads' finishes at the new rates.
  double min_dt_s = kInf;
  if (!c.at_cap.empty()) {
    min_dt_s = std::max(tag_[c.at_cap.front()] - sim_.now().to_seconds(), 0.0);
  }
  if (!c.open.empty() && c.level > 0.0) {
    min_dt_s = std::min(min_dt_s, std::max((tag_[c.open.front()] - c.vclock) / c.level, 0.0));
  }
  c.next_completion.cancel();
  if (min_dt_s != kInf) {
    c.next_completion = sim_.schedule(Duration::seconds(min_dt_s) + kEventGuard,
                                      [this, cell_id] { fire(cell_id); });
  }

  // Ghosts: store each moved share for the packet lane, then publish it. A
  // handler may re-enter and change or refill this cell, hence the local
  // list, and the share and mode read again at each publication.
  std::vector<SessionId> moved;
  for (SessionId id : c.ghosts) {
    const double rate = rate_bps(id);
    if (rate != arena_.rate_bps(id)) {
      arena_.rate_bps(id) = rate;
      moved.push_back(id);
    }
  }
  if (!on_rate_share) return;
  for (SessionId id : moved) {
    if (arena_.mode(id) == FlowMode::Packet) on_rate_share(id, arena_.rate_bps(id));
  }
}

// --- dirty-cell epochs ------------------------------------------------------

void FluidEngine::mark_dirty(std::uint32_t cell_id) {
  Cell& c = cells_[cell_id];
  if (!c.dirty) {
    c.dirty = true;
    drain_queue_.push_back(cell_id);
  }
  if (!drain_scheduled_) {
    drain_scheduled_ = true;
    // Zero-delay: runs at THIS timestamp, after every already-queued event
    // at it — so a burst of same-instant churn (an epoch of shaper
    // resamples, a fault demoting a whole cell) coalesces into one fill
    // per dirty cell. No sim time passes before the fill, so deferral
    // never misattributes a single byte.
    drain_event_ = sim_.schedule(Duration::zero(), [this] { drain(); });
  }
}

void FluidEngine::drain() {
  drain_scheduled_ = false;
  // This epoch's queued cells in ascending cell-id order — the fill order,
  // and therefore the event-scheduling and callback order, is independent
  // of the order mutations happened to queue them. A cell queued twice
  // (filled inline by demote/promote, then dirtied again) is taken once.
  drain_cells_.swap(drain_queue_);
  drain_queue_.clear();
  std::sort(drain_cells_.begin(), drain_cells_.end());
  drain_cells_.erase(std::unique(drain_cells_.begin(), drain_cells_.end()), drain_cells_.end());

  // A callback fired by one cell's fill may fill a later cell inline
  // (demote/promote), which clears its dirty bit: that fill already covers
  // it. A callback that re-dirties a cell already filled here queues it for
  // a fresh drain at this timestamp.
  for (std::uint32_t cell_id : drain_cells_) {
    if (cells_[cell_id].dirty) fill_cell(cell_id);
  }
}

// --- completion -------------------------------------------------------------

namespace {

/// Append every entry of a tag-ordered min-heap whose tag is at most
/// `limit` and which `due` accepts. A node's tag bounds its whole subtree
/// from below, so the walk stops at the first node past `limit` on each
/// path — but not at a node `due` rejects: with unequal caps, heap order is
/// not residual order.
template <class Due>
void collect_due(const std::vector<SessionId>& heap, const std::vector<double>& tag,
                 std::size_t i, double limit, const Due& due, std::vector<SessionId>& out) {
  if (i >= heap.size() || tag[heap[i]] > limit) return;
  if (due(heap[i])) out.push_back(heap[i]);
  collect_due(heap, tag, 2 * i + 1, limit, due, out);
  collect_due(heap, tag, 2 * i + 2, limit, due, out);
}

}  // namespace

void FluidEngine::fire(std::uint32_t cell_id) {
  Cell& c = cells_[cell_id];
  advance(c);

  // Complete every fluid flow within kCompleteEpsBytes of its demand (ties
  // complete together, in SessionId order). A flow owing at most eps bytes
  // has a tag within 8·eps of the clock, or 8·eps/cap of now (cap_floor_
  // bounds that), with a factor of 2 against rounding. The scratch buffer
  // is engine-level: fire() runs hundreds of thousands of times in a 1M-UE
  // run and must not heap-allocate per completion.
  const auto due = [&](SessionId id) { return owed_bytes(c, id) <= kCompleteEpsBytes; };
  scratch_done_.clear();
  collect_due(c.at_cap, tag_, 0,
              sim_.now().to_seconds() + 16.0 * kCompleteEpsBytes / cap_floor_, due,
              scratch_done_);
  collect_due(c.open, tag_, 0, c.vclock + 16.0 * kCompleteEpsBytes, due, scratch_done_);
  std::sort(scratch_done_.begin(), scratch_done_.end());

  for (SessionId id : scratch_done_) {
    bank(c, id);
    remove_member(c, id);
    // The sub-epsilon remainder is the final segment, delivered now.
    segment_bytes_ += arena_.residual_bytes(id);
    arena_.delivered_bytes(id) = arena_.demand_bytes(id);
    arena_.mode(id) = FlowMode::Done;
    arena_.rate_bps(id) = 0.0;
    arena_.finish_ns(id) = sim_.now().nanos();
    --active_fluid_;
    ++completions_;
  }
  mark_dirty(cell_id);
  if (on_complete) {
    // on_complete may start/demote/handover flows; those marks coalesce
    // into the drain already scheduled above.
    for (SessionId id : scratch_done_) on_complete(id);
  }
}

// --- membership -------------------------------------------------------------

std::vector<SessionId>::iterator FluidEngine::find_in_order(std::vector<SessionId>& v,
                                                           SessionId id) const {
  const double key = key_[id];
  return std::lower_bound(v.begin(), v.end(), id, [&](SessionId other, SessionId target) {
    const double ko = key_[other];
    if (ko != key) return ko < key;
    return other < target;
  });
}

void FluidEngine::insert_member(Cell& c, SessionId id) {
  if (id >= tag_.size()) {
    tag_.resize(arena_.slots(), 0.0);
    slot_.resize(arena_.slots(), 0);
    key_.resize(arena_.slots(), 0.0);
  }
  key_[id] = order_key(id);
  if (arena_.cap_bps(id) > 0.0) cap_floor_ = std::min(cap_floor_, arena_.cap_bps(id));
  auto it = find_in_order(c.order, id);
  // A member landing inside the capped prefix joins it at its cap; the next
  // fill moves the boundary if the level says otherwise.
  if (static_cast<std::size_t>(it - c.order.begin()) < c.capped) {
    ++c.capped;
    c.capped_bps += arena_.cap_bps(id);
    slot_[id] |= kAtCapBit;
  } else {
    slot_[id] &= ~kAtCapBit;
  }
  c.order.insert(it, id);
  enlist(c, id);
}

void FluidEngine::remove_member(Cell& c, SessionId id) {
  delist(c, id);
  auto it = find_in_order(c.order, id);
  assert(it != c.order.end() && *it == id);
  assert((static_cast<std::size_t>(it - c.order.begin()) < c.capped) == at_cap(id));
  c.order.erase(it);
  // An emptied prefix sum restarts at exactly zero, so drift never
  // outlives a prefix.
  if (at_cap(id)) {
    --c.capped;
    c.capped_bps = c.capped == 0 ? 0.0 : c.capped_bps - arena_.cap_bps(id);
  }
}

void FluidEngine::enlist(Cell& c, SessionId id) {
  if (arena_.mode(id) == FlowMode::Fluid) {
    retag(c, id);
    heap_push(at_cap(id) ? c.at_cap : c.open, id);
  } else {
    c.ghosts.insert(find_in_order(c.ghosts, id), id);
  }
}

void FluidEngine::delist(Cell& c, SessionId id) {
  if (arena_.mode(id) == FlowMode::Fluid) {
    heap_erase(at_cap(id) ? c.at_cap : c.open, id);
  } else {
    auto it = find_in_order(c.ghosts, id);
    assert(it != c.ghosts.end() && *it == id);
    c.ghosts.erase(it);
  }
}

// --- indexed heaps ----------------------------------------------------------

void FluidEngine::heap_push(std::vector<SessionId>& heap, SessionId id) {
  ++member_ops_;
  heap.push_back(id);
  sift_up(heap, heap.size() - 1);
}

void FluidEngine::heap_erase(std::vector<SessionId>& heap, SessionId id) {
  ++member_ops_;
  const std::size_t i = slot_[id] & ~kAtCapBit;
  assert(i < heap.size() && heap[i] == id);
  const SessionId last = heap.back();
  heap.pop_back();
  if (last == id) return;
  heap[i] = last;
  set_heap_index(last, i);
  sift_up(heap, i);
  sift_down(heap, slot_[last] & ~kAtCapBit);
}

void FluidEngine::sift_up(std::vector<SessionId>& heap, std::size_t i) {
  const SessionId id = heap[i];
  const double key = tag_[id];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!(key < tag_[heap[parent]])) break;
    heap[i] = heap[parent];
    set_heap_index(heap[i], i);
    i = parent;
  }
  heap[i] = id;
  set_heap_index(id, i);
}

void FluidEngine::sift_down(std::vector<SessionId>& heap, std::size_t i) {
  const SessionId id = heap[i];
  const double key = tag_[id];
  const std::size_t n = heap.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && tag_[heap[child + 1]] < tag_[heap[child]]) ++child;
    if (!(tag_[heap[child]] < key)) break;
    heap[i] = heap[child];
    set_heap_index(heap[i], i);
    i = child;
  }
  heap[i] = id;
  set_heap_index(id, i);
}

}  // namespace cb::traffic
