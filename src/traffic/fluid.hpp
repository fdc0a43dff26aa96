// Flow-level ("fluid") traffic engine — the fast path of the hybrid
// fluid/packet model (DESIGN.md §11, §13).
//
// Steady-state bulk transfers are not worth packet-by-packet simulation: a
// TCP flow that has converged inside a stable cell progresses at its fair
// share of the cell's scheduler capacity, and nothing interesting happens
// between rate-change points. The FluidEngine represents each such flow as
// a rate share and advances delivered bytes analytically, scheduling sim
// events ONLY where a rate can change:
//
//   - a flow arriving or finishing in a cell,
//   - a handover moving a flow between cells,
//   - a shaper/scheduler capacity transition (rate-policy resample, fault),
//   - a flow demoting to / promoting from packet fidelity.
//
// Within a cell the allocation is weighted max-min fairness under per-flow
// caps (the bearer shaper / QoS MBR), computed by one water-filling pass.
// Flows demoted to packet mode stay in the cell as "ghost" members: they
// keep consuming their share in the allocation (the packet lane's link rate
// mirrors it via on_rate_share), so cell capacity is conserved across the
// fidelity boundary; only their byte progress comes from real packets.
//
// Reallocation is INCREMENTAL (DESIGN.md §13): each cell persistently keeps
// its members sorted by cap/weight (the water-filling visit order), so a
// join/leave/cap-change is O(log n) position bookkeeping and a reallocation
// is one linear fill pass — no per-event sort. Mutations do not reallocate
// inline; they mark the cell dirty and a zero-delay "drain" event at the
// same timestamp water-fills every dirty cell once, so a burst of churn at
// one sim instant (an epoch of shaper resamples, a fault demoting a whole
// cell) coalesces into one fill per cell instead of one per mutation.
// demote()/promote() fill their cell immediately instead (callers read the
// ghost share synchronously); rates are unchanged either way because no sim
// time passes between a mutation and its drain.
//
// The drain is also the PARALLEL phase: with fill_threads > 1 the dirty
// cells of one timestamp are water-filled on a worker pool, provided they
// hold enough members to pay for the hand-off (smaller drains, such as a
// two-cell handover, fill inline on the calling thread). Cells are
// disjoint (a session belongs to exactly one cell), workers only write
// their own cell's arena rows and a per-cell outcome buffer, and the main
// thread commits outcomes — ledger sums, completion-event scheduling,
// on_rate_share callbacks — strictly in ascending cell-id order. Any thread
// count therefore produces bit-identical results to the serial engine.
// Commit-time callbacks (on_rate_share / on_complete) may re-enter the
// engine synchronously: mutations that mark_dirty coalesce into a fresh
// drain at the same timestamp, and demote()/promote() fill their cell
// inline — if that cell's outcome from the CURRENT drain has not committed
// yet, the inline fill supersedes it (per-cell fill sequence numbers) and
// only its ledger deltas are kept, never its stale rates, completion event,
// or ghost shares.
//
// Byte accounting is per-cell and lazy: each cell remembers when it last
// accrued, and any mutation (or a completion event) first banks
// rate × elapsed into every fluid flow of that cell. Accrual clamps at a
// flow's demand, so delivered never exceeds demand and residuals never go
// negative — the `fluid.conservation` invariant checks exactly this ledger.
//
// Determinism: no RNG, flow lists kept in ascending SessionId order (with
// the fill order keyed by (cap/weight, SessionId)), all arithmetic in
// double precision with a fixed iteration and reduction order — same-seed
// runs produce bit-identical delivered/billed totals at any thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "traffic/arena.hpp"

namespace cb::traffic {

class FluidEngine {
 public:
  /// `fill_threads` sizes the drain-phase worker pool; 1 (the default, and
  /// what tier-1 tests use) runs every fill on the calling thread. Results
  /// are bit-identical at any thread count.
  FluidEngine(sim::Simulator& sim, SessionArena& arena, unsigned fill_threads = 1);
  ~FluidEngine();

  FluidEngine(const FluidEngine&) = delete;
  FluidEngine& operator=(const FluidEngine&) = delete;

  // --- topology -------------------------------------------------------------
  /// Add a cell with the given downlink scheduler capacity; returns its id.
  std::uint32_t add_cell(double capacity_bps);
  /// Shaper/scheduler transition: marks the cell for reallocation at this
  /// timestamp (accrual up to now still happens at the old per-flow rates).
  void set_cell_capacity(std::uint32_t cell, double capacity_bps);
  double cell_capacity(std::uint32_t cell) const { return cells_[cell].capacity_bps; }
  std::size_t n_cells() const { return cells_.size(); }
  unsigned fill_threads() const { return threads_; }

  // --- flow lifecycle -------------------------------------------------------
  /// Start a fluid flow of `bytes` on session `id` (arena supplies cell,
  /// weight, and cap). The session must be Idle. The cell's shares are
  /// recomputed by the drain at this timestamp (or an explicit flush()).
  void start_flow(SessionId id, double bytes);
  /// Move a flow (fluid or ghost/packet) to `new_cell` — a rate-change point
  /// for both cells. Both cells accrue before the membership moves.
  void handover(SessionId id, std::uint32_t new_cell);
  /// Tighten/relax one flow's bearer cap (0 = uncapped). Repositions the
  /// flow in the cell's persistent fill order and marks the cell dirty.
  void set_flow_cap(SessionId id, double cap_bps);

  /// Demote a fluid flow to packet fidelity: banks its bytes, marks it
  /// Packet, keeps it in the cell as a ghost (its share keeps being
  /// allocated and is published through on_rate_share). Fills the cell
  /// immediately — the caller reads the ghost share synchronously. Returns
  /// the residual bytes the packet lane must transfer.
  double demote(SessionId id);
  /// Promote a packet flow back to fluid. The caller must have recorded all
  /// packet-delivered bytes in arena.delivered_bytes before calling —
  /// bytes-in-flight are conserved because the residual is re-derived from
  /// the arena ledger, never guessed. Fills the cell immediately.
  void promote(SessionId id);
  /// Remove a flow that completed while in packet mode (ghost leaves cell).
  void finish_packet_flow(SessionId id);

  /// Fired when a fluid flow's delivered bytes reach its demand. The arena
  /// already shows mode == Done and finish_ns set.
  std::function<void(SessionId)> on_complete;
  /// Fired when a ghost (packet-mode) flow's allocated share changes; hybrid
  /// lanes mirror the share onto their bottleneck link. Replayed on the main
  /// thread in ascending cell-id order after a parallel drain.
  std::function<void(SessionId, double rate_bps)> on_rate_share;

  // --- sweeps ---------------------------------------------------------------
  /// Bank rate × elapsed for every cell up to now (billing sweeps call this
  /// before reading delivered totals). Does not change any rate.
  void accrue_all();
  /// Water-fill every dirty cell now instead of waiting for the drain event
  /// at this timestamp. Unit tests and synchronous callers use this; inside
  /// a running simulation the zero-delay drain event makes it unnecessary.
  void flush();

  // --- ledger / introspection (fluid.conservation reads these) -------------
  /// Σ of all rate × interval segments ever banked into delivered bytes.
  double segment_bytes() const { return segment_bytes_; }
  /// Accruals that had to clamp at a flow's demand would otherwise overshoot
  /// by at most rate × (event guard); the clamped remainder is counted here
  /// so segment_bytes + nothing is lost (diagnostic, stays tiny).
  double clamped_bytes() const { return clamped_bytes_; }
  /// Times a residual was observed negative — must stay 0.
  std::uint64_t negative_residuals() const { return negative_residuals_; }
  /// Water-filling passes executed (== coalesced rate-change points).
  std::uint64_t rate_events() const { return rate_events_; }
  /// Fluid-mode completions so far.
  std::uint64_t completions() const { return completions_; }
  std::uint64_t demotions() const { return demotions_; }
  std::uint64_t promotions() const { return promotions_; }
  /// Flows currently progressed by the engine (fluid only, ghosts excluded).
  std::size_t active_fluid_flows() const { return active_fluid_; }
  /// Drains handed to the worker pool. Always 0 at one thread, and the only
  /// counter that differs by thread count, so it stays out of fingerprints
  /// and metrics snapshots.
  std::uint64_t parallel_drains() const { return parallel_drains_; }

 private:
  struct Cell {
    double capacity_bps = 0.0;
    /// Members in ascending SessionId order (accrual / completion scans);
    /// fluid flows and packet ghosts.
    std::vector<SessionId> flows;
    /// The same members in ascending (cap/weight, SessionId) order — the
    /// persistent water-filling visit order, maintained incrementally.
    std::vector<SessionId> order;
    TimePoint last_accrual;
    sim::EventHandle next_completion;
    /// Bumped by every fill_cell_now (demote/promote/flush path). A drain
    /// outcome filled under an older value was superseded by an inline fill
    /// fired from a commit-time callback; the commit loop then keeps only
    /// its ledger deltas (see drain()).
    std::uint64_t fill_seq = 0;
    bool dirty = false;   // needs a fill at the current timestamp
    bool queued = false;  // present in drain_queue_
  };

  /// Everything one fill produces besides the arena rate writes. Workers
  /// fill these in parallel; the main thread commits them in cell-id order.
  struct CellOutcome {
    double segment_bytes = 0.0;
    double clamped_bytes = 0.0;
    std::uint64_t negative_residuals = 0;
    /// Earliest fluid completion at the new rates (seconds; infinity = none).
    double min_completion_s = 0.0;
    /// Ghost flows whose published share changed, in fill order.
    std::vector<std::pair<SessionId, double>> ghost_changes;
    /// The cell's fill_seq when this outcome was filled; a mismatch at
    /// commit time means an inline fill superseded it.
    std::uint64_t fill_seq = 0;
    void reset();
  };

  class FillPool;

  /// Bank rate × (now - last_accrual) into every fluid flow of the cell,
  /// accumulating ledger deltas into `out` (thread-safe per cell).
  void accrue_cell(Cell& c, CellOutcome& out);
  /// Main-thread accrual that folds the deltas straight into the ledger.
  void accrue_now(Cell& c);
  /// accrue + one linear water-filling pass over the persistent order, which
  /// also finds the earliest completion. Worker-safe: writes only this
  /// cell's arena rows and `out`.
  void fill_cell(Cell& c, CellOutcome& out);
  /// Fold a fill's outcome into the ledger, reschedule the cell's
  /// completion event, and replay its ghost-share callbacks. Main thread
  /// only; called in ascending cell-id order after a drain.
  void commit_outcome(std::uint32_t cell_id, CellOutcome& out);
  /// Immediate fill of one cell (demote/promote and flush paths).
  void fill_cell_now(std::uint32_t cell_id);
  /// Mark a cell for reallocation and ensure a drain event is pending.
  void mark_dirty(std::uint32_t cell_id);
  /// Water-fill every dirty cell (on the pool when threads_ > 1 and the
  /// drain is large enough), then commit outcomes in ascending cell-id order.
  void drain();
  /// Completion event handler for one cell.
  void fire(std::uint32_t cell);

  /// Water-filling visit key: ascending cap/weight, uncapped (+inf) last.
  double order_key(SessionId id) const;
  void insert_member(Cell& c, SessionId id);
  void remove_member(Cell& c, SessionId id);
  void insert_order(Cell& c, SessionId id, double key);
  void remove_order(Cell& c, SessionId id, double key);

  sim::Simulator& sim_;
  SessionArena& arena_;
  std::vector<Cell> cells_;
  unsigned threads_ = 1;
  std::unique_ptr<FillPool> pool_;

  // Dirty-cell epoch state: cells queued since the last drain, the pending
  // zero-delay drain event, and reusable per-drain scratch.
  std::vector<std::uint32_t> drain_queue_;
  bool drain_scheduled_ = false;
  sim::EventHandle drain_event_;
  std::vector<std::uint32_t> drain_cells_;   // this drain's cells, ascending
  std::vector<CellOutcome> drain_outcomes_;  // slot-per-cell, reused
  // Completion scratch: reused across fire() calls so a cell completing
  // flows hundreds of thousands of times never heap-allocates. on_complete
  // handlers must not re-enter fire() (they cannot: fire only runs as a sim
  // event), and engine mutations they make use their own local outcome.
  std::vector<SessionId> scratch_done_;

  double segment_bytes_ = 0.0;
  double clamped_bytes_ = 0.0;
  std::uint64_t negative_residuals_ = 0;
  std::uint64_t rate_events_ = 0;
  std::uint64_t completions_ = 0;
  std::uint64_t demotions_ = 0;
  std::uint64_t promotions_ = 0;
  std::uint64_t parallel_drains_ = 0;
  std::size_t active_fluid_ = 0;
};

}  // namespace cb::traffic
