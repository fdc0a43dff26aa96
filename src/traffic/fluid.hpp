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
// caps (the bearer shaper / QoS MBR): water-filling.
// Flows demoted to packet mode stay in the cell as "ghost" members: they
// keep consuming their share in the allocation (the packet lane's link rate
// mirrors it via on_rate_share), so cell capacity is conserved across the
// fidelity boundary; only their byte progress comes from real packets.
//
// Reallocation runs on a per-cell VIRTUAL CLOCK (DESIGN.md §13), the
// processor-sharing formulation of GPS/WFQ. Each cell keeps its members
// sorted by cap/weight; a prefix of that order sits at its caps, and
// everyone after it shares the leftover at one water level L (bps per unit
// weight). The clock V advances by L per second, so an uncapped member's
// service is weight x the growth of V, and its finish tag V + 8·residual/w
// stays valid across every level change; a capped member's tag is the
// absolute time it finishes at its cap. A fill advances V, moves the prefix
// boundary past the keys the new level crossed, and reads the earliest
// completion off two heap heads — O(1 + flips + ghosts), never a walk over
// the cell. Mutations do not reallocate inline; they mark the cell dirty
// and a zero-delay "drain" event at the same timestamp fills every dirty
// cell once, so a burst of churn at one sim instant (an epoch of shaper
// resamples, a fault demoting a whole cell) coalesces into one fill per
// cell. demote()/promote() fill their cell immediately instead (callers read
// the ghost share synchronously); rates are unchanged either way because no
// sim time passes between a mutation and its drain.
//
// The drain fills its dirty cells one at a time, in ascending cell id, so
// ledger folds, completion-event scheduling and on_rate_share callbacks
// happen in an order independent of the order mutations queued the cells.
// Callbacks (on_rate_share / on_complete) may re-enter the engine
// synchronously. A mutation that marks a cell dirty is taken up by the
// current drain if that cell is among its cells and not yet filled, and by
// a fresh drain at the same timestamp otherwise; demote()/promote() fill
// their cell inline, and the drain then skips that cell because it is no
// longer dirty.
//
// Byte accounting is per-member and lazy: a member's delivered bytes are
// banked from its tag only when something touches it (a mutation of that
// member, a class flip, its completion) or at accrue_all(), the sync point
// billing sweeps call. Banking clamps at the flow's demand, so delivered
// never exceeds demand and residuals never go negative; segment_bytes()
// counts banked bytes, which is what the `fluid.conservation` invariant
// compares against the arena's banked delivered bytes. The current rate of
// a member is rate_bps(); the arena's rate column holds only the share last
// published for each packet-mode ghost.
//
// Determinism: no RNG, the fill order keyed by (cap/weight, SessionId),
// completions in SessionId order, all arithmetic in double precision in a
// fixed order — same-seed runs produce bit-identical delivered/billed
// totals. The rates equal a from-scratch water-fill to within rounding (the
// level x weight product is not the sequential fill's running arithmetic),
// which the oracle test in test_traffic.cpp bounds.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "traffic/arena.hpp"

namespace cb::traffic {

class FluidEngine {
 public:
  FluidEngine(sim::Simulator& sim, SessionArena& arena) : sim_(sim), arena_(arena) {}

  FluidEngine(const FluidEngine&) = delete;
  FluidEngine& operator=(const FluidEngine&) = delete;

  // --- topology -------------------------------------------------------------
  /// Add a cell with the given downlink scheduler capacity; returns its id.
  std::uint32_t add_cell(double capacity_bps);
  /// Shaper/scheduler transition: marks the cell for reallocation at this
  /// timestamp (the time up to now is served at the old level).
  void set_cell_capacity(std::uint32_t cell, double capacity_bps);
  double cell_capacity(std::uint32_t cell) const { return cells_[cell].capacity_bps; }
  std::size_t n_cells() const { return cells_.size(); }

  // --- flow lifecycle -------------------------------------------------------
  /// Start a fluid flow of `bytes` on session `id` (arena supplies cell,
  /// weight, and cap). The session must be Idle. The cell's shares are
  /// recomputed by the drain at this timestamp (or an explicit flush()).
  void start_flow(SessionId id, double bytes);
  /// Move a flow (fluid or ghost/packet) to `new_cell` — a rate-change point
  /// for both cells. A fluid flow banks its bytes in the old cell first.
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
  /// lanes mirror the share onto their bottleneck link. Within a drain, in
  /// ascending cell-id order.
  std::function<void(SessionId, double rate_bps)> on_rate_share;

  // --- observation ----------------------------------------------------------
  /// The member's current allocated rate: its cap while the cell's water
  /// level is above its cap/weight, else weight x the level the last fill
  /// set. Fluid flows and ghosts alike; 0 for a session in no cell. O(1).
  /// Between a mutation and its cell's drain at the same timestamp it reads
  /// the member's provisional class against the previous fill's level.
  double rate_bps(SessionId id) const;

  // --- sweeps ---------------------------------------------------------------
  /// Bank every fluid flow's delivered bytes up to now — the sync point
  /// before anyone reads delivered totals (billing sweeps, results). Does
  /// not change any rate.
  void accrue_all();
  /// Water-fill every dirty cell now instead of waiting for the drain event
  /// at this timestamp. Unit tests and synchronous callers use this; inside
  /// a running simulation the zero-delay drain event makes it unnecessary.
  void flush();

  // --- ledger / introspection (fluid.conservation reads these) -------------
  /// Σ of every byte banked into delivered bytes so far.
  double segment_bytes() const { return segment_bytes_; }
  /// Banking clamps at a flow's demand: a completion event fires up to the
  /// event guard past the analytic instant, and the overshoot is counted
  /// here instead of delivered (diagnostic, stays tiny).
  double clamped_bytes() const { return clamped_bytes_; }
  /// Times a residual was observed negative — must stay 0.
  std::uint64_t negative_residuals() const { return negative_residuals_; }
  /// Water-filling passes executed (== coalesced rate-change points).
  std::uint64_t rate_events() const { return rate_events_; }
  /// Per-member operations so far: each bank of a flow's bytes, each class
  /// flip across a cell's cap boundary, and each heap insertion or removal.
  /// The engine's unit of work, kept out of fingerprints and metrics
  /// snapshots.
  std::uint64_t member_ops() const { return member_ops_; }
  /// Fluid-mode completions so far.
  std::uint64_t completions() const { return completions_; }
  std::uint64_t demotions() const { return demotions_; }
  std::uint64_t promotions() const { return promotions_; }
  /// Flows currently progressed by the engine (fluid only, ghosts excluded).
  std::size_t active_fluid_flows() const { return active_fluid_; }

 private:
  struct Cell {
    double capacity_bps = 0.0;
    /// Members (fluid flows and packet ghosts) in ascending
    /// (cap/weight, SessionId) order. order[0, capped) sit at their caps;
    /// the rest share the leftover at the water level.
    std::vector<SessionId> order;
    std::size_t capped = 0;
    double capped_bps = 0.0;   // Σ cap over order[0, capped)
    double open_weight = 0.0;  // Σ weight over order[capped, end)
    /// Bps per unit weight of every member past the capped prefix, as the
    /// last fill set it (mutations change the sums, not the level).
    double level = 0.0;
    /// Virtual clock: ∫ level dt, in bits per unit weight, since the open
    /// heap was last empty. Advanced at every read (advance()).
    double vclock = 0.0;
    TimePoint clock_at;
    /// Fluid members past the capped prefix, a min-heap on their finish tag
    /// in vclock units.
    std::vector<SessionId> open;
    /// Fluid members in the capped prefix, a min-heap on their finish time
    /// in seconds.
    std::vector<SessionId> at_cap;
    /// Packet-mode members in (cap/weight, SessionId) order: they hold a
    /// share but have no tag, and each fill publishes their shares.
    std::vector<SessionId> ghosts;
    sim::EventHandle next_completion;
    /// Bumped by every fill. A commit whose on_rate_share handler refilled
    /// this cell inline sees it move and replays its remaining ghosts at
    /// the current share (see commit_outcome()).
    std::uint64_t fill_seq = 0;
    bool dirty = false;   // needs a fill at the current timestamp
    bool queued = false;  // present in drain_queue_
  };

  /// Ledger deltas and work one cell operation produces, folded into the
  /// engine totals when the operation is done.
  struct Tally {
    double segment_bytes = 0.0;
    double clamped_bytes = 0.0;
    std::uint64_t negative_residuals = 0;
    std::uint64_t member_ops = 0;
  };

  /// Everything one fill produces besides the cell's own state; committed
  /// right after the fill.
  struct CellOutcome {
    Tally tally;
    /// Earliest fluid completion at the new rates (seconds; infinity = none).
    double min_completion_s = 0.0;
    /// Ghost flows whose published share changed, in fill order.
    std::vector<std::pair<SessionId, double>> ghost_changes;
  };

  /// Advance the cell's virtual clock to now at the level the last fill set.
  /// Idempotent within a timestamp; every reader of vclock calls it first.
  void advance(Cell& c);
  /// What a fluid member's tag still owes at now: w·(tag − V)/8 bytes on
  /// the clock, or cap·(tag − now)/8 at its cap. Negative past its finish.
  double owed_bytes(const Cell& c, SessionId id) const;
  /// Bank a fluid member's bytes from its tag up to now (clamped at demand).
  void bank(const Cell& c, SessionId id, Tally& t);
  /// Set a fluid member's tag from its banked residual and current class.
  void retag(const Cell& c, SessionId id);
  /// Move a member across the capped-prefix boundary (the one at its edge),
  /// banking and re-tagging a fluid member on the way.
  void flip(Cell& c, SessionId id, Tally& t);
  /// advance + boundary moves + ghost shares + earliest completion.
  /// Touches only this cell, its members' rows, and `out`.
  void fill_cell(Cell& c, CellOutcome& out);
  /// Fold a tally into the engine totals.
  void fold(const Tally& t);
  /// Fold a fill's outcome into the ledger, reschedule the cell's
  /// completion event, and fire its ghost-share callbacks.
  void commit_outcome(std::uint32_t cell_id, const CellOutcome& out);
  /// Fill one cell and commit the outcome (the drain, demote and promote).
  void fill_cell_now(std::uint32_t cell_id);
  /// Mark a cell for reallocation and ensure a drain event is pending.
  void mark_dirty(std::uint32_t cell_id);
  /// Fill every still-dirty cell, in ascending cell-id order.
  void drain();
  /// Completion event handler for one cell.
  void fire(std::uint32_t cell);

  /// Water-filling visit key: ascending cap/weight, uncapped (+inf) last.
  /// Computed from the arena when a member enters its cell's order and
  /// read from key_ after that.
  double order_key(SessionId id) const;
  bool at_cap(SessionId id) const { return (slot_[id] & kAtCapBit) != 0; }
  /// Where `id` sits (or goes) in a vector sorted by (key_, id).
  std::vector<SessionId>::iterator find_in_order(std::vector<SessionId>& v, SessionId id) const;
  /// Add a member whose arena row (mode, cell, cap, demand) is set: into
  /// the order (its position there decides its class), then its heap or
  /// the ghost list. The cell's clock must be advanced.
  void insert_member(Cell& c, SessionId id, Tally& t);
  /// The inverse; call before the arena mode leaves Fluid/Packet.
  void remove_member(Cell& c, SessionId id, Tally& t);
  /// The tag half of membership, by arena mode: a fluid flow gets a fresh
  /// tag and its class's heap; a ghost goes in the ghost list. demote and
  /// promote swap one for the other and keep the member's place in order.
  void enlist(Cell& c, SessionId id, Tally& t);
  void delist(Cell& c, SessionId id, Tally& t);
  void heap_push(std::vector<SessionId>& heap, SessionId id, Tally& t);
  void heap_erase(std::vector<SessionId>& heap, SessionId id, Tally& t);
  void sift_up(std::vector<SessionId>& heap, std::size_t i);
  void sift_down(std::vector<SessionId>& heap, std::size_t i);
  void set_heap_index(SessionId id, std::size_t i) {
    slot_[id] = (slot_[id] & kAtCapBit) | static_cast<std::uint32_t>(i);
  }

  static constexpr std::uint32_t kAtCapBit = 0x80000000u;

  sim::Simulator& sim_;
  SessionArena& arena_;
  std::vector<Cell> cells_;

  // Per-session member state, indexed by SessionId like the arena: the
  // finish tag, the heap index with the capped-class bit on top, and the
  // order key the member entered its cell's order with. A cap change
  // removes the member at its old key and re-inserts it at the new one, so
  // the stored key never goes stale.
  std::vector<double> tag_;
  std::vector<std::uint32_t> slot_;
  std::vector<double> key_;
  /// Smallest weight and cap any member has had: they bound how far past
  /// the heap heads fire() must look for flows within kCompleteEpsBytes.
  double weight_floor_ = std::numeric_limits<double>::infinity();
  double cap_floor_ = std::numeric_limits<double>::infinity();

  // Dirty-cell epoch state: cells queued since the last drain, the pending
  // zero-delay drain event, and reusable per-drain scratch.
  std::vector<std::uint32_t> drain_queue_;
  bool drain_scheduled_ = false;
  sim::EventHandle drain_event_;
  std::vector<std::uint32_t> drain_cells_;  // this drain's cells, ascending
  // Completion scratch: reused across fire() calls so a cell completing
  // flows hundreds of thousands of times never heap-allocates. on_complete
  // handlers must not re-enter fire() (they cannot: fire only runs as a sim
  // event), and engine mutations they make use their own local tallies.
  std::vector<SessionId> scratch_done_;

  double segment_bytes_ = 0.0;
  double clamped_bytes_ = 0.0;
  std::uint64_t negative_residuals_ = 0;
  std::uint64_t rate_events_ = 0;
  std::uint64_t member_ops_ = 0;
  std::uint64_t completions_ = 0;
  std::uint64_t demotions_ = 0;
  std::uint64_t promotions_ = 0;
  std::size_t active_fluid_ = 0;
};

}  // namespace cb::traffic
