// UE radio: periodic measurement, cell (re)selection with hysteresis, and
// cell-change events consumed by the mobility layer above — the EPC's
// network handover in the MNO baseline, or the CellBricks host-driven
// detach/re-attach (§4.2: "a user simply detaches from one cell tower and
// independently attaches to a new tower").
//
// The measurement pipeline is 3GPP-shaped: each tick scans the geometry
// through the (optionally fading) Channel, folds the noisy samples into a
// per-cell NeighborTable with the L3 k-filter (F_n = (1-a)F_{n-1} + a M_n,
// a = 1/2^(k/4)), and hands the filtered table to a pluggable reselection
// policy. With all defaults — zero-noise channel, k = 0, A3 hysteresis —
// the loop is bit-identical to the pre-measurement engine, which the golden
// chaos fingerprint in tests/test_faults.cpp pins.
#pragma once

#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "ran/channel.hpp"
#include "ran/radio.hpp"
#include "ran/trajectory.hpp"
#include "sim/simulator.hpp"

namespace cb::ran {

struct DriveTestTrace;

/// Reselection policies the measurement loop can run (A/B surface; cbfuzz
/// samples all three).
enum class ReselectionPolicyKind : int {
  /// A3 event: strongest neighbor beats serving by `hysteresis_db`. The
  /// pre-measurement engine's behaviour; the default.
  A3Hysteresis = 0,
  /// A3 plus time-to-trigger: the margin must hold continuously for
  /// `time_to_trigger` before the change fires (3GPP's ping-pong damper).
  A3TimeToTrigger = 1,
  /// Rank-based baseline: always camp on the strongest filtered cell, no
  /// margin — the ping-pong-prone strawman the A/B measures against.
  RankBased = 2,
};

/// The policy axis's canonical spelling, and its one parser (nullopt for any
/// other spelling).
const char* to_string(ReselectionPolicyKind kind);
std::optional<ReselectionPolicyKind> from_string(std::string_view name);

struct UeRadioConfig {
  /// Measurement / reselection period.
  Duration measurement_interval = Duration::ms(200);
  /// A neighbour must beat the serving cell by this margin to trigger a
  /// change (A3-style hysteresis).
  double hysteresis_db = 3.0;
  /// Detection floor.
  double floor_dbm = -120.0;
  /// Reselection policy (see ReselectionPolicyKind).
  ReselectionPolicyKind policy = ReselectionPolicyKind::A3Hysteresis;
  /// A3TimeToTrigger only: how long the A3 condition must hold.
  Duration time_to_trigger = Duration::ms(0);
  /// 3GPP L3 filter coefficient k (a = 1/2^(k/4)); 0 disables smoothing
  /// (filtered == instantaneous, bit-compatible with the pre-filter engine).
  int l3_filter_k = 0;
  /// Measurement channel (shadowing / fast fading); zero-noise by default.
  ChannelConfig channel{};
  /// Identity for the per-UE channel hash streams.
  std::uint32_t ue_id = 1;
};

/// One row of the per-UE neighbor table: last instantaneous sample and the
/// L3-filtered quality for a visible (or serving) cell.
struct NeighborEntry {
  CellId cell = 0;
  double rsrp_dbm = -140.0;
  double filtered_dbm = -140.0;
  TimePoint last_seen;
};

/// Why a reselection fired (audit log for the ran.* invariants).
enum class ReselectReason : int {
  Acquire = 0,    // initial acquisition (from == 0)
  FloorLoss = 1,  // serving fell below the detection floor
  A3 = 2,         // margin-over-hysteresis
  Ttt = 3,        // margin held for time-to-trigger
  Rank = 4,       // rank-based strongest-cell change
};

/// One serving-cell change as the policy decided it.
struct ReselectionEvent {
  TimePoint at;
  CellId from = 0;
  CellId to = 0;
  ReselectReason reason = ReselectReason::Acquire;
  /// Filtered margin of the target over the serving cell at the decision.
  double margin_db = 0.0;
  /// How long the A3 condition had held (Ttt reason only).
  Duration held = Duration::zero();
};

/// Tracks the serving cell while the UE moves; emits cell-change events.
class UeRadio {
 public:
  UeRadio(sim::Simulator& sim, const RadioEnvironment& env, Trajectory trajectory,
          UeRadioConfig config = {});

  /// Begin periodic measurement. `on_cell_change(old_cell, new_cell)` fires
  /// on every serving-cell change; old_cell 0 = initial acquisition,
  /// new_cell 0 = coverage lost.
  void start(std::function<void(CellId, CellId)> on_cell_change);
  void stop();

  CellId serving_cell() const { return serving_; }
  Point position() const;

  /// Cells in the neighbor table above the floor, strongest (filtered)
  /// first — the fallback order the attach-recovery logic walks when the
  /// preferred cell fails. State from the last measurement tick, not a
  /// fresh geometry scan (asynchronous measurement model).
  std::vector<CellId> candidates() const;

  bool table_contains(CellId cell) const;

  /// Number of serving-cell changes seen so far (MTTHO statistics).
  std::uint64_t cell_changes() const { return changes_; }

  /// Audit log of every serving-cell change with the policy's evidence
  /// (margin, hold time, reason) — the ran.* invariants read this.
  const std::vector<ReselectionEvent>& reselections() const { return reselections_; }

  const UeRadioConfig& config() const { return config_; }

  /// Record every measurement tick + reselection into `sink` (drive-test
  /// trace capture). Pass nullptr to stop. The sink's cells/config snapshot
  /// is filled on start(); samples append per tick.
  void set_drive_sink(DriveTestTrace* sink);

 private:
  void measure();
  double l3_alpha() const;

  sim::Simulator& sim_;
  const RadioEnvironment& env_;
  Trajectory trajectory_;
  UeRadioConfig config_;
  Channel channel_;
  TimePoint started_at_;
  bool running_ = false;
  CellId serving_ = 0;
  std::uint64_t changes_ = 0;
  std::vector<NeighborEntry> table_;  // registry order (tie-break stability)
  std::vector<ReselectionEvent> reselections_;
  // A3TimeToTrigger state: candidate currently satisfying the A3 condition
  // and the instant it first did.
  CellId ttt_candidate_ = 0;
  TimePoint ttt_since_;
  DriveTestTrace* drive_sink_ = nullptr;
  std::function<void(CellId, CellId)> on_cell_change_;
  sim::EventHandle timer_;
};

}  // namespace cb::ran
