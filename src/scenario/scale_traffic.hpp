// Multi-UE bulk-traffic scenario — the workload behind the million-UE scale
// claim (DESIGN.md §11, EXPERIMENTS.md "scale curve").
//
// N subscribers spread over C cells each pull one bulk download (sizes and
// arrival times seed-derived); every cell has a fixed downlink scheduler
// capacity and every bearer a shaper cap resampled from the Appendix-A rate
// policy. The same workload runs in three fidelity modes:
//
//   Packet — every flow is a real TCP connection over real links: a shared
//            cell bottleneck link (the scheduler) behind per-UE access links
//            (the shaper). Ground truth; feasible to a few thousand UEs.
//   Fluid  — every flow is a rate share in traffic::FluidEngine; sim events
//            exist only at rate-change points. Scales to 1M+ UEs.
//   Hybrid — flows run fluid but a chaos fault window on one cell demotes
//            its flows to packet fidelity (real TCP over a per-flow lane
//            whose bottleneck mirrors the flow's ghost share) and promotes
//            them back after K RTTs of steady state, conserving bytes.
//
// All three modes draw sizes, starts, and shaper samples from identical
// per-UE RNG streams, so packet-vs-fluid agreement is a pure model
// comparison — the bench and CI gate on it at small N.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "common/time.hpp"
#include "ran/rate_policy.hpp"
#include "traffic/arena.hpp"
#include "traffic/fluid.hpp"

namespace cb::sim {
class Simulator;
}

namespace cb::scenario {

enum class TrafficMode { Packet, Fluid, Hybrid };

/// Flat $/GB the billing sweep accrues into the arena (fluid.billing checks
/// billed dollars against it).
inline constexpr double kPricePerGbUsd = 2.0;

struct ScaleTrafficConfig {
  TrafficMode mode = TrafficMode::Fluid;
  int n_ues = 1000;
  /// 0 = one cell per 500 UEs (at least one).
  int n_cells = 0;
  std::uint64_t seed = 1;
  /// Appendix-A shaper policy applied per bearer (day ≈ 1 Mb/s, night ≈
  /// 15 Mb/s).
  bool night = true;
  /// Downlink scheduler capacity per cell.
  double scheduler_capacity_bps = 150e6;
  /// Bearer shaper resample cadence; 0 samples once per flow at start.
  double shaper_resample_s = 0.0;
  /// Flow sizes: exponential with this mean, clamped to [1 MB, 8x mean].
  double mean_flow_mbytes = 20.0;
  /// Flow arrivals: uniform in [0, start_window_s).
  double start_window_s = 5.0;
  double horizon_s = 600.0;
  /// Mean exponential inter-handover time per UE (fluid/hybrid; 0 = off).
  double mobility_interval_s = 0.0;
  /// Billing sweep cadence (kPricePerGbUsd per delivered GB).
  double report_interval_s = 10.0;
  /// Hybrid: a capacity-drop fault on cell 0 during
  /// [fault_start_s, fault_start_s + fault_duration_s) — its fluid flows
  /// demote to packet lanes for the window. 0 duration = no fault.
  double fault_start_s = 0.0;
  double fault_duration_s = 0.0;
  double fault_capacity_factor = 0.25;
  /// Read by nothing: the fluid engine's drain worker pool it sized was
  /// deleted. cbbench still assigns it; the benchmark change of ROADMAP
  /// item 1, the one change that may edit cbbench, deletes it.
  int fluid_threads = 1;
};

struct ScaleTrafficResult {
  int n_ues = 0;
  int completed = 0;
  double completion_mean_s = 0.0;
  double completion_p50_s = 0.0;
  double completion_p99_s = 0.0;
  /// Per-flow goodput (size / completion time), mean over completed flows.
  double flow_tput_mean_mbps = 0.0;
  double total_gbytes = 0.0;
  double billing_usd = 0.0;
  /// Simulated seconds covered (last completion, or horizon if incomplete).
  double sim_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t rate_events = 0;
  std::uint64_t demotions = 0;
  std::uint64_t promotions = 0;
  /// Arena working set: slots x bytes_per_session.
  std::uint64_t arena_bytes = 0;
  // Conservation ledger (fluid.conservation reads the same numbers live).
  double delivered_bytes = 0.0;
  double segment_bytes = 0.0;
  double packet_ledger_bytes = 0.0;
  std::uint64_t negative_residuals = 0;
  /// FNV-1a over the bit patterns of the totals above — the same-seed
  /// determinism witness (byte-stable across runs).
  std::uint64_t fingerprint() const;
};

/// A buildable/runnable scale-traffic simulation; split from
/// run_scale_traffic so the check layer can arm invariants on the live run.
class ScaleTrafficSim {
 public:
  explicit ScaleTrafficSim(const ScaleTrafficConfig& config);
  ~ScaleTrafficSim();

  sim::Simulator& simulator();
  const traffic::SessionArena& arena() const { return arena_; }
  /// Null in pure Packet mode.
  const traffic::FluidEngine* fluid() const { return fluid_.get(); }
  /// App bytes delivered through real packet paths (pure-packet flows and
  /// hybrid fidelity windows) — the packet side of the conservation ledger.
  double packet_ledger_bytes() const { return packet_ledger_bytes_; }
  const ScaleTrafficConfig& config() const { return config_; }

  /// Schedule the whole workload (call once, before running).
  void start();
  /// Drive to completion or the horizon, then collect results.
  ScaleTrafficResult run_to_completion();
  /// Final sweep + result assembly; call after driving the simulator
  /// yourself (the check runner arms invariants between start() and this).
  ScaleTrafficResult collect();

  /// Total app bytes delivered so far (fluid progress accrued up to now) —
  /// for mid-run load-curve samplers (bench_fig10_day_night --fluid).
  double delivered_now();

 private:
  struct Lane;
  struct Impl;

  void build_fluid();
  void build_packet();
  void bill_sweep();
  TimePoint next_resample_epoch() const;
  /// Add a UE to the next epoch's resample walk (both traffic modes).
  void enlist_resample(std::uint32_t ue);
  void run_resample_epoch(std::int64_t due_ns);
  void resample_shaper(std::uint32_t ue);
  void schedule_mobility(std::uint32_t ue);
  void apply_fault(bool begin);
  void demote_to_lane(traffic::SessionId id);
  void try_promote(std::size_t lane_idx);
  void free_lane(std::size_t lane_idx);
  Duration promote_wait(const Lane& lane) const;
  void deliver_packet_bytes(traffic::SessionId id, std::size_t n);
  void on_flow_done(traffic::SessionId id);

  ScaleTrafficConfig config_;
  std::unique_ptr<Impl> impl_;
  traffic::SessionArena arena_;
  std::unique_ptr<traffic::FluidEngine> fluid_;
  std::vector<double> flow_bytes_;
  std::vector<double> start_s_;
  Summary completion_s_;
  Summary flow_tput_mbps_;
  double packet_ledger_bytes_ = 0.0;
  int done_ = 0;
  double last_finish_s_ = 0.0;
};

ScaleTrafficResult run_scale_traffic(const ScaleTrafficConfig& config);

}  // namespace cb::scenario
