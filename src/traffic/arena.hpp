// Arena-backed per-UE session state for the hybrid fluid/packet traffic
// engine (DESIGN.md §11).
//
// A 100k–1M-UE simulation cannot afford one heap object per subscriber:
// pointer-chasing UE agents, bearers, and billing accumulators scattered
// across the heap turns every scheduler sweep into a cache-miss storm. The
// SessionArena keeps every per-session field in a structure-of-arrays
// layout — parallel dense vectors indexed by SessionId — so the fluid
// engine's share recomputation and the billing sweep touch contiguous
// memory. A SessionId is the session's row, stable for the whole run.
//
// The arena is plain data: it never schedules events, owns no sockets, and
// is safe to size up front (reserve()) so a million-UE run does no
// reallocation after setup.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cb::traffic {

using SessionId = std::uint32_t;
inline constexpr SessionId kNoSession = 0xFFFFFFFFu;

/// Where a session's active flow is currently simulated.
enum class FlowMode : std::uint8_t {
  Idle = 0,    // no active flow
  Fluid = 1,   // flow progressed analytically by the FluidEngine
  Packet = 2,  // flow demoted to full packet fidelity (TCP over real links)
  Done = 3,    // flow completed (delivered == demand)
};

class SessionArena {
 public:
  SessionArena() = default;
  explicit SessionArena(std::size_t capacity) { reserve(capacity); }

  /// Pre-size every column; a sized arena never reallocates during a run.
  void reserve(std::size_t n) {
    cell_.reserve(n);
    mode_.reserve(n);
    cap_bps_.reserve(n);
    rate_bps_.reserve(n);
    demand_bytes_.reserve(n);
    delivered_bytes_.reserve(n);
    billed_bytes_.reserve(n);
    billed_usd_.reserve(n);
    start_ns_.reserve(n);
    finish_ns_.reserve(n);
  }

  /// Create a session pinned to `cell` with the given per-bearer rate cap
  /// (0 = uncapped), in a new row.
  SessionId create(std::uint32_t cell, double cap_bps) {
    const auto id = static_cast<SessionId>(cell_.size());
    cell_.push_back(cell);
    mode_.push_back(FlowMode::Idle);
    cap_bps_.push_back(cap_bps);
    rate_bps_.push_back(0.0);
    demand_bytes_.push_back(0.0);
    delivered_bytes_.push_back(0.0);
    billed_bytes_.push_back(0.0);
    billed_usd_.push_back(0.0);
    start_ns_.push_back(-1);
    finish_ns_.push_back(-1);
    return id;
  }

  /// Slots ever allocated (column length).
  std::size_t slots() const { return cell_.size(); }

  /// Bytes of arena memory per session slot — the working-set figure the
  /// scale bench reports (every column).
  static constexpr std::size_t bytes_per_session() {
    return sizeof(std::uint32_t) + sizeof(FlowMode) + 6 * sizeof(double) +
           2 * sizeof(std::int64_t);
  }

  // Column accessors. References stay valid until the next create() that
  // grows the arena — reserve() up front makes them stable for a whole run.
  std::uint32_t& cell(SessionId id) { return cell_[id]; }
  FlowMode& mode(SessionId id) { return mode_[id]; }
  double& cap_bps(SessionId id) { return cap_bps_[id]; }
  double& rate_bps(SessionId id) { return rate_bps_[id]; }
  double& demand_bytes(SessionId id) { return demand_bytes_[id]; }
  double& delivered_bytes(SessionId id) { return delivered_bytes_[id]; }
  double& billed_bytes(SessionId id) { return billed_bytes_[id]; }
  double& billed_usd(SessionId id) { return billed_usd_[id]; }
  std::int64_t& start_ns(SessionId id) { return start_ns_[id]; }
  std::int64_t& finish_ns(SessionId id) { return finish_ns_[id]; }

  std::uint32_t cell(SessionId id) const { return cell_[id]; }
  FlowMode mode(SessionId id) const { return mode_[id]; }
  double cap_bps(SessionId id) const { return cap_bps_[id]; }
  double rate_bps(SessionId id) const { return rate_bps_[id]; }
  double demand_bytes(SessionId id) const { return demand_bytes_[id]; }
  double delivered_bytes(SessionId id) const { return delivered_bytes_[id]; }
  double billed_bytes(SessionId id) const { return billed_bytes_[id]; }
  double billed_usd(SessionId id) const { return billed_usd_[id]; }
  std::int64_t start_ns(SessionId id) const { return start_ns_[id]; }
  std::int64_t finish_ns(SessionId id) const { return finish_ns_[id]; }

  double residual_bytes(SessionId id) const { return demand_bytes_[id] - delivered_bytes_[id]; }

 private:
  // Structure-of-arrays columns (hot first: the fluid engine's order and
  // banking read cell/cap/demand/delivered; rate holds only the share
  // last published to a packet-mode ghost — FluidEngine::rate_bps is the
  // current rate of any member).
  std::vector<std::uint32_t> cell_;
  std::vector<FlowMode> mode_;
  std::vector<double> cap_bps_;
  std::vector<double> rate_bps_;
  std::vector<double> demand_bytes_;
  std::vector<double> delivered_bytes_;
  std::vector<double> billed_bytes_;
  std::vector<double> billed_usd_;
  std::vector<std::int64_t> start_ns_;
  std::vector<std::int64_t> finish_ns_;
};

}  // namespace cb::traffic
