// Operator traffic-management policy applied to a subscriber's bearer.
//
// Appendix A of the paper measured T-Mobile enforcing starkly different rate
// limits by time of day: ~1.03 Mb/s mean (σ 0.32, peak 1.75) during the day
// vs ~14.95 Mb/s mean (σ 8.94, peak 52.5) after ~12:30 am. BearerShaper
// reproduces that by resampling the radio-link rate every second from the
// active policy's distribution.
#pragma once

#include <algorithm>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "net/link.hpp"
#include "sim/simulator.hpp"

namespace cb::ran {

/// Time-of-day rate-limit policy (Appendix A calibration).
struct RatePolicy {
  double mean_bps;
  double stddev_bps;
  double min_bps;
  double max_bps;

  /// Daytime T-Mobile policy: ~1 Mb/s, tight variance.
  static RatePolicy day() { return {1.03e6, 0.30e6, 0.5e6, 1.75e6}; }
  /// Night policy: high mean, high variance.
  static RatePolicy night() { return {14.95e6, 8.94e6, 2.0e6, 52.5e6}; }
  /// No operator cap (bounded only by the PHY).
  static RatePolicy unlimited() { return {0.0, 0.0, 0.0, 0.0}; }

  bool is_unlimited() const { return max_bps == 0.0; }

  double sample(Rng& rng) const {
    if (is_unlimited()) return 0.0;
    return std::clamp(rng.normal(mean_bps, stddev_bps), min_bps, max_bps);
  }
};

/// Periodically re-applies the policy (and the PHY ceiling) to one radio
/// link direction; models the per-UE shaper in the operator's scheduler.
class BearerShaper {
 public:
  /// `phy_rate_fn` returns the instantaneous achievable PHY rate (bps) —
  /// zero to leave the PHY unconstrained. The enforced link rate is
  /// min(policy sample, phy rate), resampled every `interval`.
  BearerShaper(sim::Simulator& sim, net::Link& link, net::Node* downlink_from,
               RatePolicy policy, std::function<double()> phy_rate_fn,
               Duration interval = Duration::s(1));
  ~BearerShaper();

  const RatePolicy& policy() const { return policy_; }

  /// Additional hard ceiling (e.g. a broker-assigned QoS rate in
  /// CellBricks); 0 removes the cap.
  void set_cap_bps(double cap) { cap_bps_ = cap; }
  double cap_bps() const { return cap_bps_; }

 private:
  void tick();

  sim::Simulator& sim_;
  net::Link& link_;
  net::Node* from_;
  RatePolicy policy_;
  std::function<double()> phy_rate_fn_;
  Duration interval_;
  double cap_bps_ = 0.0;
  double policy_cap_ = 0.0;  // AR(1) state of the operator-policy rate
  Rng rng_;
  sim::EventHandle timer_;
};

}  // namespace cb::ran
