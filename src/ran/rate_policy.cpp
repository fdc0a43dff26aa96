#include "ran/rate_policy.hpp"
#include <cmath>

#include "obs/metrics.hpp"

namespace cb::ran {

BearerShaper::BearerShaper(sim::Simulator& sim, net::Link& link, net::Node* downlink_from,
                           RatePolicy policy, std::function<double()> phy_rate_fn,
                           Duration interval)
    : sim_(sim),
      link_(link),
      from_(downlink_from),
      policy_(policy),
      phy_rate_fn_(std::move(phy_rate_fn)),
      interval_(interval),
      rng_(sim.rng().fork(0x5A7E)) {
  tick();
}

BearerShaper::~BearerShaper() { timer_.cancel(); }

void BearerShaper::tick() {
  const double phy = phy_rate_fn_ ? phy_rate_fn_() : 0.0;
  // AR(1) evolution of the policy rate: stationary mean/stddev match the
  // policy, but consecutive seconds are correlated (rate cliffs in the
  // operator scheduler are rare; fading and load shift gradually).
  double cap = 0.0;
  if (!policy_.is_unlimited()) {
    constexpr double kRho = 0.7;
    if (policy_cap_ <= 0.0) {
      policy_cap_ = policy_.sample(rng_);
    } else {
      const double innovation =
          rng_.normal(0.0, policy_.stddev_bps * std::sqrt(1.0 - kRho * kRho));
      policy_cap_ = policy_.mean_bps + kRho * (policy_cap_ - policy_.mean_bps) + innovation;
      policy_cap_ = std::clamp(policy_cap_, policy_.min_bps, policy_.max_bps);
    }
    cap = policy_cap_;
  }
  double rate = 0.0;
  if (phy > 0.0 && cap > 0.0) {
    rate = std::min(phy, cap);
  } else {
    rate = std::max(phy, cap);  // whichever constraint exists
  }
  if (cap_bps_ > 0.0 && (rate == 0.0 || cap_bps_ < rate)) rate = cap_bps_;
  obs::set(obs::gauge("ran.shaper.rate_bps"), rate);

  net::LinkParams params = link_.params(from_);
  params.rate_bps = rate;
  link_.set_params(from_, params);
  // The uplink direction is shaped identically (symmetric policy).
  net::Node* peer = link_.peer(from_);
  net::LinkParams up = link_.params(peer);
  up.rate_bps = rate;
  link_.set_params(peer, up);

  timer_ = sim_.schedule(interval_, [this] { tick(); });
}

}  // namespace cb::ran
