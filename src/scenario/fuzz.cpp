#include "scenario/fuzz.hpp"

#include <algorithm>

namespace cb::scenario {

FuzzScenario random_scenario(std::uint64_t seed) {
  // The tag keeps the generator stream independent of the world's own
  // Rng(seed) streams, so sampling a scenario never correlates with the
  // randomness inside the run it describes.
  Rng rng = Rng(seed).fork(0xF022);

  FuzzScenario s;
  s.seed = seed;
  s.n_towers = 1 + static_cast<int>(rng.next_below(8));
  s.night = rng.chance(0.5);
  // Geometry: spacing and a target mean-time-to-handover pick the speed,
  // spanning the paper's Table 1 envelope (25..90 s MTTHO).
  s.tower_spacing_m = rng.uniform(400.0, 1500.0);
  s.speed_mps = s.tower_spacing_m / rng.uniform(25.0, 90.0);
  s.duration_s = rng.uniform(60.0, 240.0);
  s.radio_loss = rng.chance(0.3) ? rng.uniform(0.0, 0.03) : 0.0;
  s.unlimited_policy = rng.chance(0.25);
  const double intervals[] = {5.0, 10.0, 20.0};
  s.report_interval_s = intervals[rng.next_below(3)];
  // Mostly honest worlds; occasionally a dishonest party so the reputation
  // invariants exercise their gated branches too.
  if (rng.chance(0.15)) s.telco0_overreport = rng.uniform(1.1, 1.8);
  if (rng.chance(0.15)) s.ue_underreport = rng.uniform(0.5, 0.9);
  s.app = static_cast<int>(rng.next_below(4));
  // Traffic phase: sampled often enough that every corpus sweep crosses the
  // fluid/packet boundary a few times. Small populations — the invariant
  // sweep is O(UEs) per tick and shrinking prefers dropping the phase whole.
  if (rng.chance(0.35)) {
    s.fluid_ues = 8 + static_cast<int>(rng.next_below(57));  // 8..64
    s.fluid_hybrid = rng.chance(0.5);
  }
  // Sharded broker deployments: sampled at ~30% so the settlement-log
  // invariants (prefix agreement, verdict uniqueness, no verdict loss) run
  // under the same chaos schedules as the single-broker world.
  if (rng.chance(0.3)) s.broker_shards = 1 << (1 + rng.next_below(3));  // 2/4/8

  const std::size_t n_faults = rng.next_below(6);  // 0..5
  for (std::size_t i = 0; i < n_faults; ++i) {
    FuzzFault f;
    // ShardKill is only meaningful on sharded worlds; keep the draw count
    // identical either way so fault schedules stay comparable across knobs.
    const std::uint64_t n_kinds = s.broker_shards > 1 ? 5 : 4;
    f.kind = static_cast<FuzzFault::Kind>(rng.next_below(n_kinds));
    f.start_s = rng.uniform(5.0, std::max(6.0, s.duration_s - 10.0));
    f.duration_s = rng.uniform(2.0, 30.0);
    switch (f.kind) {
      case FuzzFault::Kind::TelcoCrash:
        f.telco = rng.next_below(static_cast<std::uint64_t>(s.n_towers));
        break;
      case FuzzFault::Kind::ShardKill:
        f.telco = rng.next_below(static_cast<std::uint64_t>(s.broker_shards));
        break;
      case FuzzFault::Kind::WanDegrade:
        f.loss = rng.uniform(0.05, 0.6);
        f.corrupt = rng.chance(0.3) ? rng.uniform(0.0, 0.05) : 0.0;
        break;
      default:
        break;
    }
    s.faults.push_back(f);
  }
  // Protocol axis — draws APPENDED after every existing draw, so scenarios
  // sampled by older corpora keep their exact shape for any fixed seed.
  // ~20% EPC baselines (split EPS-AKA / 5G-AKA) so the attach invariants see
  // the MNO world under chaos; resumption rides on ~half the SAP worlds.
  if (rng.chance(0.2)) {
    s.protocol = rng.chance(0.5) ? AttachProtocol::EpsAka : AttachProtocol::Aka5g;
  } else if (rng.chance(0.5)) {
    s.protocol = AttachProtocol::SapResume;
  }
  // Measurement axis — again appended, again with a fixed draw count per
  // branch so older seeds reproduce bit-exactly. ~35% of worlds get a noisy
  // channel; the policy draw is independent so the A/B runs both with and
  // without fading.
  if (rng.chance(0.35)) {
    s.shadow_sigma_db = rng.uniform(2.0, 8.0);
    s.decorrelation_m = rng.uniform(25.0, 110.0);
    s.fast_fading = rng.chance(0.4);
  }
  const std::uint64_t policy = rng.next_below(4);  // 0/1 -> A3 (weighted)
  if (policy == 2) {
    s.reselection_policy = ran::ReselectionPolicyKind::A3TimeToTrigger;
    const int ttts[] = {160, 320, 480, 640};
    s.ttt_ms = ttts[rng.next_below(4)];
  } else if (policy == 3) {
    s.reselection_policy = ran::ReselectionPolicyKind::RankBased;
  }
  if (rng.chance(0.3)) {
    const int ks[] = {4, 8, 12};
    s.l3_filter_k = ks[rng.next_below(3)];
  }
  // Rank-based reselection on a noisy channel with no smoothing ping-pongs
  // pathologically (that is the point of the strawman, but it swamps the
  // checker's horizon); give those worlds at least the k=4 filter. Pure
  // post-processing — no extra rng draws.
  if (s.reselection_policy == ran::ReselectionPolicyKind::RankBased && s.shadow_sigma_db > 0.0 &&
      s.l3_filter_k < 4) {
    s.l3_filter_k = 4;
  }
  // Sorted by start time so the schedule reads chronologically and shrinking
  // (which drops list prefixes/suffixes) removes contiguous time ranges.
  std::stable_sort(s.faults.begin(), s.faults.end(),
                   [](const FuzzFault& a, const FuzzFault& b) { return a.start_s < b.start_s; });
  return s;
}

}  // namespace cb::scenario
