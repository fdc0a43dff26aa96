#include "check/shrink.hpp"

#include <algorithm>
#include <stdexcept>

namespace cb::check {

namespace {

using scenario::AttachProtocol;
using PolicyKind = ran::ReselectionPolicyKind;

/// True when the candidate still trips the anchored invariant; records the
/// surviving violation into `witness` when it does.
class Oracle {
 public:
  Oracle(std::string anchor, const ShrinkOptions& options)
      : anchor_(std::move(anchor)), options_(options) {}

  bool fails(const scenario::FuzzScenario& candidate, Violation* witness) {
    if (runs_ >= options_.max_runs) return false;  // budget spent: reject
    ++runs_;
    const RunReport report = run_scenario(candidate, options_.run);
    for (const auto& v : report.violations) {
      if (v.invariant == anchor_) {
        if (witness) *witness = v;
        return true;
      }
    }
    return false;
  }

  std::size_t runs() const { return runs_; }
  bool budget_left() const { return runs_ < options_.max_runs; }

 private:
  std::string anchor_;
  const ShrinkOptions& options_;
  std::size_t runs_ = 0;
};

void clamp_fault_indices(scenario::FuzzScenario& s) {
  for (auto& f : s.faults) {
    // ShardKill reuses the `telco` slot as a shard index — clamp against the
    // shard count, not the tower count.
    const std::size_t limit = f.kind == scenario::FuzzFault::Kind::ShardKill
                                  ? static_cast<std::size_t>(s.broker_shards)
                                  : static_cast<std::size_t>(s.n_towers);
    if (f.telco >= limit) f.telco = limit - 1;
  }
}

/// ddmin-style pass: delete contiguous fault chunks, halving the chunk size.
bool reduce_faults(scenario::FuzzScenario& best, Oracle& oracle, Violation& witness,
                   std::size_t& accepted) {
  bool progress = false;
  std::size_t chunk = std::max<std::size_t>(1, best.faults.size() / 2);
  while (chunk >= 1 && !best.faults.empty() && oracle.budget_left()) {
    bool removed_any = false;
    for (std::size_t start = 0; start < best.faults.size() && oracle.budget_left();) {
      scenario::FuzzScenario candidate = best;
      const std::size_t end = std::min(start + chunk, candidate.faults.size());
      candidate.faults.erase(candidate.faults.begin() + static_cast<std::ptrdiff_t>(start),
                             candidate.faults.begin() + static_cast<std::ptrdiff_t>(end));
      if (oracle.fails(candidate, &witness)) {
        best = std::move(candidate);
        ++accepted;
        removed_any = progress = true;
        // Re-test the same offset: the next chunk slid into this position.
      } else {
        start += chunk;
      }
    }
    if (chunk == 1) break;
    if (!removed_any) chunk /= 2;
  }
  return progress;
}

bool reduce_towers(scenario::FuzzScenario& best, Oracle& oracle, Violation& witness,
                   std::size_t& accepted) {
  bool progress = false;
  while (best.n_towers > 1 && oracle.budget_left()) {
    scenario::FuzzScenario candidate = best;
    candidate.n_towers = std::max(1, candidate.n_towers / 2);
    clamp_fault_indices(candidate);
    if (!oracle.fails(candidate, &witness)) {
      // Halving overshot; try the smallest single step before giving up.
      candidate = best;
      candidate.n_towers -= 1;
      clamp_fault_indices(candidate);
      if (!oracle.fails(candidate, &witness)) break;
    }
    best = std::move(candidate);
    ++accepted;
    progress = true;
  }
  return progress;
}

bool shorten_horizon(scenario::FuzzScenario& best, Oracle& oracle, Violation& witness,
                     std::size_t& accepted) {
  bool progress = false;
  // Trim to just past the fault schedule first, then halve.
  double last_fault_end = 0.0;
  for (const auto& f : best.faults) {
    last_fault_end = std::max(last_fault_end, f.start_s + f.duration_s);
  }
  const double trimmed = std::max(30.0, last_fault_end + 30.0);
  if (trimmed < best.duration_s && oracle.budget_left()) {
    scenario::FuzzScenario candidate = best;
    candidate.duration_s = trimmed;
    if (oracle.fails(candidate, &witness)) {
      best = std::move(candidate);
      ++accepted;
      progress = true;
    }
  }
  while (best.duration_s > 30.0 && oracle.budget_left()) {
    scenario::FuzzScenario candidate = best;
    candidate.duration_s = std::max(30.0, candidate.duration_s / 2.0);
    if (!oracle.fails(candidate, &witness)) break;
    best = std::move(candidate);
    ++accepted;
    progress = true;
  }
  return progress;
}

bool simplify_knobs(scenario::FuzzScenario& best, Oracle& oracle, Violation& witness,
                    std::size_t& accepted) {
  bool progress = false;
  struct Tweak {
    const char* name;
    void (*apply)(scenario::FuzzScenario&);
    bool (*applicable)(const scenario::FuzzScenario&);
  };
  static constexpr Tweak kTweaks[] = {
      {"app-off", [](scenario::FuzzScenario& s) { s.app = 0; },
       [](const scenario::FuzzScenario& s) { return s.app != 0; }},
      {"radio-loss-off", [](scenario::FuzzScenario& s) { s.radio_loss = 0.0; },
       [](const scenario::FuzzScenario& s) { return s.radio_loss != 0.0; }},
      {"honest-telco", [](scenario::FuzzScenario& s) { s.telco0_overreport = 1.0; },
       [](const scenario::FuzzScenario& s) { return s.telco0_overreport != 1.0; }},
      {"honest-ue", [](scenario::FuzzScenario& s) { s.ue_underreport = 1.0; },
       [](const scenario::FuzzScenario& s) { return s.ue_underreport != 1.0; }},
      {"policy-default", [](scenario::FuzzScenario& s) { s.unlimited_policy = false; },
       [](const scenario::FuzzScenario& s) { return s.unlimited_policy; }},
      {"fluid-off",
       [](scenario::FuzzScenario& s) {
         // Clear the mode too: with the phase off it is canonically false
         // (the repro serializer omits it), and leaving it set would make
         // the round-tripped minimal scenario compare unequal.
         s.fluid_ues = 0;
         s.fluid_hybrid = false;
       },
       [](const scenario::FuzzScenario& s) { return s.fluid_ues > 0; }},
      {"fluid-no-hybrid", [](scenario::FuzzScenario& s) { s.fluid_hybrid = false; },
       [](const scenario::FuzzScenario& s) { return s.fluid_ues > 0 && s.fluid_hybrid; }},
      {"resume-off", [](scenario::FuzzScenario& s) { s.protocol = AttachProtocol::Sap; },
       [](const scenario::FuzzScenario& s) { return s.protocol == AttachProtocol::SapResume; }},
      {"fading-off",
       [](scenario::FuzzScenario& s) {
         // Quiet channel: pure path loss (the pre-measurement engine).
         // Decorrelation is canonically back at its default once sigma is 0
         // (the serializer omits both together).
         s.shadow_sigma_db = 0.0;
         s.decorrelation_m = 50.0;
         s.fast_fading = false;
       },
       [](const scenario::FuzzScenario& s) {
         return s.shadow_sigma_db != 0.0 || s.fast_fading;
       }},
      {"policy-a3",
       [](scenario::FuzzScenario& s) {
         s.reselection_policy = PolicyKind::A3Hysteresis;
         s.ttt_ms = 0;
       },
       [](const scenario::FuzzScenario& s) {
         return s.reselection_policy != PolicyKind::A3Hysteresis;
       }},
      {"l3-off", [](scenario::FuzzScenario& s) { s.l3_filter_k = 0; },
       [](const scenario::FuzzScenario& s) { return s.l3_filter_k != 0; }},
      {"protocol-eps",
       [](scenario::FuzzScenario& s) {
         // Collapse the protocol axis to the EPS-AKA baseline — the
         // smallest attach machinery (no broker, no tickets, two HSS
         // round-trips). Only survives when the violation is not tied to
         // the CellBricks layers, i.e. it genuinely simplifies the repro.
         s.protocol = AttachProtocol::EpsAka;
       },
       [](const scenario::FuzzScenario& s) { return s.protocol != AttachProtocol::EpsAka; }},
      {"single-shard",
       [](scenario::FuzzScenario& s) {
         // Collapse the broker cluster; shard kills are meaningless on a
         // single broker, so drop them for a canonical minimal scenario.
         s.broker_shards = 1;
         std::erase_if(s.faults, [](const scenario::FuzzFault& f) {
           return f.kind == scenario::FuzzFault::Kind::ShardKill;
         });
       },
       [](const scenario::FuzzScenario& s) { return s.broker_shards > 1; }},
  };
  for (const auto& tweak : kTweaks) {
    if (!tweak.applicable(best) || !oracle.budget_left()) continue;
    scenario::FuzzScenario candidate = best;
    tweak.apply(candidate);
    if (oracle.fails(candidate, &witness)) {
      best = std::move(candidate);
      ++accepted;
      progress = true;
    }
  }
  return progress;
}

}  // namespace

ShrinkResult shrink(const scenario::FuzzScenario& failing, const ShrinkOptions& options) {
  // Establish the anchor from a fresh run of the input.
  const RunReport initial = run_scenario(failing, options.run);
  if (initial.ok()) {
    throw std::invalid_argument("shrink: scenario does not violate any invariant");
  }

  ShrinkResult result;
  result.anchor = initial.violations.front().invariant;
  result.witness = initial.violations.front();
  result.minimal = failing;

  Oracle oracle(result.anchor, options);
  bool progress = true;
  while (progress && oracle.budget_left()) {
    progress = false;
    progress |= reduce_faults(result.minimal, oracle, result.witness,
                              result.candidates_accepted);
    progress |= reduce_towers(result.minimal, oracle, result.witness,
                              result.candidates_accepted);
    progress |= shorten_horizon(result.minimal, oracle, result.witness,
                                result.candidates_accepted);
    progress |= simplify_knobs(result.minimal, oracle, result.witness,
                               result.candidates_accepted);
  }
  result.candidates_tried = oracle.runs();
  return result;
}

}  // namespace cb::check
