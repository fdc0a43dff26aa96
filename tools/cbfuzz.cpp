// cbfuzz — scenario fuzzer for the CellBricks simulation checker.
//
//   cbfuzz --seeds N [--base B] [--threads T] [--cadence-s C]
//          [--protocol eps_aka|5g_aka|sap|sap_resume] [--policy a3|a3_ttt|rank]
//          [--plant-dedup-bug] [--out FILE] [--no-shrink] [--verbose]
//       Run the seed corpus [B, B+N) (each seed samples one random scenario
//       via scenario::random_scenario) under the full invariant catalogue.
//       On the first violating seed: shrink the scenario to a minimal repro,
//       write it to FILE (default cbfuzz_repro.json), print the exact replay
//       command, exit 1. Exit 0 when the whole corpus runs clean.
//
//   cbfuzz --seed S [...]
//       Single-seed corpus (same as --seeds 1 --base S).
//
//   cbfuzz --replay FILE [--cadence-s C]
//       Re-run a repro document (or bare scenario JSON) at the cadence it
//       records (1 s for a bare scenario) unless --cadence-s is given, and
//       report whether the violation still reproduces.
//
// CB_TEST_SEED overrides the corpus base when --base/--seed is not given,
// so a failing seed printed by CI can be re-run without editing anything.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "check/repro.hpp"
#include "check/runner.hpp"
#include "check/shrink.hpp"
#include "scenario/fuzz.hpp"
#include "scenario/trial_runner.hpp"

using namespace cb;

namespace {

struct Args {
  std::uint64_t base = 1;
  std::size_t seeds = 0;  // 0 = not a corpus run
  unsigned threads = 0;   // 0 = hardware concurrency
  std::optional<Duration> cadence;  // unset: 1 s, or the repro's own
  bool plant_dedup_bug = false;
  bool shrink = true;
  bool verbose = false;
  std::optional<scenario::AttachProtocol> protocol;  // unset: the sampler chooses
  std::optional<ran::ReselectionPolicyKind> policy;    // unset: the sampler chooses
  std::string out = "cbfuzz_repro.json";
  std::string replay;  // non-empty: replay mode
};

int usage() {
  std::fprintf(stderr,
               "usage: cbfuzz --seeds N [--base B] [--threads T] [--cadence-s C]\n"
               "              [--protocol eps_aka|5g_aka|sap|sap_resume]\n"
               "              [--policy a3|a3_ttt|rank]\n"
               "              [--plant-dedup-bug] [--out FILE] [--no-shrink] [--verbose]\n"
               "       cbfuzz --seed S [...]\n"
               "       cbfuzz --replay FILE [--cadence-s C]\n");
  return 2;
}

bool parse(int argc, char** argv, Args& out) {
  bool base_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (flag == "--seeds") {
      const char* v = next();
      if (v == nullptr) return false;
      out.seeds = static_cast<std::size_t>(std::atoll(v));
    } else if (flag == "--seed") {
      const char* v = next();
      if (v == nullptr) return false;
      out.base = static_cast<std::uint64_t>(std::atoll(v));
      out.seeds = 1;
      base_given = true;
    } else if (flag == "--base") {
      const char* v = next();
      if (v == nullptr) return false;
      out.base = static_cast<std::uint64_t>(std::atoll(v));
      base_given = true;
    } else if (flag == "--threads") {
      const char* v = next();
      if (v == nullptr) return false;
      out.threads = static_cast<unsigned>(std::atoi(v));
    } else if (flag == "--cadence-s") {
      const char* v = next();
      if (v == nullptr) return false;
      try {
        out.cadence = check::check_cadence(std::atof(v));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "cbfuzz: --cadence-s %s: %s\n", v, e.what());
        return false;
      }
    } else if (flag == "--protocol") {
      const char* v = next();
      if (v == nullptr) return false;
      out.protocol = scenario::from_string(v);
      if (!out.protocol || *out.protocol == scenario::AttachProtocol::Default) {
        std::fprintf(stderr, "unknown protocol: %s\n", v);
        return false;
      }
    } else if (flag == "--policy") {
      const char* v = next();
      if (v == nullptr) return false;
      out.policy = ran::from_string(v);
      if (!out.policy) {
        std::fprintf(stderr, "unknown policy: %s\n", v);
        return false;
      }
    } else if (flag == "--plant-dedup-bug") {
      out.plant_dedup_bug = true;
    } else if (flag == "--no-shrink") {
      out.shrink = false;
    } else if (flag == "--verbose") {
      out.verbose = true;
    } else if (flag == "--out") {
      const char* v = next();
      if (v == nullptr) return false;
      out.out = v;
    } else if (flag == "--replay") {
      const char* v = next();
      if (v == nullptr) return false;
      out.replay = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  if (!base_given) {
    if (const char* env = std::getenv("CB_TEST_SEED")) {
      out.base = static_cast<std::uint64_t>(std::atoll(env));
      std::fprintf(stderr, "cbfuzz: CB_TEST_SEED=%llu overrides corpus base\n",
                   static_cast<unsigned long long>(out.base));
    }
  }
  return !out.replay.empty() || out.seeds > 0;
}

scenario::FuzzScenario scenario_for(const Args& args, std::uint64_t seed) {
  scenario::FuzzScenario s = scenario::random_scenario(seed);
  s.plant_dedup_bug = args.plant_dedup_bug;
  // --protocol pins the attach axis for the whole corpus (conformance
  // sweeps); everything else about each scenario is untouched.
  if (args.protocol) s.protocol = *args.protocol;
  // --policy pins the reselection axis the same way (policy A/B sweeps).
  if (args.policy) {
    using Kind = ran::ReselectionPolicyKind;
    s.reselection_policy = *args.policy;
    // TTT gets a mid-range trigger when the sampler did not pick one.
    if (*args.policy != Kind::A3TimeToTrigger) s.ttt_ms = 0;
    if (*args.policy == Kind::A3TimeToTrigger && s.ttt_ms == 0) s.ttt_ms = 480;
    // Same churn containment as the sampler: rank on a noisy channel needs
    // at least the k=4 filter to keep the horizon tractable.
    if (*args.policy == Kind::RankBased && s.shadow_sigma_db > 0.0 && s.l3_filter_k < 4) {
      s.l3_filter_k = 4;
    }
  }
  return s;
}

void print_violations(const check::RunReport& report) {
  for (const auto& v : report.violations) {
    std::fprintf(stderr, "  %s @%.3fs: %s\n", v.invariant.c_str(), v.at.to_seconds(),
                 v.detail.c_str());
  }
}

int run_replay(const Args& args) {
  std::ifstream in(args.replay);
  if (!in) {
    std::fprintf(stderr, "cbfuzz: cannot open %s\n", args.replay.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  check::Repro repro;
  try {
    repro = check::load_repro(buf.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cbfuzz: %s\n", e.what());
    return 2;
  }
  if (args.cadence) repro.run.check_cadence = *args.cadence;
  const check::RunReport report = check::run_scenario(repro.scenario, repro.run);
  std::printf("seed %llu\nchecks_run %llu\nviolations %zu\nfingerprint %016llx\n",
              static_cast<unsigned long long>(repro.scenario.seed),
              static_cast<unsigned long long>(report.checks_run), report.violations.size(),
              static_cast<unsigned long long>(report.fingerprint()));
  if (!report.ok()) {
    std::fprintf(stderr, "cbfuzz: violation REPRODUCED from %s\n", args.replay.c_str());
    print_violations(report);
    return 1;
  }
  std::fprintf(stderr, "cbfuzz: no violation (repro did not reproduce)\n");
  return 0;
}

int run_corpus(const Args& args) {
  check::RunOptions run_options;
  if (args.cadence) run_options.check_cadence = *args.cadence;

  struct TrialResult {
    std::uint64_t seed = 0;
    std::size_t violations = 0;
    std::string first_invariant;
    std::uint64_t fingerprint = 0;
  };
  scenario::TrialRunner pool(args.threads);
  const std::vector<TrialResult> results =
      pool.map(args.seeds, [&](std::size_t i) {
        const std::uint64_t seed = args.base + i;
        const check::RunReport report = check::run_scenario(scenario_for(args, seed), run_options);
        TrialResult r;
        r.seed = seed;
        r.violations = report.violations.size();
        if (!report.ok()) r.first_invariant = report.violations.front().invariant;
        r.fingerprint = report.fingerprint();
        return r;
      });

  // Results come back in index order, so "first failing seed" is stable no
  // matter how many worker threads raced.
  const TrialResult* failing = nullptr;
  for (const auto& r : results) {
    if (args.verbose) {
      std::fprintf(stderr, "cbfuzz: seed %llu %s (fp %016llx)\n",
                   static_cast<unsigned long long>(r.seed), r.violations == 0 ? "ok" : "VIOLATION",
                   static_cast<unsigned long long>(r.fingerprint));
    }
    if (r.violations != 0 && failing == nullptr) failing = &r;
  }

  if (failing == nullptr) {
    std::printf("corpus [%llu, %llu) clean: %zu scenarios, 0 violations\n",
                static_cast<unsigned long long>(args.base),
                static_cast<unsigned long long>(args.base + args.seeds), results.size());
    return 0;
  }

  std::fprintf(stderr, "cbfuzz: seed %llu violated %s (%zu violation(s))\n",
               static_cast<unsigned long long>(failing->seed), failing->first_invariant.c_str(),
               failing->violations);
  std::fprintf(stderr, "cbfuzz: re-run just this seed: cbfuzz --seed %llu%s\n",
               static_cast<unsigned long long>(failing->seed),
               args.plant_dedup_bug ? " --plant-dedup-bug" : "");

  if (!args.shrink) {
    const check::RunReport report =
        check::run_scenario(scenario_for(args, failing->seed), run_options);
    print_violations(report);
    return 1;
  }

  check::ShrinkOptions shrink_options;
  shrink_options.run = run_options;
  const check::ShrinkResult shrunk =
      check::shrink(scenario_for(args, failing->seed), shrink_options);
  std::fprintf(stderr,
               "cbfuzz: shrunk to %zu fault(s), %d tower(s), %.0fs horizon "
               "(%zu candidates tried, %zu accepted)\n",
               shrunk.minimal.faults.size(), shrunk.minimal.n_towers, shrunk.minimal.duration_s,
               shrunk.candidates_tried, shrunk.candidates_accepted);
  std::fprintf(stderr, "cbfuzz: %s: %s\n", shrunk.witness.invariant.c_str(),
               shrunk.witness.detail.c_str());

  const std::string doc = check::write_repro(shrunk, run_options, args.out);
  std::ofstream out(args.out);
  if (!out) {
    std::fprintf(stderr, "cbfuzz: cannot write %s\n", args.out.c_str());
    return 2;
  }
  out << doc;
  out.close();
  std::fprintf(stderr, "cbfuzz: minimal repro written to %s\n", args.out.c_str());
  std::fprintf(stderr, "cbfuzz: replay with: %s\n", check::replay_command(args.out).c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return usage();
  if (!args.replay.empty()) return run_replay(args);
  return run_corpus(args);
}
