#!/usr/bin/env bash
# CI entry point: two-config matrix.
#
#   1. Debug + ASan/UBSan (leak checking ENABLED) — tier-1 tests, including
#      the Obs* observability suites. Memory bugs in the event-driven
#      callback soup are exactly the kind the sanitizers catch and unit
#      tests miss; the transport-layer socket cycles that used to force
#      detect_leaks=0 were broken up in PR 3.
#   2. Release — tier-1 tests at the optimization level users run, the
#      benchmark harness (cbbench/, its own CMake project over src/) built
#      from this tree with its gate self-test (cbbench/test_gates.py), plus
#      a bench smoke run that validates the BENCH_*.json schema, the metrics
#      section, and the instrumentation-overhead budget.
#
# Usage: tools/ci.sh [--skip-sanitized]
set -euo pipefail

cd "$(dirname "$0")/.."

echo "=== one broker client (source guard) ==="
# BrokerChannel (DESIGN.md §6) is the only client of the broker protocol: it
# frames every request and decodes every reply. Outside the channel and the
# broker itself, no source file may write or read a BrokerMsg type byte.
broker_frames=$(grep -rnE \
  'static_cast<std::uint8_t>\((cellbricks::)?BrokerMsg::|static_cast<(cellbricks::)?BrokerMsg>\(' \
  src --exclude=broker_channel.cpp --exclude=broker_cluster.cpp || true)
if [[ -n "$broker_frames" ]]; then
  echo "broker frames written or parsed outside BrokerChannel:"
  echo "$broker_frames"
  exit 1
fi
echo "one broker client ok"

echo "=== one attach-protocol axis (source guard) ==="
# AttachProtocol names the attach axis (DESIGN.md §14). The architecture enum
# lives on only in scenario/world.{hpp,cpp}, as the type of the field cbbench
# sets (ROADMAP item 4); the bracket keeps this script from matching itself.
arch_uses=$(grep -rnw 'Architectur[e]' src tools bench examples |
  grep -vE '^src/scenario/world\.(hpp|cpp):' || true)
if [[ -n "$arch_uses" ]]; then
  echo "the architecture enum used outside scenario/world.{hpp,cpp}:"; echo "$arch_uses"
  exit 1
fi
echo "one attach-protocol axis ok"

echo "=== one report frame (source guard) ==="
# ReportFrame (cellbricks/billing.hpp) is the only writer and reader of the
# sealed report frame {str reporter_id, u8 reporter, bytes report, bytes sig}.
# Outside billing.cpp, no source file may write a reporter byte (a Reporter
# enumerator, or a `side`/`reporter` variable, cast to u8) or read one (a u8
# cast to Reporter). The settlement-entry codec is a separate format.
report_frames=$(grep -rnE \
  -e 'u8\(static_cast<std::uint8_t>\(((cellbricks::)?Reporter::[A-Za-z]+|side|reporter)\)\)' \
  -e 'static_cast<(cellbricks::)?Reporter>\([A-Za-z_]+\.u8\(\)\)' \
  src --exclude=billing.cpp --exclude=settlement_log.cpp || true)
if [[ -n "$report_frames" ]]; then
  echo "report frames written or parsed outside ReportFrame:"
  echo "$report_frames"
  exit 1
fi
echo "one report frame ok"

run_suite() {
  local build_dir="$1" exclude="$2"
  shift 2
  cmake -B "$build_dir" -S . "$@"
  cmake --build "$build_dir" -j "$(nproc)"
  # Tests are labeled unit / property / fuzz / scale (ctest -L <tier>
  # selects one). The fuzz corpus is excluded here and run in its own leg
  # below, where a violation also produces a shrunk repro file instead of a
  # bare failure. The scale-labeled runs (mid-size fluid sweeps and the
  # 1M-UE curve point) are Release-only — far too slow under the
  # sanitizers. The fluid engine's oracle churn test is NOT scale-labeled
  # on purpose: it runs in this ASan leg (and at 8 seeds in the seed-sweep
  # leg below), where a fill-order, heap-index or capped-prefix bookkeeping
  # bug shows up as a concrete memory error.
  ctest --test-dir "$build_dir" --output-on-failure -LE "$exclude"
}

echo "=== sanitized build (Debug, address,undefined, leaks on) ==="
if [[ "${1:-}" != "--skip-sanitized" ]]; then
  run_suite build-asan 'fuzz|scale' -DCMAKE_BUILD_TYPE=Debug -DCB_SANITIZE=address,undefined
else
  echo "skipped (--skip-sanitized)"
fi

echo "=== seed sweeps (ASan/UBSan) ==="
# Each randomized property below draws one random program per CB_TEST_SEED,
# so the leg above runs it at one seed. Run each at 8 seeds here; a failure
# names the rerun command.
#  - MontgomeryDiff: the fixed-width CIOS kernels (DESIGN.md §8) take carry
#    paths that depend on operand values, and one seed draws only 36 random
#    modulus/base/exponent triples; the output-byte pins (CryptoGolden) ride
#    along, since their seeds are fixed they must pass at every one.
#  - ByteQueue.MatchesDequeOracle: TCP and MPTCP pass payloads as views into
#    ByteQueues (DESIGN.md §8); a view read after its queue grew or was
#    cleared reads freed memory, which only ASan reports.
#  - Fluid.MatchesFromScratchOracleUnderChurn: the virtual-clock fluid
#    engine (DESIGN.md §13) keeps each member's heap index beside its tag
#    and moves members across a capped-prefix boundary by index arithmetic;
#    this Debug build keeps the engine's index and class asserts (40
#    streams of 120 ops per seed).
#  - Simulator.MatchesReferenceOrderUnderChurn: the event engine (DESIGN.md
#    §8) splits its queue into a same-instant lane and a 4-ary heap; a lane
#    served out of turn or a sift that skips a child reorders events without
#    crashing (40 programs of 600 scheduled events per seed).
if [[ "${1:-}" != "--skip-sanitized" ]]; then
  for sweep in "test_crypto_extra MontgomeryDiff.*:CryptoGolden.*" \
               "test_transport_units ByteQueue.MatchesDequeOracle" \
               "test_traffic Fluid.MatchesFromScratchOracleUnderChurn" \
               "test_sim Simulator.MatchesReferenceOrderUnderChurn"; do
    read -r suite filter <<<"$sweep"
    for seed in 1 2 3 4 5 6 7 8; do
      CB_TEST_SEED=$seed ./build-asan/tests/$suite --gtest_brief=1 --gtest_filter="$filter" || {
        echo "seed sweep FAILED — rerun: CB_TEST_SEED=$seed" \
             "build-asan/tests/$suite --gtest_filter='$filter'"
        exit 1
      }
    done
  done
  echo "seed sweeps ok"
else
  echo "skipped (--skip-sanitized)"
fi

echo "=== thread-sanitized TrialRunner check (TSan) ==="
# TrialRunner (scenario/trial_runner.hpp) is the one thread pool in the
# tree: it runs cbfuzz's corpus, the chaos determinism replicas and the
# benches' sweep points. An output-equality check is weak evidence against a
# timing-dependent race, such as a worker still signalling a batch that
# map() has already destroyed; TSan reports the unsynchronized accesses
# themselves. TSan is incompatible with ASan, hence its own build; only the
# three test binaries that hold TrialRunner tests are built, and the three
# filters below run all of them.
if [[ "${1:-}" != "--skip-sanitized" ]]; then
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCB_SANITIZE=thread
  cmake --build build-tsan -j "$(nproc)" --target test_scenario test_obs test_faults
  for run in "test_scenario TrialRunnerEdge.*" "test_obs ObsTrialRunner.*" \
             "test_faults Chaos.TrialRunnerWorkerThreadIsBitIdentical"; do
    read -r suite filter <<<"$run"
    TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/$suite --gtest_filter="$filter" || {
      echo "TSan TrialRunner check FAILED — rerun: build-tsan/tests/$suite" \
           "--gtest_filter='$filter'"
      exit 1
    }
  done
  echo "TSan TrialRunner check ok"
else
  echo "skipped (--skip-sanitized)"
fi

echo "=== release build (incl. scale-labeled fluid tests) ==="
run_suite build fuzz -DCMAKE_BUILD_TYPE=Release

echo "=== benchmark build and gate self-test (Release) ==="
# cbbench/ is its own CMake project over src/, and no suite above builds it:
# a src/ change that breaks the benchmark's build (a renamed function, a
# deleted config field) would pass them. test_gates.py builds
# .bench_build/cbbench from this tree, checks that a clean storm run passes,
# and that four doctored results each fail their gate.
python3 cbbench/test_gates.py || {
  echo "benchmark gate self-test FAILED — rerun: python3 cbbench/test_gates.py"
  exit 1
}
echo "benchmark gate self-test ok"

echo "=== sharded-broker chaos replay gate (Release) ==="
# Failover determinism (DESIGN.md §12): the same seeded shard-kill trial run
# twice must produce bit-identical fingerprints, lose zero billing verdicts,
# and author no conflicting verdicts. The bench exits nonzero on any of the
# three — a hard CI failure.
build/bench/bench_broker_shards --replay >/dev/null || {
  echo "chaos replay gate FAILED — rerun: build/bench/bench_broker_shards --replay"
  exit 1
}
echo "chaos replay gate ok"

echo "=== sharded-broker scaling gate (Release) ==="
# The full sweep (DESIGN.md §12): 1200 reports/s offered to 1, 2, 4 and 8
# shards. One shard serves ~1000 reports/s, so its point is past the knee;
# there too every report must be acked, none abandoned after its last
# resend, and no verdict lost or in conflict. The bench exits nonzero on any
# of these.
build/bench/bench_broker_shards >/dev/null || {
  echo "shard scaling gate FAILED — rerun: build/bench/bench_broker_shards"
  exit 1
}
echo "shard scaling gate ok"

echo "=== chaos fault-list dump/replay gate (Release) ==="
# One fault list (DESIGN.md §6): the chaos bench writes its built-in
# schedule with the repro codec (--dump-faults), then runs again on the
# schedule read back from that file (--replay). Both runs must pass the
# bench's own gates and print the same state and trace fingerprints.
chaos_dir=$(mktemp -d)
if ! build/bench/bench_chaos_availability --dump-faults "$chaos_dir/faults.json" \
       >"$chaos_dir/dump.txt" ||
   ! build/bench/bench_chaos_availability --replay "$chaos_dir/faults.json" \
       >"$chaos_dir/replay.txt"; then
  echo "chaos fault-list gate FAILED — rerun: build/bench/bench_chaos_availability" \
       "--dump-faults F, then --replay F"
  exit 1
fi
fp_dump=$(grep -E '^(state|trace) fingerprint ' "$chaos_dir/dump.txt" || true)
fp_replay=$(grep -E '^(state|trace) fingerprint ' "$chaos_dir/replay.txt" || true)
rm -rf "$chaos_dir"
if [[ $(grep -c fingerprint <<<"$fp_dump") -ne 2 || "$fp_dump" != "$fp_replay" ]]; then
  echo "chaos fault-list gate FAILED — the replayed schedule changed the fingerprints:"
  printf 'dump:\n%s\nreplay:\n%s\n' "$fp_dump" "$fp_replay"
  exit 1
fi
echo "chaos fault-list gate ok"

echo "=== fuzz smoke (96-seed corpus + protocol-pinned sweeps, shrink-on-fail) ==="
# Full 96 seeds on the release binary (the corpus grew with the attach-
# protocol axis: ~20% of sampled scenarios are EPC baselines, ~40% of the
# SAP ones carry resumption tickets); a front slice of the same corpus on
# the sanitized one (≈35x slower), catching memory bugs the invariants
# can't. On violation cbfuzz exits nonzero after shrinking the failing
# seed to a minimal repro — the artifact to attach to the bug report.
run_fuzz() {
  if ! "$1" --seeds "$2" ${3:+--protocol "$3"} ${4:+--policy "$4"} --out fuzz_repro.json; then
    echo "fuzz smoke FAILED — minimal repro in fuzz_repro.json:"
    cat fuzz_repro.json
    exit 1
  fi
}
run_fuzz build/tools/cbfuzz 96
# Pinned sweeps: the same chaos schedules under each attach protocol, so
# every protocol sees every fault class regardless of the sampler's mix.
for proto in eps_aka 5g_aka sap_resume; do
  run_fuzz build/tools/cbfuzz 16 "$proto"
done
# Reselection-policy sweeps: the damped (a3_ttt) and strawman (rank)
# policies pinned across the corpus so the ran.* invariants (margin evidence,
# hold times, change conservation) see both extremes under chaos, not just
# the sampler's policy mix.
for policy in a3_ttt rank; do
  run_fuzz build/tools/cbfuzz 16 "" "$policy"
done
[[ -x build-asan/tools/cbfuzz ]] && run_fuzz build-asan/tools/cbfuzz 8

echo "=== bench smoke (schema check) ==="
tools/bench.sh --smoke
python3 - <<'EOF'
import json
sap = json.load(open("BENCH_sap.json"))
scale = json.load(open("BENCH_scale.json"))
for doc, keys in ((sap, ("bench", "mode", "baseline", "current", "speedup", "attach")),
                  (scale, ("bench", "mode", "baseline", "current", "speedup",
                           "instrumentation", "points", "scale_curve",
                           "agreement", "mttho", "metrics",
                           "broker_shards"))):
    missing = [k for k in keys if k not in doc]
    assert not missing, f"{doc.get('bench')}: missing keys {missing}"
assert sap["bench"] == "sap_crypto" and scale["bench"] == "scale_users"

# Attach-protocol suite (DESIGN.md §14): per-protocol attach-latency baseline
# plus the fig8 re-attach gate — sap_resume strictly below sap.
att = sap["attach"]
for k in ("baseline", "current", "fig8_reattach", "fig9_recovery"):
    assert k in att, f"attach: missing key {k}"
for p in ("eps_aka_ms", "5g_aka_ms", "sap_ms", "sap_resume_ms",
          "fig8_reattach_delta_ms"):
    assert p in att["current"] and p in att["baseline"], f"attach: missing {p}"
ra = att["fig8_reattach"]
assert ra["pass"] and ra["delta_ms"] > 0
assert ra["sap_resume"]["mean_ms"] < ra["sap"]["mean_ms"], \
    "sap_resume re-attach latency not strictly below sap"
assert ra["sap_resume"]["resumes"] > 0
for proto in ("sap", "sap_resume"):
    assert len(att["fig9_recovery"][proto]["windows_pct"]) == 9
assert all(k in scale["points"][0] for k in ("n_ues", "arch", "loss", "mean_ms",
                                             "p99_ms", "completed", "wall_s",
                                             "sim_s", "sim_per_wall"))

# Fluid scale curve + agreement gate (DESIGN.md §11): every point complete,
# wall/sim/RSS reported, and the two fidelity modes in agreement.
assert scale["current"]["threads"] >= 1 and "fluid_wall_s" in scale["current"]
assert scale["current"]["rss_mode"] in ("reset", "delta")
for p in scale["scale_curve"]:
    assert p["completed"] == p["n_ues"], f"incomplete scale point: {p}"
    assert all(k in p for k in ("wall_s", "sim_s", "sim_per_wall",
                                "peak_rss_mb", "events", "rate_events"))
assert scale["agreement"]["pass"], f"agreement gate failed: {scale['agreement']}"

# Measured-MTTHO section (DESIGN.md §15): Table 1's handover cadence as a
# measured output of the reselection loop, gated at ±20% of the calibration
# target, with all three policy arms (a3 / a3_ttt / rank) populated.
mt = scale["mttho"]
for k in ("route", "expected_s", "measured_s", "policy", "handovers",
          "arms", "pass"):
    assert k in mt, f"mttho: missing key {k}"
assert mt["pass"], f"mttho calibration gate failed: {mt}"
assert 0.8 * mt["expected_s"] <= mt["measured_s"] <= 1.2 * mt["expected_s"]
for arm in ("a3", "a3_ttt", "rank"):
    assert mt["arms"][arm]["handovers"] >= 2, f"mttho arm {arm} degenerate"

# Observability snapshot schema (DESIGN.md §9): the four sections, the SAP
# latency histogram with its full summary tuple, the attach + report-
# alignment counters, and the flight-recorder fingerprint.
m = scale["metrics"]
for section in ("counters", "gauges", "histograms", "trace"):
    assert section in m, f"metrics: missing section {section}"
for c in ("broker.sap.requests", "btelco.attaches", "broker.reports.ingested",
          "broker.reports.unpaired_expired"):
    assert c in m["counters"], f"metrics: missing counter {c}"
sap_hist = m["histograms"]["broker.sap_latency_ms"]
for k in ("count", "sum", "min", "max", "p50", "p95", "p99"):
    assert k in sap_hist, f"broker.sap_latency_ms: missing {k}"
assert sap_hist["count"] > 0
assert m["trace"]["fingerprint"].startswith("0x")
inst = scale["instrumentation"]
assert inst["overhead_pct"] <= inst["budget_pct"]

# Sharded-broker schema (DESIGN.md §12): the replay gate, the failover
# availability gate, and a scaling curve over 1/2/4/8 shards.
bs = scale["broker_shards"]
for k in ("smoke", "replay_identical", "failover", "scaling"):
    assert k in bs, f"broker_shards: missing key {k}"
assert bs["replay_identical"], "broker_shards: same-seed replay diverged"
for k in ("reports_ingested", "ingest_rps", "verdicts_paired", "verdicts_lost",
          "verdict_conflicts", "takeovers", "ack_p50_ms", "ack_p99_ms",
          "fingerprint"):
    assert k in bs["failover"], f"broker_shards.failover: missing {k}"
assert bs["failover"]["verdicts_lost"] == 0
assert bs["failover"]["verdict_conflicts"] == 0
assert bs["failover"]["takeovers"] > 0
assert [p["n_shards"] for p in bs["scaling"]] == [1, 2, 4, 8]
for p in bs["scaling"]:
    assert p["point"]["verdicts_lost"] == 0, f"scaling point lost verdicts: {p}"
print("BENCH_*.json schema ok (incl. metrics + broker_shards sections)")
EOF
# Smoke numbers are not representative — restore the committed full-run JSONs.
git checkout -- BENCH_sap.json BENCH_scale.json 2>/dev/null || true

echo "CI passed"
