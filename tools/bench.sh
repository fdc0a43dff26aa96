#!/usr/bin/env bash
# Perf baseline tracker: runs the two headline benchmarks against a Release
# build and writes BENCH_sap.json + BENCH_scale.json at the repo root, each
# recording the frozen pre-PR3 baseline, the current numbers, and the
# resulting speedup. Re-run after any hot-path change and commit the JSONs
# so the perf trajectory stays in-repo (see EXPERIMENTS.md).
#
# Also guards the observability layer's cost claim: the full storm sweep of
# bench_scale_users runs in 30 adjacent metrics-enabled / --no-metrics pairs
# (in --smoke mode too), the median ratio of their process CPU seconds is
# recorded under "instrumentation" in BENCH_scale.json, and the script fails
# if instrumentation costs more than 5%.
#
# Usage: tools/bench.sh [--smoke] [--build-dir DIR]
#   --smoke      reduced point set / fewer repetitions; used by tools/ci.sh
#                to validate the JSON schema quickly. Smoke numbers are NOT
#                representative — never commit JSONs from a smoke run.
#   --build-dir  benchmark binaries location (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."

SMOKE=0
BUILD_DIR=build
while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) SMOKE=1 ;;
    --build-dir) BUILD_DIR="$2"; shift ;;
    *) echo "unknown arg: $1" >&2; exit 2 ;;
  esac
  shift
done

SAP_BIN="$BUILD_DIR/bench/bench_sap_crypto"
SCALE_BIN="$BUILD_DIR/bench/bench_scale_users"
SHARDS_BIN="$BUILD_DIR/bench/bench_broker_shards"
FIG7_BIN="$BUILD_DIR/bench/bench_fig7_attach_latency"
FIG8_BIN="$BUILD_DIR/bench/bench_fig8_handover_timeseries"
FIG9_BIN="$BUILD_DIR/bench/bench_fig9_attach_latency_sweep"
for bin in "$SAP_BIN" "$SCALE_BIN" "$SHARDS_BIN" "$FIG7_BIN" "$FIG8_BIN" "$FIG9_BIN"; do
  if [[ ! -x "$bin" ]]; then
    echo "missing $bin — build first: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
    exit 1
  fi
done

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# --- RSA/SAP crypto microbench (google-benchmark JSON) -----------------------
if [[ "$SMOKE" == 1 ]]; then
  REPS=1
  FILTER='--benchmark_filter=BM_Rsa(Sign|Verify)1024'
else
  REPS=3
  FILTER='--benchmark_filter=.'
fi
"$SAP_BIN" "$FILTER" \
  --benchmark_repetitions="$REPS" --benchmark_report_aggregates_only=true \
  --benchmark_format=json --benchmark_out="$TMP/sap.json" \
  --benchmark_out_format=json >/dev/null

# --- User-scale macrobench (emits its own JSON) ------------------------------
# --fluid adds the hybrid-engine scale curve (1k/10k/100k UEs fluid mode)
# and the packet-vs-fluid agreement gate; the binary exits nonzero if the
# two fidelity modes disagree, which fails this script under `set -e`.
SCALE_ARGS=(--fluid --json "$TMP/scale.json")
if [[ "$SMOKE" == 1 ]]; then SCALE_ARGS+=(--smoke); fi
"$SCALE_BIN" "${SCALE_ARGS[@]}" >/dev/null

# --- Sharded-broker scaling + failover (DESIGN.md §12) -----------------------
# The binary gates itself: nonzero exit on a lost billing verdict, a
# verdict-content conflict, or a same-seed fingerprint divergence.
SHARDS_ARGS=(--json "$TMP/shards.json")
if [[ "$SMOKE" == 1 ]]; then SHARDS_ARGS+=(--smoke); fi
"$SHARDS_BIN" "${SHARDS_ARGS[@]}" >/dev/null

# --- Attach-protocol suite (DESIGN.md §14) -----------------------------------
# fig7: per-protocol attach latency per broker/HSS placement. fig8: the
# handover re-attach delta — the binary itself exits nonzero unless
# sap_resume's re-attach d is strictly below plain sap's. fig9: per-protocol
# post-handover recovery curves. Attach latencies are simulated-time means,
# so smoke and full agree to within sampling noise.
FIG7_ARGS=(--json "$TMP/fig7.json")
FIG9_ARGS=(--json "$TMP/fig9.json")
if [[ "$SMOKE" == 1 ]]; then FIG7_ARGS+=(--smoke); FIG9_ARGS+=(--smoke); fi
"$FIG7_BIN" "${FIG7_ARGS[@]}" >/dev/null
"$FIG8_BIN" --json "$TMP/fig8.json" >/dev/null
"$FIG9_BIN" "${FIG9_ARGS[@]}" >/dev/null

# --- Instrumentation-overhead guard ------------------------------------------
# The obs layer claims near-zero cost: run the full storm sweep (1-200 UEs
# plus the loss sweep, no fluid axis) with metrics enabled and with
# --no-metrics in GUARD_PAIRS adjacent pairs, alternating which arm runs
# first, and fail if the median enabled/disabled ratio of the sweep's process
# CPU seconds exceeds 1.05. CPU seconds, because hypervisor steal inflates
# wall time on a shared VM; the pairing, because what remains still moves
# one pair's ratio by ~8% (sd) on identical code, so resolving 5% takes the
# median of many pairs (at 30, its sd is ~2%). Smoke mode runs the same
# guard: the smoke point set is too short to resolve 5% at any pair count
# CI can afford.
GUARD_PAIRS=30
for i in $(seq 1 "$GUARD_PAIRS"); do
  on=("$SCALE_BIN" --json "$TMP/obs_on_$i.json")
  off=("$SCALE_BIN" --no-metrics --json "$TMP/obs_off_$i.json")
  if (( i % 2 )); then "${on[@]}" >/dev/null; "${off[@]}" >/dev/null
  else "${off[@]}" >/dev/null; "${on[@]}" >/dev/null; fi
done

# --- Assemble the committed BENCH_*.json -------------------------------------
SMOKE="$SMOKE" GUARD_PAIRS="$GUARD_PAIRS" python3 - "$TMP/sap.json" "$TMP/scale.json" "$TMP/shards.json" \
    "$TMP/fig7.json" "$TMP/fig8.json" "$TMP/fig9.json" <<'EOF'
import json, os, statistics, sys

smoke = os.environ["SMOKE"] == "1"
sap_raw = json.load(open(sys.argv[1]))
scale_raw = json.load(open(sys.argv[2]))
shards_raw = json.load(open(sys.argv[3]))
fig7 = json.load(open(sys.argv[4]))
fig8 = json.load(open(sys.argv[5]))
fig9 = json.load(open(sys.argv[6]))

# Frozen pre-PR3 baselines (seed engine: schoolbook powmod, deep-copy packet
# path, sequential sweeps), measured on the reference 1-CPU container.
SAP_BASE = {"rsa_sign_1024_ns": 3470195.0, "rsa_verify_1024_ns": 134977.0}
SCALE_BASE_WALL_S = 13.419

# Frozen per-protocol attach-latency baseline (PR9, us-west-1 placement,
# simulated-time means — deterministic up to per-cycle jitter) and the fig8
# handover re-attach delta. Latencies here are simulated, so any drift means
# a calibration/protocol change, not machine noise; the guard is ±20%.
ATTACH_BASE = {
    "eps_aka_ms": 36.903,
    "5g_aka_ms": 49.855,
    "sap_ms": 31.710,
    "sap_resume_ms": 16.250,   # ticket-resumed re-attach (no broker leg)
    "fig8_reattach_delta_ms": 15.460,
}

def median(raw, name):
    for b in raw["benchmarks"]:
        if b["name"] == f"{name}_median" or (b["name"] == name and b.get("run_type") != "aggregate"):
            return b["real_time"]
    raise KeyError(f"benchmark {name} missing from output")

sign = median(sap_raw, "BM_RsaSign1024")
verify = median(sap_raw, "BM_RsaVerify1024")
# Attach-protocol suite (DESIGN.md §14): the per-protocol attach-latency
# baseline plus the fig8 re-attach delta, all simulated-time figures.
uswest = next(p for p in fig7["placements"] if p["placement"] == "us-west-1")
protos = uswest["protocols"]
current_attach = {
    "eps_aka_ms": protos["eps_aka"]["attach_ms"],
    "5g_aka_ms": protos["5g_aka"]["attach_ms"],
    "sap_ms": protos["sap"]["attach_ms"],
    "sap_resume_ms": protos["sap_resume"]["resume_ms"],
    "fig8_reattach_delta_ms": fig8["reattach"]["delta_ms"],
}
ra = fig8["reattach"]
assert ra["pass"], f"fig8 re-attach gate FAILED: {ra}"
assert ra["sap_resume"]["mean_ms"] < ra["sap"]["mean_ms"], \
    f"sap_resume re-attach not strictly below sap: {ra}"
assert ra["delta_ms"] > 0 and ra["sap_resume"]["resumes"] > 0, f"degenerate fig8 delta: {ra}"
for key, base in ATTACH_BASE.items():
    cur = current_attach[key]
    assert 0.8 * base <= cur <= 1.2 * base, (
        "attach-latency drift at %s: %.3f ms vs frozen %.3f ms (simulated time "
        "— a calibration or protocol change, not noise)" % (key, cur, base))
for proto in ("sap", "sap_resume"):
    w = fig9["protocols"][proto]["windows_pct"]
    assert len(w) == 9 and fig9["protocols"][proto]["handovers"] > 0, \
        f"fig9 {proto} recovery curve degenerate: {fig9['protocols'][proto]}"

# Measured MTTHO (fig8's noisy-channel drive): Table 1's suburb/day number
# must come OUT of the reselection loop — measured handover gaps within
# ±20% of the 73.50 s calibration target, all three policy arms populated.
mttho = fig8["mttho"]
assert mttho["pass"], f"measured-MTTHO calibration gate FAILED: {mttho}"
assert 0.8 * mttho["expected_s"] <= mttho["measured_s"] <= 1.2 * mttho["expected_s"], (
    "measured MTTHO %.2f s outside ±20%% of %.2f s"
    % (mttho["measured_s"], mttho["expected_s"]))
for arm in ("a3", "a3_ttt", "rank"):
    assert mttho["arms"][arm]["handovers"] >= 2, \
        f"mttho arm {arm} degenerate: {mttho['arms'][arm]}"

sap = {
    "bench": "sap_crypto",
    "mode": "smoke" if smoke else "full",
    "baseline": dict(SAP_BASE, label="pre-PR3 (schoolbook powmod)"),
    "current": {"rsa_sign_1024_ns": sign, "rsa_verify_1024_ns": verify},
    "speedup": {
        "rsa_sign_1024": round(SAP_BASE["rsa_sign_1024_ns"] / sign, 2),
        "rsa_verify_1024": round(SAP_BASE["rsa_verify_1024_ns"] / verify, 2),
    },
    "attach": {
        "baseline": dict(ATTACH_BASE, label="PR9 (us-west-1 placement)"),
        "current": current_attach,
        "fig8_reattach": ra,
        "fig9_recovery": fig9["protocols"],
    },
}
json.dump(sap, open("BENCH_sap.json", "w"), indent=2)
print("BENCH_sap.json:", json.dumps(sap["speedup"]))
print("attach protocols: sap %.2fms, resume %.2fms (fig8 delta %.2fms)"
      % (current_attach["sap_ms"], current_attach["sap_resume_ms"], ra["delta_ms"]))

# Overhead guard: median over adjacent pairs of the storm sweep's CPU
# seconds, metrics enabled / --no-metrics.
tmp = os.path.dirname(sys.argv[1])
pairs = int(os.environ["GUARD_PAIRS"])
on_runs = [json.load(open(f"{tmp}/obs_on_{i}.json"))["cpu_s"] for i in range(1, pairs + 1)]
off_runs = [json.load(open(f"{tmp}/obs_off_{i}.json"))["cpu_s"] for i in range(1, pairs + 1)]
ratios = [a / b for a, b in zip(on_runs, off_runs)]
overhead_pct = (statistics.median(ratios) - 1.0) * 100.0
instrumentation = {
    "workload": "storm sweep, full point set, process CPU seconds",
    "pairs": pairs,
    "enabled_cpu_s": statistics.median(on_runs),
    "disabled_cpu_s": statistics.median(off_runs),
    "pair_ratios": [round(r, 4) for r in ratios],
    "overhead_pct": round(overhead_pct, 2),
    "budget_pct": 5.0,
}
print("instrumentation overhead: %.2f%% (median of %d pairs; CPU %.3fs enabled vs "
      "%.3fs disabled, medians)" % (overhead_pct, pairs, instrumentation["enabled_cpu_s"],
                                    instrumentation["disabled_cpu_s"]))

# The agreement gate is the CI hard stop for the fluid model: both fidelity
# modes must agree byte-exactly on delivered bytes + billing and within the
# documented completion-time tolerance (EXPERIMENTS.md "scale curve").
agreement = scale_raw["agreement"]
curve = scale_raw["scale_curve"]
assert agreement["pass"], f"packet-vs-fluid agreement FAILED: {agreement}"
for p in curve:
    assert p["completed"] == p["n_ues"], f"scale curve point incomplete: {p}"
    for k in ("wall_s", "sim_s", "sim_per_wall", "peak_rss_mb", "events"):
        assert k in p, f"scale curve point missing {k}: {p}"

# Parallel-drain determinism gate (DESIGN.md §13): the same seed run at 1 and
# 4 fluid threads must produce bit-identical fingerprints and byte-identical
# metrics snapshots. Any divergence means the drain commit order leaked.
thread_agreement = scale_raw["thread_agreement"]
assert thread_agreement["pass"], \
    f"fluid thread-count determinism FAILED: {thread_agreement}"

if not smoke:
    # Full runs must carry the headline point: the 1M-UE curve entry, fully
    # completed (the smoke curve stops earlier and is schema-only).
    assert curve[-1]["n_ues"] == 1000000, \
        f"full scale curve missing the 1M-UE point (last: {curve[-1]})"
    # Scale-curve regression guard: compare sim-seconds-per-wall-second
    # against the previously committed freeze and fail on a >20% drop at any
    # matching population — catches hot-path regressions before they are
    # frozen over. (Smoke numbers are noise; guard full runs only.)
    try:
        prev = {p["n_ues"]: p
                for p in json.load(open("BENCH_scale.json"))["scale_curve"]}
    except (OSError, KeyError, ValueError):
        prev = {}
    for p in curve:
        old = prev.get(p["n_ues"], {})
        if "sim_per_wall" in old:
            floor = 0.8 * old["sim_per_wall"]
            assert p["sim_per_wall"] >= floor, (
                "scale-curve regression at %d UEs: sim_per_wall %.2f < 80%% "
                "of committed %.2f" % (p["n_ues"], p["sim_per_wall"],
                                       old["sim_per_wall"]))

scale = {
    "bench": "scale_users",
    "mode": scale_raw["mode"],
    "baseline": {"wall_s": SCALE_BASE_WALL_S,
                 "label": "pre-PR3 (sequential, deep-copy packets)"},
    # wall_s is the attach-storm sweep only, comparable with the frozen
    # baseline; the fluid axis is timed separately (fluid_wall_s).
    "current": {"wall_s": scale_raw["wall_s"], "cpu_s": scale_raw["cpu_s"],
                "threads": scale_raw["threads"],
                "thread_pool": scale_raw["thread_pool"],
                "fluid_wall_s": scale_raw["fluid_wall_s"],
                "fluid_threads": scale_raw["fluid_threads"],
                "rss_mode": scale_raw["rss_mode"]},
    "speedup": {"wall": round(SCALE_BASE_WALL_S / scale_raw["wall_s"], 2)},
    "instrumentation": instrumentation,
    "points": scale_raw["points"],
    "scale_curve": curve,
    "agreement": agreement,
    "thread_agreement": thread_agreement,
    # Measured MTTHO from the fig8 noisy-channel drive (policy A/B arms +
    # the ±20% calibration gate against routes.hpp's Table 1 target).
    "mttho": mttho,
    # Deterministic obs snapshot of the run (see DESIGN.md §9): SAP latency
    # histograms, attach/report counters, flight-recorder fingerprint.
    "metrics": scale_raw["metrics"],
    # Sharded-broker scaling + failover availability (DESIGN.md §12). The
    # hard gates re-checked here: bit-identical same-seed replay, zero lost
    # billing verdicts, zero verdict-content conflicts across the shard kill.
    "broker_shards": shards_raw,
}
assert shards_raw["replay_identical"], "broker shard replay diverged"
fo = shards_raw["failover"]
assert fo["verdicts_lost"] == 0, f"failover lost verdicts: {fo}"
assert fo["verdict_conflicts"] == 0, f"failover verdict conflicts: {fo}"
assert fo["takeovers"] > 0, f"failover trial saw no takeover: {fo}"
for p in shards_raw["scaling"]:
    assert p["point"]["verdicts_lost"] == 0, f"scaling point lost verdicts: {p}"
print("broker_shards: failover lost=0 conflicts=0, %d-point scaling curve"
      % len(shards_raw["scaling"]))
json.dump(scale, open("BENCH_scale.json", "w"), indent=2)
print("BENCH_scale.json: wall %.2fs (%.1fx), fluid curve %.2fs to %dk UEs"
      % (scale_raw["wall_s"], SCALE_BASE_WALL_S / scale_raw["wall_s"],
         scale_raw["fluid_wall_s"], curve[-1]["n_ues"] // 1000))
print("mttho: measured %.2fs vs expected %.2fs (%s arm, %d handovers)"
      % (mttho["measured_s"], mttho["expected_s"], mttho["policy"],
         mttho["handovers"]))

if overhead_pct > 5.0:
    sys.exit("FAIL: instrumentation overhead %.2f%% exceeds the 5%% budget"
             % overhead_pct)
EOF

echo "bench.sh done (mode: $([[ "$SMOKE" == 1 ]] && echo smoke || echo full))"
