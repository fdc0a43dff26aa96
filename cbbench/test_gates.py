#!/usr/bin/env python3
"""Show that every correctness gate of the benchmark can fail.

    python3 cbbench/test_gates.py

Builds the harness like run.py, then feeds each gate a doctored result
(--doctor) and checks that the command exits nonzero and names the gate:
one lost verdict, one unfinished flow, one invariant violation, and one
fingerprint mismatch. A clean run of the same storm must pass, so the
fingerprint case fails because of the doctoring alone. Takes about a
minute on four cores.
"""
import subprocess
import sys

import run

CASES = [
    # (workload, doctor, text the failing gate prints)
    ("report_ingest", "lost_verdict", "ingest: verdicts lost"),
    ("fluid_population", "unfinished_flow", "fluid: unfinished flows"),
    ("mobile_e2e", "violation", "mobile: invariant violations"),
    ("attach_storm", "fingerprint", "determinism: repeated runs differ"),
]


def harness(*args):
    return subprocess.run([run.BINARY, "--seconds", "0"] + list(args),
                          capture_output=True, text=True)


def main():
    run.build()
    failures = []
    clean = harness("--workload", "attach_storm")
    if clean.returncode != 0:
        failures.append("clean attach_storm run failed:\n" + clean.stdout)
    for workload, doctor, expect in CASES:
        res = harness("--workload", workload, "--doctor", doctor)
        ok = res.returncode == 1 and f"GATE FAILED: {expect}" in res.stdout
        print(f"{'ok  ' if ok else 'FAIL'} {workload} --doctor {doctor} -> exit {res.returncode}")
        if not ok:
            failures.append(f"{workload} --doctor {doctor} did not trip '{expect}':\n{res.stdout}")
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
