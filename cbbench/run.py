#!/usr/bin/env python3
"""Build the benchmark harness from this checkout's sources, then run it.

    python3 cbbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to .bench_build/cbbench at the checkout root (Release, only
the simulator libraries and the harness); build output goes to stderr so
the harness's JSON result stays the last line of stdout. Every argument is
passed to the harness; see cbbench/README.md.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "cbbench")
BUILD = os.path.join(ROOT, ".bench_build", "cbbench")
BINARY = os.path.join(BUILD, "cbbench")


def build():
    """Configure once, then bring the harness up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "cbbench"],
                   check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"cbbench: build failed: {err}", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if "--trace-dir" not in args:
        args += ["--trace-dir", os.path.join(ROOT, ".bench_build", "traces")]
    return subprocess.run([BINARY] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
