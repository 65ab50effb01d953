#!/usr/bin/env python3
"""Builds the adabench program from this checkout's sources and runs one
workload.

Usage (from the repository root):
    python3 adabench/run.py --workload skip_serial --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/adabench and is incremental; snapshots go
to a per-process directory under .bench_build that the program removes
when it exits. All build output goes to stderr, so the last line of
stdout is the program's JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "adabench")
WORKLOADS = ("skip_serial", "dashboard_server", "ingest_checkpoint")


def build():
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "adabench", "-j",
         str(min(os.cpu_count() or 1, 4))],
        check=True, stdout=sys.stderr)
    # Write back what the build left dirty now, not during the measurement.
    os.sync()
    return os.path.join(BUILD, "adabench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"adabench: build failed: {err}", file=sys.stderr)
        return 3
    scratch = os.path.join(ROOT, ".bench_build", f"run-{os.getpid()}")
    return subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--scratch", scratch],
        cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
