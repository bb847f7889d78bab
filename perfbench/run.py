#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload st_llc --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench (RelWithDebInfo) under
.bench_build/perfbench; later runs only check that it is up to date.
Build output goes to stderr. The benchmark's own report goes to stdout,
and its last line is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1
the per-layer ones.

Maintenance flags, passed through to the binary:
  --write-expected   pin the default seed's simulated counters in
                     perfbench/expected/<workload>.json
  --stall-ns N       add an N ns busy-wait to every LLC policy hook (the
                     attribution self-check in perfbench/README.md)
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def call(cmd, timeout, stdout):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build():
    if not os.path.isfile(os.path.join(BUILD_DIR, "Makefile")):
        rc = call(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                  BUILD_TIMEOUT_S, sys.stderr)
        if rc != 0:
            return rc
    return call(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                 "-j", "4"], BUILD_TIMEOUT_S, sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--stall-ns", type=int, default=0)
    ap.add_argument("--write-expected", action="store_true")
    args = ap.parse_args()

    try:
        rc = build()
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if rc != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(BUILD_DIR, "work"),
           "--expected-dir", os.path.join(BENCH_DIR, "expected"),
           "--stall-ns", str(args.stall_ns)]
    if args.write_expected:
        cmd.append("--write-expected")
    sys.stdout.flush()
    try:
        return call(cmd, RUN_TIMEOUT_S, sys.stdout)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
