#!/usr/bin/env python3
"""Build and run the tvviz session benchmark.

    python3 perfbench/run.py --workload jet_store --seed 1 --seconds 30 --trace 0

Configures and builds perfbench/ (the tvviz libraries from src/ plus the
session_bench driver) into .bench_build/perfbench on first use, runs the
driver on one workload and re-prints its result: the last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}. Exits non-zero,
without a result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "session_bench"
# A run measures for --seconds plus a few seconds of set-up; anything far
# beyond that is a hung session.
RUN_GRACE_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, what):
    """Run a build step with its output on stderr; fail on error."""
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"{what} failed (exit {done.returncode})")


def build():
    # Configure every time (a no-op when nothing changed), so a configure
    # that failed halfway is retried rather than leaving a broken tree.
    run_logged(["cmake", "-S", str(HERE), "-B", str(BUILD),
                "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], "configure")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", str(BUILD), "--target", "session_bench",
                "-j", jobs], "build")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    scratch = BUILD / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        fail(f"session_bench did not finish within "
             f"{args.seconds + RUN_GRACE_S:.0f} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0 or not lines:
        fail(f"session_bench exited {done.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result: {lines[-1]}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
