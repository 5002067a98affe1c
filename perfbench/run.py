#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout's sources and runs one workload.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload copy|churn|serve --seed N --seconds S --trace 0|1

The binary is compiled with CMake into .bench_build/perfbench on first use
and rebuilt incrementally after that; build output goes to stderr so that
the last line of stdout stays the binary's JSON result.  The exit code is
the binary's: nonzero when a copy, a request or a correctness gate failed,
or when the sources are missing and nothing could be built.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("copy", "churn", "serve")


def build():
    if not any((ROOT / "src").glob("*/*.cc")):
        print(f"perfbench: no sources under {ROOT / 'src'}", file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD)],
             ["cmake", "--build", str(BUILD), "-j", jobs]]
    if (BUILD / "CMakeCache.txt").exists():
        steps = steps[1:]
    # Keep the compiler's temporary files inside the build tree too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in 1..600")
    if not build():
        return 2
    sys.stdout.flush()
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
