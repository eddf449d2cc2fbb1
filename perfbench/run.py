#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

On first use it configures and builds perfbench/ (which compiles the
engine sources under src/) into $CARGO_TARGET_DIR, or .bench_build when
that is unset. It then runs the perfbench binary, whose workloads and
serving configuration are fixed in its sources (perfbench/design.json
records why). The binary prints the metrics;
the last stdout line is the JSON result. The exit status is non-zero when
the build fails, when an answer is wrong, or when a traffic self-check
misses.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
WORKLOADS = ("bound_uniform", "live_durable")


def build(build_dir, target):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", target],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the open-loop harness self-test")
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        if args.selftest:
            return subprocess.run([build(build_dir, "loadgen_selftest")]).returncode
        if args.workload is None or args.seed is None or args.seconds is None:
            ap.error("--workload, --seed and --seconds are required")
        binary = build(build_dir, "perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", ".bench_run"]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
