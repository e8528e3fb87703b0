#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--perturb <check>]

Run from the root of a checkout. The benchmark is configured and built with
CMake under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. The exit code is the benchmark's: 0 when every check passed.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("alg1-insert", "alg2-update", "node-ingest", "node-serve")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(base, "perfbench")


def configured_for_here(bdir):
    """True when bdir holds a CMake cache made for this source directory."""
    cache = os.path.join(bdir, "CMakeCache.txt")
    if not os.path.exists(cache):
        return False
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return os.path.realpath(line.split("=", 1)[1].strip()) == os.path.realpath(HERE)
    return False


def build(bdir):
    if not configured_for_here(bdir):
        shutil.rmtree(bdir, ignore_errors=True)
        cfg = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(cfg, stdout=sys.stderr) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(["cmake", "--build", bdir, "-j", jobs], stdout=sys.stderr) == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--perturb", default="", help="check whose reference gets one entry perturbed")
    args = ap.parse_args()

    bdir = build_dir()
    if not build(bdir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(bdir, "work")]
    if args.trace:
        cmd += ["--out-dir", os.path.join(bdir, "traces")]
    if args.perturb:
        cmd += ["--perturb", args.perturb]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
