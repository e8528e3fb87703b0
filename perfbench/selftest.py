#!/usr/bin/env python3
"""Check self-test: every correctness check must catch a real error.

    python3 perfbench/selftest.py [--seconds 1]

For each workload and each of its checks, runs the benchmark with
--perturb <check>, which adds 1 to one entry of the benchmark's own copy of
that check's expected result. The run must then report that check as failed
and exit with a non-zero code. Exits 0 only if every perturbation was caught.
Run from the root of a checkout.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKS = {
    "alg1-insert": ["product"],
    "alg2-update": ["product"],
    "node-ingest": ["replay"],
    "node-serve": ["replay", "triangles", "queries"],
}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seconds", type=float, default=1)
    args = ap.parse_args()
    ok = True
    for workload, checks in CHECKS.items():
        for check in checks:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
                   "--seconds", str(args.seconds), "--trace", "0", "--perturb", check]
            p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            caught = p.returncode != 0 and f"CHECK FAILED: {check}:" in p.stdout
            ok = ok and caught
            print(f"{workload:12s} {check:10s} exit {p.returncode}  {'caught' if caught else 'NOT CAUGHT'}")
    print("every perturbed check failed, as it must" if ok else "some perturbation went unnoticed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
