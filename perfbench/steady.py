#!/usr/bin/env python3
"""Steadiness command: the evidence for the bounds in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--seed0 1] [--workloads a,b]
                                [--trace-runs 1] [--json out.json]

Runs every workload --runs times with seeds seed0, seed0+1, ..., each for
BENCHMARK.json's run_seconds, and prints for each end-to-end metric its
median, first and third quartiles (statistics.quantiles(values, n=4)) and
spread = (q3 - q1) / median against the metric's bound. It also prints the
share of failed operations of every run, and, from --trace-runs traced runs
per workload, the median obs.trace_overhead.* (traced / untraced) of each
end-to-end metric. Run from the root of a checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"steady: {workload} seed {seed} trace {trace} exited {p.returncode}\n{p.stdout}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace-runs", type=int, default=1)
    ap.add_argument("--json", default="", help="write every run's result here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    record = {}
    verdict = True
    for w in workloads:
        runs = [run(w, args.seed0 + k, bench["run_seconds"], 0) for k in range(args.runs)]
        traced = [run(w, args.seed0 + k, bench["run_seconds"], 1) for k in range(args.trace_runs)]
        record[w] = {"untraced": runs, "traced": traced}
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n== {w}: {args.runs} runs, seeds {args.seed0}..{args.seed0 + args.runs - 1}, "
              f"failed share {shares}, all correct: {all(r['correct'] for r in runs)}")
        print(f"{'metric':24s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s} {'overhead':>9s}")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            over = [t["metrics"].get(f"obs.trace_overhead.{name}", {}).get("value") for t in traced]
            over = [o for o in over if o]
            over_s = f"{statistics.median(over):9.3f}" if over else f"{'-':>9s}"
            flag = "" if spread < bound / 3 else ("  (> bound/3)" if spread < bound else "  (> bound)")
            verdict = verdict and spread < bound
            print(f"{name:24s} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.3f} {bound:6.2f} {over_s}{flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f)
    print("\nevery spread within its bound" if verdict else "\nsome spread exceeds its bound")
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
