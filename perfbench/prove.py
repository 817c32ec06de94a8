#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

    python3 perfbench/prove.py [--workloads a,b] [--seeds 1-10] [--seconds S]
                               [--tag T] [--against T0]

Runs perfbench/run.py once per (workload, seed), untraced, from the current
directory, and prints for every end-to-end metric the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median next
to the metric's bound in BENCHMARK.json.  A spread above a third of the bound
is flagged, and one above the bound fails the check, setup_s included.  Raw
results go to .bench_out/prove-<workload>[-<tag>].json.  With --against, the
medians are also compared with an earlier set saved under that tag: a median
worse than the earlier one by more than the bound fails the check.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def set_path(workload, tag):
    name = f"prove-{workload}" + (f"-{tag}" if tag else "") + ".json"
    return os.path.join(".bench_out", name)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--tag", default="")
    ap.add_argument("--against", default=None)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    status = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "result": result})
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}")
                status = 1
        os.makedirs(".bench_out", exist_ok=True)
        with open(set_path(workload, args.tag), "w") as f:
            json.dump(runs, f, indent=1)
        if len(runs) < 2:
            continue
        earlier = None
        if args.against is not None:
            with open(set_path(workload, args.against)) as f:
                earlier = json.load(f)
        print(f"== {workload}: {len(runs)} runs")
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= bound / 3 else "  > bound/3"
            if spread > bound:
                flag = "  > BOUND"
                status = 1
            shift = ""
            if earlier:
                before = statistics.median(
                    r["result"]["metrics"][name]["value"] for r in earlier)
                change = (med - before) / before if before else 0.0
                worse = change if better[name] == "lower" else -change
                shift = f"  vs {args.against} {change:+.4f}"
                if worse > bound:
                    shift += " WORSE THAN BOUND"
                    status = 1
            print(f"  {name:20s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}"
                  f"  spread {spread:7.4f}  bound {bound}{flag}{shift}")
    sys.exit(status)


if __name__ == "__main__":
    main()
