#!/usr/bin/env python3
"""Runs the benchmark suites and tracks items/sec in BENCH_core.json.

The repo keeps one committed perf baseline, BENCH_core.json at the repo
root: for every google-benchmark in bench/micro_core.cc and
bench/bench_client_qps.cc (the serving-plane qps sweep) it records
items/sec "before" (the previous tracked run, or an explicit baseline
capture) and "after" (the run this script just performed), plus the
speedup ratio.  The bench-items lint rule guarantees every benchmark
reports items processed, so nothing silently drops out of the file.

Typical uses:

  tools/bench_report.py                      # full run; previous 'after'
                                             # becomes the new 'before'
  tools/bench_report.py --quick              # CI smoke: short min_time,
                                             # fails only if the binary
                                             # crashes or emits no data
  tools/bench_report.py --before old.json    # explicit baseline (either a
                                             # google-benchmark JSON dump or
                                             # an earlier BENCH_core.json)
  tools/bench_report.py --filter 'BM_Shard'  # re-capture only the rows
                                             # matching the regex; every
                                             # other row is kept as is
  tools/bench_report.py --annotate-env       # refresh only the recorded
                                             # machine context (cores, CPU
                                             # model, governor); no run

Every run stamps an "environment" block (core count, CPU model, scaling
governor) into the file: an items/sec figure is only comparable against a
baseline taken on a comparable machine.

Exit status: 0 on success (regressions do NOT fail the run - the file is a
tracked record, not a gate), 1 when the benchmark binary is missing,
crashes, or produces no parsable output.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO / "BENCH_core.json"


def collect_env() -> dict:
    """Machine context a number is meaningless without: comparing an
    items/sec figure taken on 4 throttled laptop cores against one from a
    32-core performance-governor box is how phantom regressions happen."""
    env: dict = {"cpu_count": os.cpu_count()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    gov = Path("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
    try:
        env["scaling_governor"] = gov.read_text().strip()
    except OSError:
        env["scaling_governor"] = None  # no cpufreq (VMs, containers)
    return env


def extract_items_per_sec(doc: dict) -> dict[str, float]:
    """Benchmark name -> items/sec, from either supported JSON shape.

    For raw google-benchmark output with --benchmark_repetitions, the
    median aggregates are used (single runs on a shared machine swing by
    tens of percent; the median is what the tracked file should record).
    """
    out: dict[str, float] = {}
    benches = doc.get("benchmarks")
    if isinstance(benches, list):  # raw google-benchmark output
        medians: dict[str, float] = {}
        singles: dict[str, float] = {}
        for b in benches:
            ips = b.get("items_per_second")
            if ips is None:
                continue
            if b.get("run_type") == "aggregate":
                if b.get("aggregate_name") == "median":
                    name = b.get("run_name") or b["name"].removesuffix("_median")
                    medians[name] = float(ips)
            else:
                singles[b["name"]] = float(ips)
        out = medians or singles
    elif isinstance(benches, dict):  # an earlier BENCH_core.json
        for name, entry in benches.items():
            if entry.get("after") is not None:
                out[name] = float(entry["after"])
    return out


def run_suite(binary: Path, quick: bool, repetitions: int,
              name_filter: str | None) -> dict[str, float]:
    cmd = [str(binary), "--benchmark_format=json"]
    if name_filter:
        cmd.append(f"--benchmark_filter={name_filter}")
    if quick:
        cmd.append("--benchmark_min_time=0.05")
    if repetitions > 1:
        cmd.append(f"--benchmark_repetitions={repetitions}")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        raise RuntimeError(f"benchmark binary exited with {proc.returncode}")
    if name_filter and not proc.stdout.strip():
        return {}  # the filter matched nothing in this binary
    return extract_items_per_sec(json.loads(proc.stdout))


# Every google-benchmark binary the tracked file aggregates.  micro_core is
# mandatory (the original suite); the serving-plane qps bench is optional so
# builds with MTDS-net benches disabled keep working.
SUITE_BINARIES = [("micro_core", True), ("bench_client_qps", False)]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default=str(REPO / "build"),
                        help="CMake build directory holding bench/micro_core")
    parser.add_argument("--before",
                        help="baseline JSON (google-benchmark dump or a "
                             "previous BENCH_core.json); default: the "
                             "existing BENCH_core.json's 'after' numbers")
    parser.add_argument("--quick", action="store_true",
                        help="short min_time smoke run (CI)")
    parser.add_argument("--repetitions", type=int, default=3,
                        help="benchmark repetitions; medians are recorded "
                             "(default 3, use 1 for a single fast pass)")
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="output path (default: repo-root "
                             "BENCH_core.json)")
    parser.add_argument("--filter",
                        help="google-benchmark name regex: run only the "
                             "matching benchmarks and replace only the "
                             "matching rows of the output file")
    parser.add_argument("--annotate-env", action="store_true",
                        help="refresh only the 'environment' block of the "
                             "existing output file; no benchmarks run")
    args = parser.parse_args(argv)

    if args.annotate_env:
        out_path = Path(args.out)
        if not out_path.exists():
            print(f"--annotate-env: {out_path} does not exist",
                  file=sys.stderr)
            return 1
        doc = json.loads(out_path.read_text())
        doc["environment"] = collect_env()
        out_path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"refreshed environment block in {out_path}")
        return 0

    binaries: list[Path] = []
    for name, required in SUITE_BINARIES:
        binary = Path(args.build_dir) / "bench" / name
        if binary.exists():
            binaries.append(binary)
        elif required:
            print(f"bench binary not found: {binary} "
                  "(build with -DCMAKE_BUILD_TYPE=Release first)",
                  file=sys.stderr)
            return 1
        else:
            print(f"skipping optional bench binary: {binary}",
                  file=sys.stderr)

    before: dict[str, float] = {}
    if args.before:
        before = extract_items_per_sec(json.loads(Path(args.before).read_text()))
    elif DEFAULT_OUT.exists():
        before = extract_items_per_sec(json.loads(DEFAULT_OUT.read_text()))

    after: dict[str, float] = {}
    try:
        for binary in binaries:
            after.update(run_suite(binary, args.quick,
                                   1 if args.quick else args.repetitions,
                                   args.filter))
    except (RuntimeError, json.JSONDecodeError) as err:
        print(f"bench run failed: {err}", file=sys.stderr)
        return 1
    if not after:
        print("bench run produced no items/sec data", file=sys.stderr)
        return 1

    # A filtered run re-captures only the matching rows: every other row of
    # the output file is kept as it is, and matching rows the suite no
    # longer produces are dropped.
    merged = {}
    out_path = Path(args.out)
    if args.filter and out_path.exists():
        pattern = re.compile(args.filter)
        for name, entry in json.loads(out_path.read_text())["benchmarks"].items():
            if not pattern.search(name):
                merged[name] = entry
    for name in after:
        b = before.get(name)
        a = after[name]
        merged[name] = {
            "before": b,
            "after": a,
            "speedup": (a / b) if b else None,
        }

    doc = {
        "schema": 1,
        "metric": "items_per_second",
        "quick": args.quick,
        "environment": collect_env(),
        "benchmarks": merged,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")

    width = max(len(n) for n in merged)
    print(f"{'benchmark':<{width}}  {'before':>12}  {'after':>12}  speedup")
    for name, e in merged.items():
        b = f"{e['before']:.3e}" if e["before"] else "-"
        a = f"{e['after']:.3e}"
        s = f"x{e['speedup']:.2f}" if e["speedup"] else "-"
        print(f"{name:<{width}}  {b:>12}  {a:>12}  {s:>7}")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
