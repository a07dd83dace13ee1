#!/usr/bin/env python3
"""Compares the perfbench runs of two checkouts over alternating pairs.

Host speed on a shared machine drifts by more than most changes move it,
so one run of each side proves nothing. This tool runs

    python3 perfbench/run.py --workload W --seed S --seconds T

in a base checkout and in a changed one, N times each, as N pairs whose
order alternates (base first in even pairs, change first in odd ones), so
that a drift hits both sides alike. For each workload and each end-to-end
metric that BENCHMARK.json (read from the changed checkout) lists, it
prints each side's median and quartiles, the ratio of the medians
(change / base), and in how many pairs the change did better, in the
metric's own direction.

A claimed gain holds when the change wins at least 9 of every 10 pairs and
its median beats the base median by more than the base's interquartile
range (Q3 - Q1); the "gain" column says whether both are true.

Usage:
    tools/perf_pairs.py BASE_DIR CHANGE_DIR [--workload W] [--seed S]
                        [--seconds T] [--pairs N]

Each checkout builds its own simulator into its .bench_build/ on first use.
Exit status: 0 when every run was correct, 1 when one was not (it stops
there), 2 on usage errors. Only the Python standard library is used.
"""

import argparse
import json
import math
import pathlib
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds):
    """One perfbench run; returns {metric: value} or exits on failure."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stderr)
        print(f"perf_pairs: {checkout}: {workload} run failed "
              f"(exit {proc.returncode})", file=sys.stderr)
        sys.exit(1)
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    """(Q1, median, Q3) of `values`."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def better(a, b, direction):
    """True when `a` beats `b` in the metric's direction."""
    return a > b if direction == "higher" else a < b


def summary(values):
    """'median [Q1, Q3]' of `values`."""
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def report(workload, specs, base, change, pairs):
    print(f"\n== {workload}: {pairs} pair(s) ==")
    print(f"  {'metric':20s} {'base median [Q1, Q3]':>34s} "
          f"{'change median [Q1, Q3]':>34s} {'ratio':>7s} {'wins':>6s} "
          f"{'gain':>4s}")
    for spec in specs:
        name, direction = spec["name"], spec["better"]
        b = [run[name] for run in base]
        c = [run[name] for run in change]
        bq1, bmed, bq3 = quartiles(b)
        cmed = quartiles(c)[1]
        wins = sum(better(x, y, direction) for x, y in zip(c, b))
        ratio = cmed / bmed if bmed else math.nan
        gain = (wins >= math.ceil(0.9 * pairs) and better(cmed, bmed, direction)
                and abs(cmed - bmed) > bq3 - bq1)
        print(f"  {name:20s} {summary(b):>34s} {summary(c):>34s} "
              f"{ratio:>7.3f} {wins:>3d}/{pairs:<2d} "
              f"{'yes' if gain else 'no':>4s}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--workload", help="default: every workload in "
                        "BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()

    manifest_path = args.change / "BENCHMARK.json"
    for checkout in (args.base, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout} holds no perfbench/run.py")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    manifest = json.loads(manifest_path.read_text())
    workloads = ([args.workload] if args.workload else
                 [w["name"] for w in manifest["workloads"]])

    for workload in workloads:
        base, change = [], []
        for pair in range(args.pairs):
            order = [(args.base, base), (args.change, change)]
            if pair % 2 == 1:
                order.reverse()
            for checkout, runs in order:
                runs.append(run_once(checkout, workload, args.seed,
                                     args.seconds))
            print(f"perf_pairs: {workload} pair {pair + 1}/{args.pairs}: "
                  f"ops_per_s base {base[-1]['ops_per_s']:.4g}, "
                  f"change {change[-1]['ops_per_s']:.4g}",
                  file=sys.stderr, flush=True)
        report(workload, manifest["end_to_end"], base, change, args.pairs)


if __name__ == "__main__":
    main()
