#!/usr/bin/env python3
"""Builds the satr simulator and runs one pinned benchmark workload.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --seed <n> --seconds <s>   # every workload in turn
  python3 perfbench/run.py --test    # build and run the observer purity test

Workloads: launch, fleet (see README.md here).

The first run configures and builds the simulator and the driver
(perfbench_run) from source into .bench_build/. Each run then executes
the workload in its own single-threaded process and prints a table of
metrics, followed by one JSON object as the last line of stdout:

  {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
runs the workload twice, untraced then traced (half the work each),
checks that both computed the same simulated counts, and reports the
per-layer metrics. Traced spans are written to .bench_build/spans/.

Exit status: 0 when every op succeeded and every check passed, 1 on a
correctness failure, 2 when the benchmark could not run at all.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BUILD_DIR = BUILD / "perfbench"
DRIVER = BUILD_DIR / "perfbench_run"
# Every phase of a run must end within this many seconds of the build.
RUN_TIMEOUT_S = 170

# Host cost of one unit of work on the reference host (4 vCPUs): a launch,
# or one fleet pass (every shard of the three scenario graphs, 10 shard
# runs). A run does about --seconds of timed work at these costs; the
# amount depends only on --seconds, so a given seed always runs the same
# ops.
UNIT_S = {"launch": 0.3, "fleet": 8.0}
# op_ms_p90 needs ten samples beyond it.
MIN_E2E_OPS = 100

WORKLOADS = list(UNIT_S)


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def plan_units(workload, seconds, end_to_end):
    """Launches, or fleet passes."""
    units = max(1, round(seconds / UNIT_S[workload]))
    if end_to_end and workload == "launch":
        units = max(units, MIN_E2E_OPS)
    return units


def build(target):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"simulator sources not found in {ROOT}")
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR)] +
                         generator)
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target", target,
                      "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace")[-4000:]
                fail(f"build failed ({' '.join(step)}):\n{tail}")


def run_phase(workload, seed, units, traced, deadline):
    """Runs the driver once; returns its report (None if it died)."""
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--units", str(units)]
    if traced:
        spans = BUILD / "spans" / f"{workload}-seed{seed}.json"
        spans.parent.mkdir(exist_ok=True)
        cmd += ["--trace", "--spans-out", str(spans)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} timed out", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print(f"perfbench: {workload} driver exited {proc.returncode}",
              file=sys.stderr)
        return None
    report = json.loads(lines[-1])
    for error in report["errors"]:
        print(f"perfbench: {workload}: {error}", file=sys.stderr)
    return report


def end_to_end_metrics(report):
    ops = sorted(report["op_ms"])
    counts = report["counts"]
    values = {
        "setup_s": report["setup_s"],
        "ops_per_s": report["attempted"] / report["timed_s"],
        "op_ms_p50": statistics.median(ops),
        "op_ms_p90": statistics.quantiles(ops, n=10)[-1],
        "peak_rss_mb": report["peak_rss_mb"],
    }
    for name in ("sim_mcycles_per_op", "sim_faults_per_op", "sim_ptps_per_op"):
        values[name] = counts[name]
    return values


def per_layer_metrics(untraced, traced):
    values = {k: v for k, v in traced["counts"].items()
              if not k.startswith("sim_")}
    values.update(traced["tracer"])
    values.update(traced["host"])
    untraced_rate = untraced["attempted"] / untraced["timed_s"]
    traced_rate = traced["attempted"] / traced["timed_s"]
    values["trace.overhead_frac"] = untraced_rate / traced_rate - 1
    return values


def print_table(workload, seed, report, specs, values):
    attempted, failed = report["attempted"], report["failed"]
    print(f"workload {workload}  seed {seed}  ops {attempted}  "
          f"failed {failed}  op_fail_frac {failed / attempted:.6g}")
    n = len(report["op_ms"])
    for spec in specs:
        name = spec["name"]
        note = ""
        if name == "op_ms_p50":
            note = f"  (n={n})"
        elif name == "op_ms_p90":
            note = f"  (n={n}, {n - math.ceil(0.9 * n)} beyond)"
        print(f"  {name:36s} {values[name]:>16.6g} {spec['unit']}{note}")


def run_workload(workload, args, manifest):
    """Runs one workload, prints its table and JSON line; True if correct."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.trace == 0:
        units = plan_units(workload, args.seconds, end_to_end=True)
        report = run_phase(workload, args.seed, units, False, deadline)
        if report is None:
            fail(f"{workload} produced no report", code=1)
        specs = manifest["end_to_end"]
        values = end_to_end_metrics(report)
        correct = not report["errors"] and report["failed"] == 0
    else:
        units = plan_units(workload, args.seconds / 2, end_to_end=False)
        untraced = run_phase(workload, args.seed, units, False, deadline)
        report = run_phase(workload, args.seed, units, True, deadline)
        if untraced is None or report is None:
            fail(f"{workload} produced no report", code=1)
        specs = manifest["per_layer"]
        values = per_layer_metrics(untraced, report)
        correct = (not untraced["errors"] and not report["errors"] and
                   untraced["failed"] == 0 and report["failed"] == 0)
        # The Tracer must never change what is simulated.
        if untraced["counts"] != report["counts"]:
            correct = False
            for name, value in untraced["counts"].items():
                if report["counts"].get(name) != value:
                    print(f"perfbench: traced {name} = "
                          f"{report['counts'].get(name)}, untraced {value}",
                          file=sys.stderr)

    unknown = set(values) - {spec["name"] for spec in specs}
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # Layers a workload does not run report 0.
    values = {spec["name"]: values.get(spec["name"], 0.0) for spec in specs}
    print_table(workload, args.seed, report, specs, values)
    result = {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {spec["name"]: {"value": values[spec["name"]],
                                   "unit": spec["unit"]} for spec in specs},
    }
    print(json.dumps(result), flush=True)
    return correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the observer purity test")
    args = parser.parse_args()

    if args.test:
        build("perfbench_observer_test")
        sys.exit(subprocess.run([str(BUILD_DIR / "perfbench_observer_test")],
                                cwd=ROOT).returncode)
    manifest_path = ROOT / "BENCHMARK.json"
    if not manifest_path.is_file():
        fail(f"{manifest_path} not found")
    manifest = json.loads(manifest_path.read_text())
    build("perfbench_run")
    workloads = [args.workload] if args.workload else WORKLOADS
    results = [run_workload(w, args, manifest) for w in workloads]
    sys.exit(0 if all(results) else 1)


if __name__ == "__main__":
    main()
