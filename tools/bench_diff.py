#!/usr/bin/env python3
"""Diff two directories of BENCH_*.json experiment results.

The bench harness is deterministic: the same binary, seed and workload
produce bit-identical simulated metrics at any --jobs value. That makes
the JSON output diffable — this tool compares a checked-in baseline
sweep against a fresh run and reports every metric that moved, so a PR
that shifts simulated behaviour shows its effect in CI instead of
burying it.

Usage:
    tools/bench_diff.py BASELINE_DIR CURRENT_DIR [--tolerance FRAC]

A results file depends only on the binary and its flags, so every field
is compared: metrics exactly by default, or to a relative tolerance with
--tolerance. Any job in the current sweep whose "status" label is not
"ok" (the harness records "error" for a job that threw) fails the diff
outright, even where the baseline agrees. Exit status is 0
when the sweeps match, 1 when anything differs (including added/removed
benches or jobs, or a non-ok status), 2 on usage errors.

Only the Python standard library is used.
"""

import argparse
import json
import os
import sys


def find_results(root):
    """Maps relative path -> absolute path for every BENCH_*.json under root."""
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in sorted(filenames):
            if name.startswith("BENCH_") and name.endswith(".json"):
                path = os.path.join(dirpath, name)
                out[os.path.relpath(path, root)] = path
    return out


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def numbers_differ(a, b, tolerance):
    if a == b:
        return False
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if tolerance > 0:
            scale = max(abs(a), abs(b))
            return abs(a - b) > tolerance * scale
        return True
    return True


def diff_job(rel, base_job, cur_job, tolerance, report):
    """Compares one job record (one entry of the 'configs' list)."""
    name = base_job.get("config", "?")
    base_metrics = base_job.get("metrics", {})
    cur_metrics = cur_job.get("metrics", {})
    for key in sorted(base_metrics.keys() - cur_metrics.keys()):
        report.append(f"{rel} [{name}] metric removed: {key} "
                      f"(was {base_metrics[key]})")
    for key in sorted(cur_metrics.keys() - base_metrics.keys()):
        report.append(f"{rel} [{name}] metric added: {key} "
                      f"(now {cur_metrics[key]})")
    for key in sorted(base_metrics.keys() & cur_metrics.keys()):
        old, new = base_metrics[key], cur_metrics[key]
        if numbers_differ(old, new, tolerance):
            delta = ""
            if isinstance(old, (int, float)) and isinstance(new, (int, float)) \
                    and old != 0:
                delta = f" ({(new - old) / abs(old):+.1%})"
            report.append(f"{rel} [{name}] {key}: {old} -> {new}{delta}")
    base_labels = base_job.get("labels", {})
    cur_labels = cur_job.get("labels", {})
    for key in sorted(base_labels.keys() | cur_labels.keys()):
        if base_labels.get(key) != cur_labels.get(key):
            report.append(f"{rel} [{name}] label {key}: "
                          f"{base_labels.get(key)!r} -> {cur_labels.get(key)!r}")


def diff_file(rel, base_path, cur_path, tolerance, report):
    base = load(base_path)
    cur = load(cur_path)
    for key in sorted(set(base) | set(cur)):
        if key == "configs":
            continue
        if base.get(key) != cur.get(key):
            report.append(f"{rel} {key}: {base.get(key)!r} -> {cur.get(key)!r}")
    base_jobs = {job.get("config", "?"): job for job in base.get("configs", [])}
    cur_jobs = {job.get("config", "?"): job for job in cur.get("configs", [])}
    for name in sorted(base_jobs.keys() - cur_jobs.keys()):
        report.append(f"{rel} job removed: {name}")
    for name in sorted(cur_jobs.keys() - base_jobs.keys()):
        report.append(f"{rel} job added: {name}")
    for name in sorted(base_jobs.keys() & cur_jobs.keys()):
        diff_job(rel, base_jobs[name], cur_jobs[name], tolerance, report)


def check_statuses(files, report):
    """Fails any job that crashed.

    Checked over the *current* sweep only, and independently of the
    baseline: two sweeps that broke identically still must not pass.
    Skipped jobs carry no "status" label and are exempt.
    """
    for rel in sorted(files):
        for job in load(files[rel]).get("configs", []):
            labels = job.get("labels", {})
            status = labels.get("status")
            if status is not None and status != "ok":
                reason = labels.get("status_reason", "")
                suffix = f" ({reason})" if reason else ""
                report.append(f"{rel} [{job.get('config', '?')}] "
                              f"non-ok status: {status}{suffix}")


def main(argv):
    parser = argparse.ArgumentParser(
        description="Diff two directories of BENCH_*.json results.")
    parser.add_argument("baseline", help="directory with the baseline sweep")
    parser.add_argument("current", help="directory with the fresh sweep")
    parser.add_argument("--tolerance", type=float, default=0.0, metavar="FRAC",
                        help="relative tolerance for numeric metrics "
                             "(default 0: exact)")
    args = parser.parse_args(argv)
    for d in (args.baseline, args.current):
        if not os.path.isdir(d):
            parser.error(f"not a directory: {d}")

    base_files = find_results(args.baseline)
    cur_files = find_results(args.current)
    report = []
    for rel in sorted(base_files.keys() - cur_files.keys()):
        report.append(f"result file removed: {rel}")
    for rel in sorted(cur_files.keys() - base_files.keys()):
        report.append(f"result file added: {rel}")
    compared = sorted(base_files.keys() & cur_files.keys())
    for rel in compared:
        diff_file(rel, base_files[rel], cur_files[rel], args.tolerance, report)
    check_statuses(cur_files, report)

    if report:
        print(f"{len(report)} difference(s) across {len(compared)} "
              f"compared file(s):")
        for line in report:
            print(f"  {line}")
        return 1
    print(f"no differences across {len(compared)} compared file(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
