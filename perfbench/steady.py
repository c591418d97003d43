#!/usr/bin/env python3
"""Checks the benchmark's steadiness: runs each workload on several seeds
and reports, per end-to-end metric, the median and the spread
(q3 - q1) / median of the values, with statistics.quantiles(n=4), against
the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1 | --seed S]
                                [--verbose] [workload ...]

Run from the repository root. A spread above a third of its bound is
flagged. Every metric is gated on the shift of its median between two sets
of runs; every metric but setup_s also on its spread. Each workload's
summary ends with the medians of the ungated context every run prints
(host steal share, RunFleet floor) and the mean wall time of a run, so a
set skewed by the host can be told apart. Exits 1 when a run fails or
reports an incorrect result.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """(q3 - q1) / median, the quartiles as statistics.quantiles(n=4)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seed", type=int, default=None,
                        help="repeat one seed instead of consecutive seeds")
    parser.add_argument("--verbose", action="store_true",
                        help="print every run's value")
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values = {}
        context = {}
        wall_s = []
        for run in range(args.runs):
            seed = args.seed if args.seed is not None else args.first_seed + run
            command = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            start = time.monotonic()
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            wall_s.append(time.monotonic() - start)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if done.returncode != 0 or not result.get("correct"):
                print("%s seed %d: FAILED (exit %d) %s" %
                      (workload, seed, done.returncode, lines[-1:]))
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            if len(lines) >= 2 and lines[-2].startswith('{"context"'):
                for name, metric in json.loads(lines[-2])["context"].items():
                    context.setdefault(name, []).append(metric["value"])
        print("%s (%d runs)" % (workload, args.runs))
        for name in bounds:
            series = values.get(name, [])
            if len(series) < 2:
                continue
            median = statistics.median(series)
            relative = spread(series)
            flag = ""
            if relative > bounds[name] / 3:
                flag = "  <-- above bound/3"
            print("  %-26s median %14.6g  spread %6.2f%%  bound %4.0f%%%s" %
                  (name, median, 100 * relative, 100 * bounds[name], flag))
            if args.verbose:
                print("      " + " ".join("%.6g" % v for v in series))
        for name, series in sorted(context.items()):
            print("  context %-18s median %14.6g  range %.4g..%.4g" %
                  (name, statistics.median(series), min(series), max(series)))
        print("  wall time per run %.1f s" % statistics.mean(wall_s))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
