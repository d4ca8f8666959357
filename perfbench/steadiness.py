#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 10]
                                    [--first-seed 1] [--out FILE]

Runs perfbench/run.py once per (workload, seed) with --trace 0 and the
run_seconds of BENCHMARK.json, then reports per metric the median, the
first and third quartiles (statistics.quantiles(values, n=4)) and their
distance as a share of the median, next to the metric's bound. A spread
below a third of the bound is marked steady. With --out, the table and the
machine fingerprint are written as JSON: one point of the perf trajectory.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0:
        raise SystemExit("%s seed %d failed (exit %d):\n%s"
                         % (workload, seed, proc.returncode, proc.stdout[-2000:]))
    fingerprint = None
    for line in lines:
        if line.startswith("# fingerprint "):
            fingerprint = json.loads(line[len("# fingerprint "):])
    return json.loads(lines[-1]), fingerprint


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    report = {"date": datetime.date.today().isoformat(),
              "run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in seeds:
            result, fingerprint = run_once(workload, seed, bench["run_seconds"])
            report["fingerprint"] = fingerprint
            if not result["correct"] or result["failed"]:
                raise SystemExit("%s seed %d: output check failed" % (workload, seed))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = spread < bounds[name] / 3
            steady = steady and ok
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "values": vals}
            print("%-13s %-12s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.3f  "
                  "bound %.2f %s" % (workload, name, med, q1, q3, spread, bounds[name],
                                     "" if ok else "  <-- above bound/3"))
            sys.stdout.flush()
        report["workloads"][workload] = rows
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
