#!/usr/bin/env python3
"""Compare end-to-end results of a parent commit and a change.

    python3 benchmarks/compare.py PARENT/.bench_out CHANGE/.bench_out

Each directory holds the result-*.json files that benchmarks/run.py writes.
Runs are paired by workload and seed. For every workload and end-to-end
metric this prints both medians with their quartiles, the change in percent
(positive is better), the pairs the change won, and a verdict:

    gain          the change won at least 9 in 10 pairs and the medians differ
                  by more than the parent's own quartile spread
    regression    the change's median is worse than the parent's by more
                  than the metric's bound in BENCHMARK.json
    unresolved    the parent's quartile spread is wider than the bound and not
                  every change run beats every parent run
    same          none of the above
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    runs = {}
    for path in glob.glob(os.path.join(directory, "result-*-trace0.json")):
        with open(path) as fh:
            res = json.load(fh)
        runs[(res["workload"], res["corpus"]["seed"])] = res
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parent, change = load(argv[0]), load(argv[1])
    keys = sorted(set(parent) & set(change))
    if not keys:
        print("no runs with the same workload and seed on both sides", file=sys.stderr)
        return 2
    for res in list(parent.values()) + list(change.values()):
        if not res["correct"]:
            print(f"note: a run failed checks: {res['workload']} seed {res['corpus']['seed']}")
    print(f"{'workload':15s} {'metric':26s} {'parent [q1, q3]':>30s} "
          f"{'change [q1, q3]':>30s} {'diff%':>7s} {'wins':>6s}  verdict")
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        for m in spec["end_to_end"]:
            name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
            pv = [parent[(workload, s)]["metrics"][name]["value"] for s in seeds]
            cv = [change[(workload, s)]["metrics"][name]["value"] for s in seeds]
            pm, cm = statistics.median(pv), statistics.median(cv)
            (p1, p3), (c1, c3) = quartiles(pv), quartiles(cv)
            diff = sign * (cm - pm) / pm
            wins = sum(sign * (c - p) > 0 for p, c in zip(pv, cv))
            spread = (p3 - p1) / pm
            if diff < -m["bound"]:
                verdict = "regression"
            elif wins >= 0.9 * len(seeds) and abs(cm - pm) > p3 - p1:
                verdict = "gain"
            elif spread > m["bound"] and not min(sign * c for c in cv) > max(sign * p for p in pv):
                verdict = "unresolved"
            else:
                verdict = "same"
            print(f"{workload:15s} {name:26s} {pm:12.5g} [{p1:.5g}, {p3:.5g}]"
                  f" {cm:12.5g} [{c1:.5g}, {c3:.5g}] {diff * 100:+7.2f}"
                  f" {wins:3d}/{len(seeds):<2d}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
