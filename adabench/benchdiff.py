#!/usr/bin/env python3
"""Advisory comparison of benchmark runs of a parent and a change.

Each side is a directory of saved run outputs, one file per run, named
<workload>.<n>.json, whose last line is the result line adabench prints
(the stdout of `python3 adabench/run.py ...` saved as is). Runs are paired
by <n>, so run them alternately (parent, change, parent, ...) with the
same seeds on both sides.

Usage (from the repository root):
    python3 adabench/benchdiff.py PARENT_DIR CHANGE_DIR

For every workload and metric it prints each side's median and quartiles,
the share of pairs the change won (ties count for neither), and a verdict:

  improved    the change won at least 9 of 10 pairs and its median beats
              the parent's by more than the parent's own quartile spread;
  worse       the change's median is worse than the parent's by more than
              the metric's bound (end-to-end metrics), or it lost 9 of 10
              pairs by more than the parent's spread (per-layer metrics);
  unchanged   neither, and the parent's spread is within the bound (or
              every change run reads better than every parent run);
  unresolved  neither, and the spread is wider than the bound (or the
              metric has no bound), so no statement is possible.

A result line whose "correct" is false, or with failed > 0, is reported
and its metrics are not used. The tool never fails a build: it exits 0
unless its input cannot be read.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_side(directory):
    """Returns {workload: {n: metrics}} from the run files in `directory`."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        parts = name.split(".")
        if len(parts) != 3 or parts[2] != "json":
            continue
        workload, n = parts[0], parts[1]
        with open(os.path.join(directory, name)) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        result = json.loads(lines[-1])
        if not result.get("correct") or result.get("failed", 1) != 0:
            print(f"# {directory}/{name}: run not correct; skipped")
            continue
        runs.setdefault(workload, {})[n] = {
            k: v["value"] for k, v in result["metrics"].items()}
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, pairs, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    spread = p_q3 - p_q1
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    gain = sign * (c_med - p_med)
    if pairs and wins >= 0.9 * len(pairs) and gain > spread:
        return "improved", win_frac
    rel_spread = spread / abs(p_med) if p_med else float("inf")
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > spread:
            return "worse", win_frac
        return "unresolved", win_frac
    worse_by = -gain / abs(p_med) if p_med else 0.0
    if rel_spread > bound:
        if all(sign * (c - p) > 0 for c in change for p in parent):
            return "unchanged", win_frac
        if all(sign * (c - p) < 0 for c in change for p in parent):
            return "worse", win_frac
        return "unresolved", win_frac
    if worse_by > bound:
        return "worse", win_frac
    return "unchanged", win_frac


def main(argv):
    if len(argv) != 3:
        print(__doc__)
        return 2
    with open(BENCHMARK) as f:
        bench = json.load(f)
    metrics = [(m["name"], m["better"], m.get("bound"))
               for m in bench["end_to_end"] + bench["per_layer"]]
    parent, change = load_side(argv[1]), load_side(argv[2])
    print(f"{'workload':18s} {'metric':42s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'ratio':>7s} {'wins':>5s}  verdict")
    for workload in sorted(set(parent) & set(change)):
        ids = sorted(set(parent[workload]) & set(change[workload]))
        for name, better, bound in metrics:
            p = [parent[workload][i][name] for i in ids
                 if name in parent[workload][i]]
            c = [change[workload][i][name] for i in ids
                 if name in change[workload][i]]
            if not p or not c or len(p) != len(c):
                continue
            pairs = list(zip(p, c))
            result, win_frac = verdict(p, c, pairs, better, bound)
            p_med, c_med = statistics.median(p), statistics.median(c)
            ratio = c_med / p_med if p_med else float("nan")
            pq, cq = quartiles(p), quartiles(c)
            print(f"{workload:18s} {name:42s} "
                  f"{p_med:12.5g} [{pq[0]:9.4g}, {pq[1]:9.4g}] "
                  f"{c_med:12.5g} [{cq[0]:9.4g}, {cq[1]:9.4g}] "
                  f"{ratio:7.3f} {win_frac:5.2f}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
