#!/usr/bin/env python3
"""Compare two sets of benchmark runs, one row per (workload, metric).

Usage:
    python3 perfbench/compare.py PARENT.txt CHANGE.txt [--bench BENCHMARK.json]

Each input is the captured standard output of one or more runs of the
BENCHMARK.json command (`cargo run ... -- --workload ... >> PARENT.txt`).
Every run prints its run record as one line `record {...}`; the other lines
are ignored. Runs are grouped by workload; traced and untraced runs
contribute their own metrics.

For every metric the table shows both medians and the relative move of the
change's median. A move is flagged only when it is larger than the wider
of the metric's bound in BENCHMARK.json and the parent's own quartile
spread (IQR / median over its runs). Where the parent's spread exceeds the
bound, the row reads "unresolved" unless every change run beats every
parent run. The exit code is 1 when any end-to-end metric got worse by
more than its threshold, else 0.
"""

import argparse
import json
import statistics
import sys


def load(path):
    runs = []
    with open(path) as f:
        for line in f:
            if line.startswith("record "):
                runs.append(json.loads(line[len("record "):]))
    return runs


def values(runs):
    """{(workload, metric): ([values], unit)}"""
    out = {}
    for r in runs:
        for name, m in r["metrics"].items():
            if m.get("value") is None:
                continue
            key = (r["workload"], name)
            out.setdefault(key, ([], m.get("unit", "")))[0].append(float(m["value"]))
    return out


def spread(vals):
    """Quartile spread as a share of the median; None for a single run."""
    med = statistics.median(vals)
    if len(vals) < 2:
        return None
    if med == 0:
        return 0.0
    q = statistics.quantiles(vals, n=4)
    return abs(q[2] - q[0]) / abs(med)


def verdict(parent, change, better, bound):
    """(move, threshold, status) for one metric."""
    pm, cm = statistics.median(parent), statistics.median(change)
    move = (cm - pm) / abs(pm) if pm else (0.0 if cm == pm else float("inf"))
    sp = spread(parent)
    if sp is None and bound is None:
        # one parent run and no bound: nothing to judge a move against
        return move, float("nan"), "same" if move == 0 else "unresolved"
    sp = sp or 0.0
    threshold = max(bound or 0.0, sp)
    improved = move < 0 if better == "lower" else move > 0
    if better == "lower":
        dominates = max(change) < min(parent)
    else:
        dominates = min(change) > max(parent)
    if bound is not None and sp > bound:
        return move, threshold, "better" if dominates else "unresolved"
    if abs(move) <= threshold:
        return move, threshold, "same"
    return move, threshold, "better" if improved else "worse"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--bench", default="BENCHMARK.json")
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    spec = {m["name"]: (m["better"], m.get("bound"), True) for m in bench["end_to_end"]}
    spec.update({m["name"]: (m["better"], None, False) for m in bench["per_layer"]})

    parent, change = values(load(args.parent)), values(load(args.change))
    rows, regressed = [], False
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        if name not in spec:
            continue
        better, bound, end_to_end = spec[name]
        (pv, unit), (cv, _) = parent[key], change[key]
        move, threshold, status = verdict(pv, cv, better, bound)
        regressed |= end_to_end and status == "worse"
        rows.append((workload, name, unit, statistics.median(pv), statistics.median(cv),
                     move, threshold, len(pv), len(cv), status))

    print(f"{'workload':<18} {'metric':<30} {'unit':<12} {'parent':>14} {'change':>14} "
          f"{'move':>8} {'thresh':>7} {'runs':>7}  status")
    for w, n, u, pm, cm, move, th, np_, nc, st in rows:
        print(f"{w:<18} {n:<30} {u:<12} {pm:>14.6g} {cm:>14.6g} {move:>+8.1%} {th:>7.1%} "
              f"{np_:>3}/{nc:<3}  {st}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
