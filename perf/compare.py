#!/usr/bin/env python3
"""Compare two sets of runs by the benchmark's own bounds.

    python3 perf/compare.py A.json B.json
    python3 perf/compare.py A.json            # spreads of one set

Each file is what ``run.py --runs N --out FILE`` wrote.  One row per
(workload, metric): both medians with their quartiles and a verdict.

* ``unresolved`` — a set's interquartile spread, as a share of its
  median, is wider than the metric's bound: the runs cannot tell;
* ``worse`` / ``better`` — B's median is beyond A's by more than the
  bound, in the direction ``BENCHMARK.json`` calls worse or better;
* ``same`` — within the bound.

More failed operations in B than in A is always ``worse``.  Exits 1 on
any ``worse`` row, 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

PERF = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF))

from harness import stats  # noqa: E402  (needs the path set above)


def load(path):
    """``{workload: {metric: [values]}}`` and ``{workload: failed share}``."""
    with open(path, encoding="utf-8") as handle:
        records = json.load(handle)
    values = defaultdict(lambda: defaultdict(list))
    failed = defaultdict(lambda: [0, 0])
    for record in records:
        for metric, entry in record["metrics"].items():
            values[record["workload"]][metric].append(entry["value"])
        failed[record["workload"]][0] += record["failed"]
        failed[record["workload"]][1] += record["attempted"]
    return values, {w: f / max(1, a) for w, (f, a) in failed.items()}


def verdict(entry, a, b):
    """Judge metric *entry* given both sets' values."""
    bound = entry.get("bound")
    if bound is None:
        return "-"
    if stats.spread(a) > bound or (b and stats.spread(b) > bound):
        return "unresolved"
    if not b:
        return "steady"
    change = stats.median(b) / stats.median(a) - 1.0
    if entry["better"] == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def describe(values):
    q1, q2, q3 = stats.quartiles(values)
    return f"{q2:12.4f} [{q1:.4f} .. {q3:.4f}] {stats.spread(values):6.1%}"


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(PERF.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
    declared = {e["name"]: e
                for e in manifest["end_to_end"] + manifest["per_layer"]}
    a_values, a_failed = load(argv[1])
    b_values, b_failed = load(argv[2]) if len(argv) == 3 else ({}, {})
    worse = 0
    for workload, metrics in a_values.items():
        print(f"\n{workload}")
        for metric, a in metrics.items():
            b = b_values.get(workload, {}).get(metric, [])
            if len(a) < 2 or (b and len(b) < 2):
                print(f"  {metric:34s} needs two runs a side at least")
                continue
            row = verdict(declared[metric], a, b)
            worse += row == "worse"
            print(f"  {metric:34s} {row:10s} A {describe(a)}"
                  + (f"   B {describe(b)}" if b else ""))
        if workload in b_failed:
            row = ("worse" if b_failed[workload] > a_failed[workload]
                   else "same")
            worse += row == "worse"
            print(f"  {'failed_frac':34s} {row:10s} "
                  f"A {a_failed[workload]:.6f}   B {b_failed[workload]:.6f}")
        elif a_failed[workload]:
            print(f"  {'failed_frac':34s} {a_failed[workload]:.6f}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
