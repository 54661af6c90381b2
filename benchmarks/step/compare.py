#!/usr/bin/env python3
"""Compare two result files of ``run.py`` under the bounds in BENCHMARK.json.

    python3 benchmarks/step/compare.py A.json B.json

One row per (workload, end-to-end metric): both medians of repeats, their
quartiles, and the ratio B/A (base: A).  Verdicts:

* ``regression`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — either side's repeats spread (quartile distance over
  median) wider than the bound, so "no change" cannot be told from a
  change of the bound's size — unless every B repeat beats every A repeat;
* ``improved`` / ``unchanged`` — otherwise.

Exits 1 on any regression or when B failed a larger share of its
operations than A, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def quartiles(values):
    """(q1, median, q3); a single repeat is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, qa, qb, better: str, bound: float) -> str:
    """``a``/``b`` are the repeats, ``qa``/``qb`` their quartiles."""
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (qb[1] - qa[1]) / qa[1]
    if worsening > bound:
        return "regression"
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    spread = max((q[2] - q[0]) / q[1] for q in (qa, qb))
    if spread > bound and not all_better:
        return "unresolved"
    return "improved" if all_better else "unchanged"


def failed_share(workload: dict) -> float:
    return workload["ops_failed"] / workload["ops_attempted"]


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as fa, open(argv[2], encoding="utf-8") as fb:
        doc_a, doc_b = json.load(fa), json.load(fb)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)["end_to_end"]

    status = 0
    print(f"{'workload':<17} {'metric':<17} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'B/A':>7} {'bound':>6}  verdict")
    for name in doc_a["workloads"]:
        if name not in doc_b["workloads"]:
            continue
        wa, wb = doc_a["workloads"][name], doc_b["workloads"][name]
        for metric in declared:
            a = wa["end_to_end"][metric["name"]]["repeats"]
            b = wb["end_to_end"][metric["name"]]["repeats"]
            qa, qb = quartiles(a), quartiles(b)
            result = verdict(a, b, qa, qb, metric["better"], metric["bound"])
            if result == "regression":
                status = 1
            print(
                f"{name:<17} {metric['name']:<17} "
                f"{qa[1]:>12.6g} [{qa[0]:>9.5g},{qa[2]:>9.5g}] "
                f"{qb[1]:>12.6g} [{qb[0]:>9.5g},{qb[2]:>9.5g}] "
                f"{qb[1] / qa[1]:>7.3f} {metric['bound']:>6.2f}  {result}"
            )
        if failed_share(wb) > failed_share(wa):
            status = 1
            print(f"{name:<17} failed share rose: {failed_share(wa):.4f} -> {failed_share(wb):.4f}")
        for counter in ("md.neighbor.rebuilds", "md.simulation.steps"):
            ca = wa.get("per_layer", {}).get(counter, {}).get("value")
            cb = wb.get("per_layer", {}).get(counter, {}).get("value")
            if ca != cb:
                print(f"{name:<17} {counter} differs: {ca} vs {cb}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
