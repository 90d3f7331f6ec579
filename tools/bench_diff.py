#!/usr/bin/env python3
"""Diff two committed perf ledger files (BENCH_pr<N>.json).

    python3 tools/bench_diff.py BENCH_pr16.json BENCH_pr22.json

Each ledger holds, per workload and end-to-end metric, the median and
quartiles of a parent tree and of the change that the file records
(perfbench/steadiness.py --trees <parent> <change>). This script compares
the change side of A with the change side of B: for every workload/metric
in both it prints the two medians, the move from A to B as a share of A,
and the larger of the two interquartile spreads (interquartile distance
over the median). A move larger than that spread is flagged MOVED; a
smaller one cannot be told from run-to-run noise. Better/worse follows the
metric's direction ("lower" or "higher" is better).

The two files may come from different machines, core counts or seed
counts; a mismatch is noted, because the medians then compare machines or
seeds as much as code. Exits 0 when both files parse, 2 when not.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
        doc["steadiness"]  # noqa: B018 - the one section this needs
    except (OSError, ValueError, KeyError) as e:
        print(f"bench_diff: cannot read a ledger from {path}: {e!r}", file=sys.stderr)
        sys.exit(2)
    return doc


def describe(name, doc):
    commit = doc.get("change_commit") or doc.get("commit") or "?"
    print(f"{name}: {doc.get('change', '?')}")
    print(f"   nproc {doc.get('nproc', '?')}, {doc.get('machine', '?')}, "
          f"build {doc.get('build_type', '?')}, commit {commit}")


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a", help="older ledger (BENCH_pr<N>.json)")
    p.add_argument("b", help="newer ledger")
    args = p.parse_args(argv)
    a, b = load(args.a), load(args.b)

    describe("A", a)
    describe("B", b)
    if a.get("nproc") != b.get("nproc"):
        print("note: the ledgers were taken on different core counts")
    pairs = {doc["steadiness"][w][m].get("pairs")
             for doc in (a, b) for w in doc["steadiness"] for m in doc["steadiness"][w]}
    if len(pairs) > 1:
        print("note: the ledgers ran different numbers of seeds, so even "
              "simulated medians may differ")
    print()
    print(f"{'workload':14s} {'metric':27s} {'A median':>12s} {'B median':>12s} "
          f"{'move':>8s} {'spread':>7s}  verdict")
    moved = 0
    for workload, metrics in a["steadiness"].items():
        for metric, row_a in metrics.items():
            row_b = b["steadiness"].get(workload, {}).get(metric)
            if row_b is None:
                continue
            med_a, med_b = row_a["change"]["median"], row_b["change"]["median"]
            spread = max(row_a["change"]["spread"], row_b["change"]["spread"])
            move = (med_b - med_a) / med_a if med_a else 0.0
            verdict = ""
            if abs(move) > spread:
                better = (move < 0) == (row_b.get("better", "lower") == "lower")
                verdict = "MOVED " + ("better" if better else "worse")
                moved += 1
            print(f"{workload:14s} {metric:27s} {med_a:12.5g} {med_b:12.5g} "
                  f"{move:+8.1%} {spread:7.1%}  {verdict}")
    print(f"\n{moved} metric(s) moved by more than their spread")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
