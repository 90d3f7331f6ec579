#!/usr/bin/env python3
"""Steadiness check: interleaved sets of benchmark runs, compared by metric.

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 10 --trees ../parent .

Runs the command in BENCHMARK.json (untraced, for its run_seconds) --runs
times per set and workload, seed 1..N, alternating which set goes first each
round. With no --trees both sets run the tree this script lives in, which
measures the benchmark's own noise; with two trees (say a parent commit and
a change) the same table compares them.

For each workload and end-to-end metric it prints each set's median and
quartiles, the spread (interquartile distance over the median, as
statistics.quantiles(values, n=4) gives the quartiles) and how much worse
the second set's median is than the first's, both against the metric's
bound. It exits 1 if any spread or any set-to-set change exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(tree, command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} in {tree}: output check failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trees", nargs=2, type=Path, default=None,
                   help="two trees to compare (default: this tree twice)")
    p.add_argument("--out", type=Path, default=None, help="write every run here (JSON)")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    trees = [t.resolve() for t in (args.trees or [ROOT, ROOT])]
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs = {w: [[], []] for w in workloads}
    for i in range(args.runs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for w in workloads:
            for s in order:
                runs[w][s].append(run_once(trees[s], spec["command"], w, 1 + i, seconds))
                print(f"round {i + 1}/{args.runs} {w} set {s + 1} done", file=sys.stderr,
                      flush=True)

    ok = True
    print(f"{'workload':14s} {'metric':27s} {'median1':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'spread1':>8s} {'median2':>11s} {'spread2':>8s} {'worse':>7s} {'bound':>6s}")
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            med1, q1, q3, sp1 = spread([r[name] for r in runs[w][0]])
            med2, _, _, sp2 = spread([r[name] for r in runs[w][1]])
            worse = worse_by(med1, med2, m["better"])
            failures = []
            if max(sp1, sp2) > bound:
                failures.append("SPREAD>BOUND")
            if worse > bound:
                failures.append("WORSE>BOUND")
            note = "spread>bound/3" if not failures and max(sp1, sp2) > bound / 3 else ""
            ok = ok and not failures
            print(f"{w:14s} {name:27s} {med1:11.5g} {q1:11.5g} {q3:11.5g} {sp1:8.4f} "
                  f"{med2:11.5g} {sp2:8.4f} {worse:7.4f} {bound:6.3f} {' '.join(failures) or note}")
    if args.out:
        args.out.write_text(json.dumps({"trees": [str(t) for t in trees], "runs": runs}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
