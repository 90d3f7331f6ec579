#!/usr/bin/env python3
"""SmarTmem benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload node --seed 1 --seconds 40 --trace 0

Builds the runner from the checkout's sources (first run only), runs the
workload for --seconds of host time in as many runner processes as fit,
derives the metrics, checks the outputs and prints, as the last line of
stdout,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The lines before it are a readable table and the run's provenance. A
failed output check prints "correct": false and exits 1. The full result,
with provenance and the traced spans, is also written under
<build dir>/results/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

BUILD_TYPE = "RelWithDebInfo"

# Measured batches per runner process, after its warm-up batch. The
# simulator slows down as its process ages, so every process does the same
# work: each run then mixes fresh and aged batches in the same proportions
# however fast the machine is.
BATCHES_PER_PROCESS = {"node": 3, "fleet-lending": 2}

# A hung runner still ends the run within the contract's time limit.
PROCESS_TIMEOUT_S = 120


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    """<$CARGO_TARGET_DIR or .bench_build>/perfbench. A build directory
    outside this tree may be shared by several trees (a parent and a
    change, say), so there each tree gets its own, keyed by its path."""
    base = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if ROOT in base.resolve().parents:
        return base / "perfbench"
    return base / f"perfbench-{hashlib.sha256(str(ROOT).encode()).hexdigest()[:12]}"


def build():
    """Configures (which fails on a cache another tree made), then lets the
    build tool decide what is stale."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(HERE), "-B", str(out), f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
             ["cmake", "--build", str(out), "-j", jobs, "--target", "perfbench_runner"]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "perfbench_runner"


def source_digest():
    """sha256 over the library sources and the benchmark, so a result is
    traceable to the code even in a checkout that is not a git repo."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(args, raw, started):
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": raw["params"],
        "processes": raw["processes"],
        "batches_per_process": raw["batches_per_process"],
        "nproc": os.cpu_count(),
        "hardware_concurrency": raw["hardware_concurrency"],
        "build_type": raw["build_type"],
        "compiler": raw["compiler"],
        "python": sys.version.split()[0],
        "started_utc": started,
    }


def chrome_trace(raw):
    """Traced batches' spans in Chrome trace-event form (one track per
    batch); probe spans have no start of their own and are laid out from
    their parent's start."""
    events = []
    for i, batch in enumerate(raw["batches"]):
        if not batch["traced"]:
            continue
        starts = []
        cursor = {}
        for s in batch["spans"]:
            start = s["start_ns"]
            if start < 0:
                parent = int(s["parent"])
                start = cursor.get(parent, starts[parent])
                cursor[parent] = start + s["ns"]
            starts.append(start)
            events.append({"name": s["name"], "ph": "X", "pid": 1, "tid": i,
                           "ts": start / 1e3, "dur": s["ns"] / 1e3})
    return {"traceEvents": events}


def table(values, units, not_measured=()):
    lines = []
    for name, value in values.items():
        shown = "n/m" if name in not_measured else f"{value:.6g}"
        lines.append(f"  {name:36s} {shown:>14s} {units[name]}")
    return "\n".join(lines)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_runner(runner, args):
    """Runner processes one after another while the next one is expected to
    end within --seconds (at least one), merged into one raw document."""
    cmd = [str(runner), "--workload", args.workload, "--seed", str(args.seed),
           "--batches", str(BATCHES_PER_PROCESS[args.workload]), "--trace", str(args.trace)]
    docs = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, stderr=sys.stderr,
                             timeout=PROCESS_TIMEOUT_S)
        docs.append(json.loads(out.stdout))
        took = time.monotonic() - t0
        if time.monotonic() - start + took / 2 >= args.seconds:
            return merge(docs)


def merge(docs):
    """One raw document of several runner processes: their batches and
    set-up samples in order, the largest peak RSS. The first batch stays the
    first process's warm-up, which the repeat check compares all others to."""
    raw = dict(docs[0])
    raw["processes"] = len(docs)
    raw["batches"] = [b for d in docs for b in d["batches"]]
    raw["setup_samples_s"] = [s for d in docs for s in d["setup_samples_s"]]
    raw["peak_rss_kib"] = max(d["peak_rss_kib"] for d in docs)
    return raw


def evaluate(raw):
    """The run's metrics and the problems the output checks found."""
    values = metrics.per_layer(raw) if raw["trace"] else metrics.end_to_end(raw)
    return values, metrics.check_all(raw)


def main(argv):
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    args = parse_args(argv)
    if not (ROOT / "src").is_dir():
        log(f"no library sources at {ROOT / 'src'}: run from a full checkout")
        return 2
    runner = build()
    raw = run_runner(runner, args)
    values, problems = evaluate(raw)
    prov = provenance(args, raw, started)

    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        (results / f"{stem}-spans.json").write_text(json.dumps(chrome_trace(raw)))

    correct = not problems
    units = metrics.PER_LAYER_UNITS if args.trace else metrics.END_TO_END_UNITS
    result = {
        "correct": correct,
        "attempted": metrics.attempted_cells(raw),
        "failed": metrics.failed_cells(problems),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    (results / f"{stem}.json").write_text(json.dumps(
        {"provenance": prov, "host": metrics.host_summary(raw), "problems": problems,
         "result": result}, indent=1))

    not_measured = metrics.FLEET_NOT_MEASURED if (
        args.trace and args.workload == "fleet-lending") else ()
    print(f"{args.workload}, seed {args.seed}, {'traced' if args.trace else 'untraced'}:")
    print(table(values, units, not_measured))
    print("host " + json.dumps(metrics.host_summary(raw), sort_keys=True))
    for batch, labels, msg in problems:
        where = labels[0] if len(labels) == 1 else f"{len(labels)} cells"
        print(f"CHECK FAILED [batch {batch}, {where}]: {msg}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
