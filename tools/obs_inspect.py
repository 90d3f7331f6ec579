#!/usr/bin/env python3
"""Inspect the observability outputs written by the --trace-out /
--metrics-out / --audit-out bench flags (src/obs).

Usage:
  obs_inspect.py trace   <trace.json>    [--check]
  obs_inspect.py metrics <metrics.jsonl> [--check] [--grep SUBSTR]
  obs_inspect.py audit   <audit.jsonl>   [--check] [--vm N]
  obs_inspect.py fleet-report <metrics.jsonl> [--check]

Each subcommand parses one pillar's export, prints a human summary, and
exits non-zero when the file is malformed — `--check` suppresses the
summary so CI can use it as a pure validator.

  trace    Chrome trace-event JSON (load interactively at ui.perfetto.dev).
           Summarizes events per process/track, phase mix and time range.
  metrics  Registry snapshots, JSONL (one {"t_s":..,"metrics":{..}} object
           per line) or CSV (".csv" exports). Summarizes rows, columns and
           final values.
  audit    Policy decision audit log, JSONL (one DecisionRecord per line).
           Summarizes verdicts, triggering conditions and send outcomes.
  fleet-report
           One-page control-plane health report from a *rack* metrics
           export (fig_fleet_scaling --metrics-out): per-hop wire bytes and
           drops, per-tier occupancy and get-hit attribution (DRAM /
           compressed / NVM; "-" for tiers a node does not have),
           delta-encoding health (resync frequency, clean decides,
           suppression), broken-chain and stale-seq drops, applied roll-up
           staleness quantiles, and — when the run was profiled
           (--profile) — the engine's per-shard busy time and bottleneck
           attribution. `--fleet-report FILE` is accepted as an alias.
"""

import argparse
import collections
import csv
import json
import sys


def fail(msg):
    print(f"obs_inspect: {msg}", file=sys.stderr)
    sys.exit(1)


def load_jsonl(path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as exc:
                fail(f"{path}:{n}: invalid JSON: {exc}")
    return rows


def cmd_trace(args):
    try:
        with open(args.file, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"{args.file}: {exc}")
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    if not isinstance(events, list):
        fail(f"{args.file}: no traceEvents array")

    procs, threads = {}, {}
    for ev in events:
        if ev.get("ph") == "M":
            if ev.get("name") == "process_name":
                procs[ev["pid"]] = ev["args"]["name"]
            elif ev.get("name") == "thread_name":
                threads[(ev["pid"], ev["tid"])] = ev["args"]["name"]

    phases = collections.Counter(ev.get("ph") for ev in events)
    per_track = collections.Counter()
    names = collections.Counter()
    t_lo, t_hi = None, 0.0
    for ev in events:
        ph = ev.get("ph")
        if ph not in ("X", "i", "C"):
            continue
        key = (procs.get(ev.get("pid"), "?"),
               threads.get((ev.get("pid"), ev.get("tid")), "?"))
        per_track[key] += 1
        names[ev.get("name", "?")] += 1
        ts = float(ev.get("ts", 0))
        end = ts + float(ev.get("dur", 0))
        t_lo = ts if t_lo is None else min(t_lo, ts)
        t_hi = max(t_hi, end)

    if args.check:
        if not events:
            fail(f"{args.file}: empty trace")
        return
    print(f"{args.file}: {len(events)} events "
          f"(spans {phases['X']}, instants {phases['i']}, "
          f"counters {phases['C']}, metadata {phases['M']})")
    if t_lo is not None:
        print(f"time range: {t_lo / 1e6:.3f}s .. {t_hi / 1e6:.3f}s (sim time)")
    print("events per track:")
    for (proc, thread), n in sorted(per_track.items()):
        print(f"  {proc:>10s}/{thread:<16s} {n}")
    print("top event names:")
    for name, n in names.most_common(args.top):
        print(f"  {name:<28s} {n}")


def load_metrics(path):
    """Load Registry snapshots (JSONL or .csv export) as a list of
    {"t_s": float, "metrics": {name: float|None}} rows."""
    def num(v):
        if v in ("", "null", "nan"):
            return None
        return float(v)

    if path.endswith(".csv"):
        try:
            with open(path, encoding="utf-8", newline="") as fh:
                table = list(csv.DictReader(fh))
        except (OSError, csv.Error) as exc:
            fail(f"{path}: {exc}")
        if not table:
            fail(f"{path}: empty metrics CSV")
        return [{"t_s": float(r.pop("t_s", "nan")),
                 "metrics": {k: num(v) for k, v in r.items()}}
                for r in table]
    rows = load_jsonl(path)
    for r in rows:
        if "t_s" not in r or "metrics" not in r:
            fail(f"{path}: snapshot missing t_s/metrics: {r}")
    return rows


def cmd_metrics(args):
    rows = load_metrics(args.file)
    if args.check:
        if not rows:
            fail(f"{args.file}: no snapshots")
        return
    last = rows[-1]
    names = sorted(last["metrics"])
    if args.grep:
        names = [n for n in names if args.grep in n]
    print(f"{args.file}: {len(rows)} snapshots, "
          f"{len(last['metrics'])} metrics, "
          f"t = {rows[0]['t_s']:.3f}s .. {last['t_s']:.3f}s")
    print(f"final values{f' (matching {args.grep!r})' if args.grep else ''}:")
    for name in names:
        v = last["metrics"][name]
        print(f"  {name:<36s} {'null' if v is None else f'{v:g}'}")


def cmd_audit(args):
    rows = load_jsonl(args.file)
    for n, r in enumerate(rows, 1):
        for key in ("stats_seq", "decided_at_s", "policy", "vms"):
            if key not in r:
                fail(f"{args.file}: record {n} missing '{key}'")
    if args.check:
        if not rows:
            fail(f"{args.file}: no decision records")
        return
    sent = sum(1 for r in rows if r.get("sent"))
    suppressed = sum(1 for r in rows if r.get("suppressed"))
    renorm = sum(1 for r in rows if r.get("renormalized"))
    verdicts = collections.Counter()
    conditions = collections.Counter()
    for r in rows:
        for vm in r["vms"]:
            if args.vm and vm.get("vm") != args.vm:
                continue
            verdicts[vm.get("verdict", "?")] += 1
            conditions[vm.get("condition", "?")] += 1
    ages = [r.get("stats_age_intervals", 0.0) for r in rows]
    print(f"{args.file}: {len(rows)} decisions by "
          f"{rows[0]['policy'] if rows else '?'} "
          f"(sent {sent}, suppressed {suppressed}, renormalized {renorm})")
    if ages:
        print(f"stats staleness: mean {sum(ages) / len(ages):.3f} "
              f"max {max(ages):.3f} sampling intervals")
    scope = f" (vm {args.vm})" if args.vm else ""
    print(f"per-VM verdicts{scope}:")
    for verdict, n in verdicts.most_common():
        print(f"  {verdict:<8s} {n}")
    print(f"triggering conditions{scope}:")
    for cond, n in conditions.most_common():
        print(f"  {cond:<28s} {n}")


def cmd_fleet_report(args):
    rows = load_metrics(args.file)
    if not rows:
        fail(f"{args.file}: no snapshots")
    last = rows[-1]["metrics"]

    def g(name, default=None):
        v = last.get(name)
        return default if v is None else v

    nodes = set()
    for name in last:
        for prefix in ("n", "gm.n"):
            if name.startswith(prefix):
                digits = name[len(prefix):].split(".", 1)[0]
                if digits.isdigit():
                    nodes.add(int(digits))
    nodes = sorted(nodes)

    if args.check:
        if not nodes:
            fail(f"{args.file}: no per-node rack metrics (n<i>.*) — "
                 "not a fleet/rack export?")
        for key in ("gm.decisions", "gm.rollups_seen",
                    "rack.rollups_suppressed"):
            if key not in last:
                fail(f"{args.file}: missing required metric '{key}'")
        for i in nodes:
            for key in (f"n{i}.gm_up.sent", f"n{i}.gm_down.sent",
                        f"n{i}.ctl.stats_full_sends"):
                if key not in last:
                    fail(f"{args.file}: missing required metric '{key}'")
        return

    def fmt(v, spec="g"):
        return "-" if v is None else f"{v:{spec}}"

    print(f"fleet health report — {args.file}")
    print(f"  {len(rows)} snapshots, t = {rows[0]['t_s']:.3f}s .. "
          f"{rows[-1]['t_s']:.3f}s (sim), {len(nodes)} nodes")

    print("\nrack hops (node <-> global manager), final totals:")
    print(f"  {'node':<6s} {'up msgs':>8s} {'up bytes':>10s} "
          f"{'down msgs':>9s} {'down bytes':>10s} {'drops':>6s} "
          f"{'lat p95 us':>10s}")
    for i in nodes:
        drops = sum(g(f"n{i}.{hop}.{kind}", 0.0)
                    for hop in ("gm_up", "gm_down")
                    for kind in ("dropped_loss", "dropped_down",
                                 "dropped_queue"))
        lat = max((g(f"n{i}.{hop}.latency_us.p95") or 0.0)
                  for hop in ("gm_up", "gm_down"))
        print(f"  n{i:<5d} {fmt(g(f'n{i}.gm_up.sent'), '8.0f')} "
              f"{fmt(g(f'n{i}.gm_up.payload_bytes'), '10.0f')} "
              f"{fmt(g(f'n{i}.gm_down.sent'), '9.0f')} "
              f"{fmt(g(f'n{i}.gm_down.payload_bytes'), '10.0f')} "
              f"{drops:6.0f} {lat:10.1f}")

    tier_nodes = [i for i in nodes
                  if g(f"n{i}.tier.dram.total_pages") is not None]
    if tier_nodes:
        def occ_pct(used, total):
            if used is None or not total:
                return "-"
            return f"{100.0 * used / total:.1f}"

        print("\nper-tier occupancy and hit attribution (final):")
        print(f"  {'node':<6s} {'dram occ%':>9s} {'comp occ%':>9s} "
              f"{'nvm occ%':>8s} {'hit dram%':>9s} {'hit comp%':>9s} "
              f"{'hit nvm%':>8s}")
        for i in tier_nodes:
            dram = occ_pct(g(f"n{i}.tier.dram.used_pages"),
                           g(f"n{i}.tier.dram.total_pages"))
            comp = occ_pct(g(f"n{i}.tier.compressed.bytes_used"),
                           g(f"n{i}.tier.compressed.capacity_bytes"))
            nvm = occ_pct(g(f"n{i}.tier.nvm.used_pages"),
                          g(f"n{i}.tier.nvm.total_pages"))
            hits = {t: g(f"n{i}.tier.{t}.gets_hit")
                    for t in ("dram", "compressed", "nvm")}
            total_hits = sum(v for v in hits.values() if v is not None)
            rates = {t: "-" if hits[t] is None
                     else f"{100.0 * hits[t] / total_hits:.1f}"
                     if total_hits else "0.0"
                     for t in hits}
            print(f"  n{i:<5d} {dram:>9s} {comp:>9s} {nvm:>8s} "
                  f"{rates['dram']:>9s} {rates['compressed']:>9s} "
                  f"{rates['nvm']:>8s}")

    decisions = g("gm.decisions", 0.0)
    clean = g("gm.clean_decides", 0.0)
    print("\ndelta-encoding health:")
    print(f"  gm decides: {decisions:.0f} total, {clean:.0f} clean "
          f"(no roll-up change: "
          f"{100.0 * clean / decisions if decisions else 0.0:.1f}%)")
    print(f"  quota sends skipped (unchanged): "
          f"{g('gm.quota_sends_skipped', 0.0):.0f} / "
          f"{g('gm.quotas_sent', 0.0) + g('gm.quota_sends_skipped', 0.0):.0f}"
          f", node roll-ups suppressed (unchanged): "
          f"{g('rack.rollups_suppressed', 0.0):.0f}")
    print(f"  {'node':<6s} {'stats full':>10s} {'stats delta':>11s} "
          f"{'resync %':>8s} {'tgt full':>8s}")
    for i in nodes:
        full = g(f"n{i}.ctl.stats_full_sends", 0.0)
        delta = g(f"n{i}.ctl.stats_delta_sends", 0.0)
        total = full + delta
        print(f"  n{i:<5d} {full:10.0f} {delta:11.0f} "
              f"{100.0 * full / total if total else 0.0:8.1f} "
              f"{g(f'n{i}.ctl.targets_full_sends', 0.0):8.0f}")

    breaks = {i: g(f"n{i}.ctl.stats_chain_breaks", 0.0)
              + g(f"n{i}.ctl.target_chain_breaks", 0.0) for i in nodes}
    stale = {i: g(f"n{i}.ctl.stale_samples_dropped", 0.0)
             + g(f"n{i}.ctl.stale_targets_dropped", 0.0) for i in nodes}
    gm_stale = g("gm.stale_rollups_dropped", 0.0)
    print("\nrobustness (broken delta chains and stale-seq drops):")
    print(f"  chain breaks: {sum(breaks.values()):.0f} across "
          f"{sum(1 for v in breaks.values() if v)} nodes, "
          f"stale drops: {sum(stale.values()):.0f} node-side + "
          f"{gm_stale:.0f} gm-side")
    for i in nodes:
        if breaks[i] or stale[i]:
            print(f"  n{i}: {breaks[i]:.0f} chain breaks, "
                  f"{stale[i]:.0f} stale drops")

    print("\napplied-seq staleness (sampling intervals):")
    print(f"  gm roll-up age: p50 {fmt(g('gm.rollup_age_intervals.p50'), '.2f')}"
          f", p95 {fmt(g('gm.rollup_age_intervals.p95'), '.2f')}"
          f", p99 {fmt(g('gm.rollup_age_intervals.p99'), '.2f')} "
          f"({g('gm.rollup_age_intervals.count', 0.0):.0f} applied)")
    worst_gm = max(((g(f"gm.n{i}.rollup_age_intervals"), i) for i in nodes),
                   key=lambda t: -1.0 if t[0] is None else t[0],
                   default=(None, None))
    if worst_gm[0] is not None:
        print(f"  stalest node roll-up at gm: n{worst_gm[1]} "
              f"({worst_gm[0]:.2f} intervals old)")
    mm_ages = [(g(f"n{i}.ctl.stats_age_intervals"), i) for i in nodes]
    mm_ages = [t for t in mm_ages if t[0] is not None]
    if mm_ages:
        worst_mm = max(mm_ages)
        print(f"  node MM guest-stats age: mean "
              f"{sum(t[0] for t in mm_ages) / len(mm_ages):.2f}, "
              f"worst n{worst_mm[1]} ({worst_mm[0]:.2f})")

    if g("engine.windows") is None:
        print("\nengine self-profile: not present "
              "(run with --profile to collect it)")
        return
    print("\nengine self-profile (wall clock, conservative windows):")
    print(f"  {g('engine.windows', 0.0):.0f} windows, "
          f"{g('engine.idle_skip_s', 0.0):.1f}s sim skipped while idle, "
          f"critical path {g('engine.window_wall_ms', 0.0):.1f}ms, "
          f"drain {g('engine.drain_ms', 0.0):.2f}ms, "
          f"hook {g('engine.hook_ms', 0.0):.2f}ms")
    shards = sorted({name.split(".")[1] for name in last
                     if name.startswith("engine.")
                     and name.endswith(".busy_ms")})
    rows_ = [(g(f"engine.{s}.busy_ms", 0.0),
              g(f"engine.{s}.critical_windows", 0.0), s) for s in shards]
    bottleneck = max(rows_, key=lambda t: (t[1], t[0]), default=None)
    print(f"  {'shard':<6s} {'busy ms':>9s} {'events':>9s} "
          f"{'inj out':>8s} {'critical':>8s}")
    for busy, crit, s in sorted(rows_, reverse=True)[:args.top]:
        mark = "  <- bottleneck" if bottleneck and s == bottleneck[2] else ""
        print(f"  {s:<6s} {busy:9.1f} "
              f"{g(f'engine.{s}.events', 0.0):9.0f} "
              f"{g(f'engine.{s}.injections_out', 0.0):8.0f} "
              f"{crit:8.0f}{mark}")
    if len(rows_) > args.top:
        print(f"  ... {len(rows_) - args.top} more shards")
    if bottleneck:
        print(f"  bottleneck: {bottleneck[2]} "
              f"(critical in {bottleneck[1]:.0f} of "
              f"{g('engine.windows', 0.0):.0f} windows)")


def main():
    # Accept `--fleet-report FILE` as the ISSUE-facing spelling of the
    # `fleet-report FILE` subcommand.
    sys.argv = ["fleet-report" if a == "--fleet-report" else a
                for a in sys.argv]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("trace", help="summarize a Chrome trace-event JSON")
    p.add_argument("file")
    p.add_argument("--check", action="store_true",
                   help="validate only; no summary output")
    p.add_argument("--top", type=int, default=10,
                   help="event names to list (default 10)")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("metrics", help="summarize metrics snapshots")
    p.add_argument("file")
    p.add_argument("--check", action="store_true")
    p.add_argument("--grep", help="only show metrics containing SUBSTR")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("audit", help="summarize the policy decision audit")
    p.add_argument("file")
    p.add_argument("--check", action="store_true")
    p.add_argument("--vm", type=int, help="restrict verdicts to one VM id")
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("fleet-report",
                       help="one-page rack/fleet control-plane health report")
    p.add_argument("file")
    p.add_argument("--check", action="store_true")
    p.add_argument("--top", type=int, default=10,
                   help="shards to list in the engine section (default 10)")
    p.set_defaults(fn=cmd_fleet_report)

    args = parser.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
