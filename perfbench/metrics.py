"""Metric derivations and output checks of the SmarTmem benchmark.

Everything here works on the raw document perfbench_runner prints: one
workload, a warm-up batch plus the measured batches, each batch holding its
host timings, the time of the reference slices run between its cells, its
simulation cells and, when traced, its spans. Host metrics are medians over
the measured batches; simulated metrics come from the first batch, and
check_repeat() proves every other batch simulated the same thing.

The end-to-end host times are in reference-seconds (ref_s): one ref_s is
the time the runner's reference kernel took, in the same batch, for
REF_S_ITERS iterations (about 1 s on the measuring machine). The kernel is
fixed code outside the library, so a change to the simulator moves these
times as it moves wall time, while a host that slows both down moves them
much less.
"""

import statistics

WORKLOADS = ("node", "fleet-lending")

# Counts only the fleet's engine profiler exposes, so only profiled batches
# carry them.
PROFILE_ONLY = frozenset({"events", "engine_windows"})

# Single-node policies that manage tmem (everything but greedy) must fail
# some puts in the paper's DRAM-only setup: that is where Figures 3-10 live.
UNMANAGED_POLICIES = frozenset({"greedy"})

NS_PER_MS = 1e6

# Reference-kernel iterations in one reference-second.
REF_S_ITERS = 2 ** 21

# Units of every metric run.py prints. Host times are plain (s, ms, us, ns)
# or in reference-seconds (ref_s); simulated times carry a sim_ prefix.
END_TO_END_UNITS = {
    "wall_ref_s": "ref_s",
    "cpu_ref_s": "ref_s",
    "setup_s": "s",
    "events_per_ref_s": "1/ref_s",
    "peak_rss_mib": "MiB",
    "sim_makespan_s": "sim_s",
    "failed_put_pct": "%",
    "control_bytes_per_interval": "B",
}

PER_LAYER_UNITS = {
    "bench.wall_s": "s",
    "bench.cpu_s": "s",
    "bench.events_per_s": "1/s",
    "bench.ref_ns_per_iter": "ns",
    "bench.wall_ms": "ms",
    "bench.ref_ms": "ms",
    "core.build_ms": "ms",
    "core.run_ms": "ms",
    "core.collect_ms": "ms",
    "core.unattributed_ms": "ms",
    "mm.decide_ms": "ms",
    "sim.engine.hook_ms": "ms",
    "sim.engine.drain_ms": "ms",
    "sim.engine.shard_busy_ms": "ms",
    "sim.engine.serial_pct": "%",
    "sim.events": "count",
    "sim.host_ns_per_event": "ns",
    "sim.disk.reads": "count",
    "sim.disk.read_wait_ms": "sim_ms",
    "sim.engine.windows": "count",
    "sim.engine.critical_path_ms": "ms",
    "guest.touches": "count",
    "guest.faults": "count",
    "guest.reclaim_runs": "count",
    "guest.pages_reclaimed": "pages",
    "guest.host_ns_per_touch": "ns",
    "guest.tmem_swapin_pct": "%",
    "guest.vm_runtime_s": "sim_s",
    "guest.disk_swapins_per_vm": "pages",
    "hyper.puts": "count",
    "hyper.puts_failed": "count",
    "hyper.gets": "count",
    "hyper.flushes": "count",
    "hyper.targets_applied": "count",
    "tmem.puts_stored": "count",
    "tmem.gets_hit_dram": "count",
    "tmem.ephemeral_evictions": "count",
    "tmem.peak_used_pages": "pages",
    "tier.compressed_stored": "count",
    "tier.gets_hit_compressed": "count",
    "tier.compressed_hit_pct": "%",
    "tier.peak_bytes": "B",
    "mm.decides": "count",
    "mm.decide_us": "us",
    "mm.targets_sent": "count",
    "mm.sends_suppressed": "count",
    "comm.node_bytes": "B",
    "comm.rack_bytes": "B",
    "comm.msgs_delivered": "count",
    "comm.msgs_dropped": "count",
    "cluster.gm.decisions": "count",
    "cluster.gm.clean_decides": "count",
    "cluster.gm.quotas_sent": "count",
    "cluster.lend.borrows": "count",
    "cluster.lend.failed_placements": "count",
    "cluster.lend.recalls": "count",
    "cluster.fabric.requests": "count",
    "cluster.fabric.retries": "count",
    "cluster.fabric.give_ups": "count",
    "cluster.fabric.put_rtt_us": "sim_us",
    "cluster.fabric.get_rtt_us": "sim_us",
    "cluster.cache.hit_pct": "%",
    "bench.trace_overhead_pct": "%",
}


def measured(raw, traced=False):
    """Measured (non-warm-up) batches of one kind."""
    return [b for b in raw["batches"] if not b["warmup"] and b["traced"] == traced]


def is_fleet(cells):
    return not cells[0]["vms"]


def cell_sum(cell, key):
    """A per-VM counter summed over the cell; the fleet reports the sum."""
    if cell["vms"]:
        return sum(vm[key] for vm in cell["vms"])
    return cell["sim"][key]


def total(cells, key):
    return sum(cell_sum(c, key) for c in cells)


def ratio_pct(part, whole):
    return 100.0 * part / whole if whole else 0.0


# ---- Simulated metrics --------------------------------------------------------


def failed_put_pct(cells):
    """E_TMEM puts over puts attempted, all VMs of all cells. On the fleet a
    lend-fabric give-up has already become a local failed put."""
    return ratio_pct(total(cells, "puts_failed"), total(cells, "puts_total"))


def control_bytes_per_interval(cells):
    """Control-plane payload bytes (node hops plus rack hops) per sampling
    interval of simulated time, over the whole batch."""
    sent = sum(c["sim"]["node_bytes"] + c["sim"]["rack_bytes"] for c in cells)
    intervals = sum(c["sim"]["end_time_s"] / c["sim"]["interval_s"] for c in cells)
    return sent / intervals if intervals else 0.0


def sim_makespan_s(cells):
    """Simulated time until the last VM finishes, averaged over the cells."""
    return sum(c["sim"]["end_time_s"] for c in cells) / len(cells)


def vm_runtime_s(cells):
    """Mean per-VM running time (single-node only; 0 on the fleet, whose
    result does not expose per-VM times)."""
    runtimes = [vm["runtime_s"] for c in cells for vm in c["vms"]]
    return sum(runtimes) / len(runtimes) if runtimes else 0.0


def disk_swapins_per_vm(cells):
    """Demand swap-ins served from the virtual disk, per VM (single-node
    only; 0 on the fleet)."""
    if is_fleet(cells):
        return 0.0
    return total(cells, "swapins_disk") / sum(len(c["vms"]) for c in cells)


def events(raw):
    """Simulated events of one batch; on the fleet only a profiled batch
    knows them (the warm-up batch always runs profiled there)."""
    for batch in raw["batches"]:
        if all("events" in c["sim"] for c in batch["cells"]):
            return sum(c["sim"]["events"] for c in batch["cells"])
    raise ValueError("no batch reports its simulated event count")


# ---- Span arithmetic -----------------------------------------------------------


def self_times_ns(spans):
    """Self time per span name: each span's duration minus its children's,
    summed over all spans of that name."""
    child_ns = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_ns[int(s["parent"])] += s["ns"]
    out = {}
    for s, kids in zip(spans, child_ns):
        out[s["name"]] = out.get(s["name"], 0.0) + s["ns"] - kids
    return out


def span_totals_ns(spans):
    out = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + s["ns"]
    return out


def layer_times_ms(spans):
    """Per-layer host time of one traced batch. Leaf rows are self times;
    see self_time_rows_ms() for the rows that sum to bench.wall_ms."""
    self_ns = self_times_ns(spans)
    tot_ns = span_totals_ns(spans)
    get = lambda d, k: d.get(k, 0.0) / NS_PER_MS
    run_ms = get(tot_ns, "core.run")
    serial_ms = get(tot_ns, "sim.engine.hook") + get(tot_ns, "sim.engine.drain")
    return {
        "bench.wall_ms": get(tot_ns, "bench.batch"),
        "bench.ref_ms": get(tot_ns, "bench.ref"),
        "core.build_ms": get(self_ns, "core.build"),
        "core.run_ms": run_ms,
        "core.collect_ms": get(self_ns, "core.collect"),
        # core.run minus every probe below it, plus the benchmark loop
        # between spans (the root's own self time, microseconds).
        "core.unattributed_ms": get(self_ns, "core.run") + get(self_ns, "bench.batch"),
        "mm.decide_ms": get(tot_ns, "mm.decide"),
        "sim.engine.hook_ms": get(tot_ns, "sim.engine.hook"),
        "sim.engine.drain_ms": get(tot_ns, "sim.engine.drain"),
        "sim.engine.shard_busy_ms": get(tot_ns, "sim.engine.shard_busy"),
        "sim.engine.serial_pct": serial_pct(serial_ms, run_ms),
    }


def serial_pct(serial_ms, run_ms):
    """Share of the run spent in the engine's serial coordinator (barrier
    hook plus outbox drain); at one worker nothing overlaps it."""
    return ratio_pct(serial_ms, run_ms)


def self_time_rows_ms(spans):
    """Self time per layer of one traced batch, in ms. The rows sum to the
    batch's wall time: core.unattributed_ms takes core.run's own self time
    plus the benchmark loop between spans (the root's self time)."""
    rows = {f"{name}_ms": ns / NS_PER_MS for name, ns in self_times_ns(spans).items()}
    rows["core.unattributed_ms"] = rows.pop("core.run_ms", 0.0) + rows.pop("bench.batch_ms", 0.0)
    return rows


# ---- End-to-end metrics ----------------------------------------------------------


def ref_s(batch, kind="wall"):
    """One reference-second of this batch, in seconds of `kind` (wall or
    cpu) time: what REF_S_ITERS iterations of the reference kernel took."""
    return batch[f"ref_{kind}_s"] / batch["ref_iters"] * REF_S_ITERS


def in_ref_s(batch, kind="wall"):
    """The batch's wall or CPU time in reference-seconds."""
    return batch[f"{kind}_s"] / ref_s(batch, kind)


def host_summary(raw):
    """Plain host times of the untraced measured batches, next to the
    reference kernel's speed, for reading a result against its machine."""
    runs = measured(raw)
    return {
        "batches": len(runs),
        "wall_s": [b["wall_s"] for b in runs],
        "ref_ns_per_iter": [b["ref_wall_s"] / b["ref_iters"] * 1e9 for b in runs],
    }


def end_to_end(raw):
    runs = measured(raw)
    cells = raw["batches"][0]["cells"]
    wall = statistics.median([in_ref_s(b) for b in runs])
    return {
        "wall_ref_s": wall,
        "cpu_ref_s": statistics.median([in_ref_s(b, "cpu") for b in runs]),
        "setup_s": statistics.median(raw["setup_samples_s"]),
        "events_per_ref_s": events(raw) / wall,
        "peak_rss_mib": raw["peak_rss_kib"] / 1024.0,
        "sim_makespan_s": sim_makespan_s(cells),
        "failed_put_pct": failed_put_pct(cells),
        "control_bytes_per_interval": control_bytes_per_interval(cells),
    }


# ---- Per-layer metrics -------------------------------------------------------------


def median_traced_batch(raw):
    """The traced batch with the median wall time (the lower middle one)."""
    traced = sorted(measured(raw, traced=True), key=lambda b: b["wall_s"])
    return traced[(len(traced) - 1) // 2]


def per_layer(raw):
    """Per-layer metrics of a traced run. Host times come from the traced
    batch with the median wall time, so its rows still sum to its wall;
    simulated counts are summed over that batch's cells."""
    batch = median_traced_batch(raw)
    cells = batch["cells"]
    out = layer_times_ms(batch["spans"])
    # The simulator's share of the batch: the reference slices left out.
    wall_ns = (out["bench.wall_ms"] - out["bench.ref_ms"]) * NS_PER_MS
    n_events = events(raw)
    sim = lambda key: sum(c["sim"].get(key, 0.0) for c in cells)
    peak = lambda key: max(c["sim"].get(key, 0.0) for c in cells)
    # Per-VM counters exist on single-node cells only; the fleet reads 0.
    vms = lambda key: 0.0 if is_fleet(cells) else total(cells, key)
    touches = vms("touches")
    decides = sim("mm_decides")
    get_rtts = sum(c["sim"].get("fabric_get_rtt_us", 0.0) * c["sim"].get("fabric_get_rtt_count", 0.0)
                   for c in cells)
    untraced = measured(raw)
    untraced_wall = statistics.median([b["wall_s"] for b in untraced])
    traced_wall = statistics.median([b["wall_s"] for b in measured(raw, traced=True)])
    ref_ns = statistics.median([b["ref_wall_s"] / b["ref_iters"] * 1e9 for b in untraced])
    out.update({
        "bench.wall_s": untraced_wall,
        "bench.cpu_s": statistics.median([b["cpu_s"] for b in untraced]),
        "bench.events_per_s": n_events / untraced_wall,
        "bench.ref_ns_per_iter": ref_ns,
        "sim.events": n_events,
        "sim.host_ns_per_event": wall_ns / n_events,
        "sim.disk.reads": sim("disk_reads"),
        "sim.disk.read_wait_ms": sim("disk_read_wait_ns") / NS_PER_MS,
        "sim.engine.windows": sim("engine_windows"),
        "sim.engine.critical_path_ms": sum(c["host"].get("engine_critical_path_ns", 0.0)
                                           for c in cells) / NS_PER_MS,
        "guest.touches": touches,
        "guest.faults": vms("faults"),
        "guest.reclaim_runs": vms("reclaim_runs"),
        "guest.pages_reclaimed": vms("pages_reclaimed"),
        "guest.host_ns_per_touch": wall_ns / touches if touches else 0.0,
        "guest.tmem_swapin_pct": ratio_pct(vms("swapins_tmem"),
                                           vms("swapins_tmem") + vms("swapins_disk")),
        "guest.vm_runtime_s": vm_runtime_s(cells),
        "guest.disk_swapins_per_vm": disk_swapins_per_vm(cells),
        "hyper.puts": total(cells, "puts_total"),
        "hyper.puts_failed": total(cells, "puts_failed"),
        "hyper.gets": vms("gets_total"),
        "hyper.flushes": vms("flushes"),
        "hyper.targets_applied": vms("targets_applied"),
        "tmem.puts_stored": sim("store_puts_stored"),
        "tmem.gets_hit_dram": sim("store_gets_hit_dram"),
        "tmem.ephemeral_evictions": sim("store_ephemeral_evictions"),
        "tmem.peak_used_pages": peak("store_peak_used"),
        "tier.compressed_stored": sim("store_compressed_stored"),
        "tier.gets_hit_compressed": sim("store_gets_hit_compressed"),
        "tier.compressed_hit_pct": ratio_pct(sim("store_gets_hit_compressed"), sim("store_gets_hit")),
        "tier.peak_bytes": peak("pool_peak_bytes"),
        "mm.decides": decides,
        "mm.decide_us": out["mm.decide_ms"] * 1e3 / decides if decides else 0.0,
        "mm.targets_sent": sim("mm_targets_sent"),
        "mm.sends_suppressed": sim("mm_sends_suppressed"),
        "comm.node_bytes": sim("node_bytes"),
        "comm.rack_bytes": sim("rack_bytes"),
        "comm.msgs_delivered": sim("msgs_delivered"),
        "comm.msgs_dropped": sim("msgs_dropped"),
        "cluster.gm.decisions": sim("gm_decisions"),
        "cluster.gm.clean_decides": sim("gm_clean_decides"),
        "cluster.gm.quotas_sent": sim("gm_quotas_sent"),
        "cluster.lend.borrows": sim("lend_borrows"),
        "cluster.lend.failed_placements": sim("lend_failed_placements"),
        "cluster.lend.recalls": sim("lend_recalls"),
        "cluster.fabric.requests": sim("fabric_requests"),
        "cluster.fabric.retries": sim("fabric_retries"),
        "cluster.fabric.give_ups": sim("fabric_give_ups"),
        # The result gives no put-RTT sample count: plain mean over fleets.
        "cluster.fabric.put_rtt_us": sim("fabric_put_rtt_us") / len(cells),
        "cluster.fabric.get_rtt_us": get_rtts / sim("fabric_get_rtt_count")
                                     if sim("fabric_get_rtt_count") else 0.0,
        "cluster.cache.hit_pct": ratio_pct(sim("cache_hits"), sim("cache_hits") + sim("cache_misses")),
        "bench.trace_overhead_pct": ratio_pct(traced_wall - untraced_wall, untraced_wall),
    })
    return out


# Per-layer metrics the fleet's result does not expose: they read 0 there.
FLEET_NOT_MEASURED = frozenset({
    "core.build_ms", "sim.disk.reads", "sim.disk.read_wait_ms",
    "guest.touches", "guest.faults", "guest.reclaim_runs", "guest.pages_reclaimed",
    "guest.host_ns_per_touch", "guest.tmem_swapin_pct", "guest.vm_runtime_s",
    "guest.disk_swapins_per_vm", "hyper.gets", "hyper.flushes", "hyper.targets_applied",
    "tmem.puts_stored", "tmem.gets_hit_dram", "tmem.ephemeral_evictions",
    "tmem.peak_used_pages", "mm.sends_suppressed", "comm.msgs_dropped",
})


# ---- Output checks -------------------------------------------------------------------
#
# The cell and batch checks return a list of (labels, message): the labels of
# the cells the problem covers, and what is wrong. An empty list means the
# outputs are correct.


def check_cell_identities(cell):
    """Conservation laws of one simulated cell."""
    bad = []
    label = (cell["label"],)
    sim = cell["sim"]
    if not cell["vms"]:
        if sim["puts_total"] != sim["puts_succ"] + sim["puts_failed"]:
            bad.append((label, "puts_total != puts_succ + puts_failed"))
        # Fabric: requests == responses + timeouts and requests == responses
        # + retries + give_ups, so timeouts == retries + give_ups.
        if sim["fabric_timeouts"] != sim["fabric_retries"] + sim["fabric_give_ups"]:
            bad.append((label, "fabric timeouts != retries + give_ups"))
        # Every borrowed-get cache lookup ends as a hit (0 us RTT), a timed
        # round trip, or a synchronous fallback.
        if (sim["cache_hits"] + sim["cache_misses"]
                != sim["fabric_get_rtt_count"] + sim["fabric_get_fallbacks"]):
            bad.append((label, "cache lookups != get RTT samples + get fallbacks"))
        return bad
    for i, vm in enumerate(cell["vms"], start=1):
        if vm["puts_total"] != vm["puts_succ"] + vm["puts_failed"]:
            bad.append((label, f"VM{i}: puts_total != puts_succ + puts_failed"))
        if vm["swapouts_tmem"] != vm["puts_succ"]:
            bad.append((label, f"VM{i}: guest swapouts_tmem != hypervisor successful puts"))
        if vm["swapins_tmem"] != vm["gets_hit"]:
            bad.append((label, f"VM{i}: guest swapins_tmem != hypervisor get hits"))
    hits = sum(vm["gets_hit"] for vm in cell["vms"])
    if hits != sim["store_gets_hit"]:
        bad.append((label, "hypervisor get hits != store gets_hit"))
    tiers = sim["store_gets_hit_dram"] + sim["store_gets_hit_compressed"] + sim["store_gets_hit_nvm"]
    if sim["store_gets_hit"] != tiers:
        bad.append((label, "store gets_hit != sum of per-tier get hits"))
    return bad


def check_shape(workload, cells):
    """The mechanism each workload exists to exercise must actually run. A
    problem covers every cell that should have exercised it."""
    bad = []
    if workload == "node":
        dram = {}
        for c in cells:
            variant, _, policy, _ = c["label"].split("/")
            if variant == "dram":
                dram.setdefault(policy, []).append(c)
        for policy, group in dram.items():
            if policy not in UNMANAGED_POLICIES and total(group, "puts_failed") == 0:
                bad.append((tuple(c["label"] for c in group),
                            f"managed policy {policy} failed no puts"))
        tiered = [c for c in cells if c["label"].startswith("tiered/")]
        if sum(c["sim"]["store_compressed_stored"] for c in tiered) == 0:
            bad.append((tuple(c["label"] for c in tiered), "no page was stored compressed"))
    elif workload == "fleet-lending":
        for c in cells:
            if c["sim"]["lend_borrows"] == 0:
                bad.append(((c["label"],), "no borrow was placed"))
            if c["sim"]["cache_hits"] == 0:
                bad.append(((c["label"],), "the borrower cache never hit"))
    return bad


def check_repeat(batch, ref):
    """A batch, traced or not, profiled or not, must simulate exactly what
    the first one (`ref`) did. Profile-only counts are compared only where
    both batches have them."""
    if len(batch["cells"]) != len(ref["cells"]):
        return [(tuple(c["label"] for c in batch["cells"]),
                 "batches ran different cell counts")]
    bad = []
    if batch["ref_iters"] != ref["ref_iters"]:
        bad.append((tuple(c["label"] for c in batch["cells"]),
                    "batches ran different reference work"))
    for c, r in zip(batch["cells"], ref["cells"]):
        label = (c["label"],)
        if c["vms"] != r["vms"]:
            bad.append((label, "per-VM results differ between batches"))
        for k in sorted(set(c["sim"]) | set(r["sim"])):
            if k in c["sim"] and k in r["sim"]:
                if c["sim"][k] != r["sim"][k]:
                    bad.append((label, f"{k} differs between batches"))
            elif k not in PROFILE_ONLY:
                bad.append((label, f"{k} missing from a batch"))
    return bad


def check_span_tree(spans, slack_ns=1e5):
    """No span's children may add up to more than the span itself (slack
    covers clock reads between probes). Returns the problems' messages."""
    child_ns = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_ns[int(s["parent"])] += s["ns"]
    return [
        f"children of span {s['name']} exceed it by {kids - s['ns']:.0f} ns"
        for s, kids in zip(spans, child_ns)
        if kids > s["ns"] + slack_ns
    ]


def check_span_root(spans):
    """The spans must form one tree under bench.batch; then the self-time
    rows add up to its wall time by construction. Returns the problems'
    messages."""
    roots = [s for s in spans if s["parent"] < 0]
    if len(roots) != 1 or roots[0]["name"] != "bench.batch":
        return ["traced spans do not form one tree under bench.batch"]
    return []


def check_all(raw):
    """Every output check on every batch of one raw run, as a list of
    (batch index, labels of the cells the problem covers, message). A span
    problem covers every cell of its batch."""
    batches = raw["batches"]
    bad = []
    for i, batch in enumerate(batches):
        found = check_shape(raw["workload"], batch["cells"])
        for cell in batch["cells"]:
            found += check_cell_identities(cell)
        if i > 0:
            found += check_repeat(batch, batches[0])
        if batch["traced"]:
            everyone = tuple(c["label"] for c in batch["cells"])
            found += [(everyone, msg) for msg in
                      check_span_tree(batch["spans"]) + check_span_root(batch["spans"])]
        bad += [(i, labels, msg) for labels, msg in found]
    return bad


def failed_cells(problems):
    """Distinct (batch, cell) pairs some problem covers."""
    return len({(i, label) for i, labels, _ in problems for label in labels})


def attempted_cells(raw):
    return sum(len(b["cells"]) for b in raw["batches"])
