"""Tests of the benchmark's own code: metric derivations on hand-made
inputs, and every output check firing on a doctored result of a real run in
the tiny geometry.

    python3 -m unittest discover -s perfbench/tests -v

The first run builds the runner (about a minute).
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import metrics  # noqa: E402
import run  # noqa: E402


def vm(**kw):
    base = {"runtime_s": 10.0, "puts_total": 0, "puts_succ": 0, "puts_failed": 0,
            "swapins_disk": 0}
    base.update(kw)
    return base


def node_cell(vms, **sim):
    base = {"end_time_s": 10.0, "interval_s": 1.0, "node_bytes": 0, "rack_bytes": 0}
    base.update(sim)
    return {"label": "s/p", "sim": base, "vms": vms, "host": {}}


def span(name, parent, ns):
    return {"name": name, "parent": parent, "ns": ns, "start_ns": -1}


class Derivations(unittest.TestCase):
    def test_failed_put_pct_pools_every_vm_of_every_cell(self):
        cells = [node_cell([vm(puts_total=100, puts_failed=10), vm(puts_total=300, puts_failed=0)]),
                 node_cell([vm(puts_total=100, puts_failed=40)])]
        self.assertAlmostEqual(metrics.failed_put_pct(cells), 10.0)

    def test_failed_put_pct_reads_fleet_totals(self):
        fleet = node_cell([], puts_total=200, puts_failed=50)
        self.assertAlmostEqual(metrics.failed_put_pct([fleet]), 25.0)

    def test_failed_put_pct_without_puts_is_zero(self):
        self.assertEqual(metrics.failed_put_pct([node_cell([vm()])]), 0.0)

    def test_control_bytes_per_interval_counts_both_hops_over_all_intervals(self):
        cells = [node_cell([], node_bytes=600, rack_bytes=400, end_time_s=5.0, interval_s=0.5),
                 node_cell([], node_bytes=1000, end_time_s=10.0, interval_s=1.0)]
        # 2000 B over 10 + 10 intervals.
        self.assertAlmostEqual(metrics.control_bytes_per_interval(cells), 100.0)

    def test_serial_pct(self):
        self.assertAlmostEqual(metrics.serial_pct(30.0 + 10.0, 80.0), 50.0)
        self.assertEqual(metrics.serial_pct(5.0, 0.0), 0.0)

    def test_unattributed_is_run_minus_probes_plus_loop(self):
        spans = [span("bench.batch", -1, 1000.0 * metrics.NS_PER_MS),
                 span("core.build", 0, 50.0 * metrics.NS_PER_MS),
                 span("core.run", 0, 900.0 * metrics.NS_PER_MS),
                 span("sim.engine.hook", 2, 300.0 * metrics.NS_PER_MS),
                 span("sim.engine.drain", 2, 100.0 * metrics.NS_PER_MS),
                 span("sim.engine.shard_busy", 2, 400.0 * metrics.NS_PER_MS),
                 span("mm.decide", 5, 25.0 * metrics.NS_PER_MS),
                 span("core.collect", 0, 30.0 * metrics.NS_PER_MS)]
        layers = metrics.layer_times_ms(spans)
        # core.run 900 - (300 + 100 + 400) = 100, plus the loop's 1000 - 980.
        self.assertAlmostEqual(layers["core.unattributed_ms"], 120.0)
        self.assertAlmostEqual(layers["sim.engine.serial_pct"], 100.0 * 400 / 900)
        rows = metrics.self_time_rows_ms(spans)
        self.assertAlmostEqual(rows["sim.engine.shard_busy_ms"], 375.0)
        self.assertAlmostEqual(sum(rows.values()), 1000.0)
        self.assertEqual(metrics.check_span_tree(spans), [])
        self.assertEqual(metrics.check_span_root(spans), [])

    def test_disk_swapins_per_vm(self):
        cells = [node_cell([vm(swapins_disk=6), vm(swapins_disk=0)]), node_cell([vm(swapins_disk=3)])]
        self.assertAlmostEqual(metrics.disk_swapins_per_vm(cells), 3.0)

    def test_host_times_are_in_reference_seconds(self):
        # Half a reference-second's iterations took 0.25 s of wall and 0.5 s
        # of CPU time, so one ref_s is 0.5 s of wall and 1 s of CPU time.
        batch = {"wall_s": 3.0, "cpu_s": 2.0, "ref_wall_s": 0.25, "ref_cpu_s": 0.5,
                 "ref_iters": metrics.REF_S_ITERS / 2}
        self.assertAlmostEqual(metrics.ref_s(batch), 0.5)
        self.assertAlmostEqual(metrics.in_ref_s(batch), 6.0)
        self.assertAlmostEqual(metrics.in_ref_s(batch, "cpu"), 2.0)


class BenchmarkFile(unittest.TestCase):
    def test_benchmark_json_lists_what_run_py_prints(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         metrics.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         metrics.PER_LAYER_UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(metrics.WORKLOADS))


class Processes(unittest.TestCase):
    def test_merge_appends_batches_and_samples_in_order(self):
        first = {"params": {}, "batches": [{"warmup": True}, {"warmup": False}],
                 "setup_samples_s": [1.0], "peak_rss_kib": 10}
        second = {"params": {}, "batches": [{"warmup": True}, {"warmup": False}],
                  "setup_samples_s": [2.0, 3.0], "peak_rss_kib": 30}
        raw = run.merge([first, second])
        self.assertEqual(raw["processes"], 2)
        self.assertEqual(raw["batches"], first["batches"] + second["batches"])
        self.assertIs(raw["batches"][0], first["batches"][0])
        self.assertEqual(raw["setup_samples_s"], [1.0, 2.0, 3.0])
        self.assertEqual(raw["peak_rss_kib"], 30)


class BuildDir(unittest.TestCase):
    def test_default_build_dir_is_inside_the_tree(self):
        with mock.patch.dict(os.environ):
            os.environ.pop("CARGO_TARGET_DIR", None)
            self.assertEqual(run.build_dir(), run.ROOT / ".bench_build" / "perfbench")

    def test_shared_build_dir_is_keyed_by_tree(self):
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.dict(os.environ, {"CARGO_TARGET_DIR": tmp}):
            here = run.build_dir()
            with mock.patch.object(run, "ROOT", Path(tmp) / "other-tree"):
                other = run.build_dir()
        self.assertEqual(here.parent, Path(tmp))
        self.assertEqual(other.parent, Path(tmp))
        self.assertNotEqual(here, other)


def tiny_raw(workload):
    runner = run.build()
    out = subprocess.run([str(runner), "--workload", workload, "--seed", "3", "--batches",
                          "2", "--trace", "1", "--geometry", "tiny"],
                         check=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return json.loads(out.stdout)


class TinyRuns(unittest.TestCase):
    """One traced tiny run per workload: warm-up, untraced and traced batch."""

    @classmethod
    def setUpClass(cls):
        cls.raw = {w: tiny_raw(w) for w in metrics.WORKLOADS}

    def doctored(self, workload):
        return copy.deepcopy(self.raw[workload])

    def assertFires(self, raw, fragment):
        problems = metrics.check_all(raw)
        self.assertTrue(any(fragment in msg for *_, msg in problems),
                        f"no check mentioning {fragment!r} fired: {problems}")

    def test_clean_runs_pass_every_check(self):
        for w, raw in self.raw.items():
            with self.subTest(workload=w):
                self.assertEqual(metrics.check_all(raw), [])
                self.assertEqual(len(raw["batches"]), 3)
                self.assertEqual([b["traced"] for b in raw["batches"][1:]], [False, True])

    def test_metric_sets_are_complete(self):
        for w, raw in self.raw.items():
            with self.subTest(workload=w):
                self.assertEqual(set(metrics.per_layer(raw)), set(metrics.PER_LAYER_UNITS))
                untraced = copy.deepcopy(raw)
                untraced["trace"] = False
                e2e = metrics.end_to_end(untraced)
                self.assertEqual(set(e2e), set(metrics.END_TO_END_UNITS))
                self.assertTrue(all(v > 0 for v in e2e.values()), e2e)

    def test_end_to_end_times_are_median_batches_in_reference_seconds(self):
        raw = self.doctored("node")
        raw["trace"] = False
        measured = raw["batches"][1:]
        for b, (wall, ref_wall) in zip(measured, [(4.0, 2.0), (3.0, 0.5)]):
            b.update(traced=False, wall_s=wall, cpu_s=wall, ref_wall_s=ref_wall,
                     ref_cpu_s=ref_wall, ref_iters=metrics.REF_S_ITERS)
        e2e = metrics.end_to_end(raw)
        # The batches took 2 and 6 reference-seconds.
        self.assertAlmostEqual(e2e["wall_ref_s"], 4.0)
        self.assertAlmostEqual(e2e["cpu_ref_s"], 4.0)
        self.assertAlmostEqual(e2e["events_per_ref_s"], metrics.events(raw) / 4.0)

    def test_processes_simulate_the_same_batches(self):
        merged = run.merge([self.raw["node"], tiny_raw("node")])
        self.assertEqual(len(merged["batches"]), 6)
        self.assertEqual(metrics.check_all(merged), [])

    def test_batches_must_run_the_same_reference_work(self):
        raw = self.doctored("node")
        raw["batches"][1]["ref_iters"] += 1
        self.assertFires(raw, "batches ran different reference work")

    def test_per_layer_rows_sum_to_traced_wall(self):
        for w, raw in self.raw.items():
            with self.subTest(workload=w):
                batch = metrics.median_traced_batch(raw)
                rows = metrics.self_time_rows_ms(batch["spans"])
                self.assertAlmostEqual(sum(rows.values()),
                                       metrics.per_layer(raw)["bench.wall_ms"], places=6)

    def test_vm_put_identity(self):
        raw = self.doctored("node")
        raw["batches"][1]["cells"][5]["vms"][0]["puts_failed"] += 1
        self.assertFires(raw, "puts_total != puts_succ + puts_failed")

    def test_failed_counts_each_broken_cell_of_each_batch_once(self):
        raw = self.doctored("node")
        cells = len(raw["batches"][0]["cells"])
        # One doctored cell breaks two identities in its own batch and the
        # repeat check there: one failed cell, not one per batch or problem.
        vm0 = raw["batches"][1]["cells"][5]["vms"][0]
        vm0["puts_failed"] += 1
        vm0["swapouts_tmem"] += 1
        self.assertEqual(metrics.failed_cells(metrics.check_all(raw)), 1)

        # A shape guard fails every cell it covers, in every batch.
        raw = self.doctored("node")
        for b in raw["batches"]:
            for c in b["cells"]:
                c["sim"]["store_compressed_stored"] = 0
        tiered = sum(c["label"].startswith("tiered/") for c in raw["batches"][0]["cells"])
        self.assertEqual(metrics.failed_cells(metrics.check_all(raw)),
                         tiered * len(raw["batches"]))

        # A span problem names no cell: it fails every cell of its batch.
        raw = self.doctored("node")
        raw["batches"][2]["spans"].append(span("stray", -1, 5.0))
        self.assertEqual(metrics.failed_cells(metrics.check_all(raw)), cells)

        # So does a batch that ran a different number of cells.
        raw = self.doctored("fleet-lending")
        extra = copy.deepcopy(raw["batches"][1]["cells"][0])
        extra["label"] = "fleet/extra"
        raw["batches"][1]["cells"].append(extra)
        problems = metrics.check_all(raw)
        self.assertFires(raw, "batches ran different cell counts")
        self.assertEqual(metrics.failed_cells(problems), len(raw["batches"][1]["cells"]))

    def test_guest_swapouts_match_successful_puts(self):
        raw = self.doctored("node")
        raw["batches"][0]["cells"][19]["vms"][1]["swapouts_tmem"] += 1
        self.assertFires(raw, "swapouts_tmem != hypervisor successful puts")

    def test_guest_swapins_match_get_hits(self):
        raw = self.doctored("node")
        raw["batches"][0]["cells"][0]["vms"][2]["swapins_tmem"] += 1
        self.assertFires(raw, "swapins_tmem != hypervisor get hits")

    def test_store_hits_match_hypervisor_and_tiers(self):
        raw = self.doctored("node")
        raw["batches"][0]["cells"][23]["sim"]["store_gets_hit"] += 1
        self.assertFires(raw, "hypervisor get hits != store gets_hit")
        self.assertFires(raw, "store gets_hit != sum of per-tier get hits")

    def test_fleet_identities(self):
        for key, fragment in (("puts_failed", "puts_total != puts_succ + puts_failed"),
                              ("fabric_timeouts", "fabric timeouts != retries + give_ups"),
                              ("cache_hits", "cache lookups != get RTT samples")):
            with self.subTest(key=key):
                raw = self.doctored("fleet-lending")
                raw["batches"][2]["cells"][0]["sim"][key] += 1
                self.assertFires(raw, fragment)

    def test_shape_guards(self):
        raw = self.doctored("node")
        for b in raw["batches"]:
            for c in b["cells"]:
                if c["label"].startswith("dram/") and "/sm-2p/" in c["label"]:
                    for v in c["vms"]:
                        v["puts_succ"] += v["puts_failed"]
                        v["swapouts_tmem"] = v["puts_succ"]
                        v["puts_failed"] = 0
        self.assertFires(raw, "managed policy sm-2p failed no puts")

        raw = self.doctored("node")
        for b in raw["batches"]:
            for c in b["cells"]:
                c["sim"]["store_compressed_stored"] = 0
        self.assertFires(raw, "no page was stored compressed")

        for key, fragment in (("lend_borrows", "no borrow was placed"),
                              ("cache_hits", "the borrower cache never hit")):
            raw = self.doctored("fleet-lending")
            raw["batches"][0]["cells"][0]["sim"][key] = 0
            self.assertFires(raw, fragment)

    def test_traced_batch_must_simulate_what_untraced_did(self):
        raw = self.doctored("node")
        traced = raw["batches"][2]
        self.assertTrue(traced["traced"])
        traced["cells"][9]["sim"]["events"] += 1
        self.assertFires(raw, "events differs between batches")

        raw = self.doctored("fleet-lending")
        raw["batches"][2]["cells"][0]["sim"]["engine_windows"] += 1
        self.assertFires(raw, "engine_windows differs between batches")

    def test_span_checks(self):
        raw = self.doctored("fleet-lending")
        spans = raw["batches"][2]["spans"]
        hook = next(s for s in spans if s["name"] == "sim.engine.hook")
        hook["ns"] += 2 * next(s for s in spans if s["name"] == "core.run")["ns"]
        self.assertFires(raw, "children of span core.run exceed it")

        raw = self.doctored("node")
        raw["batches"][2]["spans"].append(span("stray", -1, 5.0))
        self.assertFires(raw, "do not form one tree under bench.batch")


class Command(unittest.TestCase):
    def test_fails_without_library_sources(self):
        """In a directory holding only BENCHMARK.json and the benchmark, the
        command must fail without printing a result."""
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "node",
                                  "--seed", "1", "--seconds", "1", "--trace", "0"],
                                 cwd=tmp, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
