"""Tests of the benchmark's own rules.

    python3 -m unittest discover -s rmsbench -p 'test_*.py'

The last test builds the measuring program (as run.py does) and runs its
--self-test, which checks that the output digest catches a perturbed
result.
"""

import json
import subprocess
import unittest
from unittest import mock

import run


class TailRule(unittest.TestCase):
    def test_percentile_has_ten_samples_beyond(self):
        samples = list(range(1, 101))  # 1..100
        pct, value, n = run.tail(samples)
        self.assertEqual((pct, value, n), (90.0, 90, 100))
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_order_of_samples_does_not_matter(self):
        self.assertEqual(run.tail(list(range(100, 0, -1))), (90.0, 90, 100))

    def test_fewer_samples_lower_the_percentile(self):
        self.assertEqual(run.tail(list(range(1, 41))), (75.0, 30, 40))
        self.assertEqual(run.tail(list(range(1, 21))), (50.0, 10, 20))

    def test_more_samples_raise_it(self):
        self.assertEqual(run.tail(list(range(1, 201)))[:2], (95.0, 190))
        self.assertEqual(run.tail(list(range(1, 1001)))[:2], (99.0, 990))

    def test_too_few_samples_have_no_tail(self):
        self.assertIsNone(run.tail(list(range(1, 11))))
        self.assertIsNone(run.tail([]))


def layer(**values):
    base = {key: 0.0 for key in (
        "sim.events", "workload.jobs", "net.messages", "net.messages_dropped",
        "net.tree_shares", "net.tree_misses", "net.route_settle_ms",
        "workload.arrival_hits", "workload.arrival_misses",
        "workload.pull_ns_per_job", "grid.build_s", "grid.builds",
        "grid.reset_s", "grid.resets", "grid.run_s", "grid.run_events",
        "grid.status_updates",
        "grid.updates_suppressed", "rms.decisions", "rms.jobs_local",
        "rms.jobs_remote", "rms.session_builds", "rms.session_resets",
        "ctrl.updates_in", "ctrl.coalesced", "ctrl.batches", "opt.evaluations",
        "opt.cache_hits", "opt.simulations", "core.calibrate_ms",
        "core.points_feasible", "exec.busy_s", "exec.lanes")}
    base.update(values)
    return base


class PerLayerRatios(unittest.TestCase):
    def raw(self, reference=None):
        traced = layer(**{
            "sim.events": 2000.0, "workload.jobs": 100.0,
            "net.messages": 300.0, "net.tree_shares": 30.0,
            "net.tree_misses": 10.0, "grid.build_s": 0.006,
            "grid.builds": 3.0, "grid.reset_s": 0.0, "grid.resets": 0.0,
            "grid.run_s": 1.5, "grid.run_events": 1500.0,
            "grid.status_updates": 60.0,
            "grid.updates_suppressed": 40.0, "rms.jobs_local": 75.0,
            "rms.jobs_remote": 25.0, "rms.session_builds": 3.0,
            "rms.session_resets": 9.0, "ctrl.updates_in": 200.0,
            "ctrl.coalesced": 50.0, "opt.evaluations": 40.0,
            "opt.cache_hits": 10.0, "exec.busy_s": 3.0, "exec.lanes": 2.0})
        return {
            "workload": "tuned_campaign", "seed": 1, "lanes": 2,
            "reference_layer": reference or {},
            "reps": [
                {"traced": 0, "wall_s": 1.6, "layer": {}},
                {"traced": 1, "wall_s": 2.0, "layer": traced},
            ],
        }

    def test_ratios_match_hand_computed_counts(self):
        m = {k: v for k, (v, _) in run.per_layer(self.raw()).items()}
        self.assertAlmostEqual(m["sim.events_per_job"], 20.0)
        # Only the events of the timed runs: 1500 of the 2000.
        self.assertAlmostEqual(m["sim.ns_per_event"], 1.5e9 / 1500)
        self.assertAlmostEqual(m["net.messages_per_job"], 3.0)
        self.assertAlmostEqual(m["net.tree_share_ratio"], 0.75)
        self.assertAlmostEqual(m["grid.build_ms"], 2.0)
        self.assertEqual(m["grid.reset_ms"], 0.0)  # no resets, no division
        self.assertAlmostEqual(m["grid.run_share"], 0.375)  # of 2 lanes
        self.assertAlmostEqual(m["grid.updates_suppressed_ratio"], 0.4)
        self.assertAlmostEqual(m["rms.remote_ratio"], 0.25)
        self.assertAlmostEqual(m["rms.reuse_ratio"], 0.75)
        self.assertAlmostEqual(m["ctrl.coalescing_ratio"], 0.25)
        self.assertAlmostEqual(m["opt.hit_ratio"], 0.25)
        self.assertAlmostEqual(m["exec.busy_ratio"], 0.75)
        self.assertAlmostEqual(m["obs.trace_overhead_pct"], 25.0)

    def test_overhead_is_signed(self):
        raw = self.raw()
        raw["reps"][0]["wall_s"] = 2.5
        m = {k: v for k, (v, _) in run.per_layer(raw).items()}
        self.assertAlmostEqual(m["obs.trace_overhead_pct"], -20.0)

    def test_lane_dependent_counts_come_from_the_serial_pass(self):
        raw = self.raw(reference={"net.tree_shares": 8.0,
                                  "net.tree_misses": 2.0})
        m = {k: v for k, (v, _) in run.per_layer(raw).items()}
        self.assertEqual(m["net.tree_shares"], 8.0)
        self.assertAlmostEqual(m["net.tree_share_ratio"], 0.8)

    def test_every_per_layer_metric_is_reported(self):
        m = run.per_layer(self.raw())
        self.assertEqual(sorted(m), sorted(n for n, *_ in run.PER_LAYER))


class EndToEnd(unittest.TestCase):
    def test_every_metric_is_reported_with_medians(self):
        reps = [{"traced": 0, "wall_s": w, "cpu_s": 2 * w, "setup_s": 0.01,
                 "heap_bytes": w * 2**20,
                 "unit_ms": [float(i) for i in range(1, 51)], "layer": {}}
                for w in (1.0, 2.0, 4.0)]
        raw = {"work": {"events": 400.0, "jobs": 40.0, "evaluations": 4},
               "peak_rss_bytes": 3 * 2**20, "reps": reps}
        m = {k: v for k, (v, _) in run.end_to_end(raw).items()}
        self.assertEqual(sorted(m), sorted(
            n for n, *_ in run.END_TO_END + run.PRINTED_ONLY))
        self.assertEqual(m["wall_s"], 2.0)
        self.assertEqual(m["events_per_s"], 200.0)
        self.assertEqual(m["evals_per_s"], 2.0)
        self.assertEqual(m["peak_heap_mib"], 2.0)
        self.assertEqual(m["run_tail_ms"], 45.0)  # p90 of the last 100

    def test_tail_window_holds_whole_repetitions(self):
        # 30 units a repetition: the last 4 repetitions (120 units, values
        # 100..129 to 400..429) hold the 100, and p90 is the 108th value.
        reps = [{"traced": 0, "wall_s": 1.0, "cpu_s": 1.0, "setup_s": 0.01,
                 "heap_bytes": 1.0, "layer": {},
                 "unit_ms": [float(100 * rep + i) for i in range(30)]}
                for rep in range(5)]
        raw = {"work": {"events": 1.0, "jobs": 1.0, "evaluations": 1},
               "peak_rss_bytes": 1, "reps": reps}
        value, detail = run.end_to_end(raw)["run_tail_ms"]
        self.assertEqual(value, 417.0)
        self.assertEqual(detail, "p90 of the last 120 runs")


class DigestCheck(unittest.TestCase):
    def test_recorded_digest_is_compared(self):
        goldens = {"digests": {"long_horizon": {"1": "00000000000000aa"}}}
        with mock.patch.object(run.Path, "read_text",
                               return_value=json.dumps(goldens)):
            ok = run.golden_check({"workload": "long_horizon", "seed": 1,
                                   "digest": "00000000000000aa"})
            bad = run.golden_check({"workload": "long_horizon", "seed": 1,
                                    "digest": "00000000000000ab"})
            none = run.golden_check({"workload": "long_horizon", "seed": 5,
                                     "digest": "00000000000000ab"})
        self.assertEqual(ok, (1, 0, None))
        self.assertEqual(bad[:2], (1, 1))
        self.assertEqual(none, (0, 0, None))

    def test_program_digest_catches_a_perturbed_result(self):
        exe = run.build()
        proc = subprocess.run([str(exe), "--self-test"], capture_output=True,
                              text=True, timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stderr)


class BenchmarkJson(unittest.TestCase):
    def test_file_matches_the_tables(self):
        path = run.ROOT / "BENCHMARK.json"
        if not path.exists():
            self.skipTest("no BENCHMARK.json beside this checkout")
        self.assertEqual(json.loads(path.read_text()), run.benchmark_json())


if __name__ == "__main__":
    unittest.main()
