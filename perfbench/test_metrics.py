"""Tests of the benchmark's metric code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402


def serve_op(path, t=0.1, traced=True, round_=0, modeled=0.2, **extra):
    op = {"kind": "serve", "path": path, "t": t, "timed": True, "traced": traced,
          "round": round_, "modeled_s": modeled, "queue_s": 1e-6, "energy": -1.0, "ref": "",
          "reused_fraction": 0.5, "dirty_leaves": 3, "lists_rebuilt": 0}
    op.update(extra)
    return op


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(metrics.percentile(samples, 50), 50)
        self.assertEqual(metrics.percentile(samples, 90), 90)
        self.assertEqual(metrics.percentile(samples, 100), 100)
        self.assertEqual(metrics.percentile([3.0], 90), 3.0)
        self.assertEqual(metrics.percentile([4, 1, 3, 2], 50), 2)

    def test_samples_beyond(self):
        self.assertEqual(metrics.samples_beyond(100, 90), 10)
        self.assertEqual(metrics.samples_beyond(99, 90), 9)
        self.assertEqual(metrics.samples_beyond(1, 50), 0)

    def test_tail_needs_ten_samples_beyond(self):
        # 100 samples: p90 has exactly 10 beyond it; p99 has 1.
        self.assertEqual(metrics.tail_percentile(list(range(100))), (90, 89))
        # 99 samples: p90 has 9 beyond, so the tail falls back to p75.
        p, _ = metrics.tail_percentile(list(range(99)))
        self.assertEqual(p, 75)
        # 1000 samples support p99 (10 beyond) but not p99.9 (1 beyond).
        p, _ = metrics.tail_percentile(list(range(1000)))
        self.assertEqual(p, 99)
        # Too few samples for any percentile of the ladder.
        self.assertEqual(metrics.tail_percentile([1.0, 2.0, 3.0]), (None, None))

    def test_empty_percentile_raises(self):
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)


class EnergyErrorTest(unittest.TestCase):
    def test_relative_error(self):
        self.assertAlmostEqual(metrics.energy_rel_err(-105.0, -100.0), 0.05)
        self.assertEqual(metrics.energy_rel_err(-100.0, -100.0), 0.0)

    def test_max_over_ops_with_a_reference(self):
        naive = {"a": -100.0, "b": -200.0}
        ops = [{"ref": "a", "energy": -101.0},   # 1%
               {"ref": "b", "energy": -190.0},   # 5%
               {"ref": "", "energy": -1.0},      # no reference: ignored
               {"ref": "a", "energy": None}]     # non-finite: counted as failed elsewhere
        self.assertAlmostEqual(metrics.max_rel_err(ops, naive), 0.05)
        self.assertIsNone(metrics.max_rel_err([{"ref": "", "energy": 1.0}], naive))

    def test_gap_is_not_hidden(self):
        # A route 4.8% away from the reference reports 4.8%, not a pass/fail.
        self.assertAlmostEqual(
            metrics.max_rel_err([{"ref": "m", "energy": -15756.68}], {"m": -15038.56}),
            (15756.68 - 15038.56) / 15038.56)


class PathShareTest(unittest.TestCase):
    def test_shares_sum_to_one_and_cover_every_path(self):
        ops = [serve_op("delta"), serve_op("delta"), serve_op("cached"), serve_op("memoized")]
        shares = metrics.path_shares(ops)
        self.assertEqual(set(shares), set(metrics.PATHS))
        self.assertEqual(shares["delta"], 0.5)
        self.assertEqual(shares["cold"], 0.0)
        self.assertAlmostEqual(sum(shares.values()), 1.0)

    def test_no_ops(self):
        self.assertEqual(metrics.path_shares([]), {p: 0.0 for p in metrics.PATHS})

    def test_cache_hit_ratio_counts_only_cache_lookups(self):
        ops = [serve_op("cached"), serve_op("cached"), serve_op("cold"),
               serve_op("delta"), serve_op("memoized")]
        self.assertAlmostEqual(metrics.cache_hit_ratio(ops), 2 / 3)
        self.assertEqual(metrics.cache_hit_ratio([serve_op("delta")]), 0.0)

    def test_serve_layers(self):
        ops = [serve_op("cold", t=0.3), serve_op("cached", t=0.2), serve_op("cached", t=0.4),
               serve_op("delta", t=0.1), serve_op("memoized", t=0.001)]
        out = {}
        metrics._serve_layers(ops, 7, out)
        self.assertAlmostEqual(out["serve.cached.p50_s"]["value"], 0.3)
        self.assertEqual(out["serve.cached.share"]["value"], 0.4)
        self.assertEqual(out["serve.cache_evictions"]["value"], 7)
        self.assertAlmostEqual(out["serve.cache_hit_ratio"]["value"], 2 / 3)


class RecordTest(unittest.TestCase):
    def record(self):
        ops = [{"kind": "setup", "t": 1.0}, {"kind": "setup", "t": 3.0},
               {"kind": "setup", "t": 2.0}]
        ops += [serve_op("delta", t=0.1, traced=False, round_=0, modeled=0.1),
                serve_op("memoized", t=0.001, traced=False, round_=0, modeled=0.5),
                serve_op("cold", t=0.5, traced=False, round_=1, modeled=0.4,
                         failed=["served answer differs from a direct cold run"])]
        return {"ops": ops, "spans": [], "run_failures": [], "peak_rss_mib": 100.0,
                "context": {}}

    def test_end_to_end(self):
        out = metrics.end_to_end(self.record(), "serving_mix")
        self.assertEqual(out["setup_s"]["value"], 2.0)
        self.assertAlmostEqual(out["ops_per_s"]["value"], 3 / 0.601)
        self.assertEqual(out["op_p50_s"]["value"], 0.1)
        # Round sums of modeled time; the memoized answer spends none.
        self.assertAlmostEqual(out["modeled_makespan_s"]["value"], 0.25)
        self.assertEqual(set(out), {"setup_s", "ops_per_s", "op_p50_s", "op_p90_s",
                                    "modeled_makespan_s", "peak_rss_mb"})

    def test_failed_and_attempted(self):
        result = metrics.result(self.record(), "serving_mix", 0)
        self.assertEqual(result["attempted"], 3)
        self.assertEqual(result["failed"], 1)
        self.assertFalse(result["correct"])

    def test_span_seconds_sum_within_an_op(self):
        spans = [{"name": "born_near", "op": 1, "t0": 0.0, "t1": 0.5},
                 {"name": "born_near", "op": 1, "t0": 1.0, "t1": 1.25},
                 {"name": "born_near", "op": 2, "t0": 0.0, "t1": 2.0}]
        self.assertEqual(metrics.span_seconds(spans), {"born_near": {1: 0.75, 2: 2.0}})


if __name__ == "__main__":
    unittest.main()
