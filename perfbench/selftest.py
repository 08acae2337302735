"""Unit tests for the benchmark's own rules.

Run from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    ladder_stops,
    lateness_grows,
    percentile,
    self_times,
    supported_percentile,
    valid_metric_name,
)


class PercentileRule(unittest.TestCase):
    def test_thousand_samples_support_p99(self):
        self.assertEqual(supported_percentile(1000), 99.0)

    def test_one_short_of_ten_beyond_falls_back(self):
        self.assertEqual(supported_percentile(999), 98.0)

    def test_larger_samples_support_higher_tails(self):
        self.assertEqual(supported_percentile(10000), 99.9)
        self.assertEqual(supported_percentile(400), 97.5)
        self.assertEqual(supported_percentile(100), 90.0)

    def test_tiny_samples_support_nothing(self):
        self.assertEqual(supported_percentile(20), 50.0)
        self.assertIsNone(supported_percentile(19))

    def test_ten_samples_lie_beyond_the_reported_value(self):
        values = list(range(1, 1001))
        q = supported_percentile(len(values))
        cut = percentile(values, q)
        self.assertEqual(sum(v > cut for v in values), 10)

    def test_nearest_rank(self):
        self.assertEqual(percentile([5, 1, 3], 50), 3.0)
        self.assertEqual(percentile([1, 2, 3, 4], 100), 4.0)
        self.assertEqual(percentile([7], 99), 7.0)
        with self.assertRaises(ValueError):
            percentile([], 50)


class LadderStopRule(unittest.TestCase):
    steady = [0.1, 0.2, 0.1] * 20

    def test_passes_under_limit_and_steady(self):
        self.assertFalse(ladder_stops(10.0, 25.0, self.steady))

    def test_stops_over_limit(self):
        self.assertTrue(ladder_stops(25.1, 25.0, self.steady))

    def test_limit_is_inclusive(self):
        self.assertFalse(ladder_stops(25.0, 25.0, self.steady))

    def test_stops_on_a_failed_request(self):
        self.assertTrue(ladder_stops(1.0, 25.0, self.steady, n_failed=1))

    def test_stops_when_lateness_grows(self):
        growing = [i * 2.0 for i in range(60)]
        self.assertTrue(lateness_grows(growing))
        self.assertTrue(ladder_stops(1.0, 25.0, growing))

    def test_steady_offset_is_not_growth(self):
        self.assertFalse(lateness_grows([8.0, 9.0, 8.5] * 20))

    def test_small_growth_is_noise(self):
        self.assertFalse(lateness_grows([0.1] * 30 + [3.0] * 30))

    def test_too_few_samples_never_grow(self):
        self.assertFalse(lateness_grows([0.0, 100.0, 200.0]))


class SelfTime(unittest.TestCase):
    @staticmethod
    def span(id_, parent, start, end):
        return {"id": id_, "parent": parent, "start": start, "end": end}

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(self_times([self.span(1, None, 0.0, 2.0)]), {1: 2.0})

    def test_children_are_subtracted(self):
        spans = [
            self.span(1, None, 0.0, 10.0),
            self.span(2, 1, 1.0, 3.0),
            self.span(3, 1, 4.0, 8.0),
            self.span(4, 3, 5.0, 6.0),
        ]
        result = self_times(spans)
        self.assertAlmostEqual(result[1], 4.0)
        self.assertAlmostEqual(result[2], 2.0)
        self.assertAlmostEqual(result[3], 3.0)
        self.assertAlmostEqual(result[4], 1.0)
        self.assertAlmostEqual(sum(result.values()), 10.0)

    def test_overlapping_children_count_once(self):
        spans = [
            self.span(1, None, 0.0, 10.0),
            self.span(2, 1, 2.0, 6.0),
            self.span(3, 1, 4.0, 8.0),
        ]
        self.assertAlmostEqual(self_times(spans)[1], 4.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [self.span(1, None, 0.0, 5.0), self.span(2, 1, 4.0, 9.0)]
        self.assertAlmostEqual(self_times(spans)[1], 4.0)


class MetricNames(unittest.TestCase):
    def test_valid(self):
        for name in ("fit_s", "clustering.ap_s", "experiments.cell_s.raw",
                     "p99-ms", "0abc", "a" * 64):
            self.assertTrue(valid_metric_name(name), name)

    def test_invalid(self):
        for name in ("", "_x", ".x", "a b", "a/b", "lat(ms)", "é", "a" * 65):
            self.assertFalse(valid_metric_name(name), name)

    def test_every_declared_metric_is_valid(self):
        import json

        from run import PER_LAYER

        root = Path(__file__).resolve().parent.parent
        declared = json.loads((root / "BENCHMARK.json").read_text())
        names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(valid_metric_name(name), name)
        self.assertEqual(
            [m["name"] for m in declared["per_layer"]], [n for n, _ in PER_LAYER]
        )


if __name__ == "__main__":
    unittest.main()
