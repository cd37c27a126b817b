"""Unit tests of the benchmark's metric math.

    python3 -m unittest discover -s perfbench/tests
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import benchlib  # noqa: E402


def span(id_, parent, name, start, end, op=0):
    return {"id": id_, "parent": parent, "op": op, "name": name, "start": start, "end": end}


class TailLadder(unittest.TestCase):
    def test_rank_is_nearest_rank(self):
        self.assertEqual(benchlib.rank(100, 90), 90)
        self.assertEqual(benchlib.rank(3000, 99), 2970)
        self.assertEqual(benchlib.rank(10, 99.9), 10)
        self.assertEqual(benchlib.rank(1, 50), 1)

    def test_percentile_returns_a_measured_value(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(benchlib.percentile(values, 90), 90)
        self.assertEqual(benchlib.percentile(reversed(values), 99), 99)
        self.assertEqual(benchlib.percentile([5.0], 99.9), 5.0)

    def test_rung_needs_ten_samples_beyond(self):
        self.assertIsNone(benchlib.tail_rung(99))      # p90 leaves 9 beyond
        self.assertEqual(benchlib.tail_rung(100), 90.0)  # p90 leaves exactly 10
        self.assertEqual(benchlib.tail_rung(999), 90.0)  # p99 leaves 9
        self.assertEqual(benchlib.tail_rung(1000), 99.0)
        self.assertEqual(benchlib.tail_rung(9999), 99.0)  # p99.9 leaves 9
        self.assertEqual(benchlib.tail_rung(10000), 99.9)

    def test_declared_workload_sizes_pick_the_documented_rungs(self):
        # alloc-cold 3000 ops, serve-hotset 9900 requests: p99;
        # train 100 epochs, huge-stream 100 operations: p90.
        self.assertEqual(benchlib.tail_rung(3000), 99.0)
        self.assertEqual(benchlib.tail_rung(9900), 99.0)
        self.assertEqual(benchlib.tail_rung(100), 90.0)

    def test_empty_sample_has_no_rank(self):
        with self.assertRaises(ValueError):
            benchlib.rank(0, 50)


class SelfTime(unittest.TestCase):
    def test_covered_merges_nested_and_overlapping_children(self):
        # [10,20) and [15,30) overlap; [22,25) nests inside the second.
        self.assertEqual(benchlib.covered([(10, 20), (15, 30), (22, 25)], 0, 100), 20)
        # Children are clipped to the parent's interval.
        self.assertEqual(benchlib.covered([(-5, 5), (95, 120)], 0, 100), 10)
        self.assertEqual(benchlib.covered([], 0, 100), 0)
        self.assertEqual(benchlib.covered([(200, 300)], 0, 100), 0)

    def test_self_time_subtracts_only_direct_children(self):
        spans = [
            span(0, -1, "op", 0, 100),
            span(1, 0, "a", 10, 50),
            span(2, 1, "b", 20, 30),   # grandchild: counts against a, not op
            span(3, 0, "c", 60, 90),
        ]
        own = benchlib.self_times(spans)
        self.assertEqual(own, {0: 30, 1: 30, 2: 10, 3: 30})
        # Self times of a tree add up to the root's duration.
        self.assertEqual(sum(own.values()), 100)

    def test_overlapping_sibling_spans_are_not_double_counted(self):
        # Two concurrent children covering [10,70) together.
        spans = [
            span(0, -1, "op", 0, 100),
            span(1, 0, "w", 10, 60),
            span(2, 0, "w", 30, 70),
        ]
        own = benchlib.self_times(spans)
        self.assertEqual(own[0], 40)
        self.assertEqual(benchlib.self_time_by_name(spans), {"op": 40, "w": 90})
        self.assertEqual(benchlib.total_time_by_name(spans), {"op": 100, "w": 90})

    def test_unattributed_share_is_root_self_time_over_root_time(self):
        spans = [
            span(0, -1, "op", 0, 100, op=0),
            span(1, 0, "a", 0, 90, op=0),
            span(2, -1, "op", 200, 300, op=1),
            span(3, 2, "a", 200, 270, op=1),
        ]
        self.assertAlmostEqual(benchlib.unattributed_share(spans), (10 + 30) / 200)

    def test_read_spans_parses_the_runner_csv(self):
        path = Path(self.id() + ".csv")
        path.write_text("id,parent,op,name,start_ns,end_ns\n0,-1,3,op,0,100\n1,0,3,gnn.forward,5,80\n")
        try:
            spans = benchlib.read_spans(path)
        finally:
            path.unlink()
        self.assertEqual(spans[1], span(1, 0, "gnn.forward", 5, 80, op=3))


class Ratios(unittest.TestCase):
    def test_hit_ratio_base_is_all_lookups(self):
        self.assertEqual(benchlib.hit_ratio(99, 1), 0.99)
        self.assertEqual(benchlib.hit_ratio(0, 5), 0.0)
        self.assertEqual(benchlib.hit_ratio(0, 0), 0.0)

    def test_pool_busy_share_base_is_threads_times_wall(self):
        # 2 threads over 100 ms offer 200 ms; 150 ms busy is 75%.
        self.assertEqual(benchlib.pool_busy_share(150.0, 2, 100.0), 0.75)
        self.assertEqual(benchlib.pool_busy_share(0.0, 2, 0.0), 0.0)

    def test_overhead_share_is_relative_to_untraced(self):
        self.assertAlmostEqual(benchlib.overhead_share(1.1, 1.0), 0.1)
        self.assertAlmostEqual(benchlib.overhead_share(0.9, 1.0), -0.1)

    def test_reconcile_share_compares_median_root_span_to_median_untraced(self):
        # Root spans of 1.0, 1.2 and 9.0 ms (median 1.2) against untraced
        # operations of median 1.0 ms; the child span does not count.
        spans = [
            span(0, -1, "op", 0, 1_000_000, op=0),
            span(1, 0, "a", 0, 900_000, op=0),
            span(2, -1, "op", 0, 1_200_000, op=1),
            span(3, -1, "op", 0, 9_000_000, op=2),
        ]
        self.assertAlmostEqual(benchlib.reconcile_share(spans, [0.5, 1.0, 3.0]), 0.2)

    def test_beyond_tolerance_checks_both_directions(self):
        values = {"a": 0.01, "b": -0.06, "c": 0.06, "d": 0.05}
        limits = {"a": 0.02, "b": 0.05, "c": 0.05, "d": 0.05}
        self.assertEqual(benchlib.beyond_tolerance(values, limits), ["b", "c"])

    def test_quartile_summary_matches_statistics_quantiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        s = benchlib.quartile_summary(values)
        self.assertEqual((s["q1"], s["q3"]), (q1, q3))
        self.assertEqual(s["median"], 5.5)
        self.assertAlmostEqual(s["iqr_share"], (q3 - q1) / 5.5)
        self.assertAlmostEqual(s["range_share"], 9.0 / 5.5)


if __name__ == "__main__":
    unittest.main()
