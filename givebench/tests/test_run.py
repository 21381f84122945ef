"""Tests of the benchmark's own code.

    python3 -m unittest discover -s givebench/tests
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkFileTest(unittest.TestCase):
    def setUp(self):
        self.bench = load_benchmark()

    def test_metric_names_and_units(self):
        names = []
        for metric in self.bench["end_to_end"] + self.bench["per_layer"]:
            self.assertRegex(metric["name"], NAME)
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("higher", "lower"))
            names.append(metric["name"])
        for workload in self.bench["workloads"]:
            self.assertRegex(workload["name"], NAME)
            self.assertLessEqual(len(workload["why"]), 200)
            names.append(workload["name"])
        self.assertEqual(len(names), len(set(names)), "a name is used twice")

    def test_count_limits(self):
        self.assertLessEqual(len(self.bench["end_to_end"]), 16)
        self.assertGreaterEqual(len(self.bench["end_to_end"]), 1)
        self.assertLessEqual(len(self.bench["per_layer"]), 128)
        self.assertGreaterEqual(len(self.bench["per_layer"]), 1)
        self.assertTrue(2 <= len(self.bench["workloads"]) <= 8)

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_reported_metrics_match_the_file(self):
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.bench["end_to_end"]], list(run.E2E)
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.bench["per_layer"]], list(run.PER_LAYER)
        )
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(run.WORKLOADS))

    def test_every_workload_is_pinned(self):
        with open(run.PINS) as f:
            pins = json.load(f)
        self.assertEqual(pins["world_seed"], run.DEFAULT_WORLD_SEED)
        self.assertEqual(pins["fault_seed"], run.DEFAULT_FAULT_SEED)
        self.assertEqual(sorted(pins["workloads"]), sorted(run.WORKLOADS))


class FailureTest(unittest.TestCase):
    RESULT = {"digest": "ab" * 32, "store_hits": 25, "store_misses": 0}

    def test_matching_digest_passes(self):
        self.assertIsNone(run.failure(self.RESULT, None, "ab" * 32, "monitor_cold"))

    def test_tampered_digest_fails(self):
        tampered = "ab" * 31 + "ac"
        self.assertIsNotNone(run.failure(self.RESULT, None, tampered, "monitor_cold"))
        self.assertIsNotNone(run.failure(self.RESULT, None, tampered, "store_warm"))

    def test_worker_error_fails(self):
        self.assertEqual(run.failure(None, "exit 101", "ab" * 32, "monitor_chaos"), "exit 101")

    def test_warm_cache_miss_fails(self):
        missed = dict(self.RESULT, store_hits=24, store_misses=1)
        self.assertIsNotNone(run.failure(missed, None, "ab" * 32, "store_warm"))
        self.assertIsNone(run.failure(missed, None, "ab" * 32, "monitor_cold"))


def span(name, ts, dur, tid=1, pid=1):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": pid, "tid": tid}


class SelfTimeTest(unittest.TestCase):
    def test_self_time_is_duration_minus_covered_child_time(self):
        events = [
            span("root", 0, 100),
            span("a", 10, 20),  # covers 10..30
            span("a.inner", 12, 5),  # inside a, not a direct child of root
            span("b", 40, 30),  # covers 40..70
            span("b.leaf", 45, 10),
            span("other-thread", 0, 50, tid=2),
            span("program-stage", 0, 100, pid=2),  # the program's spans
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0},
        ]
        selfs = run.self_times(events)
        self.assertEqual(selfs["root"], (100 - 20 - 30, 1))
        self.assertEqual(selfs["a"], (20 - 5, 1))
        self.assertEqual(selfs["a.inner"], (5, 1))
        self.assertEqual(selfs["b"], (30 - 10, 1))
        self.assertEqual(selfs["other-thread"], (50, 1))
        self.assertNotIn("program-stage", selfs)

    def test_repeated_spans_accumulate(self):
        events = [span("call", 0, 3), span("call", 5, 4), span("call", 10, 2.5)]
        self.assertEqual(run.self_times(events)["call"], (9.5, 3))

    def test_child_time_is_clipped_to_the_parent(self):
        # A child that outlives its parent's recorded end (clock skew)
        # covers only the parent's interval.
        events = [span("parent", 0, 10), span("child", 4, 8)]
        self.assertEqual(run.self_times(events)["parent"], (4, 1))


if __name__ == "__main__":
    unittest.main()
