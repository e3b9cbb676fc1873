#!/usr/bin/env python3
"""Self-test of run.py's parsing and metric checks.

    python3 tvsbench/test_run.py
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SPEC = {
    "end_to_end": [{"name": "gstencils_per_s", "unit": "Gstencils/s"},
                   {"name": "setup_s", "unit": "s"}],
    "per_layer": [{"name": "serve.sched.stages", "unit": "count"}],
}


def driver_stdout(correct=True, failed=0, metrics=None):
    metrics = metrics if metrics is not None else {
        "gstencils_per_s": {"value": 0.42, "unit": "Gstencils/s"},
        "setup_s": {"value": 0.081, "unit": "s"},
        "serve.sched.stages": {"value": 0, "unit": "count"},
    }
    res = {"correct": correct, "attempted": 10, "failed": failed,
           "metrics": metrics}
    return "tvs-bench: workload=x\nend-to-end:\nRESULT " + json.dumps(res) + "\n"


class ParseResultLine(unittest.TestCase):
    def test_reads_last_result_line(self):
        out = driver_stdout() + "RESULT " + json.dumps(
            {"correct": False, "attempted": 3, "failed": 1, "metrics": {}})
        res = run.parse_result_line(out)
        self.assertEqual(res["attempted"], 3)
        self.assertFalse(res["correct"])

    def test_missing_line(self):
        with self.assertRaises(run.BenchError):
            run.parse_result_line("end-to-end:\n  gstencils_per_s 1.0\n")

    def test_bad_json(self):
        with self.assertRaises(run.BenchError):
            run.parse_result_line("RESULT {not json}\n")

    def test_missing_field(self):
        with self.assertRaises(run.BenchError):
            run.parse_result_line('RESULT {"correct": true, "metrics": {}}\n')

    def test_attempted_must_be_int(self):
        with self.assertRaises(run.BenchError):
            run.parse_result_line('RESULT {"correct": true, "attempted": 1.5, '
                                  '"failed": 0, "metrics": {}}\n')


class SelectMetrics(unittest.TestCase):
    def test_end_to_end_selection(self):
        res = run.parse_result_line(driver_stdout())
        got = run.select_metrics(res, SPEC, trace=False)
        self.assertEqual(set(got), {"gstencils_per_s", "setup_s"})
        self.assertEqual(got["setup_s"], {"value": 0.081, "unit": "s"})

    def test_per_layer_selection_allows_zero(self):
        res = run.parse_result_line(driver_stdout())
        got = run.select_metrics(res, SPEC, trace=True)
        self.assertEqual(got, {"serve.sched.stages": {"value": 0, "unit": "count"}})

    def test_end_to_end_zero_rejected(self):
        res = run.parse_result_line(driver_stdout(metrics={
            "gstencils_per_s": {"value": 0, "unit": "Gstencils/s"},
            "setup_s": {"value": 0.1, "unit": "s"}}))
        with self.assertRaises(run.BenchError):
            run.select_metrics(res, SPEC, trace=False)

    def test_missing_metric_rejected(self):
        res = run.parse_result_line(driver_stdout(metrics={
            "setup_s": {"value": 0.1, "unit": "s"}}))
        with self.assertRaises(run.BenchError):
            run.select_metrics(res, SPEC, trace=False)

    def test_wrong_unit_rejected(self):
        res = run.parse_result_line(driver_stdout(metrics={
            "gstencils_per_s": {"value": 1.0, "unit": "1/s"},
            "setup_s": {"value": 0.1, "unit": "s"}}))
        with self.assertRaises(run.BenchError):
            run.select_metrics(res, SPEC, trace=False)

    def test_non_finite_rejected(self):
        res = run.parse_result_line(driver_stdout().replace("0.42", "NaN"))
        with self.assertRaises(run.BenchError):
            run.select_metrics(res, SPEC, trace=False)


class ResultLine(unittest.TestCase):
    def test_exact_keys_and_failed_forces_incorrect(self):
        res = run.parse_result_line(driver_stdout(correct=True, failed=2))
        line = json.loads(run.result_line(res, {"setup_s": {"value": 1.0, "unit": "s"}}))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 2)


class RealSpec(unittest.TestCase):
    """BENCHMARK.json at the repository root obeys the metric rules run.py
    relies on."""

    def test_spec(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", [m["name"] for m in spec["end_to_end"]])
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)


if __name__ == "__main__":
    unittest.main()
