"""Tests of perfbench/compare.py: two result files judged against bounds."""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import compare  # noqa: E402

BENCH = {
    "end_to_end": [
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "rate_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    ]
}


def result(p50, rate, workload="w", correct=True):
    return {"workload": workload, "correct": correct, "attempted": 10, "failed": 0,
            "metrics": {"p50_ms": {"value": p50, "unit": "ms"},
                        "rate_per_s": {"value": rate, "unit": "1/s"}}}


class CompareTest(unittest.TestCase):
    def judge(self, base, new):
        rows, ok = compare.compare(base, new, BENCH)
        return {r[1]: r for r in rows}, ok

    def test_within_bounds_passes(self):
        rows, ok = self.judge([result(10.0, 100.0)], [result(10.9, 81.0)])
        self.assertTrue(ok)
        self.assertAlmostEqual(rows["p50_ms"][4], 0.09)
        self.assertAlmostEqual(rows["rate_per_s"][4], 0.19)

    def test_lower_is_better_regression(self):
        rows, ok = self.judge([result(10.0, 100.0)], [result(11.5, 100.0)])
        self.assertFalse(ok)
        self.assertFalse(rows["p50_ms"][6])
        self.assertTrue(rows["rate_per_s"][6])

    def test_higher_is_better_regression(self):
        rows, ok = self.judge([result(10.0, 100.0)], [result(10.0, 70.0)])
        self.assertFalse(ok)
        self.assertFalse(rows["rate_per_s"][6])

    def test_improvement_is_never_a_regression(self):
        _, ok = self.judge([result(10.0, 100.0)], [result(5.0, 300.0)])
        self.assertTrue(ok)

    def test_medians_of_several_runs(self):
        base = [result(10.0, 100.0), result(12.0, 100.0), result(50.0, 100.0)]
        new = [result(13.0, 100.0), result(13.0, 100.0), result(1.0, 100.0)]
        rows, ok = self.judge(base, new)
        self.assertEqual(rows["p50_ms"][2], 12.0)
        self.assertEqual(rows["p50_ms"][3], 13.0)
        self.assertTrue(ok)  # 13 vs 12 is 8.3% worse, bound 10%

    def test_incorrect_result_fails(self):
        _, ok = self.judge([result(10.0, 100.0)], [result(10.0, 100.0, correct=False)])
        self.assertFalse(ok)

    def test_missing_metric_fails(self):
        new = result(10.0, 100.0)
        del new["metrics"]["rate_per_s"]
        rows, ok = self.judge([result(10.0, 100.0)], [new])
        self.assertFalse(ok)
        self.assertIsNone(rows["rate_per_s"][3])

    def test_workloads_compared_separately(self):
        base = [result(10.0, 100.0, "a"), result(100.0, 10.0, "b")]
        new = [result(10.0, 100.0, "a"), result(200.0, 10.0, "b")]
        rows, ok = compare.compare(base, new, BENCH)
        self.assertFalse(ok)
        failed = [(r[0], r[1]) for r in rows if not r[6]]
        self.assertEqual(failed, [("b", "p50_ms")])

    def test_loads_json_lines_and_lists(self):
        with tempfile.TemporaryDirectory() as d:
            lines = os.path.join(d, "lines.json")
            with open(lines, "w") as f:
                f.write(json.dumps(result(1.0, 2.0)) + "\n" +
                        json.dumps(result(3.0, 4.0)) + "\n")
            listed = os.path.join(d, "list.json")
            with open(listed, "w") as f:
                json.dump([result(1.0, 2.0)], f)
            self.assertEqual(len(compare.load_results(lines)), 2)
            self.assertEqual(len(compare.load_results(listed)), 1)


if __name__ == "__main__":
    unittest.main()
