#!/usr/bin/env python3
"""Unit test of tools/bench_ab.py on canned result files (no build, no git).

    python3 tools/test_bench_ab.py
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_ab  # noqa: E402
import bench_diff  # noqa: E402

BASE = {"setup_s": 1.4, "build_s": 4.0, "build_cpu_s": 6.8, "peak_rss_mb": 650.0,
        "qps": 220000.0, "p50_us": 17.0, "p99_us": 30.0, "ok_frac": 1.0,
        "cert_stretch_mean": 92.6}


def write_result(directory, workload, metrics):
    """One result file in e2ebench/run.py's format."""
    directory.mkdir(parents=True)
    (directory / f"result-{workload}-7-trace0.json").write_text(json.dumps({
        "stamp": {"workload": workload, "seed": 7, "seconds": 8, "trace": 0},
        "correct": True, "failures": [], "metrics": metrics, "info": {}}))


class VerdictTest(unittest.TestCase):
    def test_clear_gain_is_better(self):
        old = [10.0, 10.2, 9.9, 10.1, 10.0]
        new = [8.0, 8.1, 7.9, 8.2, 8.0]
        self.assertEqual(bench_ab.verdict_of(old, new, "lower", 0.25), ("better", 5))

    def test_gain_needs_nine_tenths_of_the_pairs(self):
        old = [10.0] * 10
        new = [8.0] * 8 + [10.0, 12.0]  # 8 wins, a tie and a loss
        self.assertEqual(bench_ab.verdict_of(old, new, "lower", 0.25),
                         ("within bound", 8))

    def test_gain_must_exceed_the_old_spread(self):
        old = [100.0, 110.0, 120.0, 105.0, 115.0]
        new = [v + 1.0 for v in old]  # qps: every pair won, by less than the IQR
        verdict, wins = bench_ab.verdict_of(old, new, "higher", 0.25)
        self.assertEqual((verdict, wins), ("within bound", 5))

    def test_loss_past_the_bound_is_worse(self):
        old = [4.0, 4.1, 3.9, 4.0, 4.05]
        new = [5.5, 5.6, 5.4, 5.5, 5.45]
        self.assertEqual(bench_ab.verdict_of(old, new, "lower", 0.25), ("worse", 0))

    def test_wide_spread_is_unresolved(self):
        old = [26.5, 30.1, 38.2, 34.2, 27.0]
        new = [28.0, 36.0, 26.9, 38.5, 30.0]
        self.assertEqual(bench_ab.verdict_of(old, new, "lower", 0.1)[0], "unresolved")

    def test_wide_spread_resolves_when_every_new_run_beats_every_old(self):
        old = [40.0, 50.0, 60.0]
        new = [30.0, 35.0, 39.0]
        self.assertNotEqual(bench_ab.verdict_of(old, new, "lower", 0.1)[0], "unresolved")

    def test_wide_spread_is_worse_when_every_new_run_loses_to_every_old(self):
        old = [40.0, 50.0, 60.0]
        new = [70.0, 85.0, 100.0]
        self.assertEqual(bench_ab.verdict_of(old, new, "lower", 0.1), ("worse", 0))
        self.assertEqual(bench_ab.verdict_of(new, old, "higher", 0.1), ("worse", 0))

    def test_identical_runs_are_within_bound(self):
        self.assertEqual(bench_ab.verdict_of([1.0] * 3, [1.0] * 3, "higher", 0.01),
                         ("within bound", 0))


class CannedResultsTest(unittest.TestCase):
    """Loads canned run.py result files the way bench_ab.main does."""

    def load(self, root, side, values):
        runs = []
        for i, metrics in enumerate(values):
            d = root / f"{side}-{i}"
            write_result(d, "build_inproc", metrics)
            runs.append(bench_diff.load(d)["build_inproc"])
        return runs

    def test_table_has_one_verdict_per_metric(self):
        spec = bench_diff.end_to_end_spec()
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            old = [dict(BASE, build_s=4.0 + 0.01 * i) for i in range(5)]
            new = [dict(BASE, build_s=4.0 + 0.01 * i, peak_rss_mb=600.0 - i)
                   for i in range(5)]
            runs = {"old": self.load(root, "old", old),
                    "new": self.load(root, "new", new)}
        rows = bench_ab.compare(runs, spec)
        verdicts = {r["name"]: r["verdict"] for r in rows}
        self.assertEqual(set(verdicts), {m["name"] for m in spec})
        self.assertEqual(verdicts["peak_rss_mb"], "better")
        self.assertEqual(verdicts["build_s"], "within bound")
        self.assertEqual(verdicts["ok_frac"], "within bound")
        table = bench_ab.render(rows).splitlines()
        self.assertEqual(len(table), 2 + len(spec))
        self.assertIn("| peak_rss_mb | MB | 0.1 | 650 | 0 | 598 |", table[2 + [
            m["name"] for m in spec].index("peak_rss_mb")])
        pairs = bench_ab.render_pairs(runs, spec)
        self.assertIn("- build_s: 4 -> 4, 4.01 -> 4.01", pairs)

    def test_metric_missing_from_a_new_run_is_worse(self):
        spec = bench_diff.end_to_end_spec()
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            new = dict(BASE)
            del new["p99_us"]
            runs = {"old": self.load(root, "old", [BASE] * 2),
                    "new": self.load(root, "new", [BASE, new])}
        rows = {r["name"]: r for r in bench_ab.compare(runs, spec)}
        self.assertEqual(rows["p99_us"]["verdict"], "worse")
        self.assertIn("worse (missing in new)", bench_ab.render(list(rows.values())))


if __name__ == "__main__":
    unittest.main()
