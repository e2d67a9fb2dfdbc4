#!/usr/bin/env python3
"""bench_diff's verdicts on synthetic pairs of runs."""
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import bench_diff  # noqa: E402


class Decide(unittest.TestCase):
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_clear_gain_is_improved(self):
        head = [v * 0.8 for v in self.base]
        self.assertEqual(bench_diff.decide(self.base, head, False, 0.1), "improved")

    def test_gain_inside_the_noise_is_not_claimed(self):
        head = [v - 0.5 for v in self.base]
        self.assertEqual(bench_diff.decide(self.base, head, False, 0.1), "no-worse")

    def test_winning_only_eight_of_ten_pairs_is_not_a_gain(self):
        head = [v * 0.8 for v in self.base[:8]] + [v * 1.05 for v in self.base[8:]]
        self.assertEqual(bench_diff.decide(self.base, head, False, 0.1), "no-worse")

    def test_worse_beyond_the_bound_is_regressed(self):
        head = [v * 1.2 for v in self.base]
        self.assertEqual(bench_diff.decide(self.base, head, False, 0.1), "regressed")
        self.assertEqual(bench_diff.decide(self.base, [v * 0.8 for v in self.base], True, 0.1),
                         "regressed")

    def test_worse_within_the_bound_is_no_worse(self):
        head = [v * 1.05 for v in self.base]
        self.assertEqual(bench_diff.decide(self.base, head, False, 0.1), "no-worse")

    def test_noisy_base_is_unresolved_unless_every_run_beats_it(self):
        noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        self.assertEqual(bench_diff.decide(noisy, [v * 1.02 for v in noisy], False, 0.1),
                         "unresolved")
        self.assertEqual(bench_diff.decide(noisy, [50] * 10, False, 0.1), "improved")

    def test_unbounded_metrics_read_improved_worsened_or_same(self):
        self.assertEqual(bench_diff.decide(self.base, [v * 2 for v in self.base], True, None),
                         "improved")
        self.assertEqual(bench_diff.decide(self.base, [v * 2 for v in self.base], False, None),
                         "worsened")
        self.assertEqual(bench_diff.decide(self.base, list(self.base), False, None), "same")


class EndToEnd(unittest.TestCase):
    def write_runs(self, directory, latencies):
        for seed, value in enumerate(latencies, start=1):
            rec = {"workload": "ring_agreed_open", "seed": seed, "trace": 0, "valid": True,
                   "result": {"correct": True, "attempted": 10, "failed": 0,
                              "metrics": {"commit_p50_us": {"value": value, "unit": "us"}}}}
            Path(directory, f"r{seed}.json").write_text(json.dumps(rec))

    def run_diff(self, base, head):
        spec = {"end_to_end": [{"name": "commit_p50_us", "unit": "us", "better": "lower",
                                "bound": 0.1}], "per_layer": []}
        with tempfile.TemporaryDirectory() as tmp:
            b, h = Path(tmp, "base"), Path(tmp, "head")
            b.mkdir()
            h.mkdir()
            self.write_runs(b, base)
            self.write_runs(h, head)
            Path(tmp, "BENCHMARK.json").write_text(json.dumps(spec))
            return subprocess.run(
                [sys.executable, str(HERE.parent / "bench_diff.py"), str(b), str(h),
                 "--benchmark", str(Path(tmp, "BENCHMARK.json"))],
                capture_output=True, text=True)

    def test_regression_fails_the_command(self):
        p = self.run_diff([100] * 5 + [101] * 5, [130] * 10)
        self.assertEqual(p.returncode, 1, p.stdout + p.stderr)
        self.assertIn("regressed", p.stdout)

    def test_gain_passes_and_is_reported(self):
        p = self.run_diff([100] * 5 + [101] * 5, [80] * 10)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertIn("improved", p.stdout)


if __name__ == "__main__":
    unittest.main()
