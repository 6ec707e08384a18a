"""Tests of the benchmark itself, on tiny inputs (``run.py --smoke``).

    python3 perfbench/selftest.py

Each workload must emit its named metrics with their units, the
end-to-end metrics of BENCHMARK.json untraced and the per-layer ones
traced, and no failed check.  The file is named so that the repository's
test suite does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from report import machine_independent, run_once  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

NAMED = {
    "partition": {"split_star_s": "s", "hollow_box_s": "s"},
    "sum-oracle": {"sums_per_s": "pairs/s", "hull_oracle_s": "s"},
    "witness-11x11": {"witness_s": "s"},
    "collision-trace": {
        "trace_frames_per_s": "frames/s",
        "classify_p50_us": "us",
        "classify_p90_us": "us",
        "separation_p50_ms": "ms",
        "penetration_p50_us": "us",
    },
}


def units(metrics) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


class SmokeRuns(unittest.TestCase):
    def test_untraced_metrics_and_checks(self):
        want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        for workload in WORKLOAD_NAMES:
            with self.subTest(workload=workload):
                named, result = run_once(workload, 3, 0, trace=0, smoke=True)
                self.assertEqual(units(result["metrics"]), want)
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))
                self.assertEqual(
                    units(named), {**NAMED[workload], "fail_ratio": "failed/attempted"})
                self.assertEqual(named["fail_ratio"]["value"], 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)

    def test_traced_metrics_repeat_exactly(self):
        want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        for workload in WORKLOAD_NAMES:
            with self.subTest(workload=workload):
                _, first = run_once(workload, 3, 0, trace=1, smoke=True)
                _, second = run_once(workload, 3, 0, trace=1, smoke=True)
                self.assertEqual(units(first["metrics"]), want)
                self.assertTrue(first["correct"])
                self.assertEqual(machine_independent(first), machine_independent(second))

    def test_layers_are_reached(self):
        # Zero counts here would mean the tracer missed a binding.
        _, result = run_once("sum-oracle", 3, 0, trace=1, smoke=True)
        calls = {k: m["value"] for k, m in result["metrics"].items() if k.endswith(".calls")}
        for name in ("kernel.cross", "spherical.intersect", "arrangement.locate",
                     "gaussian.build", "minkowski.minkowski", "hull.convex_hull_3"):
            self.assertGreater(calls[f"{name}.calls"], 0, name)


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_the_runner(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], WORKLOAD_NAMES)
        bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [*BENCHMARK["command"], "--workload", "witness-11x11", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
