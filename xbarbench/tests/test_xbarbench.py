"""Self-checks of the xbarbench benchmark.

Run from the repository root (builds the benchmark on first use):

    python3 -m unittest discover -s xbarbench/tests -v
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "xbarbench"
BUILD_ROOT = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def run_py(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "xbarbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class CorrectnessGate(unittest.TestCase):
    def test_perturbed_digest_is_caught(self):
        p = run_py("--self-test")
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        for check in ("one-ulp accuracy change is caught",
                      "one extra pulse is caught",
                      "perturbed reference fails the gate",
                      "failed job fails the gate"):
            self.assertIn("ok   " + check, p.stdout)
        self.assertNotIn("FAIL", p.stdout)


class Contract(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        p = run_py("--list")
        self.assertEqual(p.returncode, 0, p.stderr)
        listing = json.loads(p.stdout.strip().splitlines()[-1])
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"], m["better"])
             for m in bench["end_to_end"]],
            [(m["name"], m["unit"], m["better"])
             for m in listing["end_to_end"]])
        self.assertEqual(
            [(m["name"], m["unit"]) for m in bench["per_layer"]],
            [(m["name"], m["unit"]) for m in listing["per_layer"]])
        self.assertEqual(
            [(w["name"], w["why"]) for w in bench["workloads"]],
            [(w["name"], w["why"]) for w in listing["workloads"]])

    def test_refuses_without_source_tree(self):
        BUILD_ROOT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=BUILD_ROOT) as d:
            shutil.copy(ROOT / "BENCHMARK.json", d)
            shutil.copytree(BENCH, Path(d) / "xbarbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = run_py("--workload", "lenet5_stat", "--seed", "1",
                       "--seconds", "1", "--trace", "0", cwd=d)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


class Compare(unittest.TestCase):
    def record(self, cpu_model, rev, value):
        return json.dumps({
            "schema": "xbarbench.run.v1", "workload": "lenet5_stat",
            "seed": 1, "fail_frac": 0.0,
            "host": {"hardware_concurrency": 4, "cpu_model": cpu_model,
                     "compiler": "GNU", "build_type": "Release",
                     "kernel": "avx2", "executor": "sim", "rev": rev},
            "science": {"lifetime_apps": 1000},
            "metrics": {"lifetime_s": {"value": value, "unit": "s"}}})

    def compare(self, base, change):
        BUILD_ROOT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=BUILD_ROOT) as d:
            (Path(d) / "a.out").write_text(base + "\n")
            (Path(d) / "b.out").write_text(change + "\n")
            return subprocess.run(
                [sys.executable, str(BENCH / "compare.py"),
                 "--base", str(Path(d) / "a.out"),
                 "--change", str(Path(d) / "b.out")],
                capture_output=True, text=True)

    def test_refuses_mismatched_host_stamps(self):
        p = self.compare(self.record("cpu A", "r1", 10.0),
                         self.record("cpu B", "r2", 10.0))
        self.assertEqual(p.returncode, 2, p.stdout + p.stderr)
        self.assertIn("host stamps differ", p.stderr)

    def test_flags_regression_beyond_bound(self):
        p = self.compare(self.record("cpu A", "r1", 10.0),
                         self.record("cpu A", "r2", 20.0))
        self.assertEqual(p.returncode, 1, p.stdout + p.stderr)
        self.assertIn("REGRESSION", p.stdout)
        p = self.compare(self.record("cpu A", "r1", 10.0),
                         self.record("cpu A", "r2", 10.1))
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)


if __name__ == "__main__":
    unittest.main()
