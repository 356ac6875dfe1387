#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

They build the measuring binary (as run.py does) and run its self-checks:
outcome guards reject each broken condition, the traced replay's sample
counts match the workload shape exactly with every stage called, and the
replay decodes the engine's links bit for bit. They also pin BENCHMARK.json to
the metric tables in run.py and check that the benchmark refuses to report
from a directory without the library sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (run.py, imported for its metric tables)


class BenchmarkSpec(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            self.spec = json.load(f)

    def test_end_to_end_metrics_match_run_py(self):
        spec = [(m["name"], m["unit"]) for m in self.spec["end_to_end"]]
        self.assertEqual(spec, [(n, u) for n, u, _ in run.END_TO_END])

    def test_per_layer_metrics_match_run_py(self):
        spec = [(m["name"], m["unit"], m["better"]) for m in self.spec["per_layer"]]
        self.assertEqual(spec, run.PER_LAYER)

    def test_workloads_match_run_py(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]),
                         run.WORKLOADS)


class SelfTest(unittest.TestCase):
    def test_binary_selftest_passes(self):
        binary = run.build()
        out = subprocess.run([binary, "selftest"], capture_output=True,
                             text=True, timeout=300)
        sys.stderr.write(out.stdout)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        self.assertIn("selftest: all checks passed", out.stdout)


class BareDirectory(unittest.TestCase):
    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "city-stream",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180, env=env)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
