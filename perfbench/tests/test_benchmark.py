"""Tests of the repository benchmark, end to end.

    python3 -m unittest discover -s perfbench/tests -v

Builds the harness and its C++ tests into .bench_build/perfbench (as
run.py does), runs the C++ tests, and drives run.py on tiny job sizes.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

WORKLOADS = ["oltp_profiled", "compute_mix", "sensitivity_sweep"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(workload, trace, env=None, cwd=ROOT, script=None):
    script = script or BENCH_DIR / "run.py"
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--test-sizes"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=900)


class BenchmarkSpec(unittest.TestCase):
    def test_benchmark_json_shape(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end",
                                     "per_layer"})
        self.assertEqual([w["name"] for w in spec["workloads"]], WORKLOADS)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")


class HarnessTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build(targets=("perfbench", "perfbench_tests"))

    def test_cpp_unit_tests(self):
        done = subprocess.run([str(run.BUILD_DIR / "perfbench_tests")],
                              cwd=run.BUILD_DIR, capture_output=True,
                              text=True, timeout=600)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)

    def test_every_emitted_metric_is_declared(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    done = run_bench(workload, trace)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    declared = run.declared_metrics(trace)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        declared)
                    self.assertTrue(result["correct"], done.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)

    def test_force_override_is_a_failed_check(self):
        env = dict(os.environ, LIMITPP_FORCE_NO_BATCH="1")
        done = run_bench("compute_mix", 0, env=env)
        self.assertNotEqual(done.returncode, 0)
        result = json.loads(done.stdout.splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("LIMITPP_FORCE_NO_BATCH", done.stdout)

    def test_refuses_without_simulator_sources(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            done = run_bench("oltp_profiled", 0, cwd=bare,
                             script=bare / "perfbench" / "run.py")
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
