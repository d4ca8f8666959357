#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 -m unittest perfbench/test_perfbench.py      (from the checkout root)

They build the benchmark like run.py does and check that:
  - the timing delegates never change results (--selftest compares traced
    and untraced artifact JSON byte for byte on month_stream, trace_sched
    and service_mix samples);
  - every workload, gated by BENCHMARK.json or not, passes its output
    checks in both modes and reports exactly the metrics BENCHMARK.json
    names;
  - run.py refuses to produce a result without the cloudcr sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_workload(workload, trace, seconds=1):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    return proc.returncode, proc.stdout


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out_dir = run.build_dir()
        cls.binary = run.build(cls.out_dir)

    def test_delegates_keep_results_byte_identical(self):
        tmp = os.path.join(self.out_dir, "selftest-tmp")
        proc = subprocess.run([self.binary, "--selftest", "--tmp", tmp], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=300)
        shutil.rmtree(tmp, ignore_errors=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("selftest passed", proc.stdout)

    def test_workloads_report_their_metrics(self):
        spec = bench_json()
        gated = {w["name"] for w in spec["workloads"]}
        self.assertLessEqual(gated, set(run.WORKLOADS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            # The workloads BENCHMARK.json leaves out must keep working too.
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, out = run_workload(workload, trace)
                    self.assertEqual(code, 0, out[-2000:])
                    result = json.loads(out.strip().split("\n")[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    if trace == 0:
                        for name in expected:
                            self.assertGreater(result["metrics"][name]["value"], 0.0, name)

    def test_refuses_without_sources(self):
        bare = os.path.join(self.out_dir, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "repro_matrix", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=120, env=env)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
