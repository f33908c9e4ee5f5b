#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

  python3 perfbench/test_perfbench.py

Builds perfbench_driver like run.py does, then runs tiny workload sizes
(plus one full-size pq comparison, a few seconds).
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TUNING_SEED, HELD_OUT_SEED = 1, 7


def bench_run(workload, seed=TUNING_SEED, trace=0, *extra, env=None):
    """run.py at tiny size; returns (exit code, last stdout line or None)."""
    r = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        timeout=300)
    lines = r.stdout.strip().splitlines()
    return r.returncode, (json.loads(lines[-1]) if lines else None)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.driver = bench.build()

    def test_tiny_run_prints_every_metric_with_its_unit(self):
        for w in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    code, res = bench_run(w["name"], TUNING_SEED, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(res),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(res["failed"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {n: m["unit"] for n, m in res["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in res["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)

    def test_runner_and_spec_name_the_same_metrics(self):
        for key, table in (("end_to_end", bench.END_TO_END),
                           ("per_layer", bench.PER_LAYER)):
            self.assertEqual({m["name"]: m["unit"] for m in SPEC[key]}, table)
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(bench.WORKLOADS))

    def test_corrupted_reference_counts_check_failures(self):
        for w in bench.WORKLOADS:
            with self.subTest(workload=w):
                code, res = bench_run(w, TUNING_SEED, 1,
                                      "--corrupt-reference")
                self.assertEqual(code, 0)
                self.assertFalse(res["correct"])
                self.assertEqual(res["failed"], res["attempted"])
                self.assertGreaterEqual(
                    res["metrics"]["bench.check_failures"]["value"],
                    res["attempted"])

    def test_tuning_and_held_out_seeds_pass_the_checks(self):
        for w in bench.WORKLOADS:
            for seed in (TUNING_SEED, HELD_OUT_SEED):
                with self.subTest(workload=w, seed=seed):
                    code, res = bench_run(w, seed)
                    self.assertEqual(code, 0)
                    self.assertTrue(res["correct"])

    def test_pq_loop_matches_pq_bench_dsm(self):
        for size in ("tiny", "full"):
            with self.subTest(size=size):
                r = bench.call(self.driver, "pq-compare", "--seed",
                               str(TUNING_SEED), "--size", size)
                self.assertGreater(r["loop_ops"], 0)
                self.assertEqual(r["loop_ops"], r["pq_bench_dsm_ops"])
                self.assertEqual(r["loop_ops_per_us"],
                                 r["pq_bench_dsm_ops_per_us"])

    def test_refuses_a_pinned_environment_variable(self):
        for var in bench.PINNED_ENV:
            with self.subTest(var=var):
                env = dict(os.environ, **{var: "1"})
                code, res = bench_run("pq_hqdl", env=env)
                self.assertNotEqual(code, 0)
                self.assertIsNone(res)


if __name__ == "__main__":
    unittest.main()
