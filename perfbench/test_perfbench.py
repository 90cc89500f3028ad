#!/usr/bin/env python3
"""Self-tests of the benchmark: each correctness check fails under its
injected fault, clean runs pass, and traced counts repeat exactly.

    python3 perfbench/test_perfbench.py

Runs perfbench/run.py at the smoke size (tiny data, one process), so the
whole file takes well under a minute once the benchmark is built.
"""

import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ["serve_mix", "adhoc_rewrite", "analytic_scan", "serve_rw"]


def run(workload, fault=None, trace=0, seed=3):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--smoke"]
    if fault:
        cmd += ["--fault", fault]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    if done.returncode != 0:
        raise AssertionError("run.py failed: " + done.stderr[-2000:])
    return json.loads(done.stdout.strip().splitlines()[-1])


class CleanRuns(unittest.TestCase):
    def test_every_workload_is_correct_with_no_failures(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = run(workload)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(len(result["metrics"]), 6)

    def test_traced_counts_repeat_exactly(self):
        for workload in ["serve_mix", "serve_rw"]:
            with self.subTest(workload=workload):
                first = run(workload, trace=1)["metrics"]
                second = run(workload, trace=1)["metrics"]
                for name, metric in first.items():
                    if metric["unit"] in ("count/op", "B/op", "cost/op",
                                          "ratio"):
                        self.assertEqual(metric["value"],
                                         second[name]["value"], name)


class InjectedFaults(unittest.TestCase):
    def test_dropped_answer_row_is_reported(self):
        self.assertFalse(run("serve_mix", fault="drop_row")["correct"])

    def test_dropped_store_charge_is_reported(self):
        self.assertFalse(run("analytic_scan", fault="drop_charge")["correct"])

    def test_insert_missing_from_reference_is_reported(self):
        self.assertFalse(run("serve_rw", fault="drop_insert")["correct"])


if __name__ == "__main__":
    unittest.main()
