#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at smoke size, untraced and
traced, through the same run.py the benchmark command runs.

    python3 perfbench/test_smoke.py

Each run must exit 0 and end with the result object: exactly the keys
correct, attempted, failed and metrics, correct true, failed 0, and every
metric BENCHMARK.json names for that mode, with its unit.  A last test
checks that run.py fails without printing a result in a directory that
holds only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(root, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", trace, "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=900)


class Smoke(unittest.TestCase):
    def result(self, workload, trace):
        proc = run(ROOT, workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["end_to_end" if trace == "0" else "per_layer"]
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in wanted))
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        return {k: v["value"] for k, v in result["metrics"].items()}

    def test_bare_directory_fails(self):
        bare = os.path.join(ROOT, ".bench_work", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = run(bare, SPEC["workloads"][0]["name"], "0")
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


def add_case(workload, trace):
    def test(self):
        values = self.result(workload, trace)
        if trace == "0":
            for name, value in values.items():
                self.assertGreater(value, 0, name)
        else:
            self.assertGreater(values["trace.coverage"], 0)
            if workload == "conflict_mix":
                for tier in ("direct", "shifted", "disjunctive", "enumerated"):
                    self.assertGreater(values["route." + tier], 0, tier)
    setattr(Smoke, "test_%s_trace%s" % (workload, trace), test)


for w in SPEC["workloads"]:
    for t in ("0", "1"):
        add_case(w["name"], t)

if __name__ == "__main__":
    unittest.main()
