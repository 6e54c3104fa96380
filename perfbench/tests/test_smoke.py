"""Smoke runs of every workload at tiny signal sizes, through run.py.

    python3 -m unittest discover -s perfbench/tests

Builds the driver on first use (like any benchmark run) and checks that
each workload prints one result line with every metric BENCHMARK.json
names, in both the untraced and the traced mode.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, workload, trace, seed=1, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=900, env=env)


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        proc = run(ROOT, workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in wanted])
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_steady(self):
        self.check("steady_2e18", 0)
        self.check("steady_2e18", 1)

    def test_cold_fleet(self):
        self.check("cold_mixed_fleet", 0)
        self.check("cold_mixed_fleet", 1)

    def test_serve(self):
        self.check("serve_cluster", 0)
        self.check("serve_cluster", 1)

    def test_fails_without_the_program_sources(self):
        # The bare copy shares an absolute target directory with this
        # checkout, whose driver is built there: it must still not run.
        env = dict(os.environ,
                   CARGO_TARGET_DIR=str((ROOT / ".bench_build").resolve()))
        built = run(ROOT, "cold_mixed_fleet", 0, env=env)
        self.assertEqual(built.returncode, 0, built.stderr[-2000:])
        bare = ROOT / ".bench_build" / "smoke-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run(bare, "cold_mixed_fleet", 0, env=env)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
