"""Tests of the benchmark itself: tiny runs of every workload.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the root of a checkout; the first run builds (see run.py). Each
workload (the gated ones in BENCHMARK.json plus serve_small) runs
untraced once and traced twice, for one second each: the
metric names and units must match BENCHMARK.json, every op must be
correct, and every count metric must repeat exactly across the two
traced runs with the same seed.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# serve_small runs through the same command but is not in BENCHMARK.json
# (too steal-sensitive to gate on; see README.md): test it all the same.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["serve_small"]

# Per-layer metrics that are counts or ratios of counts: fixed by the seed.
EXACT = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"] + ["pauli.saved_ops_frac"]


def run(workload, trace, seed=7, cwd=ROOT, script=RUN):
    out = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )
    return out


def result(workload, trace, seed=7):
    out = run(workload, trace, seed)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise AssertionError(f"{workload} trace={trace} exited {out.returncode}:\n"
                             f"{out.stdout[-2000:]}\n{out.stderr[-2000:]}")
    return json.loads(lines[-1])


class TinyRuns(unittest.TestCase):
    def check_shape(self, res, specs):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        want = {m["name"]: m["unit"] for m in specs}
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in res["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_workloads(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                plain = result(name, 0)
                self.check_shape(plain, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(plain["metrics"][m["name"]]["value"], 0, m["name"])
                first, second = result(name, 1), result(name, 1)
                self.check_shape(first, SPEC["per_layer"])
                for metric in EXACT:
                    self.assertEqual(first["metrics"][metric]["value"],
                                     second["metrics"][metric]["value"], metric)

    def test_counts_depend_on_the_seed(self):
        a = result("surface_d5", 1, seed=7)["metrics"]["surface.defects_per_shot"]["value"]
        b = result("surface_d5", 1, seed=8)["metrics"]["surface.defects_per_shot"]["value"]
        self.assertNotEqual(a, b)

    def test_fails_without_the_repository(self):
        # A directory holding only BENCHMARK.json and the benchmark cannot
        # build the program: the run must fail and print no result.
        bare = os.path.join(ROOT, ".bench_work", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("target", "__pycache__"))
        try:
            out = run("surface_d5", 0, cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
