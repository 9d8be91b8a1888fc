#!/usr/bin/env python3
"""The benchmark's own test, on tiny sizes per workload (--smoke).

    python3 perfbench/test_perfbench.py

Checks that BENCHMARK.json keeps its contract, that every per-layer metric
is measured by a gated workload and a missing one is an error, the binary's
outcome arithmetic, that every named metric prints with its unit and the
output parses, that traced runs write spans whose self times are
non-negative, that same-seed runs agree on the digest,
that flow_jobs=4 gives the digest of flow_jobs=1, and that the benchmark
refuses to run in a directory without the sources.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
os.chdir(ROOT)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + list(args),
                          capture_output=True, text=True, timeout=600)
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Contract(unittest.TestCase):
    def test_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"]))

    def test_every_layer_is_measured_by_a_gated_workload(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        per_layer = {m["name"] for m in spec["per_layer"]}
        self.assertEqual(set(run.LAYERS), set(run.WORKLOADS))
        for w, names in run.LAYERS.items():
            self.assertLessEqual(set(names), per_layer, w)
        gated = set()
        for w in spec["workloads"]:
            gated |= set(run.LAYERS[w["name"]])
        self.assertEqual(gated, per_layer)

    def test_a_missing_layer_is_an_error(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        unit = {m["name"]: m["unit"] for m in spec["per_layer"]}
        spans = os.path.join(run.build_dir(), "selftest-spans.jsonl")
        os.makedirs(run.build_dir(), exist_ok=True)
        with open(spans, "w") as f:
            f.write('{"run":"r"}\n{"run":"r","id":0,"parent":-1,"start_ns":1,"end_ns":2}\n')
        names = run.LAYERS["socket_loopback"]
        out = {"correct": True, "attempted": 1, "failed": 0,
               "workload": "socket_loopback", "spans_path": spans,
               "layers": {n: {"value": 1.0, "unit": unit[n]} for n in names}}
        self.assertTrue(run.contract_result(spec, out, True)["correct"])
        del out["layers"][names[0]]
        self.assertFalse(run.contract_result(spec, out, True)["correct"])


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_result(self, out, wanted):
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"])
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(out["failed"], 0)
        self.assertEqual(set(out["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = out["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertTrue(math.isfinite(got["value"]))

    def test_every_workload_untraced(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                proc = bench("--workload", w, "--seed", "3", "--seconds", "1",
                             "--trace", "0", "--smoke")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                out = last_json(proc)
                self.check_result(out, self.spec["end_to_end"])
                for m in out["metrics"].values():
                    self.assertGreater(m["value"], 0.0)

    def test_every_workload_traced(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                proc = bench("--workload", w, "--seed", "3", "--seconds", "1",
                             "--trace", "1", "--smoke")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.check_result(last_json(proc), self.spec["per_layer"])
                count, min_self = run.span_self_times(run.spans_path(w))
                self.assertGreater(count, 0)
                self.assertGreaterEqual(min_self, 0)

    def test_outcome_arithmetic(self):
        proc = subprocess.run([self.binary, "selftest"], capture_output=True,
                              text=True, timeout=60)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def run_binary(self, workload, seed, *extra):
        return run.run_binary(self.binary, workload, seed, 0.5, False, True, extra)

    def test_same_seed_runs_agree(self):
        for w in ("paper2k", "packet_flood"):
            with self.subTest(workload=w):
                a, b = self.run_binary(w, 5), self.run_binary(w, 5)
                self.assertEqual(a["digest"], b["digest"])
                self.assertNotEqual(a["digest"], self.run_binary(w, 6)["digest"])

    def test_flow_jobs_do_not_change_the_run(self):
        serial = self.run_binary("flow20k_attack", 7, "--flow-jobs", "1")
        sharded = self.run_binary("flow20k_attack", 7, "--flow-jobs", "4")
        self.assertTrue(serial["correct"] and sharded["correct"])
        self.assertEqual(serial["digest"], sharded["digest"])

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(run.build_dir(), "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "paper2k", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, env=env,
                              capture_output=True, text=True, timeout=170)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
