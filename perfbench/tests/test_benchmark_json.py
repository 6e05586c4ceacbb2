#!/usr/bin/env python3
"""Checks BENCHMARK.json against its format rules and against the metric
catalogue and workload list the perfbench binary prints.

Run through `python3 perfbench/run.py --self-test`, which builds the binary
first; the catalogue check is skipped when the binary is not built.
"""

import json
import os
import re
import subprocess
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BINARY = os.path.join(ROOT, ".bench_build", "perfbench")

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            self.bench = json.load(f)

    def test_top_level_keys(self):
        self.assertEqual(set(self.bench), {"command", "paths", "run_seconds",
                                           "workloads", "end_to_end",
                                           "per_layer"})
        self.assertLessEqual(
            os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")), 64 * 1024)

    def test_command_and_paths(self):
        cmd = self.bench["command"]
        self.assertTrue(1 <= len(cmd) <= 32)
        for arg in cmd:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/"), arg)
            self.assertNotIn("..", arg.split("/"), arg)
        paths = self.bench["paths"]
        self.assertTrue(1 <= len(paths) <= 16)
        for p in paths:
            self.assertRegex(p, PATH)
            self.assertTrue(os.path.isdir(os.path.join(ROOT, p)), p)
        self.assertTrue(any(cmd[1].startswith(p + "/") for p in paths))
        self.assertIsInstance(self.bench["run_seconds"], int)
        self.assertTrue(1 <= self.bench["run_seconds"] <= 60)

    def test_names_caps_and_uniqueness(self):
        workloads = self.bench["workloads"]
        e2e = self.bench["end_to_end"]
        layers = self.bench["per_layer"]
        self.assertTrue(2 <= len(workloads) <= 8)
        self.assertTrue(1 <= len(e2e) <= 16)
        self.assertTrue(1 <= len(layers) <= 128)
        for w in workloads:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertTrue(0 < len(w["why"]) <= 200)
            self.assertNotIn("\n", w["why"])
        for m in e2e:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        setup = [m for m in e2e if m["name"] == "setup_s"]
        self.assertEqual([(m["unit"], m["better"]) for m in setup],
                         [("s", "lower")])
        for m in layers:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in e2e + layers:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for group in (workloads, e2e + layers):
            names = [x["name"] for x in group]
            self.assertEqual(len(names), len(set(names)))

    @unittest.skipUnless(os.path.exists(BINARY), "perfbench not built")
    def test_matches_the_binary_catalogue(self):
        out = subprocess.run([BINARY, "--list-metrics"], check=True,
                             capture_output=True, text=True).stdout
        cat = json.loads(out)
        strip = lambda ms: [(m["name"], m["unit"]) for m in ms]
        self.assertEqual(strip(self.bench["end_to_end"]),
                         strip(cat["end_to_end"]))
        self.assertEqual(strip(self.bench["per_layer"]),
                         strip(cat["per_layer"]))
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         cat["workloads"])


if __name__ == "__main__":
    unittest.main()
