"""Smoke test of the benchmark itself: a tiny size of every workload.

    python3 -m unittest discover -s perfbench -p "test_*.py"

Each workload runs two untraced and two traced passes at a tiny size.  The
test requires every op to pass its checks, the frozen references to have
been consulted, and the metric names to agree with BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


class TinyWorkloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, run.SRC)
        with open(run.REFERENCES, encoding="utf-8") as fh:
            cls.refs = json.load(fh)
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            cls.bench = json.load(fh)
        os.makedirs(run.OUT_DIR, exist_ok=True)

    def tiny_run(self, name: str) -> run.Run:
        args = argparse.Namespace(workload=name, seed=workloads.DEFAULT_SEED,
                                  seconds=0, trace=1)
        r = run.Run(args, self.refs, run.OUT_DIR, tiny=True)
        r.measure()
        self.assertEqual(r.problems, [])
        # at least three passes, in whole untraced-traced pairs
        self.assertEqual((len(r.walls), len(r.traced_walls)), (2, 2))
        self.assertEqual((r.failed, r.attempted), (0, 4 * len(r.wl.ops)))
        self.assertEqual(list(r.end_to_end()), [m for m, _ in run.END_TO_END])
        self.assertEqual(list(r.per_layer()), [m for m, _ in run.PER_LAYER])
        return r

    def test_solve_imitation(self):
        r = self.tiny_run("solve-imitation")
        self.assertEqual(r.traced_counters["reference_checks"], len(r.wl.ops))
        self.assertGreater(r.per_layer()["solving.repeat_calls"], 0)

    def test_solve_general(self):
        r = self.tiny_run("solve-general")
        solves = sum(kind == "solve" for kind, _ in r.wl.ops)
        self.assertEqual(r.traced_counters["reference_checks"], solves)
        self.assertGreater(r.per_layer()["solving.fully_mixed_ne.calls"], 0)

    def test_scan(self):
        r = self.tiny_run("scan")
        self.assertGreaterEqual(r.traced_counters["reference_checks"], len(r.wl.ops))
        m = r.per_layer()
        self.assertEqual(m["solving.busy_s"], 0)
        self.assertEqual(m["sampling.busy_s"], 0)

    def test_sample(self):
        r = self.tiny_run("sample")
        m = r.per_layer()
        self.assertEqual(m["solving.busy_s"], 0)
        self.assertGreater(m["sampling.bits_per_sample_excess"], 0)
        self.assertGreater(r.reported()["samples_per_s"], 0)

    def test_metric_names_match_benchmark_json(self):
        for section, names in (("end_to_end", run.END_TO_END),
                               ("per_layer", run.PER_LAYER)):
            declared = [(m["name"], m["unit"]) for m in self.bench[section]]
            self.assertEqual(declared, list(names))
            for name, _ in names:
                self.assertRegex(name, NAME)
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(workloads.NAMES))


if __name__ == "__main__":
    unittest.main()
