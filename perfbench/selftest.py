"""Smoke-size self-tests of the benchmark.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks that

* ``BENCHMARK.json`` declares exactly the workloads of ``workloads.py``
  and the metrics of ``metrics.py``, with their units;
* every workload runs through the one benchmark command, untraced and
  traced, prints every declared metric with its unit, and passes its
  correctness check;
* the correctness checker rejects a fabricated wrong final and a gapped
  event stream;
* the layer split adds up to the wall time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMOKE_SECONDS = "2"


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _event(seq, kind, payload):
    return SimpleNamespace(seq=seq, type=kind, payload=payload)


def _stream(estimate, *, ci=(9.0, 11.0), achieved=True, error=0.01,
            exact=False, seqs=(1, 2, 3, 4, 5)):
    final = {"statistic": "mean", "estimate": estimate,
             "error": 0.0 if exact else error,
             "ci_low": estimate if exact else ci[0],
             "ci_high": estimate if exact else ci[1],
             "achieved": achieved, "iteration": 0 if exact else 2,
             "sample_fraction": 1.0 if exact else 0.1,
             "sample_size": 100, "population_size": 1000,
             "cost_total_seconds": 0.0}
    kinds = [("state", {"state": "pending"}),
             ("state", {"state": "running"}),
             ("snapshot", dict(final, achieved=False, error=0.5)),
             ("final", final),
             ("state", {"state": "done"})]
    return [_event(seq, kind, payload)
            for seq, (kind, payload) in zip(seqs, kinds)]


class CheckerTest(unittest.TestCase):
    TRUTH = {"mean": 10.0}

    def test_accepts_a_good_stream(self):
        verdict = check.check_session(_stream(10.2), self.TRUTH, 0.02)
        self.assertTrue(verdict.ok, verdict.problems)
        self.assertEqual((verdict.covered, verdict.estimates), (1, 1))

    def test_rejects_a_wrong_exact_final(self):
        verdict = check.check_session(_stream(10.5, exact=True),
                                      self.TRUTH, 0.02)
        self.assertFalse(verdict.ok)
        self.assertIn("exact-fallback", verdict.problems[0])

    def test_rejects_achieved_above_sigma(self):
        verdict = check.check_session(_stream(10.2, error=0.05),
                                      self.TRUTH, 0.02)
        self.assertFalse(verdict.ok)

    def test_rejects_a_gapped_stream(self):
        verdict = check.check_session(_stream(10.2, seqs=(1, 2, 4, 5, 6)),
                                      self.TRUTH, 0.02)
        self.assertFalse(verdict.ok)
        self.assertIn("not contiguous", verdict.problems[0])

    def test_counts_a_missed_bound_without_failing(self):
        verdict = check.check_session(_stream(12.0, ci=(11.5, 12.5)),
                                      self.TRUTH, 0.02)
        self.assertTrue(verdict.ok)
        self.assertEqual(verdict.covered, 0)


class LayerSplitTest(unittest.TestCase):
    def test_layers_and_remainder_add_up_to_wall(self):
        spans = [
            # client request 0-10 around a server handle 1-9 that parks
            # 2-8 while a runner thread computes a pilot 3-7.
            {"id": 100, "parent": None, "name": "service.transport",
             "t0": 0.0, "t1": 10.0, "busy": None, "args": {}},
            {"id": 1, "parent": 100, "name": "service.handle",
             "t0": 1.0, "t1": 9.0, "busy": None, "args": {}},
            {"id": 2, "parent": 1, "name": "service.poll_park",
             "t0": 2.0, "t1": 8.0, "busy": None, "args": {}},
            {"id": 3, "parent": None, "name": "pilot",
             "t0": 3.0, "t1": 7.0, "busy": None, "args": {}},
            {"id": 4, "parent": 3, "name": "kernel.resample",
             "t0": 4.0, "t1": 5.0, "busy": None, "args": {}},
        ]
        split = tracing.layer_split(spans, 0.0, 12.0)
        claimed = split["claimed"]
        self.assertAlmostEqual(claimed["service"], 4.0)
        self.assertAlmostEqual(claimed["core.ssabe"], 4.0)
        self.assertAlmostEqual(split["unattributed"], 4.0)
        self.assertAlmostEqual(sum(claimed.values())
                               + split["unattributed"], split["wall"])
        self.assertAlmostEqual(spans[1]["self"], 2.0)


class DeclarationTest(unittest.TestCase):
    def test_benchmark_json_matches_the_catalogue(self):
        bench = _benchmark()
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: (m["unit"], m["better"], m["bound"])
                          for m in bench["end_to_end"]},
                         metrics.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"])
                          for m in bench["per_layer"]},
                         {name: spec[:2]
                          for name, spec in metrics.PER_LAYER.items()})


class CommandTest(unittest.TestCase):
    def _run(self, workload, trace):
        command = _benchmark()["command"] + [
            "--workload", workload, "--seed", "7",
            "--seconds", SMOKE_SECONDS, "--trace", str(trace)]
        out = subprocess.run(command, cwd=ROOT, capture_output=True,
                             text=True, timeout=600)
        self.assertEqual(out.returncode, 0, out.stderr[-3000:])
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_every_workload_prints_every_metric(self):
        bench = _benchmark()
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            for workload in workloads.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result = self._run(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {name: m["unit"]
                         for name, m in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in declared})


if __name__ == "__main__":
    unittest.main()
