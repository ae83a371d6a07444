"""Self-tests of the benchmark, kept out of the repository's test suite.

    python3 bench/selftest.py          # span arithmetic and tracer
    python3 bench/selftest.py --smoke  # also every workload on tiny inputs

The file name does not match pytest's test_*.py pattern, so the tier-1
suite does not collect it.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import run  # noqa: E402
import tracer  # noqa: E402


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            ["root", 0.0, 10.0, -1],
            ["a", 1.0, 4.0, 0],
            ["b", 5.0, 9.0, 0],
            ["c", 6.0, 7.5, 2],  # grandchild: counts against b only
        ]
        self.assertEqual(tracer.self_times(spans), [3.0, 3.0, 2.5, 1.5])

    def test_overlapping_and_overhanging_children(self):
        spans = [
            ["root", 0.0, 10.0, -1],
            ["a", 2.0, 5.0, 0],
            ["b", 4.0, 6.0, 0],  # overlaps a: the union [2, 6] is covered
            ["c", 9.0, 12.0, 0],  # runs past the parent: clipped at 10
        ]
        self.assertEqual(tracer.self_times(spans)[0], 5.0)

    def test_summary_sums_calls(self):
        spans = [
            ["f", 0.0, 0.004, -1],
            ["g", 0.001, 0.002, 0],
            ["f", 0.010, 0.012, -1],
        ]
        summary = tracer.summarize(spans)
        self.assertEqual(summary["f"]["calls"], 2)
        self.assertAlmostEqual(summary["f"]["self_ms"], 5.0)
        self.assertAlmostEqual(summary["f"]["total_ms"], 6.0)
        self.assertAlmostEqual(summary["g"]["self_ms"], 1.0)


class Recorder(unittest.TestCase):
    def test_wrap_records_parent_and_counts(self):
        rec = tracer.Recorder()
        inner = rec.wrap(lambda x: x + 1, "inner", lambda r, res, a, k: r.add("seen", res))
        outer = rec.wrap(lambda x: inner(x) * 2, "outer")
        self.assertEqual(outer(1), 4)
        self.assertEqual([(s[0], s[3]) for s in rec.spans], [("outer", -1), ("inner", 0)])
        self.assertEqual(rec.counts, {"seen": 2})
        rec.enabled = False
        outer(1)
        self.assertEqual(len(rec.spans), 2)

    def test_install_wraps_every_binding_and_reports_missing(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from dtq import littles, observer

        rec = tracer.Recorder()
        spans = (
            ("observer.time_averages", "dtq.observer", "time_averages", None),
            ("gone.function", "dtq.observer", "no_such_function", None),
            ("gone.module", "dtq.no_such_module", "f", None),
        )
        originals = observer.time_averages
        try:
            missing = tracer.install(rec, spans)
            self.assertEqual(missing, ["gone.function", "gone.module"])
            self.assertIs(littles.time_averages, observer.time_averages)
            self.assertIsNot(observer.time_averages, originals)
        finally:
            for module in (observer, littles):
                module.time_averages = originals


class Smoke(unittest.TestCase):
    """Every workload, untraced and traced, on tiny inputs."""

    def test_every_workload(self):
        with open(run.SPEC) as fh:
            spec = json.load(fh)
        for trace in (0, 1):
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                         "--smoke", "--trace", str(trace)],
                        cwd=ROOT, capture_output=True, text=True, timeout=170,
                    )
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    last = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(last["correct"], proc.stdout)
                    want = spec["per_layer" if trace else "end_to_end"]
                    self.assertEqual(list(last["metrics"]), [m["name"] for m in want])


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    if smoke:
        sys.argv.remove("--smoke")
    else:
        del Smoke
    unittest.main()
