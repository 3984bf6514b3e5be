"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Traced work counters must repeat exactly for one seed and follow the seed
on census-sweep; the metric names must be the ones BENCHMARK.json declares;
the zero-field oracle must reproduce the known stationary sets.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
import unittest

import run

run.pin_blas()

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

UNITS = dict(run.PER_LAYER)
# census pins plus a few draws: every census code path at a test's cost
CENSUS_JOBS = len(workloads.PINS) + 3


def counters(workload, seed, n_jobs=None):
    """Count-valued per-layer metrics of one traced pass."""
    scratch = run.BENCH_DIR / "_run"
    scratch.mkdir(exist_ok=True)
    outdir = tempfile.mkdtemp(dir=scratch)
    try:
        pkg = run.load_package()
        jobs = workloads.build_jobs(workload, seed, pkg, outdir)[:n_jobs]
        tracer, traced = run.trace_pass(workloads, tracing, pkg, jobs)
        values = run.per_layer(tracer, traced)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return {k: v for k, v in values.items()
            if UNITS[k] == "count" or k.endswith(("yield", "per_point",
                                                  "error_rate"))}


class ExactRepeat(unittest.TestCase):

    def test_census_sweep_counts_repeat_and_follow_the_seed(self):
        first = counters("census-sweep", 1, CENSUS_JOBS)
        self.assertEqual(first, counters("census-sweep", 1, CENSUS_JOBS))
        other = counters("census-sweep", 2, CENSUS_JOBS)
        for key in ("stationary.newton.converged", "model.gradient_rows"):
            self.assertNotEqual(first[key], other[key], key)
        self.assertEqual(first["stationary.census.points.uniform-umbilic"],
                         811)

    def test_phase_diagram_counts_repeat(self):
        first = counters("phase-diagram", 1)
        self.assertEqual(first, counters("phase-diagram", 1))
        self.assertEqual(first["maxwell.triple_point.calls.maxwell-2.6"], 2)
        self.assertEqual(first["maxwell.triple_point.calls.maxwell-2.7"], 2)
        self.assertGreater(first["maxwell.residual_evals"], 0)

    def test_render_export_counts_repeat(self):
        first = counters("render-export", 1)
        self.assertEqual(first, counters("render-export", 1))
        self.assertGreater(first["export.bytes"], 0)
        self.assertEqual(first["maxwell.triple_point.calls"], 0)


class Declaration(unittest.TestCase):

    def test_metric_and_workload_names_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]),
                         workloads.WORKLOADS)


class Inputs(unittest.TestCase):

    def test_draws_come_from_the_seed_alone(self):
        self.assertEqual(workloads.draws(5), workloads.draws(5))
        self.assertNotEqual(workloads.draws(5), workloads.draws(6))
        for beta, alpha in workloads.draws(7):
            self.assertTrue(2.0 <= beta < 4.0)
            self.assertAlmostEqual(sum(alpha), 1.0, places=12)
            self.assertGreaterEqual(min(alpha), workloads.FIELD_MARGIN - 1e-12)


class ZeroFieldOracle(unittest.TestCase):

    def test_known_stationary_sets(self):
        cases = ((1.5, {"minimum": 1}),
                 (4.0 * math.log(2.0), {"minimum": 4, "saddle": 3}),
                 (3.0, {"degenerate": 1, "minimum": 3}),
                 (3.5, {"maximum": 1, "minimum": 3, "saddle": 3}))
        for beta, expected in cases:
            points, kinds = oracle.zero_field_points(beta)
            counted = {k: kinds.count(k) for k in set(kinds)}
            self.assertEqual(counted, expected, beta)
            self.assertLess(oracle.stationarity_spread(
                beta, np.full(3, 1 / 3), points).max(), 1e-12)

    def test_duplicates_and_misses_are_reported(self):
        beta = 4.0 * math.log(2.0)
        points, kinds = oracle.zero_field_points(beta)
        self.assertEqual(oracle.compare_zero_field(beta, points, kinds), [])
        doubled = np.vstack([points, points[:1] + 1e-9])
        self.assertTrue(oracle.compare_zero_field(beta, doubled,
                                                  kinds + kinds[:1]))
        self.assertTrue(oracle.compare_zero_field(beta, points[1:], kinds[1:]))
        swapped = ["saddle" if k == "minimum" else k for k in kinds]
        self.assertTrue(oracle.compare_zero_field(beta, points, swapped))


if __name__ == "__main__":
    unittest.main()
