"""Workload job lists, their seeded inputs, and the checks on every output.

A workload is a fixed list of jobs that one caller runs in a closed loop,
each job starting when the previous one has finished.  A job's timed part
is the package call alone (plus ``export.read_csv`` of a written CSV, which
is part of the render and phase-diagram work); its checks run untimed.

census-sweep  ``census(ModelParams(beta, alpha))`` at default settings on
              N_DRAWS seeded draws (beta uniform in [2, 4], alpha uniform
              on the simplex with margin 0.03), after four named pins.
phase-diagram CLI ``maxwell`` at four temperatures and two labelled slices.
render-export CLI surface, slice, potential, critical and census jobs whose
              output is rendered or exported and then read back.
"""

from __future__ import annotations

import io
import json
import math
import os
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

import numpy as np

import oracle

WORKLOADS = ("census-sweep", "phase-diagram", "render-export")

N_DRAWS = 100
FIELD_MARGIN = 0.03
BETA_EW = 4.0 * math.log(2.0)
# name, beta, field (None: zero field)
PINS = (
    ("uniform-1.5", 1.5, None),
    ("uniform-ew", BETA_EW, None),
    ("uniform-umbilic", 3.0, None),
    ("tilted-3.2595", 3.2595, (0.199, 0.667, 0.134)),
)
# Square-free generator of the R3 Kronecker sequence (root of x^4 = x + 1).
_R3 = 1.2207440846057596
# Depth equality demanded of the three minimizers of a triple point.
TRIPLE_DEPTH_TOL = 1e-8
_SVG = "{http://www.w3.org/2000/svg}"

# A failure is (category, message).  "census" failures are stationary-point
# sets that disagree with the independent checks in ``oracle``; all other
# failures are "output" failures (exception, exit code, malformed output).
CENSUS, OUTPUT = "census", "output"


@dataclass
class Job:
    name: str
    group: str          # draw | pin | maxwell | cells | svg | records | mesh
    run: object         # callable() -> result, timed
    check: object       # callable(result, info) -> failures, untimed
    output: str = None  # file the job writes; removed before each run


@dataclass
class JobResult:
    name: str
    group: str
    seconds: float      # wall time scaled to the reference speed
    failures: list
    info: dict = field(default_factory=dict)
    wall: float = 0.0   # wall time as measured


def draws(seed: int, n: int = N_DRAWS) -> list:
    """(beta, alpha) pairs generated from the seed alone.

    A Kronecker sequence under a seeded uniform shift (Cranley-Patterson
    rotation): each draw is uniform on [2, 4] x simplex, and every run
    covers that box evenly, so runs with different seeds see the same mix
    of cheap and stalling census regimes.
    """
    shift = np.random.default_rng(seed).random(3)
    steps = _R3 ** -np.arange(1.0, 4.0)
    u = np.mod(shift + np.arange(1, n + 1)[:, None] * steps, 1.0)
    beta = 2.0 + 2.0 * u[:, 0]
    s = np.sqrt(u[:, 1])
    tri = np.stack([1.0 - s, s * (1.0 - u[:, 2]), s * u[:, 2]], axis=-1)
    alpha = (1.0 - 3.0 * FIELD_MARGIN) * tri + FIELD_MARGIN
    alpha[:, 2] = 1.0 - alpha[:, 0] - alpha[:, 1]
    return [(float(b), tuple(float(x) for x in a))
            for b, a in zip(beta, alpha)]


def build_jobs(workload: str, seed: int, pkg, outdir: str) -> list:
    if workload == "census-sweep":
        return _census_jobs(seed, pkg)
    if workload == "phase-diagram":
        return _phase_jobs(pkg, outdir)
    if workload == "render-export":
        return _render_jobs(pkg, outdir)
    raise ValueError(f"unknown workload {workload!r}")


# Calibration: a fixed mix of interpreter and numpy work, independent of
# the package, timed around every job.  The shared host's CPU speed drifts
# by up to 2x over seconds to minutes (other tenants), which moves a job's
# wall time and the calibration's alike; a job's reported seconds are its wall
# time times CAL_REF_S / (mean calibration time before and after it), i.e.
# seconds at the speed where the calibration takes CAL_REF_S (the quiet
# speed of the 2-core host the benchmark was written on).
CAL_REF_S = 5.3e-3
_CAL_ARRAY = np.arange(1.0, 100001.0)


def calibrate() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(60000):
        total += i * i
    table = {}
    for i in range(20000):
        table[i] = float(i)
    for _ in range(5):
        np.log(_CAL_ARRAY).sum()
    return time.perf_counter() - t0


def scaled(wall: float, before: float, after: float) -> float:
    """Wall time at the reference speed, from the calibrations around it."""
    return wall * CAL_REF_S / (0.5 * (before + after))


def run_jobs(jobs, tracer=None) -> list:
    """Run the jobs in order, each between two calibrations."""
    results = []
    before = calibrate()
    for job in jobs:
        result = run_job(job, tracer)
        after = calibrate()
        result.wall = result.seconds
        result.seconds = scaled(result.wall, before, after)
        results.append(result)
        before = after
    return results


def run_job(job: Job, tracer=None) -> JobResult:
    """Run one job, timing the package call and checking its output."""
    if job.output and os.path.exists(job.output):
        os.remove(job.output)
    if tracer is not None:
        tracer.job, tracer.active = job.name, True
    t0 = time.perf_counter()
    try:
        result = job.run()
    except Exception as exc:  # a failing job is counted, the pass goes on
        seconds = time.perf_counter() - t0
        return JobResult(job.name, job.group, seconds,
                         [(OUTPUT, f"{type(exc).__name__}: {exc}")])
    finally:
        if tracer is not None:
            tracer.active = False
    seconds = time.perf_counter() - t0
    info = {}
    try:
        failures = job.check(result, info)
    except Exception as exc:
        failures = [(OUTPUT, f"check raised {type(exc).__name__}: {exc}")]
    return JobResult(job.name, job.group, seconds, failures, info)


# ---------------------------------------------------------------------------
# census-sweep
# ---------------------------------------------------------------------------

def _census_check(beta, alpha, zero_field):
    def check(cens, info):
        nus = [p.nu.array for p in cens.points]
        found = [p.kind.value for p in cens.points]
        info["points"] = len(nus)
        problems = oracle.check_census_points(beta, alpha, nus, found,
                                              cens.degenerate_warning)
        if zero_field:
            problems += oracle.compare_zero_field(beta, nus, found)
        return [(CENSUS, p) for p in problems]
    return check


def _census_jobs(seed, pkg):
    pl = pkg.pl
    jobs = []
    cases = list(PINS) + [(f"draw-{k}", beta, a)
                          for k, (beta, a) in enumerate(draws(seed))]
    for name, beta, a in cases:
        zero_field = a is None
        alpha = (pl.AprioriMeasure.uniform() if zero_field
                 else pl.AprioriMeasure(*a))
        params = pl.ModelParams(beta, alpha)
        jobs.append(Job(
            name, "draw" if name.startswith("draw-") else "pin",
            run=lambda params=params: pkg.pl.census(params),
            check=_census_check(beta, alpha.array, zero_field)))
    return jobs


# ---------------------------------------------------------------------------
# CLI jobs
# ---------------------------------------------------------------------------

def _cli_job(pkg, name, group, argv, output):
    argv = list(argv) + ["--out", output]
    is_csv = output.endswith(".csv")

    def run():
        code = pkg.cli.main(argv)
        loaded = pkg.export.read_csv(output) if is_csv and code == 0 else None
        return code, loaded

    def check(result, info):
        code, loaded = result
        if code != 0:
            return [(OUTPUT, f"exit code {code}")]
        with open(output) as fh:
            text = fh.read()
        info["format"] = os.path.splitext(output)[1][1:]
        return _check_output(pkg, group, output, text, loaded, info)

    return Job(name, group, run, check, output)


def _check_output(pkg, group, path, text, loaded, info):
    if path.endswith(".csv"):
        kind, records = loaded
        info["records"] = 2 * len(records)  # written, then read back
        out = io.StringIO()
        pkg.export.write_csv(out, kind, records)
        failures = [] if out.getvalue() == text else [
            (OUTPUT, "CSV re-written from read_csv differs")]
        return failures + _check_records(pkg, kind, records)
    if path.endswith(".json"):
        data = json.loads(text)
        info["records"] = len(data)
        kind = data[0]["kind"] if data else None
        return _check_records(pkg, kind, data)
    if path.endswith(".svg"):
        return _check_svg(text, labelled=group == "cells")
    if path.endswith(".obj"):
        return _check_obj(text)
    return [(OUTPUT, f"no check for {path}")]


def _is_minimizer_slot(kind, column):
    return kind == "maxwell_point" and column[0] == "m" and "_nu" in column


def _check_records(pkg, kind, records):
    if not records:
        return [(OUTPUT, "no records written")]
    failures = []
    columns = [c for c, typ in pkg.export.SCHEMAS[kind] if typ is float]
    for rec in records:
        for c in columns:
            value = rec.get(c)
            if value is None and _is_minimizer_slot(kind, c):
                continue
            if not (isinstance(value, float) and math.isfinite(value)):
                failures.append((OUTPUT, f"non-finite {c} = {value!r}"))
                return failures
    if kind == "maxwell_point":
        failures += _check_maxwell(records)
    elif kind == "critical_temps":
        failures += _check_critical(records[0])
    elif kind == "census":
        beta = records[0]["beta"]
        nus = [[r["nu1"], r["nu2"], r["nu3"]] for r in records]
        found = [r["kind"] for r in records]
        failures += [(CENSUS, p) for p in
                     oracle.compare_zero_field(beta, nus, found)]
    return failures


def _check_maxwell(records):
    beta = records[0]["beta"]
    triples = [r for r in records if r["section"] == "triple"]
    if not 18.0 / 7.0 < beta < BETA_EW:
        return [] if not triples else [(OUTPUT, "unexpected triple record")]
    if len(triples) != 1 or triples[0]["n_minimizers"] != 3:
        return [(OUTPUT, f"{len(triples)} triple records, expected one "
                         f"with three minimizers")]
    rec = triples[0]
    alpha = [rec["alpha1"], rec["alpha2"], rec["alpha3"]]
    nus = [[rec[f"m{k}_nu{c}"] for c in (1, 2, 3)] for k in (1, 2, 3)]
    values = oracle.free_energy(beta, alpha, nus)
    if values.max() - values.min() > TRIPLE_DEPTH_TOL:
        return [(OUTPUT, f"triple-point depths differ by "
                         f"{values.max() - values.min():.3g}")]
    return []


def _check_critical(rec):
    ordered = [rec[k] for k in ("butterfly", "cross", "ellis_wang", "touch",
                                "umbilic")]
    exact = (rec["butterfly"] == 18.0 / 7.0 and rec["ellis_wang"] == BETA_EW
             and rec["umbilic"] == 3.0)
    near = abs(rec["cross"] - 2.74564) < 1e-4 and abs(rec["touch"] - 2.8024) < 1e-4
    if ordered != sorted(ordered) or not (exact and near):
        return [(OUTPUT, f"critical temperatures wrong: {ordered}")]
    return []


def _check_svg(text, labelled):
    root = ET.fromstring(text)
    if not list(root.iter(_SVG + "polyline")):
        return [(OUTPUT, "SVG has no curves")]
    if labelled:
        labels = [t.text for t in root.iter(_SVG + "text")
                  if t.text and t.text.isdigit()]
        if not labels:
            return [(OUTPUT, "labelled slice has no numeric label")]
    return []


def _check_obj(text):
    n_vertices, n_faces = 0, 0
    for line in text.splitlines():
        head, _, rest = line.partition(" ")
        if head == "v":
            if not all(math.isfinite(float(x)) for x in rest.split()):
                return [(OUTPUT, f"non-finite vertex {line!r}")]
            n_vertices += 1
        elif head == "f":
            if not all(1 <= int(i) <= n_vertices for i in rest.split()):
                return [(OUTPUT, f"face index out of range {line!r}")]
            n_faces += 1
    return [] if n_faces else [(OUTPUT, "mesh has no faces")]


def _phase_jobs(pkg, outdir):
    jobs = [_cli_job(pkg, f"maxwell-{b}", "maxwell", ["maxwell", "--beta", b],
                     os.path.join(outdir, f"maxwell-{b}.csv"))
            for b in ("2.4", "2.6", "2.7", "3.0")]
    jobs.append(_cli_job(
        pkg, "slice-2.3-cells", "cells",
        ["slice", "--beta", "2.3", "--format", "svg", "--label-cells"],
        os.path.join(outdir, "slice-2.3-cells.svg")))
    jobs.append(_cli_job(
        pkg, "slice-2.75-hexagon", "cells",
        ["slice", "--beta", "2.75", "--format", "svg", "--label-cells",
         "--extent", "0.02", "--samples", "6000"],
        os.path.join(outdir, "slice-2.75-hexagon.svg")))
    return jobs


def _render_jobs(pkg, outdir):
    tilted = ["--beta", "2.6", "--alpha", "0.345,0.345,0.31"]
    table = (
        ("surface-obj", "mesh", ["surface", "--format", "obj", "--grid", "64",
                                 "--beta-max", "4"], "obj"),
        ("surface-csv", "records", ["surface", "--grid", "128",
                                    "--beta-max", "4"], "csv"),
        ("slice-2.9-csv", "records", ["slice", "--beta", "2.9"], "csv"),
        ("slice-2.9-json", "records", ["slice", "--beta", "2.9",
                                       "--format", "json"], "json"),
        ("potential-csv", "records", ["potential"] + tilted, "csv"),
        ("potential-svg", "svg", ["potential"] + tilted + ["--format", "svg"],
         "svg"),
        ("critical", "records", ["critical", "--records"], "csv"),
        ("census-ew", "records", ["census", "--records", "--beta",
                                  repr(BETA_EW), "--uv", "0,0"], "csv"),
    )
    return [_cli_job(pkg, name, group, argv,
                     os.path.join(outdir, f"{name}.{ext}"))
            for name, group, argv, ext in table]

