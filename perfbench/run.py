"""Benchmark of the potts-landscape package.

Run from the repository root:

    python3 perfbench/run.py --workload census-sweep --seed 1 --seconds 10 --trace 0

The package is imported from ``src/`` of the same checkout and driven
through its public entry points, ``census(...)`` and
``potts_landscape.cli.main(argv)``, in this one process with BLAS pinned to
one thread.  With ``--trace 0`` the run repeats the workload's job list
until ``--seconds`` have passed and reports the end-to-end metrics; with
``--trace 1`` it runs the first REFERENCE_JOBS jobs untraced, then one
traced pass, and reports the per-layer metrics.  Every output is checked.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
carry the run metadata and the per-pass details, and the same record is
written to ``perfbench/results/``.

``failed`` counts job runs with any failed check; ``correct`` is false when
a check other than a census-completeness check fails (an exception, an exit
code, a malformed output).  Census-completeness failures (points missing,
extra or misclassified against the independent oracle) are failed
operations but leave ``correct`` true: the lattice census is known to have
them (ROADMAP item 2), and they are measured here, not hidden.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

T_START = time.perf_counter()
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SUBMODULES = ("errors", "model", "rootfind", "stationary", "bifurcation",
              "critical", "maxwell", "regions", "svg", "export", "cli")
SETUP_REPEATS = 7
REFERENCE_JOBS = 24
# Stop starting passes once another one would end after this many seconds.
RUN_LIMIT_S = 150.0

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"))

PINS = ("uniform-1.5", "uniform-ew", "uniform-umbilic", "tilted-3.2595")
CLI_COMMANDS = ("slice", "surface", "census", "critical", "maxwell",
                "potential")
SPAN_LAYERS = ("stationary", "bifurcation", "critical", "maxwell", "regions",
               "svg", "export", "cli")
BASELINE_JOBS = ("maxwell-2.6", "slice-2.75-hexagon", "potential-svg",
                 "surface-obj")
PER_LAYER = (
    (("census_ms_p50", "ms"), ("census_ms_p90", "ms"),
     ("census_samples", "count"), ("maxwell_s", "s"), ("cells_s", "s"),
     ("svg_s", "s"), ("records_per_s", "1/s"), ("error_rate", "ratio"))
    + (("model.gradient_rows", "count"), ("model.hessian_rows", "count"),
       ("model.free_energy_rows", "count"),
       ("model.stationary_value_rows", "count"), ("model.kernel_s", "s"))
    + (("stationary.census.calls", "count"), ("stationary.census.busy_s", "s"),
       ("stationary.newton.seeds", "count"),
       ("stationary.newton.converged", "count"),
       ("stationary.newton.yield", "ratio"))
    + tuple((f"stationary.census.ms.{p}", "ms") for p in PINS)
    + tuple((f"stationary.census.points.{p}", "count") for p in PINS)
    + (("bifurcation.slice_curves.busy_s", "s"),
       ("bifurcation.slice_curves.samples", "count"),
       ("bifurcation.surface_patches.busy_s", "s"),
       ("critical.all_critical_temps.busy_s", "s"),
       ("maxwell.triple_point.calls", "count"),
       ("maxwell.triple_point.busy_s", "s"),
       ("maxwell.triple_point.calls.maxwell-2.6", "count"),
       ("maxwell.triple_point.calls.maxwell-2.7", "count"),
       ("maxwell.triple_point.ms.2.6", "ms"),
       ("maxwell.coexistence_curve.busy_s", "s"),
       ("maxwell.coexistence_curve.points", "count"),
       ("maxwell.coexistence_curve.ms.2.6", "ms"),
       ("maxwell.residual_evals", "count"),
       ("maxwell.residual_evals_per_point", "ratio"),
       ("maxwell.track_segment_pair.busy_s", "s"),
       ("regions.label_regions.busy_s", "s"), ("regions.regions", "count"),
       ("regions.unresolved", "count"),
       ("svg.contour_segments.busy_s", "s"),
       ("svg.contour_segments.segments", "count"),
       ("svg.render_curves.busy_s", "s"),
       ("export.write_csv.busy_s", "s"), ("export.write_json.busy_s", "s"),
       ("export.read_csv.busy_s", "s"), ("export.records", "count"),
       ("export.bytes", "count"))
    + tuple((f"cli.{c}.{m}", "s") for c in CLI_COMMANDS
            for m in ("busy_s", "self_s"))
    + tuple((f"{layer}.{m}", "s") for layer in SPAN_LAYERS
            for m in ("busy_s", "self_s"))
    + tuple((f"job.{j}.ms", "ms") for j in BASELINE_JOBS)
    + (("trace.pass_s", "s"), ("trace.overhead", "ratio"))
)


def pin_blas() -> dict:
    """One BLAS thread; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def load_package() -> SimpleNamespace:
    """Import the package afresh from ``src/`` of this checkout."""
    for name in [m for m in sys.modules
                 if m == "potts_landscape" or m.startswith("potts_landscape.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    importlib.invalidate_caches()
    modules = {"package": importlib.import_module("potts_landscape")}
    for sub in SUBMODULES:
        modules[sub] = importlib.import_module(f"potts_landscape.{sub}")
    origin = Path(modules["package"].__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"potts_landscape imported from {origin}, "
                          f"not from {ROOT / 'src'}")
    return SimpleNamespace(pl=modules["package"], cli=modules["cli"],
                           export=modules["export"], modules=modules)


def set_up(workloads, workload, seed, outdir):
    """Import the package and build the job list; the median of
    SETUP_REPEATS timed set-ups is setup_s.  The untimed first one also
    compiles the bytecode of a fresh checkout."""
    load_package()
    times = []
    before = workloads.calibrate()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pkg = load_package()
        jobs = workloads.build_jobs(workload, seed, pkg, outdir)
        wall = time.perf_counter() - t0
        after = workloads.calibrate()
        times.append(workloads.scaled(wall, before, after))
        before = after
    return pkg, jobs, statistics.median(times)


def run_passes(workloads, jobs, seconds):
    passes = []
    t0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        passes.append(workloads.run_jobs(jobs))
        now = time.perf_counter()
        if now - t0 >= seconds or now - t0 + (now - p0) > RUN_LIMIT_S:
            return passes


def median_pass(passes):
    """One result per job, timed by its median over the passes: contention
    on a shared host comes in bursts of a few seconds, which a per-job
    median over three or more passes sets aside."""
    return [dataclasses.replace(col[0], seconds=statistics.median(
        r.seconds for r in col)) for col in zip(*passes)]


def percentile(values, q):
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pass_details(results, tracer=None) -> dict:
    """Per-pass figures by job group."""
    def seconds(pred):
        return sum(r.seconds for r in results if pred(r))

    latencies = [r.seconds * 1e3 for r in results if r.group == "draw"]
    if not latencies and tracer is not None:
        latencies = [dt * 1e3 for (job, key), dts in tracer.by_job.items()
                     if key == "stationary.census" for dt in dts]
    records = sum(r.info.get("records", 0) for r in results)
    record_s = seconds(lambda r: r.info.get("records", 0) > 0)
    failed = sum(bool(r.failures) for r in results)
    return {
        "pass_s": seconds(lambda r: True),
        "census_ms_p50": percentile(latencies, 50),
        "census_ms_p90": percentile(latencies, 90),
        "census_samples": len(latencies),
        "maxwell_s": seconds(lambda r: r.group == "maxwell"),
        "cells_s": seconds(lambda r: r.group == "cells"),
        "svg_s": seconds(lambda r: r.info.get("format") == "svg"),
        "records_per_s": records / record_s if record_s else 0.0,
        "error_rate": failed / len(results),
    }


def trace_pass(workloads, tracing, pkg, jobs):
    """One traced pass over the jobs: (tracer, job results)."""
    tracer = tracing.Tracer()
    tracer.install(pkg.modules)
    return tracer, workloads.run_jobs(jobs, tracer)


def per_layer(tracer, traced) -> dict:
    """Every per-layer metric except trace.overhead, from one traced pass,
    in wall time like the spans."""
    traced = [dataclasses.replace(r, seconds=r.wall) for r in traced]
    by_name = {r.name: r for r in traced}
    busy, calls, counts = tracer.busy, tracer.calls, tracer.counts

    def job_median_ms(job, key):
        dts = tracer.by_job.get((job, key), [])
        return statistics.median(dts) * 1e3 if dts else 0.0

    out = dict(pass_details(traced, tracer))
    del out["pass_s"]
    for kind in ("gradient", "hessian", "free_energy", "stationary_value"):
        out[f"model.{kind}_rows"] = counts[f"model.{kind}_rows"]
    out["model.kernel_s"] = tracer.layer_busy["model"]
    out["stationary.census.calls"] = calls["stationary.census"]
    out["stationary.census.busy_s"] = busy["stationary.census"]
    seeds = counts["stationary.newton.seeds"]
    out["stationary.newton.seeds"] = seeds
    out["stationary.newton.converged"] = counts["stationary.newton.converged"]
    out["stationary.newton.yield"] = (
        counts["stationary.newton.converged"] / seeds if seeds else 0.0)
    for pin in PINS:
        r = by_name.get(pin)
        out[f"stationary.census.ms.{pin}"] = r.seconds * 1e3 if r else 0.0
        out[f"stationary.census.points.{pin}"] = (
            r.info.get("points", 0) if r else 0)
    for key in ("bifurcation.slice_curves", "bifurcation.surface_patches",
                "critical.all_critical_temps", "maxwell.triple_point",
                "maxwell.coexistence_curve", "maxwell.track_segment_pair",
                "regions.label_regions", "svg.contour_segments",
                "svg.render_curves", "export.write_csv", "export.write_json",
                "export.read_csv"):
        out[f"{key}.busy_s"] = busy[key]
    for key in ("bifurcation.slice_curves.samples",
                "maxwell.coexistence_curve.points", "maxwell.residual_evals",
                "regions.regions", "regions.unresolved",
                "svg.contour_segments.segments", "export.records",
                "export.bytes"):
        out[key] = counts[key]
    out["maxwell.triple_point.calls"] = calls["maxwell.triple_point"]
    for job in ("maxwell-2.6", "maxwell-2.7"):
        out[f"maxwell.triple_point.calls.{job}"] = len(
            tracer.by_job.get((job, "maxwell.triple_point"), []))
    out["maxwell.triple_point.ms.2.6"] = job_median_ms(
        "maxwell-2.6", "maxwell.triple_point")
    out["maxwell.coexistence_curve.ms.2.6"] = job_median_ms(
        "maxwell-2.6", "maxwell.coexistence_curve")
    points = counts["maxwell.coexistence_curve.points"]
    out["maxwell.residual_evals_per_point"] = (
        counts["maxwell.residual_evals"] / points if points else 0.0)
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.busy_s"] = busy[f"cli.{cmd}"]
        out[f"cli.{cmd}.self_s"] = tracer.self_time[f"cli.{cmd}"]
    for layer in SPAN_LAYERS:
        out[f"{layer}.busy_s"] = tracer.layer_busy[layer]
        out[f"{layer}.self_s"] = sum(v for k, v in tracer.self_time.items()
                                     if k.split(".", 1)[0] == layer)
    for job in BASELINE_JOBS:
        r = by_name.get(job)
        out[f"job.{job}.ms"] = r.seconds * 1e3 if r else 0.0
    out["trace.pass_s"] = sum(r.seconds for r in traced)
    return out


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    blas = pin_blas()
    import numpy as np

    import tracer as tracing
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    outdir = BENCH_DIR / "_run" / f"{args.workload}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        try:
            pkg, jobs, setup_s = set_up(workloads, args.workload, args.seed,
                                        str(outdir))
        except ImportError as exc:
            print(f"cannot load the package: {exc}", file=sys.stderr)
            return 2
        workloads.run_job(jobs[0])  # warm-up, discarded
        first_job_after_s = time.perf_counter() - T_START

        meta = {
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "seconds": args.seconds,
            "git_sha": git_sha(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": blas, "jobs_per_pass": len(jobs),
            "first_job_after_s": first_job_after_s,
        }
        if args.trace:
            reference = workloads.run_jobs(jobs[:REFERENCE_JOBS])
            tr, traced = trace_pass(workloads, tracing, pkg, jobs)
            runs = reference + traced
            values = per_layer(tr, traced)
            values["trace.overhead"] = (
                sum(r.seconds for r in traced[:len(reference)])
                / sum(r.seconds for r in reference))
            units = dict(PER_LAYER)
            extra = {"job_wall_s": {
                "reference": {r.name: r.wall for r in reference},
                "traced": {r.name: r.wall for r in traced}},
                "trace_aggregate": {
                k: {"calls": tr.calls[k], "busy_s": tr.busy[k],
                    "self_s": tr.self_time[k]} for k in sorted(tr.calls)}}
        else:
            passes = run_passes(workloads, jobs, args.seconds)
            runs = [r for p in passes for r in p]
            details = pass_details(median_pass(passes))
            values = {
                "setup_s": setup_s,
                "pass_s": details["pass_s"],
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = dict(END_TO_END)
            meta["passes"] = len(passes)
            extra = {"pass_s": [sum(r.seconds for r in p) for p in passes],
                     "wall_pass_s": [sum(r.wall for r in p) for p in passes],
                     "job_s": {r.name: [p[k].seconds for p in passes]
                               for k, r in enumerate(passes[0])},
                     "job_wall_s": {r.name: [p[k].wall for p in passes]
                                    for k, r in enumerate(passes[0])},
                     "detail": details}
            print("# detail " + json.dumps(details))

        failures = {}
        for r in runs:
            for category, message in r.failures:
                failures.setdefault(r.name, set()).add(f"{category}: {message}")
        for name, messages in failures.items():
            for message in sorted(messages):
                print(f"failed {name}: {message}"[:300], file=sys.stderr)
        result = {
            "correct": not any(c != workloads.CENSUS for r in runs
                               for c, _ in r.failures),
            "attempted": len(runs),
            "failed": sum(bool(r.failures) for r in runs),
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()},
        }
        print("# meta " + json.dumps(meta))
        results_dir = BENCH_DIR / "results"
        results_dir.mkdir(exist_ok=True)
        record = dict(meta=meta, result=result, **extra, failures={
            k: sorted(v) for k, v in failures.items()})
        (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
                       ".json").write_text(json.dumps(record, indent=1))
        print(json.dumps(result))
        return 0
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
