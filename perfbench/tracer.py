"""Spans and counters at the package's module boundaries.

The tracer wraps module-level functions of the package and installs each
wrapper under every module attribute bound to the original function, so a
call is seen wherever its caller looks the name up (``stationary``'s own
``batch_gradient`` as well as ``model``'s, ``triple_point`` in both ``cli``
and ``maxwell``).  The package source is not touched.  Spans are kept as
per-function aggregates: calls, busy time, and self time (busy time minus
the time of wrapped calls made from inside it).
"""

from __future__ import annotations

import collections
import os
import time

import numpy as np

def _rows(position):
    """Counter hook: rows of the (..., 3) array passed at ``position``."""
    def hook(counts, key, args, kwargs, out):
        nu = args[position] if len(args) > position else kwargs["nu"]
        counts[key + "_rows"] += int(np.asarray(nu).size // 3)
    return hook


def _newton(counts, key, args, kwargs, out):
    seeds = args[2] if len(args) > 2 else kwargs["seeds"]
    counts["stationary.newton.seeds"] += int(np.asarray(seeds).size // 3)
    counts["stationary.newton.converged"] += len(out)


def _slice_samples(counts, key, args, kwargs, out):
    counts["bifurcation.slice_curves.samples"] += sum(len(c.x_param)
                                                      for c in out)


def _curve_points(counts, key, args, kwargs, out):
    counts["maxwell.coexistence_curve.points"] += len(out.points)


def _regions(counts, key, args, kwargs, out):
    counts["regions.regions"] += len(out)
    counts["regions.unresolved"] += sum(not r.resolved for r in out)


def _segments(counts, key, args, kwargs, out):
    counts["svg.contour_segments.segments"] += len(out)


class _Tell:
    """Counter hook pair for writers: bytes from the file position."""

    @staticmethod
    def before(args, kwargs):
        fh = args[0] if args else kwargs["fh"]
        return fh.tell()

    @staticmethod
    def after(counts, key, args, kwargs, out, start):
        fh = args[0] if args else kwargs["fh"]
        records = args[2] if len(args) > 2 else kwargs["records"]
        counts["export.records"] += len(records)
        counts["export.bytes"] += fh.tell() - start


def _read(counts, key, args, kwargs, out):
    path = args[0] if args else kwargs["path"]
    counts["export.records"] += len(out[1])
    counts["export.bytes"] += os.path.getsize(path)


# (module, function, metric key, hook).  The metric key is the function's
# name in the per-layer table; hooks add work counters from the call.
PATCHES = (
    ("model", "batch_gradient", "model.gradient", _rows(2)),
    ("model", "batch_hessian", "model.hessian", _rows(1)),
    ("model", "batch_free_energy", "model.free_energy", _rows(2)),
    ("model", "batch_stationary_value", "model.stationary_value", _rows(1)),
    ("stationary", "census", "stationary.census", None),
    ("stationary", "stationary_points_from_seeds",
     "stationary.points_from_seeds", None),
    ("stationary", "newton_stationary", "stationary.newton", _newton),
    ("bifurcation", "slice_curves", "bifurcation.slice_curves",
     _slice_samples),
    ("bifurcation", "surface_patches", "bifurcation.surface_patches", None),
    ("critical", "all_critical_temps", "critical.all_critical_temps", None),
    ("maxwell", "triple_point", "maxwell.triple_point", None),
    ("maxwell", "symmetric_segment", "maxwell.symmetric_segment", None),
    ("maxwell", "coexistence_curve", "maxwell.coexistence_curve",
     _curve_points),
    ("maxwell", "track_segment_pair", "maxwell.track_segment_pair", None),
    ("maxwell", "beyond_ellis_wang_segment", "maxwell.beyond_ellis_wang",
     None),
    ("regions", "label_regions", "regions.label_regions", _regions),
    ("svg", "contour_segments", "svg.contour_segments", _segments),
    ("svg", "render_curves", "svg.render_curves", None),
    ("svg", "render_potential", "svg.render_potential", None),
    ("export", "write_csv", "export.write_csv", _Tell),
    ("export", "write_json", "export.write_json", _Tell),
    ("export", "read_csv", "export.read_csv", _read),
    ("cli", "cmd_slice", "cli.slice", None),
    ("cli", "cmd_surface", "cli.surface", None),
    ("cli", "cmd_census", "cli.census", None),
    ("cli", "cmd_critical", "cli.critical", None),
    ("cli", "cmd_maxwell", "cli.maxwell", None),
    ("cli", "cmd_potential", "cli.potential", None),
)

# Called thousands of times per coexistence point: counted, not timed.
COUNTED = (("maxwell", "_pair_residual", "maxwell.residual_evals"),)


class Tracer:
    """Aggregated spans and counters, recorded only while ``active``."""

    def __init__(self):
        self.active = False
        self.job = None
        self.calls = collections.Counter()
        self.busy = collections.Counter()
        self.self_time = collections.Counter()
        self.layer_busy = collections.Counter()
        self.counts = collections.Counter()
        self.by_job = collections.defaultdict(list)  # (job, key) -> seconds
        self._stack = []
        self._depth = collections.Counter()

    def span(self, key, fn, hook=None):
        layer = key.split(".", 1)[0]
        before = getattr(hook, "before", None)
        after = getattr(hook, "after", hook)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = before(args, kwargs) if before else None
            children = [0.0]
            self._stack.append(children)
            self._depth[layer] += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self._depth[layer] -= 1
                if self._stack:
                    self._stack[-1][0] += dt
                if not self._depth[layer]:
                    self.layer_busy[layer] += dt
                self.calls[key] += 1
                self.busy[key] += dt
                self.self_time[key] += dt - children[0]
                if layer != "model":
                    self.by_job[(self.job, key)].append(dt)
            if after is not None:
                if before:
                    after(self.counts, key, args, kwargs, out, start)
                else:
                    after(self.counts, key, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, key, fn):
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every entry of PATCHES and COUNTED in the loaded package;
        ``modules`` maps short module names to module objects."""
        plan = [(m, f, self.span(k, getattr(modules[m], f), h))
                for m, f, k, h in PATCHES]
        plan += [(m, f, self.counter(k, getattr(modules[m], f)))
                 for m, f, k in COUNTED]
        for owner, name, wrapper in plan:
            original = wrapper.__wrapped__
            for module in modules.values():
                if getattr(module, name, None) is original:
                    setattr(module, name, wrapper)
