"""Command-line interface: compute, export and render the phase diagrams.

Subcommands: slice, surface, census, critical, maxwell, potential.
Common flags: --format {csv,json,svg}, --out PATH, --tol X.
Exit codes: 0 success, 2 domain error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import sys

import numpy as np

from . import export, svg
from .bifurcation import fold_lines_pq, slice_curves, surface_patches
from .critical import all_critical_temps
from .errors import DomainError, NumericalError, ToleranceError
from .maxwell import (BETA_ELLIS_WANG, beyond_ellis_wang_segment,
                      coexistence_curve, symmetric_segment,
                      track_segment_pair)
from .model import (DEFAULT_TOL, AprioriMeasure, CoordPQ, ModelParams,
                    ToleranceConfig, _check_beta, _interior_lattice,
                    _row_min, batch_free_energy, batch_from_xy, batch_pq,
                    batch_uv, batch_xy, from_pq, from_uv)
from .stationary import MinimaCensus, PointKind, _census_batch, census

SQRT3 = math.sqrt(3.0)
# Float flags that must be finite and positive wherever a subcommand has them.
_POSITIVE_FLAGS = ("beta", "beta_max", "extent", "step", "tol")

# Integer size flags are bounded so that no input asks for more memory than
# this, at 1 KiB per output record and 64 bytes per labelled pixel.  Each
# subcommand holds its whole output before writing: census and critical as
# a few record dicts, the rest as numpy columns, maxwell's segment as the
# solver's arrays (2^20 samples: max RSS 424 MB, CPython 3.11, x86-64).
# The writers hold a value's text while its rows are written, or to the end
# if it repeats: 150-250 bytes a record, 400-500 for maxwell, if distinct.
MEMORY_BUDGET = 1 << 30
_RECORD_BYTES = 1 << 10
_PIXEL_BYTES = 64
# A slice has at most 18 curves (6 branches on up to 3 intervals).
_SLICE_CURVES = 18


def _bounded_int(lo: int, hi: int):
    """Argparse type for an integer flag limited to [lo, hi]."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not lo <= value <= hi:
            raise argparse.ArgumentTypeError(
                f"must be an integer in [{lo}, {hi}], got {text!r}")
        return value
    return parse


_RESOLUTION = _bounded_int(16, math.isqrt(MEMORY_BUDGET // _PIXEL_BYTES))
_SAMPLES = _bounded_int(
    2, MEMORY_BUDGET // (_SLICE_CURVES * _RECORD_BYTES))
# surface and potential grids write up to grid^2 records
_GRID = _bounded_int(16, math.isqrt(MEMORY_BUDGET // _RECORD_BYTES))
_SEGMENT_SAMPLES = _bounded_int(1, MEMORY_BUDGET // _RECORD_BYTES)


@contextlib.contextmanager
def _open_out(path):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _write_records(args, kind, records, note=None):
    with _open_out(args.out) as fh:
        if args.format == "json":
            export.write_json(fh, kind, records)
        else:
            export.write_csv(fh, kind, records)
            if note:
                fh.write(f"# note: {note}\n")


def _tolerances(args):
    return DEFAULT_TOL if args.tol is None else ToleranceConfig(args.tol)


def _floats(flag, text, n):
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != n:
        raise DomainError(f"{flag} needs {n} comma-separated numbers, "
                          f"got {text!r}")
    return parts


def _parse_alpha(args) -> AprioriMeasure:
    if getattr(args, "alpha", None):
        return AprioriMeasure(*_floats("--alpha", args.alpha, 3))
    if getattr(args, "uv", None):
        from .model import CoordUV
        return from_uv(CoordUV(*_floats("--uv", args.uv, 2)))
    return AprioriMeasure.uniform()


# ---------------------------------------------------------------------------
# slice
# ---------------------------------------------------------------------------

def _slice_records(curves):
    if not curves:
        return export.Table({})
    counts = [len(c.x_param) for c in curves]
    nu = np.concatenate([c.nu for c in curves])
    alpha = np.concatenate([c.alpha for c in curves])
    pq = np.concatenate([batch_pq(c.alpha) for c in curves])
    return export.Table({
        "beta": np.repeat([c.beta for c in curves], counts),
        "branch": np.repeat([c.branch.label for c in curves], counts),
        "interval": np.repeat([c.interval_index for c in curves], counts),
        "x_param": np.concatenate([c.x_param for c in curves]),
        "nu1": nu[:, 0], "nu2": nu[:, 1], "nu3": nu[:, 2],
        "alpha1": alpha[:, 0], "alpha2": alpha[:, 1], "alpha3": alpha[:, 2],
        "p": pq[:, 0], "q": pq[:, 1],
    })


def label_slice_cells(beta, curves, extent, resolution=512, tol=DEFAULT_TOL):
    """Census label per cell of the slice arrangement inside the window,
    with the slice curves drawn as their fold lines (``fold_lines_pq``).

    Returns a list of (region, n_local_minima or None): None where the
    cell is unresolved or its probe census fails.  A probe census that
    fails on the residual tolerance raises ``ToleranceError`` instead."""
    return _label_fold_cells(beta, fold_lines_pq(curves), extent, resolution,
                             tol)


def _label_fold_cells(beta, polylines, extent, resolution, tol):
    from .regions import label_regions
    if not math.isfinite(2.0 * extent):
        raise DomainError(f"--extent {extent!r} is too large to label cells: "
                          "the window width 2 * extent is not finite")
    window = (-extent, extent, -extent, extent)
    regions = label_regions(polylines, window, resolution)
    fields = [_probe_field(r) for r in regions]
    results = _census_batch(
        [ModelParams(beta, alpha) for alpha in fields if alpha is not None],
        tol)
    short = next((r for r in results if isinstance(r, ToleranceError)), None)
    if short is not None:  # a '?' would hide that --tol is out of reach
        raise ToleranceError(f"a cell's probe census fails at --tol "
                             f"{tol.residual!r}: {short}")
    results = iter(results)
    labelled = []
    for r, alpha in zip(regions, fields):
        cens = next(results) if alpha is not None else None
        labelled.append((r, cens.n_local_minima
                         if isinstance(cens, MinimaCensus) else None))
    return labelled


def _probe_field(region):
    """The field at a resolved region's probe, or None where the region is
    unresolved or its probe lies so far out that the field has a component
    below the simplex margin (its cell is then labelled '?')."""
    if not region.resolved:
        return None
    try:
        return from_pq(CoordPQ(*region.probe))
    except DomainError:
        return None


def cmd_slice(args) -> int:
    beta = args.beta
    tol = _tolerances(args)
    curves = [] if beta <= 2.0 else slice_curves(beta, args.samples)

    if args.format == "svg":
        lines = fold_lines_pq(curves)
        labels = []
        if args.label_cells:
            for region, count in _label_fold_cells(
                    beta, lines, args.extent, args.resolution, tol):
                text = "?" if count is None else str(count)
                labels.append((region.centroid[0], region.centroid[1], text))
        doc = svg.render_curves(
            extent=(-args.extent, args.extent, -args.extent, args.extent),
            bifurcation=lines,
            labels=labels, title=f"bifurcation slice, beta = {beta:g}")
        with _open_out(args.out) as fh:
            fh.write(doc)
        return 0

    if args.label_cells:
        raise DomainError("--label-cells requires --format svg")
    note = "no degenerate stationary points for beta <= 2" if beta <= 2 else None
    _write_records(args, "slice_point", _slice_records(curves), note)
    return 0


# ---------------------------------------------------------------------------
# surface
# ---------------------------------------------------------------------------

def _surface_records(patches, beta_max):
    keep = [patch.beta <= beta_max for patch in patches]
    nu = np.concatenate([p.nu[k] for p, k in zip(patches, keep)])
    alpha = np.concatenate([p.alpha[k] for p, k in zip(patches, keep)])
    pq = np.concatenate([batch_pq(p.alpha)[k] for p, k in zip(patches, keep)])
    return export.Table({
        "sign": np.repeat([p.sign for p in patches],
                          [np.count_nonzero(k) for k in keep]),
        "nu1": nu[:, 0], "nu2": nu[:, 1], "nu3": nu[:, 2],
        "beta": np.concatenate([p.beta[k] for p, k in zip(patches, keep)]),
        "alpha1": alpha[:, 0], "alpha2": alpha[:, 1], "alpha3": alpha[:, 2],
        "p": pq[:, 0], "q": pq[:, 1],
    })


def _surface_mesh_obj(fh, grid, beta_max):
    """Triangulated (p, q, beta) mesh of both sheets, OBJ-style text: the
    lattice points of ``surface_patches`` up to ``beta_max``, each lattice
    cell split into an up and a down triangle where all three corners are
    vertices."""
    i, j, _ = _interior_lattice(grid).T
    fh.write(f"# potts-landscape v1 surface mesh, grid {grid}\n")
    offset = 0
    for patch in surface_patches(grid):
        ij = np.rint(patch.nu[:, :2] * grid)
        # the pinch row appended when grid % 3 != 0 is not a lattice point
        keep = ((patch.beta <= beta_max)
                & np.all(np.abs(patch.nu[:, :2] * grid - ij) < 1e-6, axis=1))
        ij = ij[keep].astype(int)
        index = np.zeros((grid + 1, grid + 1), dtype=int)
        index[ij[:, 0], ij[:, 1]] = np.arange(1, len(ij) + 1)
        tri = index[np.stack([i, i + 1, i, i + 1, i + 1, i], axis=-1),
                    np.stack([j, j, j + 1, j, j + 1, j + 1], axis=-1)]
        tri = tri.reshape(-1, 3)  # the up, then the down triangle per cell
        tri = tri[np.all(tri > 0, axis=1)] + offset
        pq = batch_pq(patch.alpha[keep])
        fh.write(f"o sheet_{'plus' if patch.sign > 0 else 'minus'}\n")
        fh.write("".join(f"v {p!r} {q!r} {b!r}\n" for p, q, b in zip(
            pq[:, 0].tolist(), pq[:, 1].tolist(), patch.beta[keep].tolist())))
        fh.write("".join(f"f {a} {b} {c}\n" for a, b, c in tri.tolist()))
        offset += len(ij)


def cmd_surface(args) -> int:
    if args.format == "obj":
        with _open_out(args.out) as fh:
            _surface_mesh_obj(fh, args.grid, args.beta_max)
        return 0
    if args.format == "svg":
        raise DomainError("surface supports csv, json or obj output")
    table = _surface_records(surface_patches(args.grid), args.beta_max)
    note = (None if len(table) else "no lattice point of either sheet has "
            f"beta <= {args.beta_max!r}")
    _write_records(args, "surface_point", table, note)
    return 0


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

def _census_records(cens):
    records = []
    glob = {id(p) for p in cens.global_minimizers}
    alpha = cens.params.alpha
    for p in cens.points:
        records.append({
            "beta": cens.params.beta,
            "alpha1": alpha.a1, "alpha2": alpha.a2, "alpha3": alpha.a3,
            "nu1": p.nu.v1, "nu2": p.nu.v2, "nu3": p.nu.v3,
            "eig_lo": p.hess_eigenvalues[0], "eig_hi": p.hess_eigenvalues[1],
            "kind": p.kind.value, "value": p.value,
            "is_global_min": int(id(p) in glob),
            "n_local_minima": cens.n_local_minima,
            "degenerate_warning": int(cens.degenerate_warning),
        })
    return records


def cmd_census(args) -> int:
    alpha = _parse_alpha(args)
    params = ModelParams(args.beta, alpha)
    cens = census(params, tol=_tolerances(args))
    if args.out in (None, "-") and args.format == "csv" and not args.records:
        print(f"beta = {params.beta!r}, alpha = ({alpha.a1!r}, {alpha.a2!r}, "
              f"{alpha.a3!r})")
        print(f"local minima: {cens.n_local_minima}"
              + ("  [degenerate point present]" if cens.degenerate_warning
                 else ""))
        for p in cens.points:
            star = "*" if p in cens.global_minimizers else " "
            print(f" {star} {p.kind.value:<10} nu = ({p.nu.v1:.12f}, "
                  f"{p.nu.v2:.12f}, {p.nu.v3:.12f})  f = {p.value:.12f}")
        print(f"global minimizers: {len(cens.global_minimizers)}")
        return 0
    _write_records(args, "census", _census_records(cens))
    return 0


# ---------------------------------------------------------------------------
# critical
# ---------------------------------------------------------------------------

def cmd_critical(args) -> int:
    temps = all_critical_temps()
    if args.out in (None, "-") and args.format == "csv" and not args.records:
        print(f"butterfly   {temps.butterfly!r}   (= 18/7)")
        print(f"cross       {temps.cross!r}")
        print(f"ellis_wang  {temps.ellis_wang!r}   (= 4 log 2)")
        print(f"touch       {temps.touch!r}")
        print(f"umbilic     {temps.umbilic!r}")
        return 0
    _write_records(args, "critical_temps", [dataclasses.asdict(temps)])
    return 0


# ---------------------------------------------------------------------------
# maxwell
# ---------------------------------------------------------------------------

def _maxwell_section(beta, section, alpha, depth, minimizers, swap=False):
    """Columns of one section's m records: fields ``alpha`` (m, 3), depths
    (m,) and the k equal-depth ``minimizers`` (m, k, 3) of each record,
    both mirrored in their first two components where ``swap`` is set."""
    alpha = np.asarray(alpha, dtype=float).reshape(-1, 3)
    m = len(alpha)
    k = len(minimizers[0]) if m else 0
    minimizers = np.asarray(minimizers, dtype=float).reshape(m, k, 3)
    if swap:
        alpha, minimizers = alpha[:, [1, 0, 2]], minimizers[..., [1, 0, 2]]
    uv, xy = batch_uv(alpha), batch_xy(alpha)
    columns = {
        "beta": np.full(m, beta), "section": np.full(m, section),
        "index": np.arange(m),
        "alpha1": alpha[:, 0], "alpha2": alpha[:, 1], "alpha3": alpha[:, 2],
        "u": uv[:, 0], "v": uv[:, 1], "x": xy[:, 0], "y": xy[:, 1],
        "depth": np.asarray(depth, dtype=float).reshape(m),
        "n_minimizers": np.full(m, k),
    }
    for j in range(k):
        for c in range(3):
            columns[f"m{j + 1}_nu{c + 1}"] = minimizers[:, j, c]
    return columns


def _point_arrays(points):
    """``_maxwell_section``'s fields, depths and minimizers of the triple
    point or the curve: a few ``CoexistencePoint``s, tens at most."""
    return (np.array([p.alpha.array for p in points]),
            [p.depth for p in points],
            np.array([[q.array for q in p.minimizers] for p in points]))


def _maxwell_table(sections):
    """One ``Table`` of the sections' records in order.  A minimizer slot
    that some section leaves unfilled is a list with ``None`` there."""
    sections = [sec for sec in sections if len(sec["index"])]
    table = {}
    for name, _ in export.SCHEMAS["maxwell_point"]:
        parts = [sec.get(name) for sec in sections]
        if all(part is not None for part in parts):
            table[name] = np.concatenate(parts) if parts else np.empty(0)
        else:
            table[name] = [value for sec, part in zip(sections, parts)
                           for value in (part.tolist() if part is not None
                                         else [None] * len(sec["index"]))]
    return export.Table(table)


def _maxwell_data(beta, step, segment_samples, tol):
    """All coexistence constructs at one inverse temperature: the records
    as a ``Table`` and the triple point (None outside (18/7, 4 log 2))."""
    segment = symmetric_segment(beta, tol=tol)  # empty for beta <= 2
    triple = segment.triple
    pair = track_segment_pair(segment, n=segment_samples, tol=tol)
    sections = [_maxwell_section(beta, "segment", pair.fields, pair.depths,
                                 pair.pairs)]

    if triple is not None:
        sections.append(_maxwell_section(beta, "triple",
                                         *_point_arrays([triple])))
        curve = coexistence_curve(beta, step=step, tol=tol, origin=triple)
        arrays = _point_arrays(curve.points)
        sections.append(_maxwell_section(beta, "curve", *arrays))
        sections.append(_maxwell_section(beta, "curve_mirror", *arrays,
                                         swap=True))

    if beta >= BETA_ELLIS_WANG:
        glob = beyond_ellis_wang_segment(beta, tol=tol
                                         ).uniform_census.global_minimizers
        sections.append(_maxwell_section(
            beta, "uniform", AprioriMeasure.uniform().array,
            [glob[0].value if glob else 0.0],
            [[p.nu.array for p in glob]]))
    return _maxwell_table(sections), triple


def cmd_maxwell(args) -> int:
    beta = args.beta
    tol = _tolerances(args)
    table, triple = _maxwell_data(beta, args.step, args.segment_samples, tol)
    if args.format == "svg":
        # the segment, then the coexistence curve and its mirror
        curves = []
        for section in ("segment", "curve", "curve_mirror"):
            rows = table.columns["section"] == section
            if rows.any():
                curves.append(np.stack([table.columns[f"alpha{c}"][rows]
                                        for c in (1, 2, 3)], axis=-1))
        maxwell_lines = [batch_pq(a) for a in curves]
        markers = []
        if triple is not None:
            p, q = batch_pq(triple.alpha.array)
            markers.append((float(p), float(q)))
        bif = fold_lines_pq(slice_curves(beta, 400)) if beta > 2.0 else []
        doc = svg.render_curves(
            extent=(-args.extent, args.extent, -args.extent, args.extent),
            bifurcation=bif, maxwell=maxwell_lines, markers=markers,
            title=f"coexistence sets, beta = {beta:g}")
        with _open_out(args.out) as fh:
            fh.write(doc)
        return 0
    note = "no coexistence for beta <= 2" if beta <= 2.0 else None
    _write_records(args, "maxwell_point", table, note)
    return 0


# ---------------------------------------------------------------------------
# potential
# ---------------------------------------------------------------------------

def _potential_grid(beta, alpha, n):
    xs = np.linspace(-SQRT3 / 2, SQRT3 / 2, n)
    ys = np.linspace(-0.5, 1.0, n)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    nu = batch_from_xy(np.stack([gx, gy], axis=-1))
    inside = _row_min(nu) > 1e-9
    values = np.full(gx.shape, np.nan)
    values[inside] = batch_free_energy(beta, alpha.array, nu[inside])
    return xs, ys, nu, values


def cmd_potential(args) -> int:
    alpha = _parse_alpha(args)
    params = ModelParams(args.beta, alpha)
    xs, ys, nu, values = _potential_grid(params.beta, alpha, args.grid)

    if args.format == "svg":
        cens = census(params, tol=_tolerances(args))
        minima = [tuple(batch_xy(p.nu.array))
                  for p in cens.points if p.kind is PointKind.MINIMUM]
        doc = svg.render_potential(
            xs, ys, values, minima=minima,
            title=f"free energy, beta = {params.beta:g}")
        with _open_out(args.out) as fh:
            fh.write(doc)
        return 0

    i, j = np.nonzero(np.isfinite(values))
    nu = nu[i, j]
    _write_records(args, "potential_grid", export.Table({
        "beta": np.full(len(i), params.beta), "x": xs[i], "y": ys[j],
        "nu1": nu[:, 0], "nu2": nu[:, 1], "nu3": nu[:, 2],
        "f": values[i, j]}))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it;
    ``main`` runs the module's ``cmd_<command>`` for the parsed command."""
    parser = argparse.ArgumentParser(
        prog="potts-landscape", exit_on_error=False,
        description="Phase diagrams of the three-state mean-field Potts "
                    "model in a vector-valued external field.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        # malformed or out-of-range flag values reach main as an error
        return sub.add_parser(name, help=help, exit_on_error=False)

    def common(p, formats=("csv", "json", "svg")):
        p.add_argument("--format", choices=formats, default="csv")
        p.add_argument("--out", default=None,
                       help="output path ('-' or omitted: stdout)")
        p.add_argument("--tol", type=float, default=None,
                       help="stationarity residual tolerance override")
        p.add_argument("--records", action="store_true",
                       help="force record output instead of a summary table")

    p = command("slice", "constant-temperature bifurcation slice")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--samples", type=_SAMPLES, default=400,
                   help="samples per parameter interval")
    p.add_argument("--label-cells", action="store_true",
                   help="annotate each cell with its minima count (svg)")
    p.add_argument("--extent", type=float, default=6.0,
                   help="half-width of the (p, q) window")
    p.add_argument("--resolution", type=_RESOLUTION, default=512,
                   help="raster resolution for cell detection")
    common(p)

    p = command("surface", "parametric bifurcation surface")
    p.add_argument("--beta-max", type=float, default=6.0)
    p.add_argument("--grid", type=_GRID, default=64)
    common(p, formats=("csv", "json", "obj"))

    p = command("census", "stationary points at one parameter")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--alpha", default=None,
                   help="a-priori measure a1,a2,a3")
    p.add_argument("--uv", default=None, help="field in log-ratio coords u,v")
    common(p, formats=("csv", "json"))

    p = command("critical", "the five critical temperatures")
    common(p, formats=("csv", "json"))

    p = command("maxwell", "coexistence segments, triple points and curves")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--step", type=float, default=0.005,
                   help="continuation step for the coexistence curve")
    p.add_argument("--segment-samples", type=_SEGMENT_SAMPLES, default=40)
    p.add_argument("--extent", type=float, default=6.0)
    common(p)

    p = command("potential", "free-energy grid over the simplex")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--alpha", default=None)
    p.add_argument("--uv", default=None)
    p.add_argument("--grid", type=_GRID, default=128)
    common(p)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for name in _POSITIVE_FLAGS:
            if getattr(args, name, None) is not None:
                flag = "--" + name.replace("_", "-")
                setattr(args, name, _check_beta(getattr(args, name), flag))
        return globals()[f"cmd_{args.command}"](args)
    except (DomainError, argparse.ArgumentError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
