"""Array marching squares and batched polylines checked against the
cell-by-cell and point-by-point loops they replace."""

import numpy as np
import pytest

from potts_landscape import cli
from potts_landscape.model import AprioriMeasure
from potts_landscape.svg import SvgCanvas, contour_segments, render_potential


def contour_segments_loop(xs, ys, values, level):
    """Marching squares one cell at a time; crossings in edge order, the
    first paired with the second and the third with the fourth."""
    segs = []
    v = values
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            corners = v[i, j], v[i + 1, j], v[i + 1, j + 1], v[i, j + 1]
            if any(np.isnan(c) for c in corners):
                continue
            above = [c > level for c in corners]
            if all(above) or not any(above):
                continue
            x0, x1, y0, y1 = xs[i], xs[i + 1], ys[j], ys[j + 1]

            def interp(ca, cb, pa, pb):
                t = (level - ca) / (cb - ca)
                return (pa[0] + t * (pb[0] - pa[0]),
                        pa[1] + t * (pb[1] - pa[1]))

            pts = []
            quad = [(corners[0], (x0, y0)), (corners[1], (x1, y0)),
                    (corners[2], (x1, y1)), (corners[3], (x0, y1))]
            for (ca, pa), (cb, pb) in zip(quad, quad[1:] + quad[:1]):
                if (ca > level) != (cb > level):
                    pts.append(interp(ca, cb, pa, pb))
            if len(pts) >= 2:
                segs.append((pts[0], pts[1]))
            if len(pts) == 4:
                segs.append((pts[2], pts[3]))
    return segs


def polyline_loop(canvas, points, color="#1a1a1a", width=1.2, dashed=False):
    """Polyline through the in-window runs, split one point at a time."""
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        return
    c = canvas
    inside = ((pts[:, 0] >= c.xmin - 0.5 * (c.xmax - c.xmin))
              & (pts[:, 0] <= c.xmax + 0.5 * (c.xmax - c.xmin))
              & (pts[:, 1] >= c.ymin - 0.5 * (c.ymax - c.ymin))
              & (pts[:, 1] <= c.ymax + 0.5 * (c.ymax - c.ymin)))
    run = []
    runs = []
    for keep, pt in zip(inside, pts):
        if keep:
            run.append(pt)
        elif run:
            runs.append(run)
            run = []
    if run:
        runs.append(run)
    dash = ' stroke-dasharray="6 4"' if dashed else ""
    for run in runs:
        if len(run) < 2:
            continue
        coords = " ".join(f"{c._tx(x):.2f},{c._ty(y):.2f}" for x, y in run)
        c._parts.append(f'<polyline fill="none" stroke="{color}" '
                        f'stroke-width="{width}"{dash} points="{coords}"/>')


def render_potential_loop(xs, ys, values, minima=(), n_levels=24, size=640,
                          title=""):
    """``render_potential`` with one loop segment and one polyline at a time."""
    finite = values[np.isfinite(values)]
    lo, hi = float(finite.min()), float(finite.max())
    span = hi - lo
    levels = [lo + span * (k + 1) / (n_levels + 1) for k in range(n_levels)]
    extent = (float(xs[0]), float(xs[-1]), float(ys[0]), float(ys[-1]))
    canvas = SvgCanvas(extent, size=size)
    canvas.frame(title)
    vals = np.where(np.isfinite(values), values, np.nan)
    for level in levels:
        for (ax, ay), (bx, by) in contour_segments_loop(xs, ys, vals, level):
            polyline_loop(canvas, [(ax, ay), (bx, by)], color="#555",
                          width=0.8)
    for x, y in minima:
        canvas.circle(x, y)
    return canvas.render()


def render_potential_per_level(xs, ys, values, minima=(), n_levels=24,
                               size=640, title=""):
    """``render_potential`` one level at a time: ``contour_segments`` of
    the level, then ``SvgCanvas.segments``."""
    finite = values[np.isfinite(values)]
    lo, hi = float(finite.min()), float(finite.max())
    span = hi - lo
    levels = [lo + span * (k + 1) / (n_levels + 1) for k in range(n_levels)]
    extent = (float(xs[0]), float(xs[-1]), float(ys[0]), float(ys[-1]))
    canvas = SvgCanvas(extent, size=size)
    canvas.frame(title)
    vals = np.where(np.isfinite(values), values, np.nan)
    for level in levels:
        canvas.segments(contour_segments(xs, ys, vals, level),
                        color="#555", width=0.8)
    for x, y in minima:
        canvas.circle(x, y)
    return canvas.render()


def assert_same_segments(xs, ys, values, level):
    segs = contour_segments(xs, ys, values, level)
    expected = np.array(contour_segments_loop(xs, ys, values, level),
                        dtype=float).reshape(-1, 2, 2)
    assert segs.shape == expected.shape
    assert segs.tobytes() == expected.tobytes()  # bit for bit, signed zeros
    return len(segs)


def axes(rng, nx, ny):
    """Increasing, unevenly spaced grid coordinates."""
    return (np.cumsum(rng.random(nx) + 0.1) - 1.0,
            np.cumsum(rng.random(ny) + 0.1) - 2.0)


SHAPES = [(2, 2), (2, 7), (7, 2), (3, 3), (16, 11), (40, 33)]


@pytest.mark.parametrize("nx, ny", SHAPES)
def test_random_grids_with_nan_holes(rng, nx, ny):
    found = 0
    for holes in (0.0, 0.1, 0.4):
        for _ in range(4):
            xs, ys = axes(rng, nx, ny)
            values = rng.standard_normal((nx, ny))
            values[rng.random((nx, ny)) < holes] = np.nan
            for level in rng.standard_normal(3):
                found += assert_same_segments(xs, ys, values, level)
    assert found > 0


@pytest.mark.parametrize("nx, ny", SHAPES)
def test_levels_equal_to_corner_values(rng, nx, ny):
    for _ in range(6):
        xs, ys = axes(rng, nx, ny)
        # few distinct values, so many corners sit exactly on the level
        values = rng.integers(-2, 3, size=(nx, ny)).astype(float)
        values[rng.random((nx, ny)) < 0.1] = np.nan
        for level in (-1.0, 0.0, 1.0, 2.0, values[0, 0]):
            assert_same_segments(xs, ys, values, level)


def test_forced_saddle_cells(rng):
    xs, ys = axes(rng, 12, 9)
    values = rng.standard_normal((12, 9))
    saddles = [(0, 0), (3, 4), (10, 7), (6, 0)]
    for i, j in saddles:
        hi, lo = 1.0 + rng.random(), -1.0 - rng.random()
        values[i, j], values[i + 1, j] = hi, lo
        values[i + 1, j + 1], values[i, j + 1] = hi, lo
    for level in (0.0, 1e-3, -0.5):
        assert_same_segments(xs, ys, values, level)
    # every forced cell contributes two segments at level 0
    segs = contour_segments(xs, ys, values, 0.0)
    for i, j in saddles:
        in_cell = ((segs[:, :, 0] >= xs[i]) & (segs[:, :, 0] <= xs[i + 1])
                   & (segs[:, :, 1] >= ys[j]) & (segs[:, :, 1] <= ys[j + 1]))
        assert in_cell.all(axis=1).sum() == 2


def test_smallest_grid_every_corner_pattern():
    xs, ys = np.array([0.0, 1.0]), np.array([-1.0, 0.5])
    for bits in range(16):
        values = np.array([[bits & 1, bits >> 3 & 1],
                           [bits >> 1 & 1, bits >> 2 & 1]], dtype=float)
        values = values * 2.0 - 0.25
        n = assert_same_segments(xs, ys, values, 0.5)
        assert n == (2 if bits in (5, 10) else 0 if bits in (0, 15) else 1)


def test_empty_result_shape():
    segs = contour_segments([0.0, 1.0], [0.0, 1.0], np.ones((2, 2)), 5.0)
    assert segs.shape == (0, 2, 2)


def potential_grid(beta, alpha, n):
    xs, ys, _, values = cli._potential_grid(beta, AprioriMeasure(*alpha), n)
    return xs, ys, values


@pytest.mark.parametrize("beta, alpha, n", [
    (2.6, (0.345, 0.345, 0.31), 128),  # the benchmark's potential figure
    (3.0, (1 / 3, 1 / 3, 1 / 3), 48),
    (1.5, (0.2, 0.3, 0.5), 33),
])
def test_render_potential_matches_loop(beta, alpha, n):
    xs, ys, values = potential_grid(beta, alpha, n)
    minima = [(0.1, 0.2), (-0.3, 0.0)]
    doc = render_potential(xs, ys, values, minima=minima, title="t")
    assert doc == render_potential_loop(xs, ys, values, minima=minima,
                                        title="t")
    assert doc.count("<polyline") > 100


def test_render_potential_random_field_with_holes(rng):
    xs, ys = axes(rng, 30, 25)
    values = rng.standard_normal((30, 25)).cumsum(axis=0)
    values[rng.random((30, 25)) < 0.15] = np.inf
    assert (render_potential(xs, ys, values, n_levels=9)
            == render_potential_loop(xs, ys, values, n_levels=9))


@pytest.mark.parametrize("nx, ny", SHAPES)
def test_render_potential_matches_per_level_with_holes(rng, nx, ny):
    for holes in (0.0, 0.1, 0.4):
        for hole in (np.nan, np.inf, -np.inf):
            xs, ys = axes(rng, nx, ny)
            values = rng.standard_normal((nx, ny)).cumsum(axis=1)
            values[rng.random((nx, ny)) < holes] = hole
            values[0, 0] = 0.0  # one finite value at least
            for n_levels in (1, 5, 24):
                assert (render_potential(xs, ys, values, n_levels=n_levels)
                        == render_potential_per_level(xs, ys, values,
                                                      n_levels=n_levels))


@pytest.mark.parametrize("nx, ny", SHAPES)
def test_render_potential_matches_per_level_on_corner_values(rng, nx, ny):
    # integer values from 0 to 25: the 24 levels are exactly 1, ..., 24,
    # so many corners sit on a level
    for _ in range(4):
        xs, ys = axes(rng, nx, ny)
        values = rng.integers(0, 26, size=(nx, ny)).astype(float)
        values[0, 0], values[-1, -1] = 0.0, 25.0
        values[rng.random((nx, ny)) < 0.1] = np.nan
        values[0, 0] = 0.0
        doc = render_potential(xs, ys, values, minima=[(0.0, 0.0)],
                               title="t")
        assert doc == render_potential_per_level(
            xs, ys, values, minima=[(0.0, 0.0)], title="t")


def walks(rng):
    """Point sequences that leave and re-enter the window [-1, 1]^2, with
    runs of every length, plus the short and the degenerate cases."""
    yield np.empty((0, 2))
    yield np.array([[0.0, 0.0]])
    yield np.array([[0.0, 0.0], [0.5, 0.5]])
    yield np.array([[0.0, 0.0], [9.0, 0.5]])
    yield np.array([[9.0, 0.0], [9.0, 0.5], [0.0, 0.0]])
    yield np.full((5, 2), 7.0)
    for n in (3, 10, 200, 2000):
        for scale in (0.3, 1.5, 4.0):
            yield np.cumsum(rng.standard_normal((n, 2)) * scale, axis=0)
    flags = rng.random(500) < 0.5  # alternating short runs
    yield np.where(flags[:, None], 0.0, 5.0) + rng.random((500, 2))


@pytest.mark.parametrize("dashed", [False, True])
def test_polyline_runs_match_loop(rng, dashed):
    for pts in walks(rng):
        canvas, oracle = SvgCanvas((-1, 1, -1, 1)), SvgCanvas((-1, 1, -1, 1))
        canvas.polyline(pts, color="#123456", width=0.7, dashed=dashed)
        polyline_loop(oracle, pts, color="#123456", width=0.7, dashed=dashed)
        assert canvas.render() == oracle.render()


def test_segments_match_two_point_polylines(rng):
    segs = rng.standard_normal((400, 2, 2)) * 1.2
    canvas, oracle = SvgCanvas((-1, 1, -1, 1)), SvgCanvas((-1, 1, -1, 1))
    canvas.segments(segs, color="#555", width=0.8)
    for seg in segs:
        polyline_loop(oracle, seg, color="#555", width=0.8)
    assert canvas.render() == oracle.render()
    assert 0 < canvas.render().count("<polyline") < 400
    canvas.segments(np.empty((0, 2, 2)))
    assert canvas.render() == oracle.render()
