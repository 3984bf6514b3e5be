"""Cell labelling checked against a scalar Bresenham raster and an
independent frontier flood fill."""

import warnings

import numpy as np
import pytest

import potts_landscape as pl
from potts_landscape.bifurcation import fold_lines_pq
from potts_landscape.model import batch_pq
from potts_landscape.regions import (_components, _polyline_pixels,
                                     label_regions, rasterize_curves)

SLICES = [(2.3, 6.0, 400), (2.75, 0.02, 6000), (2.9, 6.0, 400),
          (3.2, 6.0, 400)]


def bresenham(x0, y0, x1, y1):
    """Pixels of the Bresenham line from (x0, y0) to (x1, y1), one per
    step, in order; an 8-connected set."""
    dx, dy = abs(x1 - x0), -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    while True:
        yield x0, y0
        if x0 == x1 and y0 == y1:
            return
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x0 += sx
        if e2 <= dx:
            err += dx
            y0 += sy


def rasterize_loop(polylines, extent, resolution):
    """``rasterize_curves`` one segment at a time: every segment with an
    end inside the band (-resolution, 2 resolution) is drawn."""
    xmin, xmax, ymin, ymax = extent
    grid = np.zeros((resolution, resolution), dtype=bool)
    sx = (resolution - 1) / (xmax - xmin)
    sy = (resolution - 1) / (ymax - ymin)
    for line in polylines:
        pts = np.asarray(line, dtype=float)
        if len(pts) < 2:
            continue
        px = (pts[:, 0] - xmin) * sx
        py = (pts[:, 1] - ymin) * sy
        inside = ((px > -resolution) & (px < 2 * resolution)
                  & (py > -resolution) & (py < 2 * resolution))
        ix = np.round(px).astype(int).tolist()
        iy = np.round(py).astype(int).tolist()
        for k in range(len(pts) - 1):
            if inside[k] or inside[k + 1]:
                for x, y in bresenham(ix[k], iy[k], ix[k + 1], iy[k + 1]):
                    if 0 <= x < resolution and 0 <= y < resolution:
                        grid[x, y] = True
    return grid


def flood_components(free):
    """4-connected labels of the free pixels by growing one component at a
    time from its first free pixel in raster order."""
    labels = np.zeros(free.shape, dtype=np.int32)
    current = 0
    todo = free.copy()
    while True:
        seeds = np.argwhere(todo)
        if len(seeds) == 0:
            return labels
        current += 1
        frontier = np.zeros_like(free)
        frontier[seeds[0, 0], seeds[0, 1]] = True
        component = np.zeros_like(free)
        while frontier.any():
            component |= frontier
            grown = np.zeros_like(free)
            grown[1:, :] |= frontier[:-1, :]
            grown[:-1, :] |= frontier[1:, :]
            grown[:, 1:] |= frontier[:, :-1]
            grown[:, :-1] |= frontier[:, 1:]
            frontier = grown & todo & ~component
        labels[component] = current
        todo &= ~component


def slice_window(beta, extent, samples):
    curves = pl.slice_curves(beta, samples)
    return ([batch_pq(c.alpha) for c in curves],
            (-extent, extent, -extent, extent))


def pixel_window(resolution):
    """The extent on which plane coordinates are pixel coordinates."""
    return (0.0, resolution - 1.0, 0.0, resolution - 1.0)


def assert_same_raster(polylines, extent, resolution):
    np.testing.assert_array_equal(
        rasterize_curves(polylines, extent, resolution),
        rasterize_loop(polylines, extent, resolution))


def random_polylines(rng, resolution):
    """Polylines in pixel coordinates with repeated points, lines
    collapsed onto one pixel, one-point lines, points on and next to the
    band edges -resolution and 2 resolution, and far ends across the
    grid."""
    r = resolution
    edges = np.array([-r, 2 * r])[:, None] + [-0.5, -1e-9, 0.0, 1e-9, 0.5]
    lines = []
    for _ in range(rng.integers(1, 6)):
        m = int(rng.integers(1, 14))
        pts = rng.uniform(-1.5 * r, 2.5 * r, (m, 2))
        if rng.random() < 0.3:
            pts[rng.random((m, 2)) < 0.3] = rng.choice(edges.ravel())
        if rng.random() < 0.3:
            far = rng.random(m) < 0.3
            pts[far] = rng.uniform(-6 * r, 7 * r, (np.count_nonzero(far),
                                                   2))
        if rng.random() < 0.5:
            pts = np.repeat(pts, rng.integers(1, 4, m), axis=0)
        if rng.random() < 0.2:
            pts = pts[0] + rng.uniform(-0.4, 0.4, pts.shape)
        lines.append(pts)
    return lines


def test_every_short_segment_in_every_octant():
    """All segments with |dx|, |dy| <= 64 (but not 0, 0), the
    axis-aligned and diagonal ones among them, drawn out from the centre of
    a 129-pixel grid and back: the same pixels in the same order as the
    scalar loop."""
    d = np.arange(-64, 65)
    ends = np.stack(np.meshgrid(d, d, indexing="ij"), axis=-1).reshape(-1, 2)
    ends = ends[ends.any(axis=1)]
    path = np.zeros((2 * len(ends) + 1, 2), dtype=np.int64)
    path[1::2] = ends
    path += 64
    x, y = _polyline_pixels(path[:, 0], path[:, 1],
                            np.ones(len(path), dtype=bool), 129)
    xy = path.tolist()
    expected = [pixel for a, b in zip(xy, xy[1:])
                for pixel in bresenham(*a, *b)]
    np.testing.assert_array_equal(np.stack([x, y], axis=1), expected)


@pytest.mark.parametrize("resolution", [16, 17, 64, 255, 512, 600])
def test_random_polylines_match_scalar_raster(rng, resolution):
    window = pixel_window(resolution)
    for _ in range(120 if resolution < 100 else 25):
        assert_same_raster(random_polylines(rng, resolution), window,
                           resolution)


def test_band_edges_and_collapsed_lines():
    r = 32
    window = pixel_window(r)
    for a in (-r - 0.5, -r, -r + 1e-9, 2 * r - 1e-9, 2 * r, 2 * r + 0.5):
        for b in (-3.0, 5.0, 40.0, 70.0, a):
            assert_same_raster([[(a, 5.0), (b, 5.0)], [(5.0, a), (5.0, b)],
                                [(a, a), (b, b), (b, b), (a, a)]],
                               window, r)
    # one pixel on each side of a band edge, then a segment across the grid
    for edge in (-r, 2 * r):
        for pair in ((edge - 0.2, edge + 0.2), (edge + 0.2, edge - 0.2)):
            for far in (-r - 5.0, 2 * r + 5.0):
                assert_same_raster([[(pair[0], 5.0), (pair[1], 5.0),
                                     (far, 9.0)]], window, r)
    # a point only: nothing; one pixel in and out of the band: that pixel
    for lines in ([[(3.0, 4.0)]], [[(3.0, 4.0)] * 5],
                  [[(3.2, 4.1), (2.8, 3.9), (3.1, 4.0)]],
                  [[(-2 * r, 4.0), (-2 * r + 0.1, 4.0)]], [np.empty((0, 2))]):
        assert_same_raster(lines, window, r)
    assert rasterize_curves([[(3.0, 4.0)] * 5], window, r).sum() == 1


def test_far_end_is_clipped_to_the_grid():
    """Segments from inside to 200,000 pixels away, and one that crosses
    the grid from far outside on both sides."""
    far = 2e5
    for end in ((far, 3.0 + far / 5), (-far, far / 3), (40.0, -far),
                (far / 7, far)):
        assert_same_raster([[(10.0, 3.0), end], [end, (20.0, 50.0)]],
                           pixel_window(64), 64)
    assert_same_raster([[(-100.0, -90.0), (150.0, 170.0)]],
                       pixel_window(64), 64)


def test_end_beyond_int64_keeps_its_direction():
    """A segment from inside to 3e40 pixels away, or to infinity, marks
    the pixels of the same line ended 300 pixels away, without a warning
    from the int64 cast."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for far, near in (((3e40, 1e40), (310.0, 110.0)),
                          ((np.inf, 10.0), (310.0, 10.0))):
            assert np.array_equal(
                rasterize_curves([[(10.0, 10.0), far]], pixel_window(64), 64),
                rasterize_curves([[(10.0, 10.0), near]], pixel_window(64),
                                 64))


@pytest.mark.parametrize("resolution", [16, 101, 512, 600])
@pytest.mark.parametrize("beta, extent, samples", SLICES)
def test_slices_match_scalar_raster(beta, extent, samples, resolution):
    polylines, window = slice_window(beta, extent, samples)
    assert_same_raster(polylines, window, resolution)


@pytest.mark.parametrize("resolution", [16, 101, 512, 600])
@pytest.mark.parametrize("beta, extent, samples", SLICES)
def test_fold_lines_match_scalar_raster(beta, extent, samples, resolution):
    """The fold lines, closed loops and the exact meeting points among
    them, drawn as the scalar loop draws them."""
    assert_same_raster(fold_lines_pq(pl.slice_curves(beta, samples)),
                       (-extent, extent, -extent, extent), resolution)


def assert_runs_cover(labels, runs):
    """The runs are the maximal stretches of one label in each row, in
    raster order."""
    owner, row, first, last = runs
    painted = np.zeros_like(labels)
    for lab, i, j0, j1 in zip(owner, row, first, last):
        assert lab > 0 and (painted[i, j0:j1 + 1] == 0).all()
        painted[i, j0:j1 + 1] = lab
        assert j0 == 0 or labels[i, j0 - 1] == 0
        assert j1 == labels.shape[1] - 1 or labels[i, j1 + 1] == 0
    np.testing.assert_array_equal(painted, labels)
    order = np.asarray(row) * labels.shape[1] + np.asarray(first)
    assert (np.diff(order) > 0).all()


@pytest.mark.parametrize("density", [0.0, 0.2, 0.45, 0.55, 0.6, 0.8, 1.0])
def test_random_masks_match_flood_fill(rng, density):
    for shape in ((1, 1), (1, 9), (9, 1), (2, 2), (5, 5), (17, 23),
                  (64, 64)):
        for _ in range(3):
            free = rng.random(shape) < density
            labels, runs = _components(free)
            np.testing.assert_array_equal(labels, flood_components(free))
            assert_runs_cover(labels, runs)


@pytest.mark.parametrize("beta, extent, samples", SLICES)
def test_rasterized_slices_match_flood_fill(beta, extent, samples):
    polylines, window = slice_window(beta, extent, samples)
    free = ~rasterize_curves(polylines, window, 512)
    labels, runs = _components(free)
    np.testing.assert_array_equal(labels, flood_components(free))
    assert_runs_cover(labels, runs)
    assert labels.max() >= 7


def assert_regions_from_masks(polylines, window, resolution):
    """Every field of every region from its own mask in the flood fill of
    the scalar raster."""
    labels = flood_components(~rasterize_loop(polylines, window,
                                              resolution))
    regions = label_regions(polylines, window, resolution)
    assert [r.label for r in regions] == list(range(1, labels.max() + 1))
    xmin, xmax, ymin, ymax = window
    hx = (xmax - xmin) / (resolution - 1)
    hy = (ymax - ymin) / (resolution - 1)
    for region in regions:
        mask = labels == region.label
        pix = np.argwhere(mask)
        cx, cy = pix.mean(axis=0)
        assert region.n_pixels == len(pix)
        assert region.centroid == (xmin + cx * hx, ymin + cy * hy)
        i, j = (round((v - lo) / h) for v, lo, h in zip(region.probe,
                                                          (xmin, ymin),
                                                          (hx, hy)))
        assert mask[i, j]
        core = (mask[1:-1, 1:-1] & mask[:-2, 1:-1] & mask[2:, 1:-1]
                & mask[1:-1, :-2] & mask[1:-1, 2:])
        assert region.resolved is bool(core.any())
        border = (mask[0].any() or mask[-1].any() or mask[:, 0].any()
                  or mask[:, -1].any())
        assert region.touches_border is bool(border)


@pytest.mark.parametrize("beta, extent, samples", SLICES)
def test_region_fields_match_per_component_masks(beta, extent, samples):
    polylines, window = slice_window(beta, extent, samples)
    assert_regions_from_masks(polylines, window, 256)


def test_random_region_fields_match_per_component_masks(rng):
    for resolution in (16, 23, 48):
        for _ in range(15):
            assert_regions_from_masks(random_polylines(rng, resolution),
                                      pixel_window(resolution), resolution)
