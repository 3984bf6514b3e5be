"""Cell detection in a planar curve arrangement by raster labelling.

The fold lines of a slice (``bifurcation.fold_lines_pq``, each drawn
once) partition the field plane into cells on which the number of local
minima is constant.  Curves are rasterized onto a boolean grid
with 8-connected Bresenham lines (which 4-connected components cannot
leak across), one polyline at a time: every pixel of every segment comes
from the closed form of the Bresenham step, the segments are expanded
with one ``np.repeat`` and the pixels marked with one fancy-index
assignment.  The free pixels are then segmented into 4-connected
components by joining the free runs of adjacent rows with union-find;
pixel counts and centroids come from the runs, thick cores and border
contact from boolean masks.
One probe point per component, at or near the component centroid, is
handed to the caller for a census.  Components thinner than two pixels
everywhere are flagged unresolved rather than probed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Region:
    """One connected component of the complement of the drawn curves."""

    label: int
    n_pixels: int
    centroid: tuple       # plane coordinates of the pixel centroid
    probe: tuple          # in-component point to census, near the centroid
    resolved: bool        # False when nowhere 2 pixels thick
    touches_border: bool  # clipped by the raster window


def _polyline_pixels(ix: np.ndarray, iy: np.ndarray, inside: np.ndarray,
                     resolution: int) -> tuple:
    """In-grid pixels of the Bresenham lines between consecutive points
    (ix, iy) of one polyline, drawn where either end is ``inside``.

    The line from (x0, y0) to (x0 + dx, y0 + dy), n = max(|dx|, |dy|),
    marks for k = 0..n the pixel
    (x0 + sx floor((2k|dx| + n) / 2n), y0 + sy floor((2k|dy| + n) / 2n)),
    so along the major axis step k is at x0 + sx k (or y0 + sy k) and only
    the steps inside the grid on that axis are expanded."""
    # a point in its predecessor's pixel and band adds nothing (a segment
    # from A to A marks A); the last point stays, so that a line collapsed
    # onto one pixel still marks it
    keep = np.ones(len(ix), dtype=bool)
    keep[1:] = (ix[1:] != ix[:-1]) | (iy[1:] != iy[:-1]) | (inside[1:]
                                                            != inside[:-1])
    keep[-1] = True
    ix, iy, inside = ix[keep], iy[keep], inside[keep]
    drawn = inside[:-1] | inside[1:]
    x0, y0 = ix[:-1][drawn], iy[:-1][drawn]
    dx, dy = ix[1:][drawn] - x0, iy[1:][drawn] - y0
    adx, ady = np.abs(dx), np.abs(dy)
    n = np.maximum(adx, ady)
    sx, sy = np.where(dx < 0, -1, 1), np.where(dy < 0, -1, 1)
    major_x = adx >= ady
    c, s = np.where(major_x, x0, y0), np.where(major_x, sx, sy)
    lo = np.maximum(np.minimum(-s * c, s * (resolution - 1 - c)), 0)
    hi = np.minimum(np.maximum(-s * c, s * (resolution - 1 - c)), n)
    count = np.maximum(hi - lo + 1, 0)
    seg = np.repeat(np.arange(len(count)), count)
    k = np.arange(len(seg)) + (lo - np.cumsum(count) + count)[seg]
    n, den = n[seg], np.maximum(2 * n[seg], 1)
    x = x0[seg] + sx[seg] * ((2 * k * adx[seg] + n) // den)
    y = y0[seg] + sy[seg] * ((2 * k * ady[seg] + n) // den)
    ok = (x >= 0) & (x < resolution) & (y >= 0) & (y < resolution)
    return x[ok], y[ok]


def rasterize_curves(polylines: list, extent: tuple, resolution: int = 512) -> np.ndarray:
    """Mark curve pixels on a resolution^2 grid covering the extent
    (xmin, xmax, ymin, ymax).  Segments with both ends far outside the
    window are skipped."""
    xmin, xmax, ymin, ymax = extent
    grid = np.zeros((resolution, resolution), dtype=bool)
    sx = (resolution - 1) / (xmax - xmin)
    sy = (resolution - 1) / (ymax - ymin)
    for line in polylines:
        pts = np.asarray(line, dtype=float)
        if len(pts) < 2:
            continue
        px = np.clip((pts[:, 0] - xmin) * sx, -1e300, 1e300)
        py = np.clip((pts[:, 1] - ymin) * sy, -1e300, 1e300)
        # a point more than 2^30 pixels out moves towards the grid's centre
        # to that distance: a segment into the grid turns by at most
        # resolution / 2^30 radians, and the int64 cast and the 2 k |dx| of
        # _polyline_pixels stay exact
        c = 0.5 * (resolution - 1)
        r = np.maximum(np.abs(px - c), np.abs(py - c))
        far = r > 2.0 ** 30
        shrink = 2.0 ** 30 / r[far]
        px[far] = c + (px[far] - c) * shrink
        py[far] = c + (py[far] - c) * shrink
        inside = ((px > -resolution) & (px < 2 * resolution)
                  & (py > -resolution) & (py < 2 * resolution))
        x, y = _polyline_pixels(np.round(px).astype(np.int64),
                                np.round(py).astype(np.int64), inside,
                                resolution)
        grid[x, y] = True
    return grid


def _components(free: np.ndarray) -> tuple:
    """(labels, runs): 4-connected component labels of the free pixels (0
    where blocked), numbered 1, 2, ... in the raster order of each
    component's first pixel, and the free runs of every row in raster
    order as arrays (label, row, first column, last column).

    Runs in adjacent rows that share a column are joined by union-find on
    whole arrays: every round hooks the larger root of each joined pair
    onto the smaller one and then follows the pointers to their roots,
    until every pair shares its root.  Roots only ever point to earlier
    runs, so every root is the first run of its component and ranking the
    roots numbers the components."""
    # a run changes its zero-padded row at its first pixel and after its
    # last
    padded = np.zeros((free.shape[0], free.shape[1] + 2), dtype=bool)
    padded[:, 1:-1] = free
    edge = padded[:, 1:] != padded[:, :-1]
    row, col = np.nonzero(edge)
    row, first, last = row[::2], col[::2], col[1::2] - 1
    starts = edge[:, :-1] & free
    # at a free pixel the number of its run (1, 2, ...), at a blocked one
    # the number of the last run before it (0 before the first)
    run = np.cumsum(starts.ravel(), dtype=np.int32).reshape(free.shape)
    n_runs = len(row)
    # one pixel per pair of touching runs: where the overlap begins or
    # where a run starts inside it
    touch = free[:-1] & free[1:]
    pair = touch.copy()
    pair[:, 1:] &= ~touch[:, :-1] | starts[:-1, 1:] | starts[1:, 1:]
    a, b = run[:-1][pair], run[1:][pair]
    root = np.arange(n_runs + 1)
    while True:
        ra, rb = root[a], root[b]
        if np.array_equal(ra, rb):
            break
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
    # run 0 is a root of its own and takes label 0
    number = (np.cumsum(root == np.arange(n_runs + 1)) - 1).astype(np.int32)
    owner = number[root]
    labels = owner.take(run)
    labels[~free] = 0
    return labels, (owner[1:], row, first, last)


def label_regions(polylines: list, extent: tuple,
                  resolution: int = 512) -> list:
    """Segment the window into cells of the curve arrangement."""
    xmin, xmax, ymin, ymax = extent
    free = ~rasterize_curves(polylines, extent, resolution)
    labels, (owner, row, first, last) = _components(free)
    n = int(labels.max()) + 1
    # pixel counts and row/column sums per component from the free runs of
    # each row, as exact integers
    length = last - first + 1
    count = np.bincount(owner, length, minlength=n).astype(np.int64)
    sum_i = np.bincount(owner, row * length, minlength=n)
    sum_j = np.bincount(owner, (first + last) * length // 2, minlength=n)
    # a thick core is a free pixel whose four neighbours are free, and so
    # in its component; the first of each row's stretch of cores stands
    # for the stretch
    core = (free[1:-1, 1:-1] & free[:-2, 1:-1] & free[2:, 1:-1]
            & free[1:-1, :-2] & free[1:-1, 2:])
    core[:, 1:] &= ~core[:, :-1]
    thick = np.bincount(labels[1:-1, 1:-1][core], minlength=n) > 0
    border = np.zeros(n, dtype=bool)
    for side in (labels[0], labels[-1], labels[:, 0], labels[:, -1]):
        border[side] = True
    regions = []
    hx = (xmax - xmin) / (resolution - 1)
    hy = (ymax - ymin) / (resolution - 1)
    for lab in range(1, n):
        cx, cy = sum_i[lab] / count[lab], sum_j[lab] / count[lab]
        centroid = (xmin + cx * hx, ymin + cy * hy)
        ci, cj = int(round(cx)), int(round(cy))
        if labels[ci, cj] != lab:
            pix = np.argwhere(labels == lab)
            k = int(np.argmin(((pix - [cx, cy]) ** 2).sum(axis=1)))
            ci, cj = pix[k]
        probe = (xmin + ci * hx, ymin + cj * hy)
        regions.append(Region(label=lab, n_pixels=int(count[lab]),
                              centroid=centroid, probe=probe,
                              resolved=bool(thick[lab]),
                              touches_border=bool(border[lab])))
    return regions
