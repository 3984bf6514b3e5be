"""Cell detection in a planar curve arrangement by raster labelling.

The slice curves partition the field plane into cells on which the number
of local minima is constant.  Curves are rasterized onto a boolean grid
with 8-connected line drawing (which 4-connected components cannot leak
across); the free pixels are then segmented into 4-connected components
by joining the free runs of adjacent rows with union-find.
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


def _draw_segment(grid: np.ndarray, x0: int, y0: int, x1: int, y1: int) -> None:
    """Bresenham line; marks an 8-connected set of pixels."""
    dx, dy = abs(x1 - x0), -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    n = grid.shape[0]
    while True:
        if 0 <= x0 < n and 0 <= y0 < n:
            grid[x0, y0] = True
        if x0 == x1 and y0 == y1:
            return
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x0 += sx
        if e2 <= dx:
            err += dx
            y0 += sy


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
        px = (pts[:, 0] - xmin) * sx
        py = (pts[:, 1] - ymin) * sy
        inside = ((px > -resolution) & (px < 2 * resolution)
                  & (py > -resolution) & (py < 2 * resolution))
        ix = np.round(px).astype(int)
        iy = np.round(py).astype(int)
        for k in range(len(pts) - 1):
            if not (inside[k] or inside[k + 1]):
                continue
            _draw_segment(grid, ix[k], iy[k], ix[k + 1], iy[k + 1])
    return grid


def _components(free: np.ndarray) -> np.ndarray:
    """4-connected component labels of the free pixels (0 where blocked),
    numbered 1, 2, ... in the raster order of each component's first pixel.

    The free pixels of each row form runs, enumerated in raster order.
    Runs in adjacent rows that share a column are joined by union-find
    keeping the earlier run as the root, so every root is the first run of
    its component and ranking the roots numbers the components."""
    padded = np.zeros((free.shape[0], free.shape[1] + 1), dtype=bool)
    padded[:, 1:] = free
    starts = free & ~padded[:, :-1]
    run = np.cumsum(starts.ravel()).reshape(free.shape) - 1
    n_runs = int(run.flat[-1]) + 1 if free.size else 0
    # one pixel per pair of touching runs: where the overlap begins or
    # where a run starts inside it
    touch = free[:-1] & free[1:]
    first = touch.copy()
    first[:, 1:] &= ~touch[:, :-1] | starts[:-1, 1:] | starts[1:, 1:]
    parent = list(range(n_runs))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in zip(run[:-1][first].tolist(), run[1:][first].tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    root = np.array(parent, dtype=np.int64)
    while True:
        nxt = root[root]
        if np.array_equal(nxt, root):
            break
        root = nxt
    number = np.cumsum(root == np.arange(n_runs)).astype(np.int32)
    labels = np.zeros(free.shape, dtype=np.int32)
    labels[free] = number[root][run[free]]
    return labels


def label_regions(polylines: list, extent: tuple,
                  resolution: int = 512) -> list:
    """Segment the window into cells of the curve arrangement."""
    xmin, xmax, ymin, ymax = extent
    labels = _components(~rasterize_curves(polylines, extent, resolution))
    n = int(labels.max()) + 1
    flat = labels.ravel()
    ii, jj = np.indices(labels.shape)
    count = np.bincount(flat, minlength=n)
    sum_i = np.bincount(flat, ii.ravel().astype(float), minlength=n)
    sum_j = np.bincount(flat, jj.ravel().astype(float), minlength=n)
    # a thick core is a pixel with all four neighbours in its own component
    inner = labels[1:-1, 1:-1]
    core = ((inner == labels[:-2, 1:-1]) & (inner == labels[2:, 1:-1])
            & (inner == labels[1:-1, :-2]) & (inner == labels[1:-1, 2:]))
    thick = set(np.unique(inner[core]).tolist())
    border = set(np.concatenate([labels[0], labels[-1], labels[:, 0],
                                 labels[:, -1]]).tolist())
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
                              resolved=lab in thick,
                              touches_border=lab in border))
    return regions
