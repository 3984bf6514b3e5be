"""Minimal self-contained SVG rendering: curves, labels, contours.

No external assets or libraries; styles are inline.  Bifurcation curves
are drawn solid, coexistence (Maxwell) curves dashed.
"""

from __future__ import annotations

import numpy as np


class SvgCanvas:
    """Maps a rectangular data window onto a square SVG viewport."""

    def __init__(self, extent, size: int = 640, margin: int = 40):
        self.xmin, self.xmax, self.ymin, self.ymax = extent
        self.size = size
        self.margin = margin
        self._parts = []

    def _tx(self, x):
        inner = self.size - 2 * self.margin
        return self.margin + (x - self.xmin) / (self.xmax - self.xmin) * inner

    def _ty(self, y):
        inner = self.size - 2 * self.margin
        return self.size - self.margin - (y - self.ymin) / (self.ymax - self.ymin) * inner

    def _near(self, pts):
        """Which points of a (..., 2) array lie within half a window width
        of the window; lines are drawn only through runs of such points,
        to avoid wild excursions."""
        wx = 0.5 * (self.xmax - self.xmin)
        wy = 0.5 * (self.ymax - self.ymin)
        x, y = pts[..., 0], pts[..., 1]
        return ((x >= self.xmin - wx) & (x <= self.xmax + wx)
                & (y >= self.ymin - wy) & (y <= self.ymax + wy))

    def _polylines(self, lines, color, width, dashed=False):
        """One <polyline> through each (k, 2) point array of ``lines``, a
        list or an (n, k, 2) array: all points are mapped in one pass and
        formatted by one %-format, one line of it per polyline."""
        if not len(lines):
            return
        dash = ' stroke-dasharray="6 4"' if dashed else ""
        head = (f'<polyline fill="none" stroke="{color}" '
                f'stroke-width="{width}"{dash} points="')
        if isinstance(lines, np.ndarray):
            sizes, pts = [lines.shape[1]] * len(lines), lines.reshape(-1, 2)
        else:
            sizes, pts = list(map(len, lines)), np.concatenate(lines)
        line = {k: head + " ".join(["%.2f,%.2f"] * k) + '"/>'
                for k in set(sizes)}
        xy = np.stack([self._tx(pts[:, 0]), self._ty(pts[:, 1])], axis=-1)
        self._parts.append("\n".join(map(line.__getitem__, sizes))
                           % tuple(xy.ravel().tolist()))

    def polyline(self, points, color="#1a1a1a", width=1.2, dashed=False):
        pts = np.asarray(points, dtype=float)
        if len(pts) < 2:
            return
        inside = self._near(pts)
        cuts = np.flatnonzero(np.diff(inside)) + 1
        runs = np.split(pts, cuts)
        first = 0 if inside[0] else 1  # runs alternate in and out of window
        self._polylines([run for run in runs[first::2] if len(run) >= 2],
                        color, width, dashed)

    def segments(self, segs, color="#1a1a1a", width=1.2):
        """Line segments (n, 2, 2), each drawn as ``polyline`` draws a
        two-point line: only when both of its ends are near the window."""
        segs = np.asarray(segs, dtype=float)
        self._polylines(segs[self._near(segs).all(axis=1)], color, width)

    def circle(self, x, y, r=3.0, color="#c62828"):
        self._parts.append(
            f'<circle cx="{self._tx(x):.2f}" cy="{self._ty(y):.2f}" '
            f'r="{r}" fill="{color}"/>')

    def text(self, x, y, s, size=14, color="#1a1a1a"):
        self._parts.append(
            f'<text x="{self._tx(x):.2f}" y="{self._ty(y):.2f}" '
            f'font-family="sans-serif" font-size="{size}" fill="{color}" '
            f'text-anchor="middle">{s}</text>')

    def frame(self, title=""):
        inner = self.size - 2 * self.margin
        self._parts.append(
            f'<rect x="{self.margin}" y="{self.margin}" width="{inner}" '
            f'height="{inner}" fill="none" stroke="#888" stroke-width="0.8"/>')
        if title:
            self._parts.append(
                f'<text x="{self.size / 2}" y="{self.margin - 12}" '
                f'font-family="sans-serif" font-size="15" fill="#1a1a1a" '
                f'text-anchor="middle">{title}</text>')

    def render(self) -> str:
        body = "\n".join(self._parts)
        return (f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'viewBox="0 0 {self.size} {self.size}" '
                f'width="{self.size}" height="{self.size}">\n'
                f'<rect width="100%" height="100%" fill="white"/>\n'
                f"{body}\n</svg>\n")


# Corner offsets (di, dj) of a cell, counter-clockwise from (i, j); edge e
# runs from corner e to corner e + 1 (mod 4).
_CORNER_DI = np.array([0, 1, 1, 0])
_CORNER_DJ = np.array([0, 0, 1, 1])


def contour_segments(xs, ys, values, levels):
    """Marching-squares segments (n, 2, 2) of one iso-level, or of each of
    a sequence of levels in turn.

    values has shape (len(xs), len(ys)); the corners of the cells without
    a NaN corner are stacked once for all levels.  An edge is crossed where
    exactly one end lies above the level, at the linear interpolant.  A
    cell's crossings are taken in edge order and paired first with second,
    third with fourth (the saddle case), cells in raster order.
    """
    v, xs, ys = (np.asarray(a, dtype=float) for a in (values, xs, ys))
    levels = np.asarray(levels, dtype=float).reshape(-1)
    corners = np.stack([v[:-1, :-1], v[1:, :-1], v[1:, 1:], v[:-1, 1:]],
                       axis=-1)
    i, j = np.nonzero(~np.isnan(corners).any(axis=-1))
    corners = corners[i, j]
    above = corners > levels[:, None, None]
    level, cell, start = np.nonzero(above != np.roll(above, -1, axis=-1))
    end = (start + 1) % 4
    ia, ja = i[cell] + _CORNER_DI[start], j[cell] + _CORNER_DJ[start]
    ib, jb = i[cell] + _CORNER_DI[end], j[cell] + _CORNER_DJ[end]
    ca, cb = corners[cell, start], corners[cell, end]
    t = (levels[level] - ca) / (cb - ca)
    pts = np.stack([xs[ia] + t * (xs[ib] - xs[ia]),
                    ys[ja] + t * (ys[jb] - ys[ja])], axis=-1)
    return pts.reshape(-1, 2, 2)


def render_curves(extent, bifurcation=(), maxwell=(), labels=(), markers=(),
                  size=640, title="") -> str:
    """Standard figure: solid bifurcation curves, dashed Maxwell curves,
    text labels (x, y, string) and point markers (x, y)."""
    canvas = SvgCanvas(extent, size=size)
    canvas.frame(title)
    for line in bifurcation:
        canvas.polyline(line)
    for line in maxwell:
        canvas.polyline(line, color="#c62828", dashed=True)
    for x, y in markers:
        canvas.circle(x, y)
    for x, y, s in labels:
        canvas.text(x, y, s)
    return canvas.render()


def render_potential(xs, ys, values, minima=(), n_levels=24, size=640,
                     title="") -> str:
    """Contour plot of a potential over the simplex triangle in plane
    coordinates, with minima marked."""
    finite = values[np.isfinite(values)]
    lo, hi = float(finite.min()), float(finite.max())
    span = hi - lo
    levels = [lo + span * (k + 1) / (n_levels + 1) for k in range(n_levels)]
    extent = (float(xs[0]), float(xs[-1]), float(ys[0]), float(ys[-1]))
    canvas = SvgCanvas(extent, size=size)
    canvas.frame(title)
    vals = np.where(np.isfinite(values), values, np.nan)
    canvas.segments(contour_segments(xs, ys, vals, levels), color="#555",
                    width=0.8)
    for x, y in minima:
        canvas.circle(x, y)
    return canvas.render()
