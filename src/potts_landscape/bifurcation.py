"""Closed-form geometry of the degenerate-stationary-point set.

For fixed inverse temperature the degenerate stationary points form the
symmetrized graph of an explicit algebraic function ``gamma`` over a union
of intervals; pushing that graph through the field map yields the
constant-temperature slice of the bifurcation set.  Globally the set is the
image of two explicit patches assigning to every simplex point the two
inverse temperatures at which it is degenerate.  The Taylor expansion of
the slice at its on-axis cusp, the diagnostic of the unfolding at the
butterfly temperature 18/7, is closed-form as well: for 2 < b < 8/3

    c2 = -b^2 (7b - 18) / (6 (b - 2)),
    c3 = sqrt(3) b^3 (7b - 18) / (54 (b - 3)),
    c4 = b^4 (55b^4 - 552b^3 + 2078b^2 - 3496b + 2232)
         / (72 (b - 3)^2 (b - 2)^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, RemovableSingularityError
from .model import (Permutation, PERMUTATIONS, _interior_lattice,
                    batch_catastrophe, batch_pq)

BETA_BEAK = 8.0 / 3.0
# Surface sheet values above this, next to the corners, are skipped.
_BETA_CAP = 1e8


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    include_hi: bool = False

    def contains(self, x: float) -> bool:
        if self.include_hi:
            return self.lo < x <= self.hi
        return self.lo < x < self.hi

    @property
    def length(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class DomainIntervals:
    """Parameter domain of ``gamma`` at one inverse temperature."""

    beta: float
    intervals: tuple

    def contains(self, x: float) -> bool:
        return any(iv.contains(x) for iv in self.intervals)

    @property
    def is_empty(self) -> bool:
        return len(self.intervals) == 0


@dataclass(frozen=True)
class SliceCurve:
    """One sampled branch of a constant-temperature slice.

    Samples stay inside a single connected interval of the parameter
    domain; ``branch`` is the permutation applied to the base curve.
    """

    beta: float
    branch: Permutation
    interval_index: int
    x_param: np.ndarray   # (n,)
    nu: np.ndarray        # (n, 3)
    alpha: np.ndarray     # (n, 3)


@dataclass(frozen=True)
class SurfacePatch:
    """Samples of one sheet of the parametric bifurcation surface."""

    sign: int             # +1 or -1
    nu: np.ndarray        # (n, 3)
    beta: np.ndarray      # (n,)
    alpha: np.ndarray     # (n, 3)
    skipped: int          # grid points dropped near the corners


def _meeting_ends(beta: float) -> list:
    """Where ``gamma`` meets its partner root ``1 - x - gamma``: the root
    1 - 2/beta of 2 - b(1-x) and, from 8/3 on, the two roots of
    2 - 3 b x(1-x)."""
    ends = [1.0 - 2.0 / beta]
    if beta >= BETA_BEAK:
        s8 = math.sqrt(max(1.0 - 8.0 / (3.0 * beta), 0.0))
        ends += [0.5 - 0.5 * s8, 0.5 + 0.5 * s8]
    return ends


def domain_intervals(beta: float) -> DomainIntervals:
    """The exact interval case split; empty for beta <= 2.

    Regime boundaries follow the case labels as written: 8/3 belongs to the
    middle case and 3 to the last.  Zero-length intervals (the middle one
    collapses at beta = 3) are omitted.
    """
    beta = float(beta)
    if beta <= 2.0:
        return DomainIntervals(beta, ())
    r_fold, *quadratic = _meeting_ends(beta)
    s2 = math.sqrt(1.0 - 2.0 / beta)
    lo2, hi2 = 0.5 - 0.5 * s2, 0.5 + 0.5 * s2
    if beta < BETA_BEAK:
        ivs = [Interval(0.0, r_fold, include_hi=True), Interval(lo2, hi2)]
    else:
        m_lo, m_hi = quadratic
        ivs = [Interval(0.0, lo2),
               Interval(min(r_fold, m_lo), max(r_fold, m_lo)),
               Interval(m_hi, hi2)]
    # the middle interval collapses at beta = 3; drop rounding-width stubs
    return DomainIntervals(beta, tuple(iv for iv in ivs if iv.length > 1e-12))


def discriminant_roots(beta: float) -> list:
    """Roots of the discriminant (3 b x - 2)(2 - b(1-x))(2 - 3 b x(1-x)),
    ascending.  The quadratic factor contributes only for beta >= 8/3."""
    beta = float(beta)
    if beta <= 2.0:
        raise DomainError(f"discriminant roots require beta > 2, got {beta}")
    return sorted([2.0 / (3.0 * beta)] + _meeting_ends(beta))


def _gamma_unchecked(beta: float, x) -> np.ndarray:
    """Closed-form branch of the degeneracy quadratic; no domain check.

    The square-root argument is clamped at zero so that interval endpoints,
    where the two branches merge, do not produce NaN from rounding.
    """
    x = np.asarray(x, dtype=float)
    denom = beta * (2.0 - 3.0 * beta * x)
    arg = (1.0 - x) ** 2 - 4.0 * (1.0 - 2.0 * beta * x * (1.0 - x)) / denom
    arg = np.maximum(arg, 0.0)
    return 0.5 * (1.0 - x - np.sqrt(arg))


def gamma(beta: float, x: float) -> float:
    """Second simplex component of the degenerate point with first
    component ``x``; defined for ``x`` in the interval domain."""
    beta = float(beta)
    x = float(x)
    dom = domain_intervals(beta)
    singular = abs(2.0 - 3.0 * beta * x) <= 1e-12
    if singular:
        near = dom.contains(x) or any(
            min(abs(x - iv.lo), abs(x - iv.hi)) <= 1e-9 for iv in dom.intervals)
        if near:
            raise RemovableSingularityError(
                f"x = 2/(3 beta) = {2.0 / (3.0 * beta)!r} is a removable "
                "singularity of the closed form; the curve extends "
                "continuously through it (with limit value 1/4 at "
                "beta = 8/3)")
    if not dom.contains(x):
        raise DomainError(
            f"x = {x!r} is outside the parameter domain at beta = {beta!r}")
    return float(_gamma_unchecked(beta, x))


def _cos_spaced(lo: float, hi: float, n: int, include_hi: bool) -> np.ndarray:
    """Strictly interior samples of (lo, hi) clustered like sqrt spacing at
    both endpoints, optionally appending the right endpoint."""
    t = (np.arange(n) + 1.0) / (n + 1.0)
    xs = lo + (hi - lo) * 0.5 * (1.0 - np.cos(np.pi * t))
    if include_hi:
        xs = np.append(xs, hi)
    return xs


def slice_curves(beta: float, samples_per_interval: int = 400) -> list:
    """All six permutation branches of the constant-temperature slice,
    one SliceCurve per (branch, domain interval)."""
    beta = float(beta)
    if beta <= 2.0:
        raise DomainError(f"slice requires beta > 2, got {beta}")
    if samples_per_interval < 2:
        raise DomainError("samples_per_interval must be >= 2")
    dom = domain_intervals(beta)
    branches = []
    for iv in dom.intervals:
        xs = _cos_spaced(iv.lo, iv.hi, samples_per_interval, iv.include_hi)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            g = _gamma_unchecked(beta, xs)
            nu = np.stack([xs, g, 1.0 - xs - g], axis=-1)
            alpha = batch_catastrophe(beta, nu)
        # at huge beta the field underflows to the simplex boundary
        if not (np.isfinite(alpha).all() and alpha.min() > 0.0):
            raise NumericalError(
                f"slice at beta = {beta!r} leaves floating-point range: the "
                f"catastrophe map gives a non-finite or zero field component")
        branches.append((xs, nu, alpha))
    curves = []
    for perm in PERMUTATIONS:
        for k, (xs, nu, alpha) in enumerate(branches):
            curves.append(SliceCurve(beta=beta, branch=perm,
                                     interval_index=k, x_param=xs,
                                     nu=perm.apply(nu),
                                     alpha=perm.apply(alpha)))
    return curves


def fold_lines_nu(curves) -> list:
    """Simplex points (n, 3) of the fold lines of a slice, one polyline
    per line, from the curves of one ``slice_curves`` call.

    The slice is S3-symmetric and every degenerate point has its first
    component in the interval domain, so the identity branch of
    ``slice_curves`` and its (2 3) swap trace the whole fold set, which the
    six branches trace three times.  On each interval the identity runs
    forward and the swap back, joined through the exact point
    (e, (1-e)/2, (1-e)/2) at each end e where the two roots meet; with both
    ends meeting the line is a closed loop.  An end where a component runs
    to the simplex edge stays open, so an interval open at both ends gives
    two lines.
    """
    if not curves:
        return []
    beta = curves[0].beta
    meets = _meeting_ends(beta)
    base = {c.interval_index: c for c in curves if c.branch.indices == (0, 1, 2)}
    lines = []
    for k, iv in enumerate(domain_intervals(beta).intervals):
        # a sampled meeting end (an included hi) gives way to the exact one
        fwd = base[k].nu[~np.isin(base[k].x_param, meets)]
        back = fwd[::-1, [0, 2, 1]]
        lo, hi = ([[e, 0.5 - 0.5 * e, 0.5 - 0.5 * e]] if e in meets else None
                  for e in (iv.lo, iv.hi))
        if lo and hi:
            lines.append(np.concatenate([lo, fwd, hi, back, lo]))
        elif hi:
            lines.append(np.concatenate([fwd, hi, back]))
        elif lo:
            lines.append(np.concatenate([back, lo, fwd]))
        else:
            lines += [fwd, back]
    return lines


def fold_lines_pq(curves) -> list:
    """Field-plane (p, q) polylines of the slice's fold lines
    (``fold_lines_nu``), one per line."""
    lines = fold_lines_nu(curves)
    if not lines:
        return []
    pq = batch_pq(batch_catastrophe(curves[0].beta, np.concatenate(lines)))
    return np.split(pq, np.cumsum([len(line) for line in lines[:-1]]))


def surface_patches(grid_density: int = 64):
    """Evaluate both surface sheets on a barycentric grid of the simplex.

    Returns (plus, minus) SurfacePatch.  Grid points whose sheet value
    exceeds ``_BETA_CAP`` (possible arbitrarily close to the corners) are
    skipped and counted.
    """
    if grid_density < 16:
        raise DomainError(f"grid_density must be >= 16, got {grid_density}")
    nu = _interior_lattice(grid_density) / float(grid_density)
    if grid_density % 3 != 0:  # make sure the pinch point itself is sampled
        nu = np.vstack([nu, np.full((1, 3), 1.0 / 3.0)])

    inv = 1.0 / nu
    s1 = inv.sum(axis=-1)
    s2 = (inv[:, 0] * inv[:, 1] + inv[:, 0] * inv[:, 2]
          + inv[:, 1] * inv[:, 2])
    disc = np.maximum(s1 * s1 / 9.0 - s2 / 3.0, 0.0)
    root = np.sqrt(disc)

    patches = []
    for sign in (+1, -1):
        beta = s1 / 3.0 + sign * root
        ok = np.isfinite(beta) & (beta > 0.0) & (beta <= _BETA_CAP)
        alpha = batch_catastrophe(beta[ok], nu[ok])
        patches.append(SurfacePatch(sign=sign, nu=nu[ok], beta=beta[ok],
                                    alpha=alpha, skipped=int((~ok).sum())))
    return patches[0], patches[1]


def degenerate_locus_xy(beta: float, x, y):
    """Degeneracy condition in triangle plane coordinates:

    (1/9) (6 b (x^2+y^2-1) + b^2 (2y+1)((y-1)^2 - 3x^2) + 9).

    Identical to the simplex form after coordinate conversion; its zero set
    is the set of degenerate stationary points in the plane.
    """
    b = float(beta)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    val = (6.0 * b * (x * x + y * y - 1.0)
           + b * b * (2.0 * y + 1.0) * ((y - 1.0) ** 2 - 3.0 * x * x)
           + 9.0) / 9.0
    return val if val.ndim else float(val)


@dataclass(frozen=True)
class ButterflyCoefficients:
    """Scalar coefficients of the slice expansion at the on-axis cusp.

    c2 and c4 multiply the symmetric direction (1, 1) at orders x^2 and x^4,
    c3 multiplies the antisymmetric direction (-1, 1) at order x^3.
    """

    beta: float
    c2: float
    c3: float
    c4: float
    y0: float


def butterfly_expansion(beta: float) -> ButterflyCoefficients:
    """Taylor coefficients of the slice at its on-axis cusp for
    2 < beta < 8/3, in the closed forms of the module docstring.

    The degenerate locus through the cusp is the graph of an even function
    y(x); its push-forward through the field map, in log-ratio target
    coordinates (u, v), splits into the symmetric part (u + v)/2, even in
    x, and the antisymmetric part (v - u)/2, odd in x.  Their series about
    the cusp give c2, c4 and c3.  The factor 7b - 18 divides both c2 and
    c3, so both vanish at 18/7, where c4 = 39366/2401.
    """
    beta = float(beta)
    if not 2.0 < beta < BETA_BEAK:
        raise DomainError(
            f"butterfly expansion requires 2 < beta < 8/3, got {beta}")
    # the on-axis cusp: at x = 0 the plane condition is 2 b^2 y^3 +
    # 3 b (2 - b) y^2 + (b - 3)^2 = (b y - b + 3)(2 b y^2 - b y + 3 - b),
    # whose quadratic has no real root below 8/3
    y0 = (beta - 3.0) / beta
    b, onset = beta, 7.0 * beta - 18.0
    c2 = -b * b * onset / (6.0 * (b - 2.0))
    c3 = math.sqrt(3.0) * b ** 3 * onset / (54.0 * (b - 3.0))
    quartic = (((55.0 * b - 552.0) * b + 2078.0) * b - 3496.0) * b + 2232.0
    c4 = b ** 4 * quartic / (72.0 * ((b - 3.0) * (b - 2.0)) ** 2)
    return ButterflyCoefficients(beta=beta, c2=c2, c3=c3, c4=c4, y0=y0)
