"""Bracketed root finding: one safeguarded Halley iteration for all the
package's bracketed roots, on arrays of brackets (``_bracketed_halley``) or
in float arithmetic on one (``_bracketed_newton``, ``bracketed_root``)."""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

_EPS = 4.0 * float(np.finfo(float).eps)  # rounding unit of the stopping tests


def _hermite_fraction(h, end_lo, end_hi):
    """The share u of a bracket of width h where the cubic Hermite
    interpolant of the ends' values and slopes vanishes: two Newton steps
    on the cubic from the secant root, outside (0, 1) where they fail."""
    (f0, d0), (f1, d1) = end_lo, end_hi
    df0, hd0 = f0 - f1, h * d0
    c2 = -3.0 * df0 - h * (2.0 * d0 + d1)
    c3 = 2.0 * df0 + h * (d0 + d1)
    c2x2, c3x3 = 2.0 * c2, 3.0 * c3
    u = f0 / df0
    for _ in range(2):
        u = u - (((c3 * u + c2) * u + hd0) * u + f0) / (
            (c3x3 * u + c2x2) * u + hd0)
    return u


def _bracketed_halley(fun, lo, hi, end_lo, end_hi, settled=None):
    """Roots of ``fun`` (value, slope, maybe second derivative) in all the
    brackets [lo, hi] at once, from value (signs opposite) and slope at the
    ends.  Start at the root of the ends' cubic Hermite interpolant (the
    midpoint if Newton on the cubic leaves the bracket); take Halley (else
    Newton) steps that stay inside the shrinking bracket and at least halve
    the last one, else bisect (``rtsafe``).  Done when the Newton step or
    the width is at rounding level, tested before the step is formed, or
    when a step inside the bracket fails the halving test within 1e3
    rounding units (rounding noise), or where a caller's ``settled(x,
    |dx|)`` holds and the correction dx stays inside the bracket.  A done
    bracket keeps its root, the same whatever other brackets share the
    call, and every root is the iterate of the last call of ``fun``."""
    if not len(lo):
        return lo
    h = hi - lo
    u = _hermite_fraction(h, end_lo, end_hi)
    x = np.where((u > 0.0) & (u < 1.0), lo + u * h, 0.5 * (lo + hi))
    step, sign_lo = np.abs(h), np.sign(end_lo[0])
    for _ in range(100):
        f, df, *d2f = fun(x)
        left = np.sign(f) == sign_lo
        lo, hi = np.where(left, x, lo), np.where(left, hi, x)
        ex = _EPS * x
        done = (np.abs(f) <= np.abs(ex * df)) | (hi - lo <= ex)
        if done.all():
            return x
        dx = f / df
        if d2f:
            dx /= 1.0 - 0.5 * f * d2f[0] / (df * df)
        x_dx, size = x - dx, np.abs(dx)
        inside = (lo <= x_dx) & (x_dx <= hi)
        halves = 2.0 * size <= step
        done |= inside & (size <= 1e3 * ex) & ~halves
        if settled is not None:
            done |= inside & settled(x, size)
        if done.all():
            return x
        new = np.where(done, x, np.where(inside & halves, x_dx,
                                         0.5 * (lo + hi)))
        step, x = np.abs(new - x), new
    fun(x)  # the iteration cap: end on an evaluated iterate all the same
    return x


def _bracketed_newton(fun, lo: float, hi: float, end_lo, end_hi) -> float:
    """``_bracketed_halley`` on one bracket of floats for a ``fun`` that
    returns value and slope: its start, Newton steps, bisections and tests
    in float arithmetic, root for root, also where numpy divides by 0."""
    h = hi - lo
    try:
        u = _hermite_fraction(h, end_lo, end_hi)
    except ZeroDivisionError:
        u = np.nan
    x = lo + u * h if 0.0 < u < 1.0 else 0.5 * (lo + hi)
    step, positive = abs(h), end_lo[0] > 0.0
    for _ in range(100):
        f, df = fun(x)
        if f > 0.0 if positive else f < 0.0:
            lo = x
        else:
            hi = x
        ex = _EPS * x
        if abs(f) <= abs(ex * df) or hi - lo <= ex:
            return x
        dx = f / df if df else np.inf
        x_dx, size = x - dx, abs(dx)
        inside, halves = lo <= x_dx <= hi, 2.0 * size <= step
        if inside and size <= 1e3 * ex and not halves:
            return x
        new = x_dx if inside and halves else 0.5 * (lo + hi)
        step, x = abs(new - x), new
    fun(x)  # the iteration cap: end on an evaluated iterate all the same
    return x


def bracketed_root(fun, lo: float, hi: float) -> float:
    """The root in [lo, hi] of ``fun``, which returns value and slope at a
    float: an end where the value is exactly zero, else by
    ``_bracketed_newton``.  Raises NumericalError unless the values at the
    ends have opposite signs (bracket failure)."""
    end_lo, end_hi = fun(lo), fun(hi)
    if end_lo[0] == 0.0:
        return lo
    if end_hi[0] == 0.0:
        return hi
    if (end_lo[0] > 0.0) == (end_hi[0] > 0.0):
        raise NumericalError(f"no sign change on bracket [{lo}, {hi}]: "
                             f"f(lo)={end_lo[0]}, f(hi)={end_hi[0]}")
    return float(_bracketed_newton(fun, lo, hi, end_lo, end_hi))
