"""Stable phase diagram: equal-depth (coexistence) sets of global minima.

Two minimizers (mu, nu) of one field are equally deep exactly when they
solve the field-free system

    stationary_value(mu) = stationary_value(nu),  chi(mu) = chi(nu)

three equations in the four local coordinates of the pair, with chi the
catastrophe map.  On the symmetry axis with the third field component
suppressed the coexistence set is a straight segment.  Its mirror pair is
one explicit curve: the member (nu1, s, 1 - nu1 - s) with nu1 the W-1
partner of s, nu1 e^{-beta nu1} = s e^{-beta s}, solved for each sample's
field by Newton steps in s (Corless et al. 1996).  Its upper endpoint is
known in closed form up to the butterfly temperature and is the triple
point beyond it: the first root along the curve of the depth gap between
the member and the symmetric minimum mu = (m, m, 1 - 2m) of its field,
one bracketed scalar root (``rootfind``).  Off the axis the coexistence
curve is continued from the triple point on the field-free system,
sweeping one state coordinate per step (the dominant tangent component,
which is the first component of the symmetric-side minimizer wherever
that parametrization is well posed).  One evaluation of the system per
corrector trial (``_pair_residual``) gives its residual and Jacobian and
both minimizers' fields and depths; the accepted evaluation's Jacobian
gives the next tangent, and its field and depth are the emitted point's.
The initial-value-problem form of the curve is used only as a tangent
cross-check in the tests.  The curve
leaves on the side the S3 symmetry picks and ends on the exact A3 point,
where the pair merges at a cusp, or on the triple point mirrored onto the
next axis (Ellis & Wang 1990).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .critical import BETA_BUTTERFLY, BETA_ELLIS_WANG
from .errors import DomainError, NumericalError
from .model import (CLAMP_MARGIN, COEXISTENCE_DEPTH, DEFAULT_TOL,
                    DEGENERATE_EIG, INTERIOR_MARGIN, AprioriMeasure, CoordXY,
                    ModelParams, SpinDistribution, ToleranceConfig,
                    _check_beta, _shifted_terms, _stationary_value,
                    alpha_from_xy, batch_catastrophe, batch_free_energy,
                    batch_from_xy, batch_stationary_value, batch_xy,
                    hessian_eigenvalues)
from .rootfind import _bracketed_halley, bracketed_root
from .stationary import MinimaCensus, _branch_values, census

_SWAP12 = (1, 0, 2)
_EYE2, _EYE3 = np.eye(2), np.eye(3)
_THIRD = (3 - np.add.outer(range(3), range(3))) % 3  # the index not i or k
_SAMPLE_INSET = 0.02  # share of the segment left out at each sampled end
_CUSP_MAX_ITER = 50  # Newton steps of ``_cusp_point``
_CURVE_MAX_STEPS = 5000  # points of ``coexistence_curve``
# pair gap below which ``coexistence_curve`` closes on the cusp: nearer to
# it the residual no longer pins the positions to within their gap
_FOLD_GAP = 1e-2


@dataclass(frozen=True, slots=True)
class CoexistencePoint:
    """One parameter point carrying its set of equal-depth minimizers."""

    beta: float
    alpha: AprioriMeasure
    minimizers: tuple      # SpinDistribution, 2 to 4 of them
    depth: float           # common free-energy value


@dataclass(frozen=True)
class CoexistenceCurve:
    """Off-axis coexistence branch traced from a triple point."""

    beta: float
    points: tuple          # CoexistencePoint, each with the tracked (mu, nu)
    origin: CoexistencePoint
    status: str  # 'fold' | 'triple' | 'stalled' | 'max-steps'


@dataclass(frozen=True)
class AxisSegment:
    """Segment {x = 0} x (y_lo, y_hi) of the field triangle, on the
    symmetry axis with equal first two field components."""

    beta: float
    y_lo: float
    y_hi: float
    # the triple point that ends it, where one was solved with it
    triple: CoexistencePoint = field(default=None, compare=False)

    @property
    def is_empty(self) -> bool:
        return self.y_hi <= self.y_lo

    def alpha_at(self, y: float) -> AprioriMeasure:
        return alpha_from_xy(CoordXY(0.0, y))

    def sample_ys(self, n: int) -> np.ndarray:
        span = self.y_hi - self.y_lo
        return np.linspace(self.y_lo + _SAMPLE_INSET * span,
                           self.y_hi - _SAMPLE_INSET * span, n)


@dataclass(frozen=True)
class BeyondEllisWangSegment:
    segment: AxisSegment
    uniform_census: MinimaCensus

    @property
    def n_uniform_global(self) -> int:
        return len(self.uniform_census.global_minimizers)


def segment_upper_endpoint_y(beta: float) -> float:
    """Closed-form y-coordinate of the on-axis cusp terminating the
    symmetric coexistence segment, valid for 2 < beta <= 18/7:

    y = -(1 - (beta-2) e^{3-beta}) / (2 + (beta-2) e^{3-beta}).
    """
    e = (beta - 2.0) * math.exp(3.0 - beta)
    return -(1.0 - e) / (2.0 + e)


def symmetric_segment(beta: float, tol: ToleranceConfig = DEFAULT_TOL) -> AxisSegment:
    """Coexistence segment on the symmetry axis; empty for beta <= 2.

    Above the butterfly temperature the upper endpoint is the triple
    point's y-coordinate; from the four-phase temperature on it is 0.
    """
    beta = _check_beta(beta)
    if beta <= 2.0:
        return AxisSegment(beta, -0.5, -0.5)
    if beta <= BETA_BUTTERFLY:
        return AxisSegment(beta, -0.5, segment_upper_endpoint_y(beta))
    if beta < BETA_ELLIS_WANG:
        return _segment_to_triple(triple_point(beta, tol=tol))
    return AxisSegment(beta, -0.5, 0.0)


def _segment_to_triple(tp: CoexistencePoint) -> AxisSegment:
    """The symmetric segment ending at, and carrying, a solved triple point."""
    return AxisSegment(tp.beta, -0.5, float(batch_xy(tp.alpha.array)[1]), tp)


def _segment_curve(beta: float, s):
    """The pair member (nu1, s, 1 - nu1 - s) with x > 0 of an axis field:
    its nu1, the W-1 partner of s < 1/beta, nu1 e^{-beta nu1} =
    s e^{-beta s} (Corless et al. 1996), and its field's y-coordinate
    and the s-derivative of that: y = (r - 1)/(r + 2) for the field ratio
    r = alpha3/alpha2 = (nu3/s) e^{beta (s - nu3)}, written to stay finite
    where nu3 = 0."""
    nu1, dnu1 = _branch_values(beta, 0.0, s, True, 2)
    nu3, dnu3 = 1.0 - nu1 - s, -1.0 - dnu1
    e = np.exp(beta * (s - nu3)) / s
    r = nu3 * e
    dr = e * (dnu3 + beta * nu3 * (1.0 - dnu3) - nu3 / s)
    return nu1, (r - 1.0) / (r + 2.0), 3.0 * dr / (r + 2.0) ** 2


def _pair_end(beta: float, k: int, hi: float) -> float:
    """s of the pair member with nu3 = k s: the root in (0, hi) of
    log(b/s) = beta (b - s), b = 1 - (1 + k) s, unique for hi below
    1/(2 + 2k), where it is convex; k = 0 at y = -1/2, 1 at zero field.
    As b < 1 it lies below e^{-beta (1 - (2 + k) hi)}: from that top,
    Newton steps reach it at any beta."""
    def gap(s):
        b = 1.0 - (1 + k) * s
        return (math.log(b / s) - beta * (1.0 - (2 + k) * s),
                -(1 + k) / b - 1.0 / s + beta * (2 + k))
    top = min(hi, math.exp(-beta * (1.0 - (2 + k) * hi)))
    if not (top > 1e-300 and gap(1e-300)[0] > 0.0):
        raise NumericalError(f"the segment's {('lower', 'zero-field')[k]} "
                             f"end lies below 1e-300 at beta = {beta}")
    return bracketed_root(gap, 1e-300, top)


def _zero_field_end(beta: float):
    """s of the zero-field pair member (1 - 2s, s, s): the root of the
    convex phi(s) = log((1 - 2s)/s) - beta (1 - 3s) below its minimum s*,
    or None where phi(s*) >= 0, up to the crossing temperature."""
    if beta < 8.0 / 3.0:  # phi has no minimum below 1/4
        return None
    s_min = (2.0 / (3.0 * beta)) / (1.0 + math.sqrt(1.0 - 8.0 / (3.0 * beta)))
    # s_min underflows to 0 near the float maximum, which _pair_end refuses
    if s_min > 0.0 and (math.log((1.0 - 2.0 * s_min) / s_min)
                        >= beta * (1.0 - 3.0 * s_min)):
        return None
    return _pair_end(beta, 1, s_min)


def _segment_grid(beta: float, top: float) -> np.ndarray:
    """64 values of s from the pair member at y = -1/2 to ``top``,
    cosine-spaced, denser towards both ends, which it keeps exactly."""
    g = 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, 64)))
    return (1.0 - g) * _pair_end(beta, 0, 1.0 / beta) + g * top


def axis_minima(beta: float, y: float, tol: ToleranceConfig = DEFAULT_TOL):
    """Split the minima at the axis point with the given y-coordinate into
    symmetric ones (first two components equal) and the pair member with
    x > 0, read off the census there.  Returns (sym, asym) as lists of
    simplex arrays."""
    cens = census(ModelParams(beta, alpha_from_xy(CoordXY(0.0, y))), tol)
    return _axis_split(p.nu for p in cens.minima)


def _axis_split(points):
    """``axis_minima`` of ``SpinDistribution``s at an axis field."""
    sym, asym = [], []
    for p in points:
        x = float(batch_xy(p.array)[0])
        if abs(x) <= 1e-7:
            sym.append(p.array)
        elif x > 0.0:
            asym.append(p.array)
    return sym, asym


def _depth_gap(beta: float, s, nu1, y, dy, m_cell=None):
    """g = f(mu) - f(nu), summed by components to halve its rounding, for
    the pair member nu = (nu1, s, 1 - nu1 - s) and the symmetric minimizer
    mu = (m, m, 1 - 2m) at nu's axis field (y-coordinate y); dg/ds =
    (mu3 - nu3) dL/ds, L = log(alpha1/alpha3), by the envelope theorem; mu
    and nu.  m solves log(m/(1 - 2m)) - 3 beta m + beta = L, whose left side
    increases on [1/3, 1/2) for beta < 3: in ``m_cell``, else where
    log(m/(1 - 2m)) = L + beta (3m - 1) lies in [L, L + beta/2]."""
    log_ratio = np.log((1.0 - y) / (1.0 + 2.0 * y))

    def stationarity(m):
        return (np.log(m / (1.0 - 2.0 * m)) - 3.0 * beta * m + beta
                - log_ratio, 1.0 / m + 2.0 / (1.0 - 2.0 * m) - 3.0 * beta)
    if m_cell is None:
        e = np.exp([log_ratio, log_ratio + 0.5 * beta])
        m_cell = e / (1.0 + 2.0 * e)
    f, df = stationarity(np.stack(m_cell))
    m = _bracketed_halley(stationarity, *m_cell, (f[0], df[0]), (f[1], df[1]))
    m = np.where(log_ratio == 0.0, 1.0 / 3.0, m)
    mu = np.stack([m, m, 1.0 - 2.0 * m])
    nu = np.stack([nu1, s, 1.0 - nu1 - s])
    d = mu - nu
    g = (d * (-0.5 * beta) * (mu + nu) + mu * np.log(mu)
         - nu * np.log(nu)).sum(axis=0) + d[2] * log_ratio
    return g, d[2] * -3.0 * dy / ((1.0 - y) * (1.0 + 2.0 * y)), mu, nu


def triple_point(beta: float,
                 tol: ToleranceConfig = DEFAULT_TOL) -> CoexistencePoint:
    """The on-axis point where the mirror pair and the symmetric minimum
    are equally deep, for butterfly < beta < four-phase temperature: the
    first + to - change of the depth gap (``_depth_gap``) along the segment
    curve on a 64-point cosine grid, refined by ``_bracketed_halley``.  The
    gap is positive at y = -1/2 and ends at 0 where the pair merges into
    mu, s = 1/beta, or below 0 at the zero-field member, which the curve
    reaches first above the crossing temperature."""
    beta = float(beta)
    if not BETA_BUTTERFLY < beta < BETA_ELLIS_WANG:
        raise DomainError(
            f"triple point requires 18/7 < beta < 4 log 2, got {beta}")
    s0 = _zero_field_end(beta)
    # the grid's first point, y = -1/2, has g > 0 and L infinite; at
    # s = 1/beta g is 0 by construction and 0/0 in this form
    grid = _segment_grid(beta, s0 or 1.0 / beta)[1:None if s0 else -1]
    nu1, y, dy = _segment_curve(beta, grid)
    if s0:  # at the exact uniform field
        nu1[-1], y[-1] = 1.0 - 2.0 * s0, 0.0
    g, dg, mu, _ = _depth_gap(beta, grid, nu1, y, dy)
    # rounding: min g > -2e-16 within 1e-5 of 18/7, -5e-15 at 18/7 + 3e-5
    if not g.min() < -1e-15:
        raise NumericalError(
            f"the depth gap along the segment curve stays at rounding level "
            f"where it turns negative (min {g.min():.1e}), so the triple "
            f"point is not resolved in double precision at beta = {beta}")
    j = np.argmax((g[:-1] > 0.0) & (g[1:] <= 0.0), keepdims=True)
    m_cell = mu[0, j + 1], mu[0, j]  # m falls as s rises

    def gap(s):
        return _depth_gap(beta, s, *_segment_curve(beta, s), m_cell)[:2]
    s = _bracketed_halley(gap, grid[j], grid[j + 1], (g[j], dg[j]),
                          (g[j + 1], dg[j + 1]))
    _, _, mu, nu = _depth_gap(beta, s, *_segment_curve(beta, s), m_cell)
    return _global_triple(beta, mu[:, 0], nu[:, 0], tol)


def _global_triple(beta: float, mu: np.ndarray, nu: np.ndarray,
                   tol: ToleranceConfig) -> CoexistencePoint:
    """The triple point of mu and nu, if its three minimizers are precisely
    the global minimizers of the census at its field: the depth gap also
    vanishes at metastable ties."""
    minimizers = np.array([mu, nu, nu[list(_SWAP12)]])
    minimizers = minimizers[np.lexsort(batch_xy(minimizers).T[::-1])]
    alpha = AprioriMeasure.from_array(batch_catastrophe(beta, mu))
    found = census(ModelParams(beta, alpha), tol=tol).global_minimizers
    values = batch_free_energy(beta, alpha.array, minimizers)
    if (len(found) != 3 or values.max() - values.min() > COEXISTENCE_DEPTH
            or np.abs([p.nu.array for p in found] - minimizers).max() > 1e-6):
        raise NumericalError(f"the equal-depth point on the axis is no "
                             f"triple point of its census at beta = {beta}")
    return CoexistencePoint(
        beta, alpha, tuple(map(SpinDistribution.from_array, minimizers)),
        float(values.mean()))


# ---------------------------------------------------------------------------
# Field-free coexistence system and its continuation
# ---------------------------------------------------------------------------

class _PairEval(NamedTuple):
    """The field-free system at one state vector w = (mu1, mu2, nu1, nu2)."""

    w: np.ndarray
    pair: np.ndarray      # (2, 3): mu and nu
    residual: np.ndarray  # (3,), NaN off the simplex
    chi: np.ndarray       # (2, 3): their fields
    sv: np.ndarray        # (2,): their stationary values
    jac: np.ndarray       # (3, 4): d residual / d w


def _pair_residual(beta: float, w: np.ndarray) -> _PairEval:
    """The field-free system at w: residual (sv(mu) - sv(nu), chi1(mu) -
    chi1(nu), chi2(mu) - chi2(nu)), the fields and stationary values of
    both points from one set of shifted terms, and the Jacobian of both at
    once; only the residual where a point leaves the simplex."""
    pair = np.empty((2, 3))
    pair[:, :2] = np.reshape(w, (2, 2))
    pair[:, 2] = 1.0 - pair[:, 0] - pair[:, 1]
    if pair.min() <= 0.0:
        return _PairEval(w, pair, np.full(3, np.nan), None, None, None)
    t, total, shift = _shifted_terms(beta, pair)
    chi = t / total
    sv = _stationary_value(beta, pair, total, shift)
    residual = np.array([sv[0] - sv[1], chi[0, 0] - chi[1, 0],
                         chi[0, 1] - chi[1, 1]])
    # local-coordinate derivatives from the unshifted terms q_i = nu_i
    # e^{-beta nu_i}: d q_i / d w_a is delta_{ia} dq_i for i in {0, 1}
    e = np.exp(-beta * pair)
    q, dq = pair * e, (1.0 - beta * pair) * e
    z = q.sum(axis=-1)[:, None]
    dz = dq[:, :2] - dq[:, 2:]
    d = np.empty((2, 3, 2))  # rows: d sv, d chi1, d chi2 of mu, then nu
    d[:, 0] = beta * (pair[:, :2] - pair[:, 2:]) + dz / z
    d[:, 1:] = ((_EYE2 * dq[:, :2, None]) * z[:, :, None]
                - q[:, :2, None] * dz[:, None, :]) / (z * z)[:, :, None]
    return _PairEval(w, pair, residual, chi, sv,
                     np.concatenate([d[0], -d[1]], axis=1))


def _pair_gap(pair: np.ndarray) -> float:
    return float(np.linalg.norm(pair[0] - pair[1]))


def _solve_pair(beta: float, w0: np.ndarray, pivot: int):
    """Newton on the field-free system, holding state coordinate ``pivot``
    fixed, to a residual norm of 1e-12 within 60 full steps; returns the
    evaluation (``_pair_residual``) there, or None at a singular Jacobian
    or at the first step that does not lower the residual norm (a NaN, off
    the simplex, does not): the caller's halved step costs less than a
    line search along a step that the linear model mispredicts."""
    keep = [k for k in range(4) if k != pivot]
    w, rn = w0, np.inf
    for _ in range(61):  # the start and 60 steps
        ev = _pair_residual(beta, w)
        prev, rn = rn, np.linalg.norm(ev.residual)
        if not rn < prev:
            return None
        if rn <= 1e-12:
            return ev
        step = np.zeros(4)
        try:
            step[keep] = np.linalg.solve(ev.jac[:, keep], -ev.residual)
        except np.linalg.LinAlgError:
            return None
        w = w + step
    return None


def _cusp_conditions(beta: float, nu: np.ndarray):
    """det H and the cubic -sum_i w_i^3 / nu_i^2 of the free energy along
    the Hessian null direction w at one simplex point, and their
    local-coordinate Jacobian (2x2).

    With a = 1/nu - beta the Hessian is diag(a) on the tangent plane, whose
    determinant is a1 a2 + a1 a3 + a2 a3 = sum_i w_i for w_i = prod_{j!=i}
    a_j; where it vanishes, w is a null vector.  Both vanish together at an
    A3 (cusp) point."""
    a = 1.0 / nu - beta
    da = -1.0 / (nu * nu)
    w = np.array([a[1] * a[2], a[0] * a[2], a[0] * a[1]])
    dw = a[_THIRD] * da * (1.0 - _EYE3)  # dw[i, k] = d w_i / d nu_k
    cubic = -np.sum(w ** 3 / nu ** 2)
    dcubic = -(3.0 * (w * w / nu ** 2) @ dw) + 2.0 * w ** 3 / nu ** 3
    grad = np.stack([dw.sum(axis=0), dcubic])
    return np.array([w.sum(), cubic]), grad[:, :2] - grad[:, 2:]


def _cusp_point(beta: float, seed: np.ndarray):
    """The A3 point next to ``seed`` at this temperature: Newton on
    ``_cusp_conditions`` in local coordinates until a step moves it by at
    most 1e-14."""
    nu = np.array(seed, dtype=float)
    for _ in range(_CUSP_MAX_ITER):
        res, jac = _cusp_conditions(beta, nu)
        try:
            d = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            break
        nu = nu + np.array([d[0], d[1], -d[0] - d[1]])
        if nu.min() <= 0.0 or np.abs(d).max() <= 1e-14:
            break
    if not (nu.min() > 0.0
            and np.abs(_cusp_conditions(beta, nu)[0]).max() <= 1e-10):
        raise NumericalError(
            f"no cusp point found next to {seed} at beta = {beta}")
    return nu


def coexistence_curve(beta: float, step: float = 0.005,
                      tol: ToleranceConfig = DEFAULT_TOL,
                      origin: CoexistencePoint = None) -> CoexistenceCurve:
    """Continue the equal-depth locus of the two same-cell minima away from
    the triple point, seeding every solve with the previous solution.

    Stepping is predictor-corrector along the solution curve of the
    field-free system: the curve tangent (nullspace of the 3x4 Jacobian
    over both minimizers' local coordinates, from the evaluation that
    accepted the last point) picks the sweep coordinate to
    freeze per step, which keeps the sweep well-posed where the first
    component of the symmetric-side minimizer turns around.  It leaves the
    triple point where the field's x grows: f(nu) - f(swap12 nu) =
    -(nu1 - nu2) log(a1/a2), so only there is the tracked pair, nu with
    x > 0, global.  The opening steps are shorter than ``step`` where the
    triple point's geometry asks for it (see ``h_open``); later steps
    double back up to ``step``.  A trial fails, and the step halves,
    where a Newton step does not lower the residual, jumps, hops onto
    mu == nu or lands on a degenerate minimizer.  Termination:

    - 'fold': the pair merges into a cusp of the bifurcation set.  A step
      that starts with the pair within ``_FOLD_GAP`` of each other ends the
      curve, and its last point is the exact A3 cusp point
      (``_cusp_point`` from the pair's midpoint) with both minimizer
      slots set to it;
    - 'triple': from (a, a, c), c < a, a step reaches a1 <= a3; its last
      point is the mirrored triple point (a, c, a), with the two of its
      minimizers nearest to the tracked pair;
    - 'stalled': a persistent corrector failure after step halving.
    """
    beta = float(beta)
    if not 1e-5 < step <= 1e-1:
        raise DomainError(f"step must lie in (1e-5, 1e-1], got {step}")
    tp = origin if origin is not None else triple_point(beta, tol=tol)

    (sym,), (asym,) = _axis_split(tp.minimizers)
    ev = _pair_residual(beta, np.array([sym[0], sym[1], asym[0], asym[1]]))
    # next to the butterfly point the curve is about half a pair gap long,
    # and next to the four-phase temperature it meets the neighbouring
    # triple point a few |y| away; the opening steps stay below both
    h_open = min(step, 0.1 * _pair_gap(ev.pair),
                 abs(float(batch_xy(tp.alpha.array)[1])))

    def attempt(ev, tangent, h):
        """One predictor-corrector step of length h from the evaluation
        ``ev``; returns the evaluation at the new state, or None on
        failure."""
        pivot = int(np.argmax(np.abs(tangent)))
        new = _solve_pair(beta, ev.w + h * tangent, pivot)
        if (new is None or new.pair.min() <= CLAMP_MARGIN
                or np.abs(new.w - ev.w).max() > 0.1 + 10.0 * h
                or _pair_gap(new.pair) < 0.25 * _pair_gap(ev.pair)
                or hessian_eigenvalues(beta, new.pair)[:, 0].min()
                <= DEGENERATE_EIG):
            return None
        return new

    # the side where the field's x-coordinate, so chi1 - chi2, grows: the
    # Jacobian's nu columns hold -d chi(nu)
    tangent = np.linalg.svd(ev.jac)[2][-1]
    if float((ev.jac[2, 2:] - ev.jac[1, 2:]) @ tangent[2:]) < 0.0:
        tangent = -tangent

    points = []

    def emit(alpha, mu, nu, depth):
        points.append(CoexistencePoint(
            beta, AprioriMeasure.from_array(alpha),
            (SpinDistribution.from_array(mu), SpinDistribution.from_array(nu)),
            depth))

    status = "max-steps"
    h = h_open
    while len(points) < _CURVE_MAX_STEPS:
        if _pair_gap(ev.pair) < _FOLD_GAP:
            status = "fold"
            break
        got = attempt(ev, tangent, h)
        if got is None:
            h *= 0.5
            if h < 1e-6:
                status = "stalled"
                break
            continue
        if got.chi[1, 0] <= got.chi[1, 2]:  # past the mirrored triple point
            status = "triple"
            mirrored = np.array([m.array for m in tp.minimizers])[:, [0, 2, 1]]
            near = [mirrored[np.abs(mirrored - m).max(axis=1).argmin()]
                    for m in got.pair]
            emit(tp.alpha.array[[0, 2, 1]], *near, tp.depth)
            break
        ev = got
        t = np.linalg.svd(ev.jac)[2][-1]
        tangent = t if float(np.dot(t, tangent)) >= 0.0 else -t
        emit(ev.chi[1], *ev.pair, float(ev.sv[1]))
        h = min(step, 2.0 * h)
    if status == "fold":
        cusp = _cusp_point(beta, 0.5 * (ev.pair[0] + ev.pair[1]))
        emit(batch_catastrophe(beta, cusp), cusp, cusp,
             float(batch_stationary_value(beta, cusp)))

    return CoexistenceCurve(beta=beta, points=tuple(points), origin=tp,
                            status=status)


def ivp_tangent(point: CoexistencePoint) -> float:
    """Right-hand side -(nu1 - mu1)/(nu2 - mu2) of the coexistence-curve
    initial value problem in log-ratio field coordinates."""
    mu, nu = point.minimizers[0].array, point.minimizers[1].array
    return -(nu[0] - mu[0]) / (nu[1] - mu[1])


def beyond_ellis_wang_segment(beta: float,
                              tol: ToleranceConfig = DEFAULT_TOL
                              ) -> BeyondEllisWangSegment:
    """Axis coexistence segment {x = 0} x (-1/2, 0) for beta at or beyond
    the four-phase temperature, with the zero-field census attached (four
    equal global minima exactly at the four-phase temperature, three
    beyond it)."""
    beta = float(beta)
    if beta < BETA_ELLIS_WANG - 1e-12:
        raise DomainError(
            f"segment requires beta >= 4 log 2, got {beta}")
    depth_tol = replace(tol, depth=COEXISTENCE_DEPTH)
    cens = census(ModelParams(beta, AprioriMeasure.uniform()), tol=depth_tol)
    return BeyondEllisWangSegment(segment=AxisSegment(beta, -0.5, 0.0),
                                  uniform_census=cens)


def track_segment_pair(segment: AxisSegment, n: int = 40,
                       tol: ToleranceConfig = DEFAULT_TOL) -> list:
    """Sample the axis segment and attach the mirror pair of global
    minimizers to each sample: the pair member whose field's y
    (``_segment_curve``) is the sample's.  In s = nu2, y rises strictly from
    -1/2 (nu3 = 0) to the upper end: the pair's merge point s = 1/beta up
    to 18/7, the triple point's member up to 4 log 2, the zero-field state
    beyond; past it y turns back.  The curve on a grid over that bracket
    brackets every sample, and Newton steps from the cubic Hermite start in
    its cell (``_bracketed_halley``) solve all samples at once.  The census
    at the middle sample checks the member there."""
    if segment.is_empty:
        return []
    beta = segment.beta
    ys = segment.sample_ys(n)
    if segment.y_hi == 0.0:
        top = _zero_field_end(beta)
    elif beta <= BETA_BUTTERFLY:
        top = 1.0 / beta
    else:
        tp = segment.triple or triple_point(beta, tol=tol)
        top = _axis_split(tp.minimizers)[1][0][1]
    grid = _segment_grid(beta, top)
    merge = beta <= BETA_BUTTERFLY  # top at the branch point: nu1' is 0/0
    # where the grid's s lie below double resolution, at beta above about
    # 350, e^{beta (s - nu3)} / s overflows: the check below refuses that
    with np.errstate(over="ignore", invalid="ignore"):
        _, y, dy = _segment_curve(beta, grid[:-1] if merge else grid)
    if merge:  # where y peaks, at the closed-form end
        y, dy = np.append(y, segment.y_hi), np.append(dy, 0.0)
    if not (y[0] < ys[0] and ys[-1] <= y[-1] and np.isfinite(dy).all()):
        raise NumericalError(f"the segment's pair curve is not resolved in "
                             f"double precision at beta = {beta}")
    j = np.searchsorted(y, ys)  # y[j - 1] < ys <= y[j]

    def residual(s):
        _, y_s, dy_s = _segment_curve(beta, s)
        return y_s - ys, dy_s
    s = _bracketed_halley(residual, grid[j - 1], grid[j],
                          (y[j - 1] - ys, dy[j - 1]), (y[j] - ys, dy[j]))

    alphas = batch_from_xy(np.stack([np.zeros(n), ys], axis=-1))
    # nu1 the W-1 partner of s, nu3 its W0 partner in the sample's field:
    # 1 - nu1 - s keeps only absolute precision, too little for a small nu3
    log_r = np.stack([np.zeros(n), np.log(alphas[:, 2] / alphas[:, 1])])
    with np.errstate(invalid="ignore"):  # NaN in a branch np.where drops
        nu1, nu3 = _branch_values(beta, log_r, s, np.array([[True], [False]]),
                                  1)[0]
    members = np.stack([nu1, s, nu3], axis=-1)
    smallest = float(members.min())
    if smallest < INTERIOR_MARGIN:
        raise NumericalError(f"the segment's pair members leave the "
                             f"representable interior: smallest component "
                             f"{smallest!r} < {INTERIOR_MARGIN!r}, "
                             f"beta = {beta}")

    k = n // 2
    _, asym = axis_minima(beta, float(ys[k]), tol)
    if not any(np.abs(a - members[k]).max() <= 1e-6 for a in asym):
        raise NumericalError(f"the segment's pair member at y = "
                             f"{float(ys[k])!r} is no census minimum, "
                             f"beta = {beta}")

    pairs = np.stack([members, members[:, list(_SWAP12)]], axis=1)
    depths = batch_free_energy(beta, alphas[:, None], pairs).mean(axis=1)
    return [CoexistencePoint(beta, AprioriMeasure.from_array(a),
                             tuple(map(SpinDistribution.from_array, p)),
                             float(d))
            for a, p, d in zip(alphas, pairs, depths)]
