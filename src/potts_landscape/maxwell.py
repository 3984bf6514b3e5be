"""Stable phase diagram: equal-depth (coexistence) sets of global minima.

Two minimizers (mu, nu) of one field are equally deep exactly when they
solve the field-free system

    stationary_value(mu) = stationary_value(nu),  chi(mu) = chi(nu)

three equations in the four local coordinates of the pair, with chi the
catastrophe map.  On the symmetry axis with the third field component
suppressed the coexistence set is a straight segment, whose mirror pair is
continued from a census by polishing along the axis.  Its upper endpoint is
known in closed form up to the butterfly temperature and is the triple
point beyond it: the system with mu held on the axis, mu = (m, m, 1 - 2m),
three equations in (m, nu1, nu2), solved by damped Newton from census
minima on the axis.  Off the axis the coexistence curve is continued from
the triple point on the same system, sweeping one state coordinate per
step (the dominant tangent component, which is the first component of the
symmetric-side minimizer wherever that parametrization is well posed);
the initial-value-problem form of the curve is used only as a tangent
cross-check in the tests.  Where the pair merges at a cusp of the
bifurcation set the curve ends on the exact A3 point.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .critical import BETA_BUTTERFLY, BETA_ELLIS_WANG
from .errors import DomainError, NumericalError
from .model import (DEFAULT_TOL, AprioriMeasure, ModelParams,
                    SpinDistribution, ToleranceConfig, _check_beta,
                    batch_catastrophe, batch_free_energy, batch_from_xy,
                    batch_stationary_value, batch_xy, hessian_eigenvalues)
from .stationary import MinimaCensus, _polish, census

_SWAP12 = (1, 0, 2)


@dataclass(frozen=True)
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
    status: str            # 'fold' | 'boundary' | 'stalled' | 'max-steps'


@dataclass(frozen=True)
class AxisSegment:
    """Segment {x = 0} x (y_lo, y_hi) of the field triangle, on the
    symmetry axis with equal first two field components."""

    beta: float
    y_lo: float
    y_hi: float

    @property
    def is_empty(self) -> bool:
        return self.y_hi <= self.y_lo

    def alpha_at(self, y: float) -> AprioriMeasure:
        return AprioriMeasure.from_array(batch_from_xy([0.0, float(y)]))

    def sample_ys(self, n: int, inset: float = 0.02) -> np.ndarray:
        span = self.y_hi - self.y_lo
        return np.linspace(self.y_lo + inset * span,
                           self.y_hi - inset * span, n)


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
    """The symmetric segment ending at an already solved triple point."""
    return AxisSegment(tp.beta, -0.5, float(batch_xy(tp.alpha.array)[1]))


def axis_minima(beta: float, y: float, tol: ToleranceConfig = DEFAULT_TOL):
    """Split the minima at the axis point with the given y-coordinate into
    symmetric ones (first two components equal) and the pair member with
    x > 0, read off the census there.  Returns (sym, asym) as lists of
    simplex arrays."""
    alpha = AprioriMeasure.from_array(batch_from_xy([0.0, float(y)]))
    sym, asym = [], []
    for p in census(ModelParams(beta, alpha), tol=tol).minima:
        x = float(batch_xy(p.nu.array)[0])
        if abs(x) <= 1e-7:
            sym.append(p.nu.array)
        elif x > 0.0:
            asym.append(p.nu.array)
    return sym, asym


# Axis points whose census minima seed the triple-point solve, in the order
# they are read; a seed pair may take its two minimizers from different
# points.
_TRIPLE_SEED_YS = (-0.25, -0.1, -0.03, 0.0)
# Free directions of the triple-point solve in (mu1, mu2, nu1, nu2): the
# symmetric minimizer (m, m, 1 - 2m) moves along (1, 1, 0, 0), the pair
# member freely.
_AXIS_BASIS = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                        [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def triple_point(beta: float,
                 tol: ToleranceConfig = DEFAULT_TOL) -> CoexistencePoint:
    """The on-axis point where the mirror pair and the symmetric minimum
    are equally deep, for butterfly < beta < four-phase temperature.

    It solves the field-free coexistence system for a symmetric minimizer
    mu = (m, m, 1 - 2m) and one pair member nu, three equations in
    (m, nu1, nu2), by damped Newton from pairs of census minima on the
    axis.  A solution counts only if the census at its field has exactly
    mu, nu and the mirror of nu as its global minimizers: the system also
    holds for metastable ties, such as the corner pair at zero field.
    """
    beta = float(beta)
    if not BETA_BUTTERFLY < beta < BETA_ELLIS_WANG:
        raise DomainError(
            f"triple point requires 18/7 < beta < 4 log 2, got {beta}")

    syms, asyms = [], []
    for y in _TRIPLE_SEED_YS:
        sym, asym = axis_minima(beta, y, tol)
        # pair the new minima with each other and with those seen before
        pairs = [(s, a) for s in syms for a in asym]
        pairs += [(s, a) for s in sym for a in asyms + asym]
        syms += sym
        asyms += asym
        for s, a in pairs:
            # to about a hundred times rounding, so that the result does
            # not depend on the seed
            w = _solve_pair(beta, np.array([s[0], s[0], a[0], a[1]]),
                            _AXIS_BASIS, res_tol=1e-14)
            tp = None if w is None else _global_triple(beta, w, tol)
            if tp is not None:
                return tp
    raise NumericalError(
        f"no triple point found on the axis at beta = {beta}")


def _global_triple(beta: float, w: np.ndarray, tol: ToleranceConfig):
    """The triple point carried by a solution of the axis-constrained
    system, or None unless its three minimizers are precisely the global
    minimizers of the census at its field."""
    mu, nu = _pair_from_state(w)
    minimizers = np.array([mu, nu, nu[list(_SWAP12)]])
    minimizers = minimizers[np.lexsort(batch_xy(minimizers).T[::-1])]
    alpha = AprioriMeasure.from_array(batch_catastrophe(beta, mu))
    found = census(ModelParams(beta, alpha), tol=tol).global_minimizers
    values = batch_free_energy(beta, alpha.array, minimizers)
    if (len(found) != 3 or values.max() - values.min() > tol.coexistence_depth
            or np.abs([p.nu.array for p in found] - minimizers).max() > 1e-6):
        return None
    return CoexistencePoint(
        beta=beta, alpha=alpha,
        minimizers=tuple(SpinDistribution.from_array(m) for m in minimizers),
        depth=float(values.mean()))


# ---------------------------------------------------------------------------
# Field-free coexistence system and its continuation
# ---------------------------------------------------------------------------

def _pair_from_state(w: np.ndarray):
    """State vector (mu1, mu2, nu1, nu2) -> the two simplex points."""
    mu = np.array([w[0], w[1], 1.0 - w[0] - w[1]])
    nu = np.array([w[2], w[3], 1.0 - w[2] - w[3]])
    return mu, nu


def _pair_residual(beta: float, w: np.ndarray) -> np.ndarray:
    mu, nu = _pair_from_state(w)
    if mu.min() <= 0.0 or nu.min() <= 0.0:
        return np.full(3, np.nan)
    both = np.stack([mu, nu])
    sv = batch_stationary_value(beta, both)
    chi = batch_catastrophe(beta, both)
    return np.array([sv[0] - sv[1],
                     chi[0, 0] - chi[1, 0],
                     chi[0, 1] - chi[1, 1]])


def _sv_chi_derivs(beta: float, w: np.ndarray):
    """Local-coordinate derivatives of the stationary value and the first
    two field-map components at one simplex point."""
    t = w * np.exp(-beta * w)
    tp = (1.0 - beta * w) * np.exp(-beta * w)
    T = t.sum()
    dT = np.array([tp[0] - tp[2], tp[1] - tp[2]])
    dsv = beta * (w[:2] - w[2]) + dT / T
    # d t_i / d w_a in local coordinates is delta_{ia} tp_i for i in {0, 1}
    dchi = np.empty((2, 2))
    for i in range(2):
        dti = np.zeros(2)
        dti[i] = tp[i]
        dchi[i] = (dti * T - t[i] * dT) / (T * T)
    return dsv, dchi


def _pair_jacobian(beta: float, w: np.ndarray) -> np.ndarray:
    """Jacobian of the field-free system over (mu1, mu2, nu1, nu2)."""
    mu, nu = _pair_from_state(w)
    dsv_mu, dchi_mu = _sv_chi_derivs(beta, mu)
    dsv_nu, dchi_nu = _sv_chi_derivs(beta, nu)
    jac = np.zeros((3, 4))
    jac[0, :2] = dsv_mu
    jac[1, :2] = dchi_mu[0]
    jac[2, :2] = dchi_mu[1]
    jac[0, 2:] = -dsv_nu
    jac[1, 2:] = -dchi_nu[0]
    jac[2, 2:] = -dchi_nu[1]
    return jac


def _pair_tangent(beta: float, w: np.ndarray) -> np.ndarray:
    """Unit tangent of the solution curve: nullspace of the 3x4 Jacobian."""
    _, _, vt = np.linalg.svd(_pair_jacobian(beta, w))
    return vt[-1]


def _solve_pair(beta: float, w0: np.ndarray, basis: np.ndarray,
                res_tol: float = 1e-12, max_iter: int = 60):
    """Damped Newton on the field-free system, moving the state vector only
    along the three columns of ``basis`` (4x3); returns the state vector or
    None.

    The line search halves the step length lam until the residual norm
    drops by at least 1e-4 lam |r| (Armijo).  It stagnates, and the solve
    fails, once the decrease lam |r| that the linear model promises is
    below ``res_tol``: so short a step can no longer decide convergence,
    only chase rounding noise."""
    w = np.array(w0, dtype=float)
    r = _pair_residual(beta, w)
    if not np.all(np.isfinite(r)):
        return None
    rn = np.linalg.norm(r)
    for _ in range(max_iter):
        if rn <= res_tol:
            return w
        try:
            step = basis @ np.linalg.solve(_pair_jacobian(beta, w) @ basis, -r)
        except np.linalg.LinAlgError:
            return None
        lam = 1.0
        while True:
            if lam * rn <= res_tol:
                return None
            cand = w + lam * step
            rc = _pair_residual(beta, cand)
            rcn = np.linalg.norm(rc)
            if np.isfinite(rcn) and rcn <= (1.0 - 1e-4 * lam) * rn:
                w, r, rn = cand, rc, rcn
                break
            lam *= 0.5
    return w if rn <= res_tol else None


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
    dw = np.zeros((3, 3))  # dw[i, k] = d w_i / d nu_k
    for i in range(3):
        for k in range(3):
            if i != k:
                dw[i, k] = a[3 - i - k] * da[k]
    cubic = -np.sum(w ** 3 / nu ** 2)
    dcubic = -(3.0 * (w * w / nu ** 2) @ dw) + 2.0 * w ** 3 / nu ** 3
    grad = np.stack([dw.sum(axis=0), dcubic])
    return np.array([w.sum(), cubic]), grad[:, :2] - grad[:, 2:]


def _cusp_point(beta: float, seed: np.ndarray, max_iter: int = 50):
    """The A3 point next to ``seed`` at this temperature: Newton on
    ``_cusp_conditions`` in local coordinates while it still lowers them."""
    nu = np.array(seed, dtype=float)
    res, jac = _cusp_conditions(beta, nu)
    for _ in range(max_iter):
        try:
            d = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            break
        cand = nu + np.array([d[0], d[1], -d[0] - d[1]])
        if cand.min() <= 0.0:
            break
        res_c, jac_c = _cusp_conditions(beta, cand)
        if not np.abs(res_c).max() < np.abs(res).max():
            break
        nu, res, jac = cand, res_c, jac_c
    if not np.abs(res).max() <= 1e-10:
        raise NumericalError(
            f"no cusp point found next to {seed} at beta = {beta}")
    return nu


def _min_eig_pair(beta: float, w: np.ndarray) -> float:
    mu, nu = _pair_from_state(w)
    eigs = hessian_eigenvalues(beta, np.stack([mu, nu]))
    return float(eigs[:, 0].min())


def _pair_gap(w: np.ndarray) -> float:
    mu, nu = _pair_from_state(w)
    return float(np.linalg.norm(mu - nu))


def coexistence_curve(beta: float, step: float = 0.005,
                      tol: ToleranceConfig = DEFAULT_TOL,
                      origin: CoexistencePoint = None,
                      max_steps: int = 5000) -> CoexistenceCurve:
    """Continue the equal-depth locus of the two same-cell minima away from
    the triple point, seeding every solve with the previous solution.

    Stepping is predictor-corrector along the solution curve of the
    field-free system: the curve tangent (nullspace of the 3x4 Jacobian
    over both minimizers' local coordinates) picks the sweep coordinate to
    freeze per step, which keeps the sweep well-posed where the first
    component of the symmetric-side minimizer turns around.  The starting
    direction is the one whose points carry the tracked pair as the global
    minimizers (census probe); the opposite direction continues a
    metastable branch.  The probe and the opening steps are shorter than
    ``step`` where the triple point's geometry asks for it (see
    ``h_open``); later steps double back up to ``step``.  Termination:

    - 'fold': the pair merges into a cusp of the bifurcation set.  Once a
      tracked minimizer's smallest Hessian eigenvalue is down to
      ``tol.degenerate_eig`` with the pair within 1e-3 of each other, the
      residual no longer pins the positions to within their gap, so the
      curve stops there and its last point is the exact A3 cusp point
      (``_cusp_point``) with both minimizer slots set to it;
    - 'boundary': one minimizer of a well separated pair loses minimality;
    - 'stalled': a persistent corrector failure after step halving.
    """
    beta = float(beta)
    if not 1e-5 < step <= 1e-1:
        raise DomainError(f"step must lie in (1e-5, 1e-1], got {step}")
    tp = origin if origin is not None else triple_point(beta, tol=tol)

    sym = next(p.array for p in tp.minimizers
               if abs(float(batch_xy(p.array)[0])) <= 1e-7)
    asym = next(p.array for p in tp.minimizers
                if float(batch_xy(p.array)[0]) > 1e-7)
    w_start = np.array([sym[0], sym[1], asym[0], asym[1]])
    # next to the butterfly point the curve is about half a pair gap long,
    # and next to the four-phase temperature it meets the neighbouring
    # triple point a few |y| away; the opening steps stay below both
    h_open = min(step, 0.1 * _pair_gap(w_start),
                 abs(float(batch_xy(tp.alpha.array)[1])))

    def attempt(w, tangent, h):
        """One predictor-corrector step of length h; returns the new state,
        'boundary' or 'fold' if a minimizer degenerates there, or None on
        failure."""
        pred = w + h * tangent
        pivot = int(np.argmax(np.abs(tangent)))
        w_new = _solve_pair(beta, pred, np.delete(np.eye(4), pivot, axis=1))
        if w_new is None:
            return None
        mu_n, nu_n = _pair_from_state(w_new)
        if mu_n.min() <= tol.clamp_margin or nu_n.min() <= tol.clamp_margin:
            return None
        if np.abs(w_new - w).max() > 0.1 + 10.0 * h:
            return None
        gap_prev, gap_new = _pair_gap(w), _pair_gap(w_new)
        if gap_new < 0.25 * gap_prev:  # hopped onto the trivial mu == nu set
            return None
        # a minimizer annihilating against a saddle ends the curve on the
        # bifurcation set; eigenvalues also vanish when the pair merges
        # into a cusp
        if _min_eig_pair(beta, w_new) <= tol.degenerate_eig:
            return "boundary" if gap_new > 1e-3 else "fold"
        return w_new

    def oriented_tangent(w, reference):
        t = _pair_tangent(beta, w)
        return t if float(np.dot(t, reference)) >= 0.0 else -t

    def probe_direction(t0):
        """Walk a few steps and accept the orientation only if the tracked
        pair is precisely the global minimizer set there."""
        w = w_start.copy()
        t = t0
        for _ in range(4):
            got = attempt(w, t, h_open)
            if got is None or isinstance(got, str):
                return None
            w = got
            t = oriented_tangent(w, t)
        mu, nu = _pair_from_state(w)
        alpha = AprioriMeasure.from_array(batch_catastrophe(beta, nu))
        cens = census(ModelParams(beta, alpha), tol=tol)
        if len(cens.global_minimizers) != 2:
            return None
        found = np.stack([p.nu.array for p in cens.global_minimizers])
        for tracked in (mu, nu):
            if np.abs(found - tracked).max(axis=1).min() > 1e-6:
                return None
        return True

    t_base = _pair_tangent(beta, w_start)
    t_first = None
    for t0 in (t_base, -t_base):
        if probe_direction(t0):
            t_first = t0
            break
    if t_first is None:
        raise NumericalError(
            f"could not leave the triple point at beta = {beta}")

    points = []

    def emit(mu, nu):
        alpha = batch_catastrophe(beta, nu)
        depth = float(batch_stationary_value(beta, nu))
        points.append(CoexistencePoint(
            beta=beta, alpha=AprioriMeasure.from_array(alpha),
            minimizers=(SpinDistribution.from_array(mu),
                        SpinDistribution.from_array(nu)),
            depth=depth))

    w = w_start.copy()
    tangent = t_first
    status = "max-steps"
    h, h_failed = h_open, None
    while len(points) < max_steps:
        gap = _pair_gap(w)
        if gap < 1e-6:
            status = "fold"
            break
        h_eff = min(h, max(gap / 3.0, 1e-7)) if gap < 1e-2 else h
        # a retry with the step that has just failed would fail again
        got = None if h_eff == h_failed else attempt(w, tangent, h_eff)
        if isinstance(got, str):
            status = got
            break
        if got is None:
            h_failed = h_eff
            h *= 0.5
            if h < 1e-6:
                status = "stalled" if gap > 1e-3 else "fold"
                break
            continue
        w, h_failed = got, None
        tangent = oriented_tangent(w, tangent)
        emit(*_pair_from_state(w))
        h = min(step, 2.0 * h)
    if status == "fold":
        mu, nu = _pair_from_state(w)
        cusp = _cusp_point(beta, 0.5 * (mu + nu))
        emit(cusp, cusp)

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
    depth_tol = dataclasses.replace(tol, depth=tol.coexistence_depth)
    cens = census(ModelParams(beta, AprioriMeasure.uniform()), tol=depth_tol)
    return BeyondEllisWangSegment(segment=AxisSegment(beta, -0.5, 0.0),
                                  uniform_census=cens)


def track_segment_pair(segment: AxisSegment, n: int = 40,
                       tol: ToleranceConfig = DEFAULT_TOL) -> list:
    """Sample the axis segment and attach the mirror pair of global
    minimizers to each sample, continued from the census at the midpoint:
    each sample polishes the secant extrapolation of the previous two, or
    reads the nearest pair member off the census there if the samples are
    too far apart for the polish."""
    if segment.is_empty:
        return []
    beta = segment.beta
    ys = segment.sample_ys(n)
    mid = n // 2
    _, asym = axis_minima(beta, float(ys[mid]), tol)
    if not asym:
        raise NumericalError(
            f"no mirror pair found at the segment midpoint, beta = {beta}")

    out: dict = {}

    def walk(indices, path):
        """Extend ``path``, the pair member at the samples before
        ``indices``, over ``indices`` while the pair exists."""
        for k in indices:
            seed = path[-1] if len(path) < 2 else 2.0 * path[-1] - path[-2]
            alpha = batch_from_xy([0.0, ys[k]])
            got = (_polish(beta, alpha, seed[None, :], tol)
                   if seed.min() > 0.0 else [])
            if len(got) and (hessian_eigenvalues(beta, got[0])[0]
                             > tol.degenerate_eig):
                cur = got[0]
            else:
                # too long a step for the polish: the census there
                _, pair = axis_minima(beta, float(ys[k]), tol)
                if not pair:
                    break
                cur = min(pair, key=lambda m: np.abs(m - seed).max())
            path.append(cur)
            mirror = cur[list(_SWAP12)]
            vals = batch_free_energy(beta, alpha, np.stack([cur, mirror]))
            out[k] = CoexistencePoint(
                beta=beta,
                alpha=AprioriMeasure.from_array(alpha),
                minimizers=(SpinDistribution.from_array(cur),
                            SpinDistribution.from_array(mirror)),
                depth=float(vals.mean()))
        return path

    up = walk(range(mid, n), [asym[0]])
    walk(range(mid - 1, -1, -1), (up[1:3] or [asym[0]])[::-1])
    return [out[k] for k in sorted(out)]
