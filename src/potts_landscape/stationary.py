"""Finding, classifying and counting stationary points of the landscape.

Stationarity says that ``-beta nu_i + log(nu_i / alpha_i)`` takes one value
for every i: the catastrophe map read backwards, ``nu_i e^{-beta nu_i} =
s alpha_i``, which is the mean-field equation of Ellis & Wang (1990, Stoch.
Proc. Appl. 35:59-79).  ``find_stationary_points`` solves it exactly in
one variable.  With k the index of the largest field component and
``t = nu_k``, each other component solves

    log x - beta x = log t - beta t + log(alpha_i / alpha_k),

whose two roots lie on the W0 and W-1 branches of Lambert W (Corless et
al. 1996, Adv. Comput. Math. 5:329-359), below and above ``x = 1/beta``.
The stationary points are the roots of ``F_b(t) = t + x_i + x_j - 1`` over
the four branch pairs b.  They are bracketed by a scan of F whose samples
include the zeros of F'' and F', refined by Halley steps from the roots of
cubic Hermite interpolants (the F'' and F' zeros only until they settle
which cell a root of F lies in), polished by a few Newton steps on the
local gradient and classified through the Hessian spectrum.  ``census``
wraps this into the minima count that settles which cell of the phase
diagram a parameter point belongs to.  ``censuses`` solves many fields at
one beta together, sharing the samples and every refinement round;
``census`` is its batch of one.

Damped Newton from a barycentric seed lattice (``newton_stationary``,
``stationary_points_from_seeds``) is kept only as the tests' independent
method.  ``brute_force_global_min`` is the slow grid oracle that checks
global-minimizer claims; it refines the best lattice node with the same
few Newton steps that polish the census roots.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, ToleranceError
from .model import (CLAMP_MARGIN, DEFAULT_TOL, DEGENERATE_EIG,
                    INTERIOR_MARGIN, MERGE_RADIUS, ModelParams,
                    SpinDistribution, ToleranceConfig, _interior_lattice,
                    batch_free_energy, batch_gradient, batch_hessian,
                    batch_xy, hessian_eigenvalues)
from .rootfind import _EPS, _bracketed_halley

_CORNER_MARGIN = 1e-3  # offset of the corner and edge seeds of the grid
_NEWTON_MAX_ITER = 200  # damped Newton's iterations
_NEWTON_MAX_HALVINGS = 40  # and its step halvings in each


class PointKind(enum.Enum):
    MINIMUM = "minimum"
    SADDLE = "saddle"
    MAXIMUM = "maximum"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class StationaryPoint:
    nu: SpinDistribution
    hess_eigenvalues: tuple   # ascending
    kind: PointKind
    value: float              # free energy at nu


@dataclass(frozen=True)
class MinimaCensus:
    params: ModelParams
    points: tuple             # all stationary points, deterministic order
    n_local_minima: int
    global_minimizers: tuple  # positive definite points of least value,
                              # within depth tol
    degenerate_warning: bool = False

    @property
    def minima(self) -> tuple:
        return tuple(p for p in self.points if p.kind is PointKind.MINIMUM)


def barycentric_grid(density: int) -> np.ndarray:
    """Interior nodes of the barycentric lattice of the given density,
    augmented with near-corner, near-edge-midpoint and centroid seeds."""
    pts = _interior_lattice(density) / float(density)

    m = _CORNER_MARGIN
    extras = [(1 - 2 * m, m, m), (m, 1 - 2 * m, m), (m, m, 1 - 2 * m),
              (0.5 - m / 2, 0.5 - m / 2, m), (0.5 - m / 2, m, 0.5 - m / 2),
              (m, 0.5 - m / 2, 0.5 - m / 2),
              (1 / 3, 1 / 3, 1 / 3)]
    return np.vstack([pts, np.asarray(extras)])


def _clamp_interior(nu: np.ndarray) -> np.ndarray:
    """Project rows of (n, 3) back into the simplex with ``CLAMP_MARGIN``."""
    out = np.maximum(nu, CLAMP_MARGIN)
    s12 = out[:, 0] + out[:, 1]
    over = s12 > 1.0 - CLAMP_MARGIN
    if np.any(over):
        scale = (1.0 - CLAMP_MARGIN) / s12[over]
        out[over, 0] *= scale
        out[over, 1] *= scale
    out[:, 2] = 1.0 - out[:, 0] - out[:, 1]
    return out


def _newton_step(beta: float, nu: np.ndarray, g: np.ndarray):
    """Newton step (d1, d2) in local coordinates for gradient rows ``g``
    at ``nu``, and where the Hessian was invertible (zero step elsewhere)."""
    h = batch_hessian(beta, nu)
    a, b, c = h[:, 0, 0], h[:, 0, 1], h[:, 1, 1]
    det = a * c - b * b
    ok_det = np.abs(det) > 1e-300
    safe = np.where(ok_det, det, 1.0)
    d1 = np.where(ok_det, -(c * g[:, 0] - b * g[:, 1]) / safe, 0.0)
    d2 = np.where(ok_det, -(a * g[:, 1] - b * g[:, 0]) / safe, 0.0)
    return d1, d2, ok_det


def newton_stationary(beta: float, alpha: np.ndarray, seeds: np.ndarray,
                      tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Damped Newton on the local gradient from each seed row.

    Backtracks by step halving until the gradient norm decreases; seeds that
    cannot decrease within ``_NEWTON_MAX_HALVINGS`` or do not converge in
    ``_NEWTON_MAX_ITER`` steps are dropped.  Returns them, shape (m, 3).
    """
    nu = _clamp_interior(np.array(seeds, dtype=float))
    active = np.ones(len(nu), dtype=bool)
    done = np.zeros(len(nu), dtype=bool)

    g = batch_gradient(beta, alpha, nu)
    gnorm = np.linalg.norm(g, axis=-1)

    for _ in range(_NEWTON_MAX_ITER):
        conv = active & (gnorm <= tol.residual)
        done |= conv
        active &= ~conv
        if not np.any(active):
            break

        idx = np.flatnonzero(active)
        n_a = nu[idx]
        d1, d2, ok_det = _newton_step(beta, n_a, g[idx])
        # cap the step at the simplex diameter scale
        step_len = np.maximum(np.hypot(d1, d2), 1.0)
        d1, d2 = d1 / step_len, d2 / step_len

        lam = np.ones(len(idx))
        improved = np.zeros(len(idx), dtype=bool)
        trial = n_a.copy()
        trial_gn = gnorm[idx].copy()
        for _ in range(_NEWTON_MAX_HALVINGS):
            todo = ~improved
            if not np.any(todo):
                break
            cand = n_a[todo].copy()
            cand[:, 0] += lam[todo] * d1[todo]
            cand[:, 1] += lam[todo] * d2[todo]
            cand[:, 2] = 1.0 - cand[:, 0] - cand[:, 1]
            cand = _clamp_interior(cand)
            gn_new = np.linalg.norm(batch_gradient(beta, alpha, cand), axis=-1)
            better = gn_new < gnorm[idx][todo]
            sub = np.flatnonzero(todo)
            acc = sub[better]
            trial[acc] = cand[better]
            trial_gn[acc] = gn_new[better]
            improved[acc] = True
            lam[sub[~better]] *= 0.5

        improved &= ok_det
        nu[idx[improved]] = trial[improved]
        gnorm[idx[improved]] = trial_gn[improved]
        g[idx[improved]] = batch_gradient(beta, alpha, nu[idx[improved]])
        # seeds that could not decrease the gradient norm are dropped
        active[idx[~improved]] = False

    return nu[done | (gnorm <= tol.residual)]


def _dedupe_xy(points: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Indices of the (n, 3) rows kept when rows of one owner within
    Euclidean ``MERGE_RADIUS`` in plane coordinates are merged: owner by owner
    (ascending), in a deterministic lexicographic order."""
    xy = batch_xy(points)
    keep, reps_xy, current = [], [], None
    order = np.lexsort((xy[:, 1], xy[:, 0], owner))
    for k, o, p in zip(order.tolist(), owner[order].tolist(),
                       xy[order].tolist()):
        if o != current:
            current, reps_xy = o, []
        if all((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 > MERGE_RADIUS ** 2
               for q in reps_xy):
            keep.append(k)
            reps_xy.append(p)
    return np.array(keep, dtype=int)


def _kind(lo: float, hi: float) -> PointKind:
    if min(abs(lo), abs(hi)) <= DEGENERATE_EIG:
        return PointKind.DEGENERATE
    if lo > 0.0:
        return PointKind.MINIMUM
    return PointKind.MAXIMUM if hi < 0.0 else PointKind.SADDLE


def _classified(beta: float, alpha: np.ndarray, roots: np.ndarray,
                owner: np.ndarray, m: int) -> list:
    """For each field 0..m-1, the converged ``roots`` it owns (``owner``;
    ``alpha`` one field per row) deduplicated and classified,
    ordered lexicographically in plane coordinates, or a ``NumericalError``
    where it owns none."""
    keep = _dedupe_xy(roots, owner)
    roots = roots[keep]
    # with no roots every field is refused below; the Hessian is skipped,
    # as its 2 beta overflows near the float maximum, where none converges
    eigs = hessian_eigenvalues(beta, roots).tolist() if len(roots) else []
    values = batch_free_energy(beta, alpha[keep], roots).tolist()
    points = [[] for _ in range(m)]
    for i, row, (lo, hi), value in zip(owner[keep].tolist(), roots.tolist(),
                                       eigs, values):
        points[i].append(StationaryPoint(SpinDistribution(*row), (lo, hi),
                                         _kind(lo, hi), value))
    return [found or NumericalError(
        "no stationary point converged; a smooth landscape with boundary "
        "divergence has at least one minimum") for found in points]


def stationary_points_from_seeds(beta: float, alpha: np.ndarray,
                                 seeds: np.ndarray,
                                 tol: ToleranceConfig = DEFAULT_TOL) -> list:
    """Converge, deduplicate and classify stationary points from an
    arbitrary seed array, ordered lexicographically in plane coordinates."""
    roots = newton_stationary(beta, alpha, seeds, tol)
    return _checked(_classified(beta, np.broadcast_to(alpha, roots.shape),
                                roots, np.zeros(len(roots), dtype=int),
                                1)[0])


# ---------------------------------------------------------------------------
# Exact one-variable reduction
# ---------------------------------------------------------------------------

# Branch of each of the two other components in the four branch pairs:
# 0 takes the W0 root (x <= 1/beta), 1 the W-1 root (x >= 1/beta).
_PAIRS = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
# |F| at an extremum up to which it counts as a tangential (double) root.
_TANGENT_TOL = 1e-12
# Correction, relative to t, that settles a zero of F'' or F' as a split.
_SPLIT_TOL = 1e-8


def _lambert_log(d, upper):
    """log y for the roots y of ``y - 1 - log y = d >= 0``: the root
    y <= 1 (W0 branch) where ``upper`` is false, y >= 1 (W-1) where true.

    Near the branch point y = 1 the series in p = +-sqrt(2 d) is used as
    it is, since Halley steps there only keep log y to absolute precision;
    elsewhere two Halley steps on ``expm1(eta) - eta = d`` refine it, or
    for d >= 1 its asymptotic series; the error is below 1e-14 |log y|.
    """
    p = np.sqrt(2.0 * d) * np.where(upper, 1.0, -1.0)
    u = p * (1.0 + p * (1 / 3 + p * (1 / 36 + p * (-1 / 270 + p * (
        1 / 4320 + p / 17010)))))
    big = 1.0 + d
    series = np.log1p(u)
    log_big, small = np.log(big), np.exp(-big)
    eta = np.where(d < 1.0, series, np.where(
        upper, np.log(big + log_big + log_big / big),
        small * (1.0 + small * (1.0 + 1.5 * small)) - big))
    for _ in range(2):
        em1 = np.expm1(eta)
        h = em1 - eta - d
        den = 2.0 * em1 * em1 - h * (em1 + 1.0)
        eta = eta - np.where(den != 0.0, 2.0 * h * em1 / den, 0.0)
        eta = np.where(upper, np.maximum(eta, 0.0), np.minimum(eta, 0.0))
    return np.where(np.abs(p) < 1e-2, series, eta)


def _branch_gap(s):
    """s - 1 - log s >= 0, to full relative precision also near s = 1
    (through the atanh series of log1p), where the branch derivatives
    divide by its square root."""
    w = s - 1.0
    near = np.abs(w) < 0.1
    if not near.any():
        return w - np.log(s)
    z = w / (2.0 + w)
    z2 = z * z
    series = 2.0 * z2 / (1.0 - z) - 2.0 * z * z2 * (
        1 / 3 + z2 * (1 / 5 + z2 * (1 / 7 + z2 * (1 / 9 + z2 * (
            1 / 11 + z2 / 13)))))
    return np.where(near, series, w - np.log(s))


def _branch_values(beta: float, log_r, t, upper, orders: int = 4):
    """Other components x on the given branches at ``t = nu_k`` and their
    first ``orders - 1`` t-derivatives, stacked on a leading axis; the
    arguments broadcast.  ``log_r`` is log(alpha_i / alpha_k) <= 0.  No
    clamping: where x > 1, F > 0 anyway."""
    s = beta * t
    eta = _lambert_log(np.maximum(_branch_gap(s) - log_r, 0.0), upper)
    out = np.empty((orders,) + eta.shape)
    x = out[0] = np.exp(eta) / beta
    gap = -np.expm1(eta)  # 1 - beta x: zero only at a tie with t = 1/beta
    # differentiate log x - beta x = log t - beta t + const
    if orders > 1:
        x1 = out[1] = x * (1.0 - s) / (t * gap)
    if orders > 2:
        x1x1, tt = x1 * x1, t * t
        x2 = out[2] = (x1x1 / x - x / tt) / gap
    if orders > 3:
        out[3] = (2.0 * x1 * x2 / x - x1x1 * x1 / (x * x) - x1 / tt
                  + 2.0 * x / t ** 3 + beta * x1 * x2) / gap
    if np.equal(log_r, 0.0).any():
        # at a tie one root is t itself: take it exactly (exact symmetry)
        own = (log_r == 0.0) & (np.asarray(upper) == (s > 1.0))
        out[1:] = np.where(own | (gap == 0.0), 0.0, out[1:])
        out[0] = np.where(own, t, x)
        out[1:2] += own  # x' = 1 on the own root
    return out


@functools.cache
def _sample_grid():
    """The beta-independent samples, and offsets around 1/beta."""
    ends = np.geomspace(1e-14, 1e-2, 25)
    grid = np.concatenate([np.linspace(0.0, 1.0, 201)[1:-1], ends, 1.0 - ends])
    return _distinct(grid), np.geomspace(1e-12, 0.5, 25)


def _distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D float array without NaN: what
    ``np.unique`` returns, without its first call importing ``numpy.ma``."""
    a = np.sort(a)
    return a[np.concatenate([[True], a[1:] != a[:-1]])]


def _samples(beta: float) -> np.ndarray:
    """Values of ``t`` scanned for sign changes: a uniform grid refined
    geometrically towards both ends of (0, 1) and towards ``1/beta``, where
    the branches meet, from both sides, plus ``1/beta`` itself."""
    t, near = _sample_grid()
    centre = 1.0 / beta
    if centre < 1.0:
        t = _distinct(np.concatenate([t, [centre], centre * (1.0 - near),
                                      centre * (1.0 + near)]))
    return t[t < 1.0]


# The two other components for each index of the largest field component.
_OTHERS = np.array([[1, 2], [0, 2], [0, 1]])
_SIDES = np.arange(2)
_UPPER = _SIDES == 1


def _scan(beta: float, log_r, t, orders: int = 4):
    """F = t + x_i + x_j - 1 and its first ``orders - 1`` derivatives on all
    four pairs at samples ``t``, where ``log_r[..., :]`` broadcasts against
    ``t``: shape (orders,) + broadcast shape + (4,); and the branch values
    (x_i, x_j) they sum, with a trailing axis of 2."""
    xs = _branch_values(beta, log_r[..., None], t[..., None, None], _UPPER,
                        orders)[..., _SIDES, _PAIRS]
    out = xs.sum(axis=-1)
    out[0] += t[..., None] - 1.0
    out[1:2] += 1.0
    return out, xs


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _reduced_roots(beta: float, alphas: np.ndarray):
    """Stationary points of the fields ``alphas`` (m, 3) at one beta, as
    roots of the one-variable reduction: (nu, owner, errors), with nu the
    points (r, 3), owner the field of each, and errors the
    ``NumericalError`` of each field whose points are dropped (else None).

    The zeros of F'' and then of F' join the samples before F is scanned,
    so the close roots next to a fold or a cusp are separated without a
    denser grid.  These split rounds stop a bracket once a correction is
    at most ``_SPLIT_TOL`` t where |F| > ``_TANGENT_TOL``: a root pair of F
    that close would need F' to vanish too, and F then moves far less than
    |F| there, so no pair hides and F keeps the sign of the exact zero.
    Smaller |F|, a possible A3 or tangential root, refines to rounding.
    Each root keeps the branch values of the evaluation that found it.  Roots
    come from sign changes of F between samples, from exact zeros at
    samples, from zeros of F'' where F is at rounding level (A3 points) and
    from tangential extrema; a root on a branch point, where a tie in alpha
    makes two branches meet, shows up in several pairs.  A root with a
    component below ``INTERIOR_MARGIN`` cannot be represented as a
    ``SpinDistribution``; rather than drop it, the census of its field
    fails with a ``NumericalError``.

    The fields' samples are kept in one list sorted by field, then by
    ``t``; every field starts from the samples of its beta and each round
    refines the brackets of all fields in one call.  Each root is computed
    element by element, so it is the same in any batch.
    """
    m, k = len(alphas), alphas.argmax(axis=1)
    others = _OTHERS[k]
    rows = np.arange(m)[:, None]
    log_alpha = np.log(alphas)
    log_r = log_alpha[rows, others] - log_alpha[rows, k[:, None]]
    tie = (log_r == 0.0).any(axis=1)

    def refine(order, j, b):
        """Zeros of derivative ``order`` of F in (t[j], t[j + 1]) on pairs
        b, and the scan there: the last evaluation, where every bracket ends."""
        lr, at = log_r[field[j]], np.arange(len(j))
        last = np.empty((4, 0, 4)), np.empty((4, 0, 4, 2))

        def fun(x):
            nonlocal last
            last = _scan(beta, lr, x, min(order + 3, 4))
            return last[0][order:, at, b]

        def settled(x, size):  # sorts the samples as the zero would
            return ((size <= _SPLIT_TOL * x)
                    & (np.abs(last[0][0, at, b]) > _TANGENT_TOL))
        return _bracketed_halley(fun, t[j], t[j + 1], f[order:order + 2, j, b],
                                 f[order:order + 2, j + 1, b],
                                 settled if order else None), *last

    t = _samples(beta)
    f, x = _scan(beta, log_r[:, None], t)
    f, x = f.reshape(4, -1, 4), x[0].reshape(-1, 4, 2)  # x: branch values
    field = np.repeat(np.arange(m), len(t))
    t = np.concatenate([t] * m)
    inflection = np.zeros((len(t), 4), dtype=bool)  # F'' zero of pair b
    for order in (2, 1):
        # at a tie F', F'' jump where the branches meet (t = 1/beta): no
        # zero; neither is a change from one field's samples to the next
        cut = (t == 1.0 / beta) & tie[field]
        cut = (cut[:-1] | cut[1:]) | (field[:-1] != field[1:])
        k_new, b_new = np.nonzero((f[order, :-1] * f[order, 1:] < 0.0)
                                  & ~cut[:, None])
        t_new, f_new, x_new = refine(order, k_new, b_new)
        n = len(t)
        t = np.concatenate([t, t_new])
        f = np.concatenate([f, f_new], axis=1)
        x = np.concatenate([x, x_new[0]])
        field = np.concatenate([field, field[k_new]])
        rank = np.lexsort((t, field))
        t, f, x, field = t[rank], f[:, rank], x[rank], field[rank]
        added = (b_new[:, None] == np.arange(4)) & (order == 2)
        inflection = np.concatenate([inflection, added])[rank]
    # after the last round: where the extrema of F sit among the samples
    e_ext, b_ext = np.argsort(rank)[n:], b_new

    # F within the rounding unit of ``_bracketed_halley`` at a zero of F''
    # is the triple root of an A3 point: a root, like an exact zero, and
    # the brackets on either side of it are left alone
    zero = (f[0] == 0.0) | (inflection & (np.abs(f[0]) <= _EPS))
    k_root, b_root = np.nonzero((f[0, :-1] * f[0, 1:] < 0.0)
                                & ~(zero[:-1] | zero[1:])
                                & (field[:-1] == field[1:])[:, None])
    t_root, _, x_root = refine(0, k_root, b_root)
    f = f[0]
    k_zero, b_zero = np.nonzero(zero)
    # an extremum within _TANGENT_TOL of zero with no sign change on
    # either side touches zero: a double root at a fold
    fe = f[e_ext, b_ext]
    touch = ((np.abs(fe) <= _TANGENT_TOL)
             & (f[e_ext - 1, b_ext] * fe > 0.0)
             & (f[e_ext + 1, b_ext] * fe > 0.0))
    e_ext, b_ext = e_ext[touch], b_ext[touch]
    owner = field[np.concatenate([k_root, k_zero, e_ext])]
    t_all = np.concatenate([t_root, t[k_zero], t[e_ext]])
    x = np.concatenate([x_root[0, np.arange(len(b_root)), b_root],
                        x[k_zero, b_zero], x[e_ext, b_ext]])
    nu = np.empty((len(t_all), 3))
    at = np.arange(len(t_all))
    nu[at, k[owner]] = t_all
    nu[at[:, None], others[owner]] = x
    nu /= nu.sum(axis=1, keepdims=True)
    lost = nu.min(axis=1) < INTERIOR_MARGIN
    errors = [None] * m
    for i in set(owner[lost].tolist()):
        out = nu[lost & (owner == i)]
        errors[i] = NumericalError(
            f"{len(out)} stationary point(s) lie outside the "
            f"representable interior: smallest component "
            f"{float(out.min())!r} < {INTERIOR_MARGIN!r}")
    keep = np.array([errors[i] is None for i in owner.tolist()], dtype=bool)
    return nu[keep], owner[keep], errors


def _polish(beta: float, alpha: np.ndarray, nu: np.ndarray,
            tol: ToleranceConfig):
    """Up to four Newton steps on the local gradient, each kept only where it
    lowers the gradient norm, under the field ``alpha`` of each row.
    Returns the rows and where they meet ``tol.residual``.  All three
    components are updated, so none is recomputed from the other two."""
    nu = nu.copy()
    gnorm = np.linalg.norm(batch_gradient(beta, alpha, nu), axis=-1)
    for _ in range(4):
        idx = np.flatnonzero(gnorm > tol.residual)
        if not len(idx):
            break
        d1, d2, _ = _newton_step(beta, nu[idx],
                                 batch_gradient(beta, alpha[idx], nu[idx]))
        cand = nu[idx] + np.stack([d1, d2, -d1 - d2], axis=-1)
        valid = cand.min(axis=1) > 0.0
        cand[~valid] = nu[idx[~valid]]
        gn = np.linalg.norm(batch_gradient(beta, alpha[idx], cand), axis=-1)
        better = valid & (gn < gnorm[idx])
        nu[idx[better]] = cand[better]
        gnorm[idx[better]] = gn[better]
    return nu, gnorm <= tol.residual


def _checked(result):
    """A per-field result of the batch, raised where it is an error."""
    if isinstance(result, NumericalError):
        raise result
    return result


def _census_of(params: ModelParams, points: list,
               tol: ToleranceConfig) -> MinimaCensus:
    """Count local minima among the classified points of one field and
    extract the set of global minimizers; a ``NumericalError`` where none
    is a minimum or degenerate, as a minimum the census lost."""
    minima = [p for p in points if p.kind is PointKind.MINIMUM]
    degenerate = any(p.kind is PointKind.DEGENERATE for p in points)
    if not minima and not degenerate:
        return NumericalError(
            f"no local minimum among the {len(points)} stationary points "
            f"found; a minimum lies closer to an edge than can be resolved")
    # a degenerate point with a positive definite Hessian is a minimum
    # closer to a fold than the degeneracy tolerance: it can be global
    candidates = [p for p in points if p.hess_eigenvalues[0] > 0.0]
    vmin = min((p.value for p in candidates), default=0.0)
    glob = tuple(p for p in candidates if p.value <= vmin + tol.depth)
    return MinimaCensus(params=params, points=tuple(points),
                        n_local_minima=len(minima), global_minimizers=glob,
                        degenerate_warning=degenerate)


def _census_batch(params: list, tol: ToleranceConfig) -> list:
    """The census of each of ``params``, which share one beta, or the
    ``NumericalError`` its field fails with, in the order given."""
    if not params:
        return []
    beta = params[0].beta
    alphas = np.array([(p.alpha.a1, p.alpha.a2, p.alpha.a3) for p in params])
    nu, owner, errors = _reduced_roots(beta, alphas)
    nu, ok = _polish(beta, alphas[owner], nu, tol)
    # a root left above the residual fails its field, which would lose it
    for i, k in enumerate(np.bincount(owner[~ok], minlength=len(params))):
        if k:
            errors[i] = ToleranceError(
                f"{k} stationary point(s) keep a gradient norm above the "
                f"residual tolerance {tol.residual!r}")
    points = _classified(beta, alphas[owner[ok]], nu[ok], owner[ok],
                         len(params))
    return [error or (pts if isinstance(pts, NumericalError)
                      else _census_of(p, pts, tol))
            for p, error, pts in zip(params, errors, points)]


def find_stationary_points(params: ModelParams,
                           tol: ToleranceConfig = DEFAULT_TOL) -> list:
    """All stationary points, as the roots of the one-variable reduction
    polished to ``tol.residual``, deduplicated and classified, ordered
    lexicographically in plane coordinates."""
    return list(census(params, tol).points)


def census(params: ModelParams,
           tol: ToleranceConfig = DEFAULT_TOL) -> MinimaCensus:
    """Count local minima and extract the set of global minimizers: the
    batch of one of ``censuses``."""
    return _checked(_census_batch([params], tol)[0])


def censuses(beta: float, alphas,
             tol: ToleranceConfig = DEFAULT_TOL) -> tuple:
    """The census of each field of ``alphas`` (``AprioriMeasure``) at one
    ``beta``, solved together: one scan and one refinement per round for
    the whole batch.  Each census is the one ``census`` gives for its field
    alone, bit for bit.  Raises the error of the first field, in the order
    given, whose census fails."""
    params = [ModelParams(beta, a) for a in alphas]
    return tuple(_checked(r) for r in _census_batch(params, tol))


def brute_force_global_min(params: ModelParams, grid_density: int = 200,
                           tol: ToleranceConfig = DEFAULT_TOL) -> SpinDistribution:
    """Grid-scan oracle for the global minimizer: argmin of the free energy
    over a dense barycentric lattice, refined by ``_polish``.

    Next to an edge the polish converges only from within a factor of
    about e of the small component, which can be finer than the lattice;
    the argmin is then taken again over a local lattice a quarter as
    wide, centred on the best node, until the polish converges."""
    if grid_density < 100:
        raise DomainError(f"grid_density must be >= 100, got {grid_density}")
    beta, alpha = params.beta, params.alpha.array
    zoom = np.array([(i, j, -i - j) for i in range(-4, 5)
                     for j in range(-4, 5)]) / 4.0
    nodes, spacing = barycentric_grid(grid_density), 1.0 / grid_density
    while True:
        nodes = nodes[nodes.min(axis=1) > 0.0]
        best = nodes[int(np.argmin(batch_free_energy(beta, alpha, nodes)))]
        refined, ok = _polish(beta, alpha[None, :], best[None, :], tol)
        if ok[0] or spacing < 1e-9:
            return SpinDistribution.from_array(refined[0] if ok[0] else best)
        nodes, spacing = best + spacing * zoom, spacing / 4.0
