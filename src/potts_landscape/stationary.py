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
the four branch pairs b, bracketed by a scan of F whose samples include
the zeros of F'' and F' (refined only until they settle which cell a root
of F lies in), refined by Halley steps from the roots of cubic Hermite
interpolants (a root of F mostly ends on the first, its branch values
carried by Taylor), then polished by Newton steps on the local gradient
and classified through the Hessian spectrum.  ``census`` counts the minima
that settle a parameter point's cell of the phase diagram; ``censuses``
solves many fields at one beta together, and ``census`` is its batch of one.

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
    global_minimizers: tuple  # positive definite, least value within depth
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
    """Damped Newton on the local gradient from each seed row, backtracking
    by step halving until the gradient norm decreases; seeds that cannot
    decrease it within ``_NEWTON_MAX_HALVINGS`` halvings or do not converge
    in ``_NEWTON_MAX_ITER`` steps are dropped.  Returns the rest, (m, 3)."""
    nu = _clamp_interior(np.array(seeds, dtype=float))
    active = np.ones(len(nu), dtype=bool)

    g = batch_gradient(beta, alpha, nu)
    gnorm = np.linalg.norm(g, axis=-1)

    for _ in range(_NEWTON_MAX_ITER):
        # a converged seed keeps its gradient norm, so it is returned
        active &= ~(gnorm <= tol.residual)
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

    return nu[gnorm <= tol.residual]


def _kind(lo: float, hi: float) -> PointKind:
    if min(abs(lo), abs(hi)) <= DEGENERATE_EIG:
        return PointKind.DEGENERATE
    if lo > 0.0:
        return PointKind.MINIMUM
    return PointKind.MAXIMUM if hi < 0.0 else PointKind.SADDLE


def _classified(beta: float, alpha: np.ndarray, roots: np.ndarray,
                owner: np.ndarray, m: int) -> list:
    """For each field 0..m-1, the converged ``roots`` it owns (``owner``;
    ``alpha`` one field per row) classified, ordered lexicographically in
    plane coordinates, those within Euclidean ``MERGE_RADIUS`` there of one
    kept before them dropped; or a ``NumericalError`` where it owns none."""
    xy = batch_xy(roots)
    order = np.lexsort((xy[:, 1], xy[:, 0], owner))
    keep, kept = [], [[] for _ in range(m)]
    for k, i, (x, y) in zip(order.tolist(), owner[order].tolist(),
                            xy[order].tolist()):
        if all((x - u) ** 2 + (y - v) ** 2 > MERGE_RADIUS ** 2
               for u, v in kept[i]):
            keep.append(k)
            kept[i].append((x, y))
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
# A root t of F ends at t - dx on its Halley correction where the next error,
# at most (|F''/2F'|^2 + |F'''/6F'|) |dx|^3, and the remainders |x'''| |dx|^3
# / 6 of its ``_carried`` branch values x are below this share of t and x.
_FINISH_TOL = 2.0 ** -55  # a quarter of the rounding unit


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
        eta = eta - 2.0 * h * em1 / (2.0 * em1 * em1 - h * (em1 + 1.0))
    eta = np.where(upper, np.maximum(eta, 0.0), np.minimum(eta, 0.0))
    return np.where(np.abs(p) < 1e-2, series, eta)  # also the 0/0 at d = 0


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
    """The beta-independent samples and the factors of 1/beta joining them."""
    ends, near = np.geomspace(1e-14, 1e-2, 25), np.geomspace(1e-12, 0.5, 25)
    return (np.concatenate([np.linspace(0.0, 1.0, 201)[1:-1], ends,
                            1.0 - ends]),
            np.concatenate([[1.0], 1.0 - near, 1.0 + near]))


def _samples(beta: float) -> np.ndarray:
    """The ``t`` scanned, sorted and distinct (``np.unique`` would import
    ``numpy.ma``): a uniform grid refined geometrically towards both ends of
    (0, 1) and from both sides towards ``1/beta``, where branches meet."""
    t, near = _sample_grid()
    centre = 1.0 / beta
    if centre < 1.0:
        t = np.concatenate([t, centre * near])
    t = np.sort(t[t < 1.0])
    return t[np.concatenate([[True], t[1:] != t[:-1]])]


# The two other components for each index of the largest field component.
_OTHERS = np.array([[1, 2], [0, 2], [0, 1]])
_SIDES = np.arange(2)


def _scan(beta: float, log_r, t, orders: int = 4):
    """F = t + x_i + x_j - 1 and its first ``orders - 1`` derivatives on the
    four pairs at ``t``, where the log ratio ``log_r[i]`` of other
    component i broadcasts against ``t``: shape (orders, 4) + that shape;
    and the branch values (x_i, x_j) summed, shape (orders, 4, 2) + it.
    Axes lead, so array operations run over the samples in their loops."""
    upper = (_SIDES == 1).reshape((2,) + (1,) * np.ndim(log_r))
    xs = _branch_values(beta, log_r[None], t, upper, orders)[:, _PAIRS,
                                                              _SIDES]
    out = xs.sum(axis=2)
    out[0] += t - 1.0
    out[1] += 1.0
    return out, xs


def _carried(xs, d):  # x at t + d from x, x', x'' at t; x itself where d = 0
    return np.where(d != 0.0, xs[0] + d * (xs[1] + 0.5 * d * xs[2]), xs[0])


# Rows of the sample table of ``_reduced_roots``, a column per sample: t,
# field, log ratios, index among the kept branch values, on each pair the
# order of the zero it is (2: F'', 1: F', else 0), then F to F''' on each.
_FIELD, _LOG_R, _INDEX, _ZERO, _F = 1, slice(2, 4), 4, slice(5, 9), 9
_PAIR_ROWS, _DERIVS = np.arange(4)[:, None], np.arange(3)[:, None]
_SLOPE, _ENDS = np.array([[0], [4]]), np.array([[[0]], [[1]]])
_AROUND = np.array([[-1], [1]])


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _reduced_roots(beta: float, alphas: np.ndarray):
    """Stationary points of the fields ``alphas`` (m, 3) at one beta, as
    roots of the one-variable reduction: (nu, owner, errors), with nu the
    points (r, 3), owner the field of each, and errors the
    ``NumericalError`` of each field whose points are dropped (else None).

    Zeros of F'' and F' join the samples as split points, which separate
    close roots next to a fold or a cusp.  Three rounds refine: the zeros
    of F'', of F' in cells without one and of F in cells without either;
    the zeros of F' in cells split by those of F''; the roots of F next to
    split points.  A split point is settled where |F| > ``_TANGENT_TOL``
    once its correction dx is at most ``_SPLIT_TOL`` t (a root pair of F
    that close would need F' to vanish too, and F moves far less than |F|)
    or once the next lower derivative settles it by value, |F'| > 2 |F''
    dx| or |F| > 2 |F' dx|: monotone up to the zero, it keeps its sign.  So
    F keeps the sign of the exact zero; smaller |F|, a possible A3 or
    tangential root, refines to rounding.  A root of F mostly ends on its
    first Halley correction (``_FINISH_TOL``).  Roots come from sign
    changes of F, exact zeros, zeros of F'' where F is at rounding level
    (A3 points) and tangential extrema; a root on a branch point, where a
    tie in alpha makes two branches meet, shows up in several pairs.  A
    root with a component below ``INTERIOR_MARGIN`` fails its field's
    census.  The samples of all fields are the columns of one table sorted
    by field, then ``t``, each field ending in a NaN sample; each round
    refines all their brackets in one call, element by element, so each
    root is the same in any batch."""
    m, k = len(alphas), alphas.argmax(axis=1)
    others, log_alpha = _OTHERS[k], np.log(alphas)
    log_r = (log_alpha[np.arange(m)[:, None], others]
             - log_alpha[np.arange(m), k][:, None])
    tie = (log_r == 0.0).any()
    t = _samples(beta)
    f, x = _scan(beta, log_r.T[:, :, None], t)
    table = np.full((25, m, len(t) + 1), np.nan)  # NaN samples end fields
    table[0, :, :-1], table[_FIELD] = t, np.arange(m)[:, None]
    table[_LOG_R], table[_ZERO] = log_r.T[:, :, None], 0.0
    table[_INDEX, :, :-1] = np.arange(m * len(t)).reshape(m, -1)
    table[_F:, :, :-1] = f.reshape(16, m, -1)
    table = table.reshape(25, -1)
    kept = [x[0].reshape(4, 2, -1)]  # branch values, by _INDEX
    roots, pairs = [], []

    def split(order, j, b, orders=4):
        """Zeros of derivative ``order[i]`` of F on pair ``b[i]`` after column
        ``j[i]``: zeros of F'' and F' become samples, zeros of F are roots."""
        nonlocal table
        if not len(j):  # as the second and third rounds nearly always are
            return
        log_r, at = table[_LOG_R].take(j, axis=1), np.arange(len(j))
        pick, flat = order + _DERIVS, b * len(j) + at
        value = np.zeros((5, len(j)))  # F'''' as 0: Newton steps for F''
        tol, index = _SPLIT_TOL * (order > 0), sum(a.shape[-1] for a in kept)
        last = [None] * 3  # of the last evaluation

        def fun(x):  # keeps -dx where Halley's correction dx ends a root of F
            last[:2] = out, xs = _scan(beta, log_r, x, orders)
            out.reshape(orders, -1).take(flat, axis=1, out=value[:orders])
            f, df, d2f, d3f = value[:4]  # F''' is 0 in the round without it
            dx = f / df / (1.0 - 0.5 * f * d2f / (df * df))
            cube = np.abs(dx) ** 3 / _FINISH_TOL
            # x - dx keeps x's side of 1/beta, where a tie swaps branches
            ok = (beta * x > 1.0) == (beta * (x - dx) > 1.0)
            ok &= (np.abs(xs[-1]) * cube <= 6.0 * xs[0]).all((0, 1))
            ok &= cube * ((0.5 * d2f / df) ** 2 + np.abs(d3f / df) / 6.0) <= x
            last[2] = np.where(ok & (order == 0) & (orders > 3), -dx, 0.0)
            return value[pick, at]

        def settled(x, size):  # sorts the samples as the zero would
            return (((size <= tol * x) | (np.abs(value[order - 1, at]) > (
                2.0 * size) * np.abs(value[order, at])))
                    & (np.abs(value[0]) > _TANGENT_TOL)) | (last[2] != 0.0)
        ends = table[_F + 4 * order + b + _SLOPE, j + _ENDS]
        root = _bracketed_halley(fun, table[0, j], table[0, j + 1], *ends,
                                 settled)
        kept.append(_carried(*last[1:]))  # where each bracket ends
        new = np.concatenate([
            (root + last[2])[None], table[_FIELD:_INDEX, j], index + at[None],
            order * (b == _PAIR_ROWS), last[0][:3].reshape(12, -1)])
        n = np.count_nonzero(order)  # the split points come first
        roots.append(new[:_INDEX + 1, n:])
        pairs.append(b[n:])
        if n:
            table = np.concatenate([table[:_F + 12], new[:, :n]], axis=1)
            table = table[:, np.lexsort((table[0], table[_FIELD]))]

    def changes(f, jumps=False):
        """Sign changes of rows f between neighbour samples; with ``jumps``,
        none where F', F'' jump: at t = 1/beta where a tie meets branches."""
        change = f[:, :-1] * f[:, 1:] < 0.0
        if jumps and tie:
            at = (table[0] == 1.0 / beta) & (table[_LOG_R] == 0.0).any(0)
            change &= ~(at[:-1] | at[1:])
        return change

    f = table[_F:]
    inflection = changes(f[8:12], True)
    extremum = changes(f[4:8], True) & ~inflection.any(0)
    zero = f[:4] == 0.0
    b, j = np.nonzero(np.concatenate([inflection, extremum, changes(f[:4]) & ~(
        zero[:, :-1] | zero[:, 1:] | (inflection | extremum).any(0))]))
    split(2 - b // 4, j, b % 4)
    inflection = (table[_ZERO] == 2.0).any(0)
    b, j = np.nonzero(changes(table[_F + 4:_F + 8], True)
                      & (inflection[:-1] | inflection[1:]))
    split(np.ones_like(j), j, b)
    # F within the rounding unit of ``_bracketed_halley`` at a zero of F''
    # is the triple root of an A3 point: a root, like an exact zero, and
    # the brackets on either side of it are left alone
    f, order = table[_F:_F + 4], table[_ZERO]
    zero = (f == 0.0) | ((order == 2.0) & (np.abs(f) <= _EPS))
    new = (order != 0.0).any(0)
    b, j = np.nonzero(changes(f) & ~(zero[:, :-1] | zero[:, 1:])
                      & (new[:-1] | new[1:]))
    split(np.zeros_like(j), j, b, 3)
    b_zero, k_zero = np.nonzero(zero)
    # an extremum within _TANGENT_TOL of zero with no sign change on
    # either side touches zero: a double root at a fold
    b_ext, e_ext = np.nonzero(order == 1.0)
    fe = f[b_ext, e_ext]
    touch = ((np.abs(fe) <= _TANGENT_TOL)
             & (f[b_ext, e_ext + _AROUND] * fe > 0.0).all(0))
    cols = np.concatenate([k_zero, e_ext[touch]])
    found = np.concatenate(roots + [table[:_INDEX + 1, cols]], axis=1)
    pairs = np.concatenate(pairs + [b_zero, b_ext[touch]])
    owner, rows = found[_FIELD].astype(int), np.arange(found.shape[1])
    nu = np.empty((len(rows), 3))
    nu[rows, k[owner]] = found[0]
    nu[rows[:, None], others[owner]] = np.concatenate(kept, axis=2)[
        pairs, :, found[_INDEX].astype(int)]
    nu /= nu.sum(axis=1, keepdims=True)
    lost = np.bincount(owner[nu.min(axis=1) < INTERIOR_MARGIN], minlength=m)
    errors = [NumericalError(
        f"{n} stationary point(s) lie outside the representable interior: "
        f"smallest component {float(nu[owner == i].min())!r} < "
        f"{INTERIOR_MARGIN!r}") if n else None
        for i, n in enumerate(lost.tolist())]
    keep = lost[owner] == 0
    return nu[keep], owner[keep], errors


def _polish(beta: float, alpha: np.ndarray, nu: np.ndarray,
            tol: ToleranceConfig):
    """Up to four Newton steps on the local gradient under the field
    ``alpha`` of each row, each kept where it lowers the gradient norm: the
    rows, all three components updated, and where they meet the residual."""
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
    """All stationary points of the census, deduplicated and classified,
    ordered lexicographically in plane coordinates."""
    return list(census(params, tol).points)


def census(params: ModelParams,
           tol: ToleranceConfig = DEFAULT_TOL) -> MinimaCensus:
    """Count local minima and extract the set of global minimizers: the
    batch of one of ``censuses``."""
    return _checked(_census_batch([params], tol)[0])


def censuses(beta: float, alphas,
             tol: ToleranceConfig = DEFAULT_TOL) -> tuple:
    """The census of each field of ``alphas`` (``AprioriMeasure``) at one
    ``beta``, solved together: one scan and one call per round for the
    batch, each census bit for bit the one ``census`` gives for its field
    alone.  Raises the error of the first field, in order, that fails."""
    params = [ModelParams(beta, a) for a in alphas]
    return tuple(_checked(r) for r in _census_batch(params, tol))


def brute_force_global_min(params: ModelParams, grid_density: int = 200,
                           tol: ToleranceConfig = DEFAULT_TOL) -> SpinDistribution:
    """Grid-scan oracle for the global minimizer: argmin of the free energy
    over a dense barycentric lattice, refined by ``_polish``.  Next to an
    edge the polish converges only from within a factor of about e of the
    small component, which can be finer than the lattice; the argmin is
    then taken again over a local lattice a quarter as wide, centred on the
    best node, until the polish converges."""
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
