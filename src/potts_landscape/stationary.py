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
include the zeros of F'' and F', refined by safeguarded Newton, polished by
a few Newton steps on the local gradient and classified through the Hessian
spectrum.  ``census`` wraps this into the minima count that settles which
cell of the phase diagram a parameter point belongs to.

Damped Newton from a barycentric seed lattice (``newton_stationary``,
``stationary_points_from_seeds``) is kept only as the tests' independent
method: no other module of the package calls it.  ``brute_force_global_min``
is the slow grid oracle used to cross-check global-minimizer claims; it
refines the best lattice node with the same few Newton steps that polish
the census roots.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .model import (DEFAULT_TOL, ModelParams, SpinDistribution,
                    ToleranceConfig, batch_free_energy, batch_gradient,
                    batch_hessian, batch_xy, hessian_eigenvalues)


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


def barycentric_grid(density: int, corner_margin: float = 1e-3) -> np.ndarray:
    """Interior nodes of the barycentric lattice of the given density,
    augmented with near-corner, near-edge-midpoint and centroid seeds."""
    i, j = np.meshgrid(np.arange(1, density), np.arange(1, density),
                       indexing="ij")
    keep = (i + j) <= density - 1
    i, j = i[keep], j[keep]
    pts = np.stack([i, j, density - i - j], axis=-1) / float(density)

    m = corner_margin
    extras = [(1 - 2 * m, m, m), (m, 1 - 2 * m, m), (m, m, 1 - 2 * m),
              (0.5 - m / 2, 0.5 - m / 2, m), (0.5 - m / 2, m, 0.5 - m / 2),
              (m, 0.5 - m / 2, 0.5 - m / 2),
              (1 / 3, 1 / 3, 1 / 3)]
    return np.vstack([pts, np.asarray(extras)])


def _clamp_interior(nu: np.ndarray, margin: float) -> np.ndarray:
    """Project rows of (n, 3) back into the simplex with the given margin."""
    out = np.maximum(nu, margin)
    s12 = out[:, 0] + out[:, 1]
    over = s12 > 1.0 - margin
    if np.any(over):
        scale = (1.0 - margin) / s12[over]
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
                      tol: ToleranceConfig = DEFAULT_TOL,
                      max_iter: int = 200, max_halvings: int = 40) -> np.ndarray:
    """Damped Newton on the local gradient from each seed row.

    Backtracks by step halving until the gradient norm decreases; seeds that
    cannot decrease within ``max_halvings`` or do not converge within
    ``max_iter`` are dropped.  Returns the converged points, shape (m, 3).
    """
    nu = _clamp_interior(np.array(seeds, dtype=float), tol.clamp_margin)
    active = np.ones(len(nu), dtype=bool)
    done = np.zeros(len(nu), dtype=bool)

    g = batch_gradient(beta, alpha, nu)
    gnorm = np.linalg.norm(g, axis=-1)

    for _ in range(max_iter):
        conv = active & (gnorm <= tol.residual)
        done |= conv
        active &= ~conv
        if not np.any(active):
            break

        idx = np.flatnonzero(active)
        n_a = nu[idx]
        d1, d2, ok_det = _newton_step(beta, n_a, g[idx])
        # cap the step at the simplex diameter scale
        step_len = np.hypot(d1, d2)
        big = step_len > 1.0
        d1[big] /= step_len[big]
        d2[big] /= step_len[big]

        lam = np.ones(len(idx))
        improved = np.zeros(len(idx), dtype=bool)
        trial = n_a.copy()
        trial_gn = gnorm[idx].copy()
        for _ in range(max_halvings):
            todo = ~improved
            if not np.any(todo):
                break
            cand = n_a[todo].copy()
            cand[:, 0] += lam[todo] * d1[todo]
            cand[:, 1] += lam[todo] * d2[todo]
            cand[:, 2] = 1.0 - cand[:, 0] - cand[:, 1]
            cand = _clamp_interior(cand, tol.clamp_margin)
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


def _dedupe_xy(points: np.ndarray, radius: float) -> np.ndarray:
    """Deduplicate (n, 3) rows by Euclidean radius in plane coordinates,
    keeping a deterministic lexicographic order."""
    if len(points) == 0:
        return points
    xy = batch_xy(points)
    order = np.lexsort((xy[:, 1], xy[:, 0]))
    reps: list = []
    reps_xy: list = []
    for k in order:
        p = xy[k]
        if all((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 > radius * radius
               for q in reps_xy):
            reps.append(points[k])
            reps_xy.append(p)
    return np.asarray(reps)


def classify(beta: float, nu, tol: ToleranceConfig = DEFAULT_TOL):
    """(eig_lo, eig_hi, PointKind) for one simplex point."""
    eigs = hessian_eigenvalues(beta, np.asarray(nu, dtype=float))
    lo, hi = float(eigs[0]), float(eigs[1])
    if min(abs(lo), abs(hi)) <= tol.degenerate_eig:
        kind = PointKind.DEGENERATE
    elif lo > 0.0:
        kind = PointKind.MINIMUM
    elif hi < 0.0:
        kind = PointKind.MAXIMUM
    else:
        kind = PointKind.SADDLE
    return lo, hi, kind


def _classified(beta: float, alpha: np.ndarray, roots: np.ndarray,
                tol: ToleranceConfig) -> list:
    """Deduplicate and classify converged roots, ordered lexicographically
    in plane coordinates."""
    roots = _dedupe_xy(roots, tol.merge_radius)
    if len(roots) == 0:
        raise NumericalError(
            "no stationary point converged; a smooth landscape with "
            "boundary divergence has at least one minimum")
    out = []
    for row in roots:
        lo, hi, kind = classify(beta, row, tol)
        value = float(batch_free_energy(beta, alpha, row))
        out.append(StationaryPoint(SpinDistribution.from_array(row),
                                   (lo, hi), kind, value))
    return out


def stationary_points_from_seeds(beta: float, alpha: np.ndarray,
                                 seeds: np.ndarray,
                                 tol: ToleranceConfig = DEFAULT_TOL) -> list:
    """Converge, deduplicate and classify stationary points from an
    arbitrary seed array, ordered lexicographically in plane coordinates."""
    return _classified(beta, alpha, newton_stationary(beta, alpha, seeds, tol),
                       tol)


# ---------------------------------------------------------------------------
# Exact one-variable reduction
# ---------------------------------------------------------------------------

# Branch of each of the two other components in the four branch pairs:
# 0 takes the W0 root (x <= 1/beta), 1 the W-1 root (x >= 1/beta).
_PAIRS = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
# |F| at an extremum up to which it counts as a tangential (double) root.
_TANGENT_TOL = 1e-12


def _lambert_log(d, upper):
    """log y for the roots y of ``y - 1 - log y = d >= 0``: the root
    y <= 1 (W0 branch) where ``upper`` is false, y >= 1 (W-1) where true.

    Near the branch point y = 1 the series in p = +-sqrt(2 d) is used as
    it is, since Halley steps there only keep log y to absolute precision;
    elsewhere three Halley steps on ``expm1(eta) - eta = d`` refine it, or
    the asymptotic forms for d >= 1.
    """
    p = np.sqrt(2.0 * d) * np.where(upper, 1.0, -1.0)
    u = p * (1.0 + p * (1 / 3 + p * (1 / 36 + p * (-1 / 270 + p * (
        1 / 4320 + p / 17010)))))
    big = 1.0 + d
    series = np.log1p(u)
    eta = np.where(d < 1.0, series, np.where(upper, np.log(big + np.log(big)),
                                             np.exp(-big) - big))
    for _ in range(3):
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
    z = w / (2.0 + w)
    z2 = z * z
    series = 2.0 * z2 / (1.0 - z) - 2.0 * z * z2 * (
        1 / 3 + z2 * (1 / 5 + z2 * (1 / 7 + z2 * (1 / 9 + z2 * (
            1 / 11 + z2 / 13)))))
    return np.where(np.abs(w) < 0.1, series, w - np.log(s))


def _branch_values(beta: float, log_r, t, upper) -> np.ndarray:
    """Other components x on the given branches at ``t = nu_k`` and their
    first three t-derivatives, stacked on a leading axis of length 4; the
    arguments broadcast.  ``log_r`` is log(alpha_i / alpha_k) <= 0.  No
    clamping: where x > 1, F > 0 anyway."""
    s = beta * t
    eta = _lambert_log(np.maximum(_branch_gap(s) - log_r, 0.0), upper)
    x = np.exp(eta) / beta
    gap = -np.expm1(eta)  # 1 - beta x: zero only at a tie with t = 1/beta
    # differentiate log x - beta x = log t - beta t + const
    x1 = x * (1.0 - s) / (t * gap)
    x2 = (x1 * x1 / x - x / (t * t)) / gap
    x3 = (2.0 * x1 * x2 / x - x1 ** 3 / (x * x) - x1 / (t * t)
          + 2.0 * x / t ** 3 + beta * x1 * x2) / gap
    out = np.where(gap != 0.0, np.stack([x, x1, x2, x3]), 0.0)
    out[0] = x
    # at a tie one root is t itself: take it exactly, so that points on a
    # symmetry axis come out exactly symmetric
    own = (log_r == 0.0) & (np.asarray(upper) == (s > 1.0))
    return np.where(own, np.stack(np.broadcast_arrays(t, 1.0, 0.0, 0.0)),
                    out)


def _f_derivatives(t, xs) -> np.ndarray:
    """F = t + x_i + x_j - 1 and its first three t-derivatives from the
    stacked branch values (trailing axis: the two components)."""
    out = xs.sum(axis=-1)
    out[0] += t - 1.0
    out[1] += 1.0
    return out


def _samples(beta: float) -> np.ndarray:
    """Values of ``t`` scanned for sign changes: a uniform grid refined
    geometrically towards both ends of (0, 1) and towards ``1/beta``, where
    the branches meet, from both sides, plus ``1/beta`` itself."""
    ends = np.geomspace(1e-14, 1e-2, 25)
    pieces = [np.linspace(0.0, 1.0, 201)[1:-1], ends, 1.0 - ends]
    centre = 1.0 / beta
    if centre < 1.0:
        near = np.geomspace(1e-12, 0.5, 25)
        pieces += [[centre], centre * (1.0 - near), centre * (1.0 + near)]
    t = np.unique(np.concatenate(pieces))
    return t[(t > 0.0) & (t < 1.0)]


def _bracketed_newton(fun, lo, hi, f_lo):
    """Roots of ``fun`` (returning value and slope) in the brackets
    [lo, hi], where the value has the sign of ``f_lo`` at lo and the
    opposite one at hi, all brackets at once.  Newton steps are taken while
    they stay inside the shrinking bracket and at least halve the previous
    step, bisection otherwise (``rtsafe`` of Numerical Recipes); a bracket
    is done once its Newton step or its width is at rounding level."""
    eps = 4.0 * np.finfo(float).eps
    x = 0.5 * (lo + hi)
    step = hi - lo
    for _ in range(100):
        f, df = fun(x)
        left = np.sign(f) == np.sign(f_lo)
        lo = np.where(left, x, lo)
        hi = np.where(left, hi, x)
        done = (np.abs(f) <= eps * np.abs(x * df)) | (hi - lo <= eps * x)
        if np.all(done):
            break
        newton = x - f / df
        ok = (lo <= newton) & (newton <= hi) & (2.0 * np.abs(f)
                                                <= np.abs(step * df))
        new = np.where(done, x, np.where(ok, newton, 0.5 * (lo + hi)))
        step = np.abs(new - x)
        x = new
    return x


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _reduced_roots(beta: float, alpha: np.ndarray,
                   tol: ToleranceConfig) -> np.ndarray:
    """Stationary points as roots of the one-variable reduction, (m, 3).

    The zeros of F'' and then of F' join the samples before F is scanned,
    so the close roots next to a fold or a cusp are separated without a
    denser grid.  Roots come from sign changes of F between samples, from
    exact zeros at samples and from tangential extrema; a root on a branch
    point, where a tie in alpha makes two branches meet, shows up in
    several pairs.  A root with a component below ``tol.interior_margin``
    cannot be represented as a ``SpinDistribution``; rather than drop it,
    the census fails with a ``NumericalError``.
    """
    k = int(np.argmax(alpha))
    others = [i for i in range(3) if i != k]
    log_r = np.log(alpha[others]) - np.log(alpha[k])

    def scan(t):
        """F, F' and F'' at samples t for all four pairs, (3, n, 4)."""
        xs = _branch_values(beta, log_r[:, None], t[:, None, None],
                            np.array([False, True]))
        return _f_derivatives(t[:, None], xs[:3, :, np.arange(2), _PAIRS])

    def along(pair, order):
        """Derivatives ``order`` and ``order + 1`` of F on the given pairs."""
        def fun(t):
            xs = _branch_values(beta, log_r, t[:, None], _PAIRS[pair] == 1)
            return _f_derivatives(t, xs)[order:order + 2]
        return fun

    t = _samples(beta)
    f = scan(t)
    for order in (2, 1):
        k_new, b_new = np.nonzero(f[order, :-1] * f[order, 1:] < 0.0)
        t_new = _bracketed_newton(along(b_new, order), t[k_new],
                                  t[k_new + 1], f[order, k_new, b_new])
        n = len(t)
        t = np.concatenate([t, t_new])
        f = np.concatenate([f, scan(t_new)], axis=1)
        rank = np.argsort(t, kind="stable")
        t, f = t[rank], f[:, rank]
    # after the last round: where the extrema of F sit among the samples
    e_ext, b_ext = np.argsort(rank)[n:], b_new
    f = f[0]

    k_root, b_root = np.nonzero(f[:-1] * f[1:] < 0.0)
    t_root = _bracketed_newton(along(b_root, 0), t[k_root], t[k_root + 1],
                               f[k_root, b_root])
    k_zero, b_zero = np.nonzero(f == 0.0)
    # an extremum within _TANGENT_TOL of zero with no sign change on
    # either side touches zero: a double root at a fold
    fe = f[e_ext, b_ext]
    touch = ((np.abs(fe) <= _TANGENT_TOL)
             & (f[e_ext - 1, b_ext] * fe > 0.0)
             & (f[e_ext + 1, b_ext] * fe > 0.0))
    t_all = np.concatenate([t_root, t[k_zero], t[e_ext[touch]]])
    b_all = np.concatenate([b_root, b_zero, b_ext[touch]])

    x = _branch_values(beta, log_r, t_all[:, None], _PAIRS[b_all] == 1)[0]
    nu = np.empty((len(t_all), 3))
    nu[:, k] = t_all
    nu[:, others] = x
    nu /= nu.sum(axis=1, keepdims=True)
    lost = nu.min(axis=1) < tol.interior_margin
    if np.any(lost):
        raise NumericalError(
            f"{int(lost.sum())} stationary point(s) lie outside the "
            f"representable interior: smallest component "
            f"{float(nu[lost].min())!r} < {tol.interior_margin!r}")
    return nu


def _polish(beta: float, alpha: np.ndarray, nu: np.ndarray,
            tol: ToleranceConfig) -> np.ndarray:
    """Up to four Newton steps on the local gradient, each kept only where it
    lowers the gradient norm; returns the rows that meet ``tol.residual``.
    All three components are updated, so none is recomputed from the
    other two."""
    nu = nu.copy()
    gnorm = np.linalg.norm(batch_gradient(beta, alpha, nu), axis=-1)
    for _ in range(4):
        idx = np.flatnonzero(gnorm > tol.residual)
        if not len(idx):
            break
        d1, d2, _ = _newton_step(beta, nu[idx],
                                 batch_gradient(beta, alpha, nu[idx]))
        cand = nu[idx] + np.stack([d1, d2, -d1 - d2], axis=-1)
        valid = cand.min(axis=1) > 0.0
        cand[~valid] = nu[idx[~valid]]
        gn = np.linalg.norm(batch_gradient(beta, alpha, cand), axis=-1)
        better = valid & (gn < gnorm[idx])
        nu[idx[better]] = cand[better]
        gnorm[idx[better]] = gn[better]
    return nu[gnorm <= tol.residual]


def find_stationary_points(params: ModelParams,
                           tol: ToleranceConfig = DEFAULT_TOL) -> list:
    """All stationary points, as the roots of the one-variable reduction
    polished to ``tol.residual``, deduplicated and classified, ordered
    lexicographically in plane coordinates."""
    beta, alpha = params.beta, params.alpha.array
    roots = _polish(beta, alpha, _reduced_roots(beta, alpha, tol), tol)
    return _classified(beta, alpha, roots, tol)


def census(params: ModelParams,
           tol: ToleranceConfig = DEFAULT_TOL) -> MinimaCensus:
    """Count local minima and extract the set of global minimizers."""
    points = find_stationary_points(params, tol)
    minima = [p for p in points if p.kind is PointKind.MINIMUM]
    degenerate = any(p.kind is PointKind.DEGENERATE for p in points)
    # a degenerate point with a positive definite Hessian is a minimum
    # closer to a fold than the degeneracy tolerance: it can be global
    candidates = [p for p in points if p.hess_eigenvalues[0] > 0.0]
    if candidates:
        vmin = min(p.value for p in candidates)
        glob = tuple(p for p in candidates if p.value <= vmin + tol.depth)
    else:
        glob = ()
    return MinimaCensus(params=params, points=tuple(points),
                        n_local_minima=len(minima), global_minimizers=glob,
                        degenerate_warning=degenerate)


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
        refined = _polish(beta, alpha, best[None, :], tol)
        if len(refined) or spacing < 1e-9:
            return SpinDistribution.from_array(
                refined[0] if len(refined) else best)
        nodes, spacing = best + spacing * zoom, spacing / 4.0
