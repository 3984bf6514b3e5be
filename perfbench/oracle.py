"""Independent checks on stationary-point censuses, in plain numpy.

Nothing here imports the package under test.  At zero field every
stationary point lies on a symmetry axis (Ellis & Wang 1990, Stoch. Proc.
Appl. 35:59-79): stationarity makes each coordinate a root of
``log x - beta x = c``, which has at most two roots, so two coordinates
agree.  The exact set is therefore the centre plus the roots of one scalar
function along ``nu = (m, m, 1 - 2m)``, with their permutations.
"""

from __future__ import annotations

import numpy as np

# Same thresholds as the package's default tolerances: a stationary point
# whose smaller |Hessian eigenvalue| is at most DEGENERATE_EIG is degenerate.
DEGENERATE_EIG = 1e-7
# Largest componentwise distance at which a reported point matches an
# exact one.  Points are converged to a gradient norm of 1e-10.
MATCH_TOL = 1e-6
# Largest spread of the per-coordinate stationarity potential at a point
# reported as stationary.
STATIONARITY_TOL = 1e-8
CENTRE = np.full(3, 1.0 / 3.0)


def free_energy(beta, alpha, nu) -> np.ndarray:
    """-(beta/2) <nu, nu> + sum nu_i log(nu_i / alpha_i), over rows."""
    nu = np.asarray(nu, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    return (-0.5 * beta * np.sum(nu * nu, axis=-1)
            + np.sum(nu * np.log(nu / alpha), axis=-1))


def stationarity_spread(beta, alpha, nu) -> np.ndarray:
    """Spread of -beta nu_i + log(nu_i / alpha_i) over i; zero exactly at
    stationary points."""
    nu = np.asarray(nu, dtype=float)
    phi = -beta * nu + np.log(nu / np.asarray(alpha, dtype=float))
    return phi.max(axis=-1) - phi.min(axis=-1)


def kinds(beta, nu) -> list:
    """Morse kind of each row from the local Hessian in (nu1, nu2)."""
    nu = np.atleast_2d(np.asarray(nu, dtype=float))
    inv = 1.0 / nu
    a = inv[:, 0] + inv[:, 2] - 2.0 * beta
    c = inv[:, 1] + inv[:, 2] - 2.0 * beta
    b = inv[:, 2] - beta
    mid = 0.5 * (a + c)
    rad = np.hypot(0.5 * (a - c), b)
    lo, hi = mid - rad, mid + rad
    out = []
    for e_lo, e_hi in zip(lo, hi):
        if min(abs(e_lo), abs(e_hi)) <= DEGENERATE_EIG:
            out.append("degenerate")
        elif e_lo > 0.0:
            out.append("minimum")
        elif e_hi < 0.0:
            out.append("maximum")
        else:
            out.append("saddle")
    return out


def _axis_function(beta, m):
    """Stationarity along nu = (m, m, 1 - 2m); vanishes at the centre."""
    return np.log(m) - np.log1p(-2.0 * m) + beta * (1.0 - 3.0 * m)


def zero_field_points(beta: float) -> tuple:
    """Exact stationary points at zero field: (points (k, 3), kinds)."""
    # dense in the interior, geometric towards both ends of (0, 1/2)
    ends = np.geomspace(1e-14, 1e-2, 2000)
    m = np.unique(np.concatenate([ends, np.linspace(1e-2, 0.49, 200001),
                                  0.5 - ends]))
    g = _axis_function(beta, m)
    k = np.flatnonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0.0)
    lo, hi = m[k], m[k + 1]
    g_lo = g[k]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g_mid = _axis_function(beta, mid)
        left = np.sign(g_mid) == np.sign(g_lo)
        lo = np.where(left, mid, lo)
        g_lo = np.where(left, g_mid, g_lo)
        hi = np.where(left, hi, mid)
    roots = np.concatenate([0.5 * (lo + hi), m[g == 0.0]])
    # the centre is a root for every beta, and a double one at beta = 3
    roots = roots[np.abs(roots - 1.0 / 3.0) > 1e-9]
    points = [CENTRE]
    for r in roots:
        s = 1.0 - 2.0 * r
        points += [np.array([r, r, s]), np.array([r, s, r]),
                   np.array([s, r, r])]
    points = np.array(points)
    return points, kinds(beta, points)


def compare_zero_field(beta: float, nus, found_kinds) -> list:
    """Problems with a reported zero-field census against the exact set:
    missed, extra or misclassified points.  Empty when it matches."""
    expected, expected_kinds = zero_field_points(beta)
    nus = np.asarray(nus, dtype=float).reshape(-1, 3)
    problems = []
    taken = np.zeros(len(nus), dtype=bool)
    for point, kind in zip(expected, expected_kinds):
        dist = np.abs(nus - point).max(axis=1) if len(nus) else np.array([])
        dist = np.where(taken, np.inf, dist)
        if not len(dist) or dist.min() > MATCH_TOL:
            problems.append(f"missed {kind} at {np.round(point, 12).tolist()}")
            continue
        j = int(np.argmin(dist))
        taken[j] = True
        if found_kinds[j] != kind:
            problems.append(f"{kind} at {np.round(point, 12).tolist()} "
                            f"reported as {found_kinds[j]}")
    if not taken.all():
        problems.append(f"{int((~taken).sum())} extra points "
                        f"(exact set has {len(expected)})")
    return problems


def check_census_points(beta, alpha, nus, found_kinds, degenerate_flag) -> list:
    """Problems with a census at an arbitrary field: reported points that
    are not stationary, and (without a degenerate flag) a Morse count
    minima - saddles + maxima other than 1."""
    problems = []
    nus = np.asarray(nus, dtype=float).reshape(-1, 3)
    if not len(nus):
        return ["no stationary point reported"]
    spread = stationarity_spread(beta, alpha, nus)
    if spread.max() > STATIONARITY_TOL:
        problems.append(f"point not stationary (spread {spread.max():.3g})")
    if not degenerate_flag:
        n_min = found_kinds.count("minimum")
        n_sad = found_kinds.count("saddle")
        n_max = found_kinds.count("maximum")
        if n_min - n_sad + n_max != 1:
            problems.append(f"Morse count {n_min} - {n_sad} + {n_max} != 1")
    return problems
