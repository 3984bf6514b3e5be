"""The coexistence curve across the window of the triple point, as one sweep.

The sweep runs ``coexistence_curve`` at 18/7 + k 5e-4 for k = 1..402 and at
4 log 2 - 1e-3, 1e-4 and 1e-5, 405 temperatures between the butterfly and
the four-phase temperature.  ``sweep`` traces the curves and counts the
pair-system evaluations (``maxwell._pair_residual``) they take;
``problems`` lists what breaks the invariants every curve keeps:

- it ends as pinned, 'fold' or 'triple';
- a 'fold' curve ends on the A3 point, where ``_cusp_conditions`` vanish
  within 1e-10, both minimizer slots holding it;
- a 'triple' curve ends on its triple point mirrored onto the next axis;
- at every point but a 'fold' curve's last, the census of its field (one
  ``censuses`` call a curve) finds both tracked minimizers, within 1e-6,
  among its global minimizers.

``summary`` gives the status, point and evaluation totals.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

import potts_landscape as pl
import potts_landscape.maxwell as mw

BUTTERFLY, EW = 18.0 / 7.0, 4.0 * math.log(2.0)
STEPS = range(1, 403)  # k of 18/7 + k 5e-4
NEAR_EW = (1e-3, 1e-4, 1e-5)  # 4 log 2 minus these
# the statuses at the tree this sweep was first checked in: 'fold' up to
# k = FOLD_LAST, then 'triple', and 'triple' next to 4 log 2
FOLD_LAST = 190


def betas(every: int = 1) -> list:
    """Every ``every``-th step of the sweep, then the three next to 4 log 2,
    with each temperature's pinned status."""
    return ([(BUTTERFLY + k * 5e-4, "fold" if k <= FOLD_LAST else "triple")
             for k in STEPS[::every]]
            + [(EW - d, "triple") for d in NEAR_EW])


class Traced(NamedTuple):
    beta: float
    pinned: str
    curve: object        # CoexistenceCurve
    evaluations: int     # _pair_residual calls of this curve


def sweep(cases) -> list:
    """The curve at each (beta, pinned status) of ``cases``, with the pair
    evaluations it takes, counted by wrapping ``maxwell._pair_residual``
    for the duration of the sweep."""
    evaluate, count = mw._pair_residual, [0]

    def counted(*args):
        count[0] += 1
        return evaluate(*args)
    mw._pair_residual = counted
    try:
        out = []
        for beta, pinned in cases:
            before = count[0]
            curve = pl.coexistence_curve(beta)
            out.append(Traced(beta, pinned, curve, count[0] - before))
        return out
    finally:
        mw._pair_residual = evaluate


def problems(traced: Traced) -> list:
    """What in one traced curve breaks the sweep's invariants."""
    beta, curve = traced.beta, traced.curve
    if curve.status != traced.pinned:
        return [f"status {curve.status}, pinned {traced.pinned}"]
    found, last = [], curve.points[-1]
    if curve.status == "fold":
        cusp, other = (m.array for m in last.minimizers)
        residual = np.abs(mw._cusp_conditions(beta, cusp)[0]).max()
        if not (np.array_equal(cusp, other) and residual <= 1e-10):
            found.append(f"fold end off the cusp: residual {residual:.1e}")
        checked = curve.points[:-1]
    else:
        tp = curve.origin
        mirrored = np.array([m.array for m in tp.minimizers])[:, [0, 2, 1]]
        if not (np.array_equal(last.alpha.array, tp.alpha.array[[0, 2, 1]])
                and all((mirrored == m.array).all(axis=1).any()
                        for m in last.minimizers)):
            found.append("triple end off the mirrored triple point")
        checked = curve.points
    for p, cens in zip(checked, pl.censuses(beta, [p.alpha for p in checked])):
        glob = np.array([g.nu.array for g in cens.global_minimizers])
        if not all(len(glob) and np.abs(glob - m.array).max(axis=1).min()
                   <= 1e-6 for m in p.minimizers):
            found.append(f"tracked pair not global at alpha "
                         f"{p.alpha.array.tolist()}")
    return found


def summary(traced: list) -> str:
    """Status totals, point total and evaluation total of a sweep."""
    statuses = {}
    for t in traced:
        statuses[t.curve.status] = statuses.get(t.curve.status, 0) + 1
    return (f"{len(traced)} curves {statuses}, "
            f"{sum(len(t.curve.points) for t in traced)} points, "
            f"{sum(t.evaluations for t in traced)} pair evaluations")
