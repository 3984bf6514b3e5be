"""The five distinguished inverse temperatures, with certified brackets.

Two of them are roots of explicit transcendental equations (the crossing
and triangle-touch temperatures); the remaining three are exact constants:
18/7 where the on-axis cusp unfolds into a pentagram, 4 log 2 where four
phases coexist in zero field, and 3 where the centre of the simplex is
doubly degenerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericalError
from .rootfind import bracketed_root

BETA_BUTTERFLY = 18.0 / 7.0
BETA_ELLIS_WANG = 4.0 * math.log(2.0)
BETA_UMBILIC = 3.0


@dataclass(frozen=True)
class CriticalTemps:
    butterfly: float
    cross: float
    ellis_wang: float
    touch: float
    umbilic: float


def crossing_shape_function(x: float) -> float:
    """3x / ((1+2x)(1-x)) - log((1+2x)/(1-x)) on (0, 1).

    Decreasing on (0, 1/4), increasing after, with limit 0 at 0+, so its
    unique root exceeds 1/4.  At the root the two outer extrema of the
    zero-field potential along a symmetry axis merge.
    """
    d = (1.0 + 2.0 * x) * (1.0 - x)
    return 3.0 * x / d - math.log((1.0 + 2.0 * x) / (1.0 - x))


def _crossing_shape_derivative(x: float) -> float:
    d = (1.0 + 2.0 * x) * (1.0 - x)
    return 3.0 * x * (4.0 * x - 1.0) / (d * d)


def beta_cross() -> float:
    """Inverse temperature at which symmetric minima appear near the
    corners in zero field; approximately 2.74564."""
    s = bracketed_root(lambda x: (crossing_shape_function(x),
                                  _crossing_shape_derivative(x)),
                       0.25, 1.0 - 1e-9)
    return 3.0 / ((1.0 + 2.0 * s) * (1.0 - s))


def touch_gap_function(x: float) -> float:
    """Signed field-plane gap between the central-triangle vertex and the
    centre of the fold line, divided by sqrt(3); increasing on [8/3, 3].

    Values at the endpoints are 1 - log 3 and 3/2 - log 4.
    """
    return (triangle_vertex_p(x) - fold_centre_p(x)) / math.sqrt(3.0)


def _touch_gap_derivative(x: float) -> float:
    return 1.0 / (x - 2.0) - 0.75 * (1.0 - math.sqrt(1.0 - 8.0 / (3.0 * x)))


def beta_touch() -> float:
    """Inverse temperature at which the central triangle's vertices touch
    the fold lines; approximately 2.8024."""
    return bracketed_root(lambda x: (touch_gap_function(x),
                                     _touch_gap_derivative(x)), 8.0 / 3.0, 3.0)


def triangle_vertex_p(beta: float) -> float:
    """Field-plane p-coordinate of the central triangle vertex on the
    relevant symmetry axis."""
    return math.sqrt(3.0) * (math.log(beta - 2.0) + 3.0 - beta)


def fold_centre_p(beta: float) -> float:
    """Field-plane p-coordinate of the centre of the fold line on the same
    symmetry axis; defined for beta >= 8/3."""
    z = math.sqrt(max(1.0 - 8.0 / (3.0 * beta), 0.0))
    z = min(z, 1.0 - 1e-16)
    artanh = 0.5 * math.log((1.0 + z) / (1.0 - z))
    return math.sqrt(3.0) * (math.log(2.0) - beta / 4.0
                             - (3.0 * beta / 4.0) * z + 2.0 * artanh)


def all_critical_temps() -> CriticalTemps:
    temps = CriticalTemps(butterfly=BETA_BUTTERFLY, cross=beta_cross(),
                          ellis_wang=BETA_ELLIS_WANG, touch=beta_touch(),
                          umbilic=BETA_UMBILIC)
    if not (temps.butterfly < temps.cross < temps.ellis_wang
            < temps.touch < temps.umbilic):
        raise NumericalError(f"critical temperatures out of order: {temps}")
    return temps
