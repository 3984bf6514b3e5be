"""Core definitions for the mean-field three-state Potts free-energy landscape.

The state space is the open unit simplex of probability vectors on three
spin values.  A landscape is parametrised by an inverse temperature ``beta``
and an a-priori measure ``alpha`` (the vector-valued external field); its
value at an empirical spin distribution ``nu`` is

    f(nu) = -(beta/2) <nu, nu> + sum_i nu_i log(nu_i / alpha_i).

This module provides the typed simplex points, three coordinate systems on
the simplex, the permutation symmetry, and the exact expressions for the
free energy, its local derivatives, the degeneracy condition, the
field-solving (catastrophe) map and the free energy at stationary points.

Functions prefixed ``batch_`` operate on numpy arrays with a trailing axis
of length 3 (or 2 for plane coordinates) and broadcast over leading axes;
they skip the per-point validation done by the typed wrappers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

SQRT3 = math.sqrt(3.0)

# Thresholds fixed by double precision and the open simplex, not choices:
DEGENERATE_EIG = 1e-7     # |Hessian eigenvalue| of a degenerate point
MERGE_RADIUS = 1e-7       # plane distance within which two roots are one
COEXISTENCE_DEPTH = 1e-8  # depth equality of the coexistence constructs
INTERIOR_MARGIN = 1e-12   # smallest component a simplex point may have
CLAMP_MARGIN = 1e-9       # margin to which damped Newton clamps its iterates


@dataclass(frozen=True)
class ToleranceConfig:
    """The two tolerances a caller sets.

    residual -- gradient norm below which a point counts as stationary
    depth    -- free-energy difference within which local minima count as
                equally deep global minimizers
    """

    residual: float = 1e-10
    depth: float = 1e-9


DEFAULT_TOL = ToleranceConfig()


def _validate_simplex(kind: str, c1: float, c2: float, c3: float) -> None:
    if not (math.isfinite(c1) and math.isfinite(c2) and math.isfinite(c3)):
        raise DomainError(f"{kind} components must be finite, got "
                          f"({c1}, {c2}, {c3})")
    if abs((c1 + c2 + c3) - 1.0) > 1e-12:
        raise DomainError(f"{kind} components must sum to 1 within 1e-12, "
                          f"got sum {c1 + c2 + c3!r}")
    if min(c1, c2, c3) < INTERIOR_MARGIN:
        raise DomainError(f"{kind} must lie in the open simplex interior "
                          f"(components >= {INTERIOR_MARGIN}), got "
                          f"({c1}, {c2}, {c3})")


@dataclass(frozen=True, slots=True)
class SpinDistribution:
    """Empirical spin distribution: an interior point of the unit simplex."""

    v1: float
    v2: float
    v3: float

    def __post_init__(self):
        object.__setattr__(self, "v1", float(self.v1))
        object.__setattr__(self, "v2", float(self.v2))
        object.__setattr__(self, "v3", float(self.v3))
        _validate_simplex("SpinDistribution", self.v1, self.v2, self.v3)

    @property
    def array(self) -> np.ndarray:
        return np.array([self.v1, self.v2, self.v3])

    @classmethod
    def from_array(cls, arr) -> "SpinDistribution":
        a = np.asarray(arr, dtype=float)
        return cls(a[0], a[1], a[2])

    @classmethod
    def uniform(cls) -> "SpinDistribution":
        return cls(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


@dataclass(frozen=True, slots=True)
class AprioriMeasure:
    """External field expressed as an interior a-priori measure."""

    a1: float
    a2: float
    a3: float

    def __post_init__(self):
        object.__setattr__(self, "a1", float(self.a1))
        object.__setattr__(self, "a2", float(self.a2))
        object.__setattr__(self, "a3", float(self.a3))
        _validate_simplex("AprioriMeasure", self.a1, self.a2, self.a3)

    @property
    def array(self) -> np.ndarray:
        return np.array([self.a1, self.a2, self.a3])

    @classmethod
    def from_array(cls, arr) -> "AprioriMeasure":
        a = np.asarray(arr, dtype=float)
        return cls(a[0], a[1], a[2])

    @classmethod
    def uniform(cls) -> "AprioriMeasure":
        return cls(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


@dataclass(frozen=True)
class ModelParams:
    """Inverse temperature and external field of one landscape."""

    beta: float
    alpha: AprioriMeasure

    def __post_init__(self):
        object.__setattr__(self, "beta", _check_beta(self.beta))


@dataclass(frozen=True)
class CoordXY:
    """Plane coordinates mapping the simplex onto the equilateral triangle
    with vertices (0, 1) and (+-sqrt(3)/2, -1/2)."""

    x: float
    y: float


@dataclass(frozen=True)
class CoordUV:
    """Log-ratio coordinates (log a1/a3, log a2/a3) on the field simplex."""

    u: float
    v: float


@dataclass(frozen=True)
class CoordPQ:
    """Symmetry-adapted field coordinates
    (sqrt(3) log a1/a2, log a1 a2/a3^2)."""

    p: float
    q: float


# ---------------------------------------------------------------------------
# Coordinate conversions (batch cores + typed wrappers)
# ---------------------------------------------------------------------------

def batch_xy(points: np.ndarray) -> np.ndarray:
    """Simplex points (..., 3) -> triangle plane coordinates (..., 2)."""
    pts = np.asarray(points, dtype=float)
    x = 0.5 * SQRT3 * (pts[..., 0] - pts[..., 1])
    y = 0.5 * (3.0 * pts[..., 2] - 1.0)
    return np.stack([x, y], axis=-1)


def batch_from_xy(xy: np.ndarray) -> np.ndarray:
    """Triangle plane coordinates (..., 2) -> simplex points (..., 3)."""
    c = np.asarray(xy, dtype=float)
    x, y = c[..., 0], c[..., 1]
    v3 = (2.0 * y + 1.0) / 3.0
    v1 = (1.0 - y) / 3.0 + x / SQRT3
    v2 = (1.0 - y) / 3.0 - x / SQRT3
    return np.stack([v1, v2, v3], axis=-1)


def batch_uv(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    return np.stack([np.log(pts[..., 0] / pts[..., 2]),
                     np.log(pts[..., 1] / pts[..., 2])], axis=-1)


def batch_from_uv(uv: np.ndarray) -> np.ndarray:
    """Log-ratio coordinates (..., 2) -> simplex points: the softmax of
    (u, v, 0), shifted by max(u, v, 0) so that no exponential overflows."""
    c = np.asarray(uv, dtype=float)
    c = np.concatenate([c, np.zeros_like(c[..., :1])], axis=-1)
    e = np.exp(c - c.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def batch_pq(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    la = np.log(pts)
    p = SQRT3 * (la[..., 0] - la[..., 1])
    q = la[..., 0] + la[..., 1] - 2.0 * la[..., 2]
    return np.stack([p, q], axis=-1)


def batch_from_pq(pq: np.ndarray) -> np.ndarray:
    c = np.asarray(pq, dtype=float)
    p, q = c[..., 0], c[..., 1]
    u = 0.5 * (q + p / SQRT3)
    v = 0.5 * (q - p / SQRT3)
    return batch_from_uv(np.stack([u, v], axis=-1))


def _interior_lattice(n: int) -> np.ndarray:
    """Integer coordinates (i, j, n - i - j), shape (m, 3), of the interior
    nodes of the barycentric lattice of density n: i, j >= 1 and
    i + j <= n - 1, ordered by i, then j."""
    i, j = np.meshgrid(np.arange(1, n), np.arange(1, n), indexing="ij")
    keep = i + j <= n - 1
    return np.stack([i[keep], j[keep], n - i[keep] - j[keep]], axis=-1)


def to_xy(point) -> CoordXY:
    x, y = batch_xy(point.array)
    return CoordXY(float(x), float(y))


def from_xy(coord: CoordXY) -> SpinDistribution:
    return SpinDistribution.from_array(batch_from_xy([coord.x, coord.y]))


def alpha_from_xy(coord: CoordXY) -> AprioriMeasure:
    return AprioriMeasure.from_array(batch_from_xy([coord.x, coord.y]))


def to_uv(alpha: AprioriMeasure) -> CoordUV:
    u, v = batch_uv(alpha.array)
    return CoordUV(float(u), float(v))


def from_uv(coord: CoordUV) -> AprioriMeasure:
    return AprioriMeasure.from_array(batch_from_uv([coord.u, coord.v]))


def to_pq(alpha: AprioriMeasure) -> CoordPQ:
    p, q = batch_pq(alpha.array)
    return CoordPQ(float(p), float(q))


def from_pq(coord: CoordPQ) -> AprioriMeasure:
    return AprioriMeasure.from_array(batch_from_pq([coord.p, coord.q]))


# ---------------------------------------------------------------------------
# Permutation symmetry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Permutation:
    """Element of the symmetric group on three letters acting by coordinate
    permutation: ``apply(v)[i] == v[indices[i]]``."""

    indices: tuple

    def __post_init__(self):
        if sorted(self.indices) != [0, 1, 2]:
            raise DomainError(f"invalid permutation indices {self.indices!r}")
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))

    @property
    def label(self) -> str:
        return "".join(str(i + 1) for i in self.indices)

    @classmethod
    def from_label(cls, label: str) -> "Permutation":
        return cls(tuple(int(ch) - 1 for ch in label))

    @classmethod
    def identity(cls) -> "Permutation":
        return cls((0, 1, 2))

    def compose(self, other: "Permutation") -> "Permutation":
        """Return self-after-other: apply ``other`` first, then ``self``."""
        return Permutation(tuple(other.indices[i] for i in self.indices))

    def inverse(self) -> "Permutation":
        inv = [0, 0, 0]
        for i, j in enumerate(self.indices):
            inv[j] = i
        return Permutation(tuple(inv))

    def apply(self, point):
        if isinstance(point, SpinDistribution):
            a = point.array
            return SpinDistribution(a[self.indices[0]], a[self.indices[1]],
                                    a[self.indices[2]])
        if isinstance(point, AprioriMeasure):
            a = point.array
            return AprioriMeasure(a[self.indices[0]], a[self.indices[1]],
                                  a[self.indices[2]])
        arr = np.asarray(point, dtype=float)
        return arr[..., list(self.indices)]


PERMUTATIONS = tuple(
    Permutation(p) for p in
    [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
)


def apply_permutation(perm: Permutation, point):
    return perm.apply(point)


# ---------------------------------------------------------------------------
# Free energy and derivatives
# ---------------------------------------------------------------------------

def _row_sum(a):
    """Sum over a trailing axis of 3 in numpy's order, without its loop."""
    return (a[..., 0] + a[..., 1]) + a[..., 2]


def _row_min(a):
    """Minimum over a trailing axis of 3, component by component."""
    return np.minimum(np.minimum(a[..., 0], a[..., 1]), a[..., 2])


def batch_free_energy(beta, alpha, nu) -> np.ndarray:
    """-(beta/2) <nu,nu> + sum nu_i log(nu_i/alpha_i), broadcast over rows."""
    b = np.asarray(beta, dtype=float)[..., None]
    al = np.asarray(alpha, dtype=float)
    n = np.asarray(nu, dtype=float)
    return (-0.5 * _row_sum(b * n * n)
            + _row_sum(n * (np.log(n) - np.log(al))))


def batch_gradient(beta, alpha, nu) -> np.ndarray:
    """Partial derivatives of the free energy in local coordinates
    (nu1, nu2) with nu3 = 1 - nu1 - nu2; shape (..., 2).

    Component i is (-beta nu_i + log(nu_i/alpha_i))
                 - (-beta nu_3 + log(nu_3/alpha_3)).
    """
    b = np.asarray(beta, dtype=float)[..., None]
    al = np.asarray(alpha, dtype=float)
    n = np.asarray(nu, dtype=float)
    phi = -b * n + np.log(n) - np.log(al)
    return phi[..., :2] - phi[..., 2:3]


def batch_hessian(beta, nu) -> np.ndarray:
    """Local-coordinate Hessian of the free energy, shape (..., 2, 2).

    Independent of alpha: [[1/n1 + 1/n3 - 2b, 1/n3 - b],
                           [1/n3 - b,         1/n2 + 1/n3 - 2b]].
    """
    b = np.asarray(beta, dtype=float)
    inv = 1.0 / np.asarray(nu, dtype=float)
    h12 = inv[..., 2] - b
    h = np.empty(h12.shape + (2, 2))
    h[..., 0, 0] = inv[..., 0] + inv[..., 2] - 2.0 * b
    h[..., 1, 1] = inv[..., 1] + inv[..., 2] - 2.0 * b
    h[..., 0, 1] = h[..., 1, 0] = h12
    return h


def batch_degeneracy_lhs(beta, nu) -> np.ndarray:
    """3 n1 n2 n3 b^2 - 2 (n1 n2 + n2 n3 + n3 n1) b + 1.

    Vanishes exactly when the local Hessian is singular; equals
    det(hessian) * n1 n2 n3.
    """
    b = np.asarray(beta, dtype=float)
    n = np.asarray(nu, dtype=float)
    prod3 = n[..., 0] * n[..., 1] * n[..., 2]
    sym2 = (n[..., 0] * n[..., 1] + n[..., 1] * n[..., 2]
            + n[..., 2] * n[..., 0])
    return 3.0 * prod3 * b * b - 2.0 * sym2 * b + 1.0


def _shifted_terms(beta, nu):
    """The terms t_i = nu_i e^{-beta (nu_i - m)}, m = min_k nu_k, of the
    field map and the stationary value, with their sum and m over the
    trailing axis, kept as (..., 1).  The shift by beta m keeps large beta
    from underflowing every term."""
    b = np.asarray(beta, dtype=float)[..., None]
    n = np.asarray(nu, dtype=float)
    shift = _row_min(n)[..., None]
    t = n * np.exp(-b * (n - shift))
    return t, _row_sum(t)[..., None], shift


def batch_catastrophe(beta, nu) -> np.ndarray:
    """Field map: the unique alpha making nu a stationary point.

    alpha_i = nu_i e^{-beta nu_i} / sum_k nu_k e^{-beta nu_k}, from the
    shifted terms of ``_shifted_terms``.
    """
    t, total, _ = _shifted_terms(beta, nu)
    return t / total


def batch_stationary_value(beta, nu) -> np.ndarray:
    """Free energy at nu under the field batch_catastrophe(beta, nu):

    sum_i ((beta/2) nu_i^2 + nu_i log sum_j nu_j e^{-beta nu_j}).
    """
    b = np.asarray(beta, dtype=float)
    n = np.asarray(nu, dtype=float)
    return _stationary_value(b, n, *_shifted_terms(b, n)[1:])


def _stationary_value(b, n, total, shift):
    """``batch_stationary_value`` from the row sum and shift of its
    ``_shifted_terms``."""
    return (0.5 * b * _row_sum(n * n)
            + (np.log(total[..., 0]) - b * shift[..., 0]))


# Typed wrappers -------------------------------------------------------------

def free_energy(params: ModelParams, nu: SpinDistribution) -> float:
    return float(batch_free_energy(params.beta, params.alpha.array, nu.array))


def gradient_local(params: ModelParams, nu: SpinDistribution) -> tuple:
    g = batch_gradient(params.beta, params.alpha.array, nu.array)
    return (float(g[0]), float(g[1]))


def hessian_local(params: ModelParams, nu: SpinDistribution) -> np.ndarray:
    return batch_hessian(params.beta, nu.array)


def _check_beta(beta: float, name: str = "beta") -> float:
    """``beta`` (or any quantity ``name``) as a finite positive float."""
    beta = float(beta)
    if not (math.isfinite(beta) and beta > 0.0):
        raise DomainError(f"{name} must be finite and positive, got {beta!r}")
    return beta


def degeneracy_lhs(beta: float, nu: SpinDistribution) -> float:
    return float(batch_degeneracy_lhs(_check_beta(beta), nu.array))


def catastrophe_map(beta: float, nu: SpinDistribution) -> AprioriMeasure:
    return AprioriMeasure.from_array(batch_catastrophe(_check_beta(beta), nu.array))


def stationary_value(beta: float, nu: SpinDistribution) -> float:
    return float(batch_stationary_value(_check_beta(beta), nu.array))


def hessian_eigenvalues(beta: float, nu) -> np.ndarray:
    """Eigenvalues of the local Hessian, ascending, shape (..., 2)."""
    h = batch_hessian(beta, np.asarray(nu, dtype=float))
    a, b_, c = h[..., 0, 0], h[..., 0, 1], h[..., 1, 1]
    mid = 0.5 * (a + c)
    rad = np.sqrt((0.5 * (a - c)) ** 2 + b_ * b_)
    return mid[..., None] + rad[..., None] * np.array([-1.0, 1.0])
