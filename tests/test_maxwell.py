import math

import numpy as np
import pytest

import potts_landscape as pl
from potts_landscape.maxwell import (axis_minima, ivp_tangent,
                                     segment_upper_endpoint_y,
                                     track_segment_pair)
from potts_landscape.model import (batch_from_xy, batch_hessian, batch_uv,
                                   batch_xy, hessian_eigenvalues)
from potts_landscape.stationary import (PointKind, barycentric_grid,
                                        stationary_points_from_seeds)

from conftest import assert_single_axis_tie

AUNIFORM = pl.AprioriMeasure.uniform()
EW = 4.0 * math.log(2.0)


class TestSymmetricSegment:
    def test_empty_at_onset(self):
        assert pl.symmetric_segment(2.0).is_empty
        assert pl.symmetric_segment(1.4).is_empty

    def test_closed_form_endpoint(self):
        seg = pl.symmetric_segment(2.4)
        e = (2.4 - 2.0) * math.exp(3.0 - 2.4)
        expected = -(1.0 - e) / (2.0 + e)
        assert seg.y_hi == pytest.approx(expected, abs=1e-12)
        assert seg.y_hi == pytest.approx(-0.0994, abs=1e-4)
        assert seg.y_lo == -0.5

    def test_midpoint_has_two_mirror_global_minima(self):
        seg = pl.symmetric_segment(2.4)
        alpha = seg.alpha_at(0.5 * (seg.y_lo + seg.y_hi))
        cens = pl.census(pl.ModelParams(2.4, alpha))
        assert len(cens.global_minimizers) == 2
        a, b = (p.nu.array for p in cens.global_minimizers)
        assert np.abs(a - b[[1, 0, 2]]).max() <= 1e-8

    def test_truncated_at_triple_point(self):
        seg = pl.symmetric_segment(2.6)
        tp = pl.triple_point(2.6)
        assert seg.y_hi == pytest.approx(pl.to_xy(tp.alpha).y, abs=1e-12)

    def test_reaches_origin_beyond_four_phase(self):
        seg = pl.symmetric_segment(3.1)
        assert seg.y_hi == 0.0

    def test_segment_pair_tracking(self):
        pts = track_segment_pair(pl.symmetric_segment(2.4), n=10)
        assert len(pts) == 10
        for pt in pts:
            params = pl.ModelParams(2.4, pt.alpha)
            va = pl.free_energy(params, pt.minimizers[0])
            vb = pl.free_energy(params, pt.minimizers[1])
            assert abs(va - vb) <= 1e-12


class TestAxisStructure:
    def test_crossings_bound_three_minima_window(self):
        # two crossings on the axis: the symmetric minimum exists above the
        # lower one, the mirror pair below the upper one, and the window of
        # three minima between them holds the triple point
        beta = 2.6
        y_star = pl.to_xy(pl.triple_point(beta).alpha).y

        def has_sym(y):
            return len(axis_minima(beta, y)[0]) >= 1

        def has_pair(y):
            return len(axis_minima(beta, y)[1]) == 1

        def edge(has, a, b):
            assert has(a) != has(b)
            for _ in range(40):
                mid = 0.5 * (a + b)
                if has(mid) == has(a):
                    a = mid
                else:
                    b = mid
            return 0.5 * (a + b)

        lo = edge(has_sym, -0.5 + 1e-6, y_star)
        hi = edge(has_pair, y_star, -1e-6)
        assert lo < y_star < hi
        sym, asym = axis_minima(beta, 0.5 * (lo + hi))
        assert len(sym) >= 1 and len(asym) == 1
        width = hi - lo
        ys = np.concatenate([np.linspace(-0.5, 0.0, 41)[1:-1],
                             lo + width * np.array([-1.0, -0.1, 0.1]),
                             hi + width * np.array([-0.1, 0.1, 1.0])])
        for y in ys:
            sym, asym = axis_minima(beta, float(y))
            assert len(asym) <= 1, y
            assert (len(sym) >= 1) == (y > lo), y
            assert (len(asym) == 1) == (y < hi), y

    def test_depth_gap_has_single_sign_change(self):
        # both kinds of minimum coexist on one interval of the axis, and
        # the depth gap changes sign once on it, at the triple point
        tp = pl.triple_point(2.6)
        assert_single_axis_tie(2.6, pl.to_xy(tp.alpha).y)

    @pytest.mark.parametrize("beta", [2.7, 2.77])
    def test_single_sign_change_towards_four_phase(self, beta):
        tp = pl.triple_point(beta)
        assert_single_axis_tie(beta, pl.to_xy(tp.alpha).y)


class TestAxisMinimaOracle:
    def test_matches_lattice_search(self):
        # the census-backed split against damped Newton from the g32
        # lattice plus dense seeds on the axis, at 100 random axis points
        rng = np.random.default_rng(31)
        c = np.linspace(1e-3, 1.0 - 1e-3, 400)
        seeds = np.vstack([barycentric_grid(32),
                           np.stack([(1 - c) / 2, (1 - c) / 2, c], axis=-1)])
        for beta, y in zip(rng.uniform(2.3, 3.5, 100),
                           rng.uniform(-0.49, 0.5, 100)):
            sym, asym = axis_minima(beta, y)
            points = stationary_points_from_seeds(
                beta, batch_from_xy([0.0, y]), seeds)
            ref_sym, ref_asym = [], []
            for p in points:
                if p.kind is PointKind.MINIMUM:
                    x = float(batch_xy(p.nu.array)[0])
                    if abs(x) <= 1e-7:
                        ref_sym.append(p.nu.array)
                    elif x > 0.0:
                        ref_asym.append(p.nu.array)
            assert len(sym) == len(ref_sym) and len(asym) == len(ref_asym)
            for got, ref in zip(sym + asym, ref_sym + ref_asym):
                assert np.abs(got - ref).max() <= 1e-7


class TestTriplePoint:
    def test_domain_validated(self):
        with pytest.raises(pl.DomainError):
            pl.triple_point(2.5)
        with pytest.raises(pl.DomainError):
            pl.triple_point(2.8)

    def test_equal_depths_and_mirror_pair(self):
        tp = pl.triple_point(2.6)
        params = pl.ModelParams(2.6, tp.alpha)
        values = [pl.free_energy(params, m) for m in tp.minimizers]
        assert max(values) - min(values) <= 1e-8
        xs = sorted(float(batch_xy(m.array)[0]) for m in tp.minimizers)
        assert xs[0] == pytest.approx(-xs[2], abs=1e-8)
        assert abs(xs[1]) <= 1e-8

    def test_minimizers_are_global(self):
        tp = pl.triple_point(2.6)
        cens = pl.census(pl.ModelParams(2.6, tp.alpha))
        assert cens.n_local_minima == 3
        found = np.stack([p.nu.array for p in cens.global_minimizers])
        for m in tp.minimizers:
            assert np.abs(found - m.array).max(axis=1).min() <= 1e-6

    def test_equivariance(self):
        tp = pl.triple_point(2.6)
        base = np.stack([m.array for m in tp.minimizers])
        for perm in pl.PERMUTATIONS:
            alpha = perm.apply(tp.alpha)
            cens = pl.census(pl.ModelParams(2.6, alpha))
            got = np.stack([p.nu.array for p in cens.global_minimizers])
            expected = perm.apply(base)
            assert len(got) == len(expected)
            # match nearest neighbours: depths are equivariant to full
            # precision, positions to the flat-valley conditioning
            for row in expected:
                assert np.abs(got - row).max(axis=1).min() <= 1e-6
            values = [p.value for p in cens.global_minimizers]
            assert max(values) - min(values) <= 1e-8
            assert abs(values[0] - tp.depth) <= 1e-8

    def test_approaches_uniform_at_four_phase_temperature(self):
        far = pl.triple_point(2.70)
        near = pl.triple_point(EW - 5e-4)
        d_far = np.abs(far.alpha.array - 1.0 / 3.0).max()
        d_near = np.abs(near.alpha.array - 1.0 / 3.0).max()
        assert d_near < d_far
        assert d_near < 5e-3


# Temperatures 18/7 + k 5e-4 where a triple point found by bisection
# between slice crossings, or a curve opened with four steps of the default
# length, fails; and three more next to 4 log 2.
_HARD_BETAS = ([18.0 / 7.0 + k * 5e-4
                for k in (1, 2, 3, 228, 379, *range(382, 403))]
               + [2.735, EW - 1e-3, EW - 1e-4, EW - 1e-5])


def _sweep_betas():
    rng = np.random.default_rng(606)
    edges = np.linspace(18.0 / 7.0, EW, 21)
    return _HARD_BETAS + list(rng.uniform(edges[:-1], edges[1:]))


class TestTriplePointSweep:
    def test_triple_point_and_curve_across_the_window(self):
        for beta in _sweep_betas():
            tp = pl.triple_point(beta)
            cens = pl.census(pl.ModelParams(beta, tp.alpha))
            glob = cens.global_minimizers
            assert len(glob) == 3, beta
            for g in glob:
                assert abs(g.value - tp.depth) <= 1e-8, beta
            found = np.stack([g.nu.array for g in glob])
            for m in tp.minimizers:
                assert np.abs(found - m.array).max(axis=1).min() <= 1e-6
            curve = pl.coexistence_curve(beta, origin=tp)
            assert curve.points, beta
            assert all(np.isfinite(p.alpha.array).all()
                       and np.isfinite(p.depth) for p in curve.points)


@pytest.fixture(scope="module")
def curve26():
    tp = pl.triple_point(2.6)
    return pl.coexistence_curve(2.6, step=0.005, origin=tp)


class TestCoexistenceCurve:

    def test_leaves_axis_and_folds(self, curve26):
        assert curve26.status == "fold"
        assert len(curve26.points) >= 20
        uv = np.array([batch_uv(p.alpha.array) for p in curve26.points])
        off_axis = np.abs(uv[:, 0] - uv[:, 1])
        assert off_axis[4] > 0.0
        assert off_axis.max() > 1e-4

    def test_points_pass_independent_census(self, curve26):
        # every sampled curve point carries the tracked pair as equally
        # deep global minima; near the fold the census may report the
        # almost-degenerate pair as several nearby copies, so positions
        # are matched loosely while depths are held to 1e-8
        pts = curve26.points
        sample = [pts[k] for k in
                  np.linspace(1, len(pts) - 10, 8, dtype=int)]
        for p in sample:
            cens = pl.census(pl.ModelParams(2.6, p.alpha))
            assert len(cens.global_minimizers) >= 2
            found = np.stack([g.nu.array for g in cens.global_minimizers])
            for m in p.minimizers:
                assert np.abs(found - m.array).max(axis=1).min() <= 1e-3
            values = [g.value for g in cens.global_minimizers]
            assert max(values) - min(values) <= 1e-8
            assert abs(values[0] - p.depth) <= 1e-8

    def test_tangent_matches_ivp(self, curve26):
        pts = curve26.points
        checked = 0
        for a, b in zip(pts[:-4], pts[1:-3]):
            ua, va = batch_uv(a.alpha.array)
            ub, vb = batch_uv(b.alpha.array)
            if abs(ub - ua) < 1e-14:
                continue
            secant = (vb - va) / (ub - ua)
            rhs = 0.5 * (ivp_tangent(a) + ivp_tangent(b))
            assert abs(secant - rhs) <= 1e-3 * (1.0 + abs(secant))
            checked += 1
        assert checked >= 10

    def test_gap_decreases_monotonically_at_fold(self, curve26):
        gaps = [np.linalg.norm(p.minimizers[0].array - p.minimizers[1].array)
                for p in curve26.points[-11:]]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-5

    def test_step_validated(self):
        with pytest.raises(pl.DomainError):
            pl.coexistence_curve(2.6, step=0.5)

    @pytest.mark.parametrize("beta", [2.6, 2.65])
    def test_ends_at_cusp(self, beta, curve26):
        curve = (curve26 if beta == 2.6 else
                 pl.coexistence_curve(beta, step=0.005,
                                      origin=pl.triple_point(beta)))
        assert curve.status == "fold"
        # every tracked minimizer before the end is a resolved minimum
        for p in curve.points[:-1]:
            eigs = hessian_eigenvalues(beta, np.stack(
                [m.array for m in p.minimizers]))
            assert eigs[:, 0].min() > pl.DEFAULT_TOL.degenerate_eig
        # the last point is the A3 point: singular Hessian, vanishing
        # cubic along the null direction, both slots holding it
        last = curve.points[-1]
        a, b = (m.array for m in last.minimizers)
        assert np.array_equal(a, b)
        hess = batch_hessian(beta, a)
        _, vecs = np.linalg.eigh(hess)
        null = np.array([vecs[0, 0], vecs[1, 0], -vecs[0, 0] - vecs[1, 0]])
        assert abs(np.linalg.det(hess)) <= 1e-10
        assert abs(np.sum(null ** 3 / a ** 2)) <= 1e-10
        cens = pl.census(pl.ModelParams(beta, last.alpha))
        assert any(p.kind is PointKind.DEGENERATE
                   and np.abs(p.nu.array - a).max() <= 1e-6
                   for p in cens.points)

    def test_hexagon_regime_terminates_on_boundary(self):
        tp = pl.triple_point(2.75)
        curve = pl.coexistence_curve(2.75, step=0.005, origin=tp)
        assert curve.status in ("boundary", "fold")
        assert len(curve.points) >= 5


class TestBeyondFourPhase:
    def test_domain_validated(self):
        with pytest.raises(pl.DomainError):
            pl.beyond_ellis_wang_segment(2.7)

    def test_four_global_minima_at_the_point(self):
        bew = pl.beyond_ellis_wang_segment(EW)
        assert bew.n_uniform_global == 4
        values = [p.value for p in bew.uniform_census.global_minimizers]
        assert max(values) - min(values) <= 1e-8

    def test_three_beyond(self):
        bew = pl.beyond_ellis_wang_segment(3.2)
        assert bew.n_uniform_global == 3
        kinds = {p.kind for p in bew.uniform_census.points}
        assert PointKind.MAXIMUM in kinds

    def test_segment_midpoint_two_global_minima(self):
        # the coexistence segment runs along the symmetry axis from the
        # bottom edge midpoint to the origin; census at its midpoint
        bew = pl.beyond_ellis_wang_segment(2.9)
        seg = bew.segment
        assert (seg.y_lo, seg.y_hi) == (-0.5, 0.0)
        alpha = seg.alpha_at(-0.25)
        cens = pl.census(pl.ModelParams(2.9, alpha))
        assert len(cens.global_minimizers) == 2
        a, b = (p.nu.array for p in cens.global_minimizers)
        assert np.abs(a - b[[1, 0, 2]]).max() <= 1e-8


class TestAxisSymmetry:
    def test_brute_force_set_mirror_invariant(self):
        # with the first two field components equal and below the third,
        # the set of global minimizers is invariant under swapping the
        # first two spin components
        for beta, y in ((2.3, 0.1), (2.75, 0.05), (3.1, 0.2)):
            alpha = pl.alpha_from_xy(pl.CoordXY(0.0, y))
            assert alpha.a1 == alpha.a2 < alpha.a3
            params = pl.ModelParams(beta, alpha)
            brute = pl.brute_force_global_min(params, 150)
            cens = pl.census(params)
            found = np.stack([p.nu.array for p in cens.global_minimizers])
            for g in cens.global_minimizers:
                mirror = g.nu.array[[1, 0, 2]]
                assert np.abs(found - mirror).max(axis=1).min() <= 1e-8
            assert np.abs(found - brute.array).max(axis=1).min() <= 1e-5


class TestDepthOrderingInHexagon:
    def test_centre_is_lowest_before_four_phase(self):
        # between the crossing and four-phase temperatures the central
        # minimum is the global one in zero field
        cens = pl.census(pl.ModelParams(2.75, AUNIFORM))
        assert cens.n_local_minima == 4
        glob = cens.global_minimizers
        assert len(glob) == 1
        assert np.abs(glob[0].nu.array - 1.0 / 3.0).max() < 1e-8

    def test_corners_lower_beyond(self):
        cens = pl.census(pl.ModelParams(2.8, AUNIFORM))
        glob = cens.global_minimizers
        assert len(glob) == 3
        for g in glob:
            assert np.abs(g.nu.array - 1.0 / 3.0).max() > 0.2
