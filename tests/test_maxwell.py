import functools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import potts_landscape as pl
import potts_landscape.maxwell as mw
import potts_landscape.stationary as stationary
from potts_landscape.maxwell import (axis_minima, ivp_tangent,
                                     segment_upper_endpoint_y,
                                     track_segment_pair)
from potts_landscape.model import (DEGENERATE_EIG, batch_catastrophe,
                                   batch_from_xy, batch_gradient,
                                   batch_hessian, batch_stationary_value,
                                   batch_uv, batch_xy, hessian_eigenvalues)
from potts_landscape.stationary import (PointKind, _branch_values,
                                        barycentric_grid,
                                        stationary_points_from_seeds)

from conftest import assert_single_axis_tie, random_interior

AUNIFORM = pl.AprioriMeasure.uniform()
EW = 4.0 * math.log(2.0)
# the segment's regimes and their edges: next to beta = 2, around the
# butterfly and four-phase temperatures, far beyond them
SEGMENT_BETAS = (2.0001, 2.05, 2.2, 18.0 / 7.0 - 1e-9, 18.0 / 7.0 + 1e-4,
                 2.6, 2.7, 2.75, EW - 1e-5, 3.0, 4.0, 20.0)
SEGMENT_SAMPLES = (1, 2, 3, 40, 5000)


@functools.cache
def _segment(beta):
    return pl.symmetric_segment(beta)


def _bisection_s(segment, n):
    """s = nu2 of each sample's pair member (nu1(s), s, 1 - nu1(s) - s),
    nu1 the W-1 partner of s, by 60 halvings of y(chi(nu(s))) = y_k from
    the bracket that runs from nu3 = 0 to the segment's upper member."""
    beta, ys = segment.beta, segment.sample_ys(n)
    if segment.y_hi == 0.0:
        top = mw._pair_end(beta, 1, 0.2)
    elif beta <= pl.BETA_BUTTERFLY:
        top = 1.0 / beta
    else:
        top = mw._axis_split(segment.triple.minimizers)[1][0][1]
    lo = np.full(n, mw._pair_end(beta, 0, 1.0 / beta))
    hi = np.full(n, top)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        nu1 = _branch_values(beta, 0.0, mid, True, 1)[0]
        member = np.stack([nu1, mid, 1.0 - nu1 - mid], axis=-1)
        below = batch_xy(batch_catastrophe(beta, member))[:, 1] < ys
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


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
        assert len(pts.fields) == 10
        for alpha, pair in zip(pts.fields, pts.pairs):
            params = pl.ModelParams(2.4, pl.AprioriMeasure.from_array(alpha))
            va = pl.free_energy(params,
                                pl.SpinDistribution.from_array(pair[0]))
            vb = pl.free_energy(params,
                                pl.SpinDistribution.from_array(pair[1]))
            assert abs(va - vb) <= 1e-12

    @pytest.mark.parametrize("beta", [2.2, 2.4, 2.6, 2.7, 2.75, 3.0, 4.0])
    def test_segment_pair_is_the_census_global_set(self, beta):
        # one independent census batch over every sample: its global
        # minimizers are exactly the member and its mirror
        pts = track_segment_pair(pl.symmetric_segment(beta), n=40)
        assert len(pts.fields) == 40
        tol = pl.DEFAULT_TOL
        alphas = [pl.AprioriMeasure.from_array(a) for a in pts.fields]
        for pair, depth, cens in zip(pts.pairs, pts.depths,
                                     pl.censuses(beta, alphas)):
            found = np.array([p.nu.array for p in cens.global_minimizers])
            assert len(found) == 2
            assert np.abs(found[np.argsort(found[:, 0])]
                          - pair[np.argsort(pair[:, 0])]).max() <= 1e-9
            for p in cens.global_minimizers:
                assert abs(p.value - depth) <= tol.depth

    @pytest.mark.parametrize("n", [2, 10, 40, 5000])
    def test_segment_pair_takes_one_census(self, monkeypatch, n):
        fields = []

        def counted(beta, alphas, _f=stationary._reduced_roots):
            fields.append(len(alphas))
            return _f(beta, alphas)
        monkeypatch.setattr(stationary, "_reduced_roots", counted)
        pts = track_segment_pair(pl.symmetric_segment(2.4), n=n)
        assert len(pts.fields) == n
        assert fields == [1]

    @pytest.mark.parametrize("beta", SEGMENT_BETAS)
    def test_segment_pair_matches_bisection(self, beta):
        """Each member's s agrees with the bisection oracle to rounding, and
        the member is stationary in its sample's field."""
        for n in SEGMENT_SAMPLES:
            pts = track_segment_pair(_segment(beta), n=n)
            alphas, pairs = pts.fields, pts.pairs
            want = _bisection_s(_segment(beta), n)
            assert np.all(np.abs(pairs[:, 0, 1] - want) <= 1e-13 * want), n
            grad = batch_gradient(beta, alphas[:, None], pairs)
            assert np.abs(grad).max() <= 1.1e-14, n

    @pytest.mark.parametrize("beta", SEGMENT_BETAS)
    def test_segment_pair_work(self, monkeypatch, beta):
        """A grid evaluation, a few Newton steps and the members' values:
        the curve's Lambert branches are evaluated at most 12 times."""
        calls = []

        def counted(*args, _f=mw._branch_values):
            calls.append(np.size(args[2]))
            return _f(*args)
        monkeypatch.setattr(mw, "_branch_values", counted)
        for n in SEGMENT_SAMPLES:
            calls.clear()
            assert len(track_segment_pair(_segment(beta), n=n).fields) == n
            assert len(calls) <= 12, (n, calls)

    def test_segment_pair_refused_without_census_minimum(self, monkeypatch):
        monkeypatch.setattr(mw, "axis_minima", lambda *args: ([], []))
        with pytest.raises(pl.NumericalError, match="no census minimum"):
            track_segment_pair(pl.symmetric_segment(2.4), n=10)

    def test_segment_pair_off_the_simplex_is_numerical(self, monkeypatch):
        """A computed member whose components do not sum to 1 within 1e-12
        is a numerical failure that names the sample's y, not bad input."""
        segment = pl.symmetric_segment(2.4)

        def pushed(*args, _f=mw._branch_values):
            out = _f(*args)
            if np.ndim(args[3]) == 2:  # the members' nu1 and nu3
                out[0, 1] += 1e-11
            return out
        monkeypatch.setattr(mw, "_branch_values", pushed)
        with pytest.raises(pl.NumericalError, match=r"at y = -0\.49"):
            track_segment_pair(segment, n=10)

    def test_segment_pair_memory_per_sample(self):
        """The samples come as three arrays, 80 bytes a sample: what the
        call leaves allocated, with its result alive, stays below 100."""
        segment = pl.symmetric_segment(2.4)
        track_segment_pair(segment, n=16)  # caches filled before tracing
        n = 2 ** 14
        tracemalloc.start()
        try:
            pts = track_segment_pair(segment, n=n)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held / n < 100, held / n
        assert len(pts.depths) == n


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

    @pytest.mark.parametrize("offset", [3e-5, 1e-4])
    def test_just_above_the_butterfly_temperature(self, offset):
        """Where the window of three minima is short: its three minimizers
        are the census' global set, equally deep to rounding."""
        beta = 18.0 / 7.0 + offset
        tp = pl.triple_point(beta)
        params = pl.ModelParams(beta, tp.alpha)
        assert len(pl.census(params).global_minimizers) == 3
        values = [pl.free_energy(params, m) for m in tp.minimizers]
        assert max(values) - min(values) <= 1e-12

    @pytest.mark.parametrize("beta", [2.58, 2.6, 2.65, 2.7, 2.75, 2.77])
    def test_matches_50_digit_reference(self, beta):
        """s = nu2 of the pair member and m of the symmetric minimizer
        against the triple point solved in 50-digit arithmetic: nu1 the
        W-1 partner of s (Lambert W), L(m) = L(s) with L = log(alpha1 /
        alpha3), and the depth gap zero.  At 2.58 the gap's slope in s is
        3.5e-5, so the 1e-12 needs the gap summed in extended precision."""
        mp = pytest.importorskip("mpmath")
        if np.finfo(np.longdouble).eps > 1e-18:
            pytest.skip("no extended precision for the depth gap")
        (sym,), (asym,) = mw._axis_split(pl.triple_point(beta).minimizers)
        with mp.workdps(50):
            b = mp.mpf(beta)

            def system(m, s):
                nu1 = mp.re(-mp.lambertw(-b * s * mp.exp(-b * s), -1) / b)
                nu3 = 1 - nu1 - s
                log_ratio = mp.log(s / nu3) + b * (nu3 - s)
                mu, nu = (m, m, 1 - 2 * m), (nu1, s, nu3)
                return (mp.log(m / (1 - 2 * m)) - 3 * b * m + b - log_ratio,
                        sum(-b / 2 * (x * x - z * z) + x * mp.log(x)
                            - z * mp.log(z) for x, z in zip(mu, nu))
                        + (mu[2] - nu[2]) * log_ratio)
            m, s = mp.findroot(system, (mp.mpf(sym[0]), mp.mpf(asym[1])))
            assert abs(asym[1] - s) <= 1e-12 * s, float((asym[1] - s) / s)
            assert abs(sym[0] - m) <= 1e-12 * m, float((sym[0] - m) / m)

    @pytest.mark.parametrize("beta", [2.575, 18.0 / 7.0 + 3e-5])
    def test_refinement_ends_where_the_gap_is_flat(self, monkeypatch, beta):
        """Next to the butterfly temperature the depth gap is flat, its
        slope in s 3.8e-6 at 2.575 and 2.3e-11 at 18/7 + 3e-5, so steps in
        s soon move on its rounding alone: the refinement stops at the
        gap's rounding level within a fixed number of segment curve
        evaluations (the grid's and five iterates), or the triple point is
        refused as not resolved."""
        calls = []
        curve = mw._segment_curve

        def counted(*args):
            calls.append(args)
            return curve(*args)
        monkeypatch.setattr(mw, "_segment_curve", counted)
        try:
            pl.triple_point(beta)
        except pl.NumericalError as e:
            assert "not resolved in double precision" in str(e)
        assert len(calls) <= 6, len(calls)

    @pytest.mark.parametrize("beta", [2.6, 2.7])
    def test_one_census_of_one_field(self, monkeypatch, beta):
        """The triple point is a root on the segment curve; only the check
        of its minimizers takes a census, of its own field."""
        fields = []

        def counted(beta_, alphas, _f=stationary._reduced_roots):
            fields.append(len(alphas))
            return _f(beta_, alphas)
        monkeypatch.setattr(stationary, "_reduced_roots", counted)
        pl.triple_point(beta)
        assert fields == [1]

    @pytest.mark.parametrize("beta", [2.6, 2.7])
    def test_depth_gap_slope_matches_central_differences(self, beta):
        """dg/ds = (mu3 - nu3) dL/ds by the envelope theorem, at the triple
        point's s and on both sides of it.  The reference is a two-level
        Richardson extrapolation of central differences at h = 1e-3, 5e-4
        and 2.5e-4: a single difference at h = 1e-6 errs by up to twice the
        bound under shifts of s by 1e-13, where the gap's rounding
        dominates it."""
        s_tp = mw._axis_split(pl.triple_point(beta).minimizers)[1][0][1]
        s = s_tp + np.array([-0.02, 0.0, 0.02])

        def gap(s):
            return mw._depth_gap(beta, s, *mw._segment_curve(beta, s))[:2]
        d = [(gap(s + h)[0] - gap(s - h)[0]) / (2.0 * h)
             for h in (1e-3, 5e-4, 2.5e-4)]
        d1 = [(4.0 * d[1] - d[0]) / 3.0, (4.0 * d[2] - d[1]) / 3.0]
        central = (16.0 * d1[1] - d1[0]) / 15.0
        slope = gap(s)[1]
        assert np.abs(central - slope).max() <= 1e-8 * np.abs(central).max()


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
            assert curve.status in ("fold", "triple"), beta
            assert curve.points, beta
            assert all(np.isfinite(p.alpha.array).all()
                       and np.isfinite(p.depth) for p in curve.points)
            # every point before the end carries the tracked pair as
            # global minimizers: no metastable tail
            checks = pl.censuses(beta, [p.alpha for p in curve.points[:-1]])
            for p, cens in zip(curve.points, checks):
                glob = cens.global_minimizers
                found = np.stack([g.nu.array for g in glob])
                for m in p.minimizers:
                    assert (np.abs(found - m.array).max(axis=1).min()
                            <= 1e-3), (beta, p.alpha)
                assert all(abs(g.value - p.depth) <= 1e-8
                           for g in glob), (beta, p.alpha)


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

    @pytest.mark.parametrize("beta", [2.6, 2.7])
    def test_pair_jacobian_is_the_derivative(self, beta):
        # at every tracked state of the curve: the evaluation's Jacobian
        # against central differences of its residual, and the tangent,
        # the Jacobian's null vector, along the step to the next state
        curve = pl.coexistence_curve(beta, origin=pl.triple_point(beta))
        states = [np.concatenate([m.array[:2] for m in p.minimizers])
                  for p in curve.points[:-1]]
        h = 1e-6
        for k, w in enumerate(states):
            jac = mw._pair_residual(beta, w).jac
            fd = np.stack([(mw._pair_residual(beta, w + h * e).residual
                            - mw._pair_residual(beta, w - h * e).residual)
                           / (2.0 * h) for e in np.eye(4)], axis=1)
            assert np.abs(fd - jac).max() <= 1e-7 * np.abs(jac).max()
            tangent = np.linalg.svd(jac)[2][-1]
            assert np.linalg.norm(jac @ tangent) <= 1e-12
            if k + 1 < len(states):
                secant = states[k + 1] - w
                assert abs(tangent @ secant) >= 0.95 * np.linalg.norm(secant)

    def test_pair_evaluation_matches_per_point_formulas(self, rng):
        # the fused evaluation does the per-point arithmetic on both points
        # at once: equal bit for bit to the kernels and derivatives of one
        # point at a time
        def per_point_derivs(beta, p):
            t = p * np.exp(-beta * p)
            tp = (1.0 - beta * p) * np.exp(-beta * p)
            total = t.sum()
            dtotal = np.array([tp[0] - tp[2], tp[1] - tp[2]])
            dsv = beta * (p[:2] - p[2]) + dtotal / total
            dchi = (np.diag(tp[:2]) * total
                    - np.outer(t[:2], dtotal)) / (total * total)
            return np.vstack([dsv, dchi])

        for beta in (2.6, 2.7, 3.5):
            for pair in random_interior(rng, 2 * 50, 1e-3).reshape(50, 2, 3):
                w = pair[:, :2].ravel()
                mu = np.array([w[0], w[1], 1.0 - w[0] - w[1]])
                nu = np.array([w[2], w[3], 1.0 - w[2] - w[3]])
                ev = mw._pair_residual(beta, w)
                sv = [batch_stationary_value(beta, p) for p in (mu, nu)]
                chi = [batch_catastrophe(beta, p) for p in (mu, nu)]
                jac = np.hstack([per_point_derivs(beta, mu),
                                 -per_point_derivs(beta, nu)])
                assert np.array_equal(ev.pair, [mu, nu])
                assert np.array_equal(ev.sv, sv)
                assert np.array_equal(ev.chi, chi)
                assert np.array_equal(ev.residual, [sv[0] - sv[1],
                                                    *(chi[0] - chi[1])[:2]])
                assert np.array_equal(ev.jac, jac)
        assert np.isnan(mw._pair_residual(2.6, [0.7, 0.4, 0.3, 0.3])
                        .residual).all()

    def test_cusp_conditions_match_their_loop(self, rng):
        def loop_conditions(beta, nu):
            a = 1.0 / nu - beta
            da = -1.0 / (nu * nu)
            w = np.array([a[1] * a[2], a[0] * a[2], a[0] * a[1]])
            dw = np.zeros((3, 3))
            for i in range(3):
                for k in range(3):
                    if i != k:
                        dw[i, k] = a[3 - i - k] * da[k]
            dcubic = -(3.0 * (w * w / nu ** 2) @ dw) + 2.0 * w ** 3 / nu ** 3
            grad = np.stack([dw.sum(axis=0), dcubic])
            return (np.array([w.sum(), -np.sum(w ** 3 / nu ** 2)]),
                    grad[:, :2] - grad[:, 2:])

        for nu in random_interior(rng, 200, 1e-3):
            for beta in (2.6, 2.65, 4.0):
                got = mw._cusp_conditions(beta, nu)
                want = loop_conditions(beta, nu)
                assert all(np.array_equal(g, x) for g, x in zip(got, want))

    @pytest.mark.parametrize("beta, evals, n_points", [
        (2.6, 71, 21), (2.7, 87, 27),
        # a failed trial next to the butterfly point ends at its first
        # Newton step that does not lower the residual
        (18.0 / 7.0 + 5e-4, 37, 5), (18.0 / 7.0 + 1e-3, 43, 6)])
    def test_residual_evaluations_per_curve(self, monkeypatch, beta, evals,
                                            n_points):
        # one evaluation of the pair system per corrector trial and one at
        # the start, counted where perfbench/tracer.py counts them
        # (maxwell.residual_evals)
        tp = pl.triple_point(beta)
        calls = []
        evaluate = mw._pair_residual

        def counted(*args):
            calls.append(args)
            return evaluate(*args)
        monkeypatch.setattr(mw, "_pair_residual", counted)
        curve = pl.coexistence_curve(beta, origin=tp)
        assert len(calls) == evals
        assert len(curve.points) == n_points

    # next to the butterfly point the pair merges a few steps from the
    # triple point
    @pytest.mark.parametrize("beta", [2.6, 2.65, 18.0 / 7.0 + 5e-4,
                                      18.0 / 7.0 + 1e-3])
    def test_ends_at_cusp(self, beta, curve26):
        curve = (curve26 if beta == 2.6 else
                 pl.coexistence_curve(beta, step=0.005,
                                      origin=pl.triple_point(beta)))
        assert curve.status == "fold"
        # every tracked minimizer before the end is a resolved minimum
        for p in curve.points[:-1]:
            eigs = hessian_eigenvalues(beta, np.stack(
                [m.array for m in p.minimizers]))
            assert eigs[:, 0].min() > DEGENERATE_EIG
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

    @pytest.mark.parametrize("beta", [2.6, *np.linspace(2.58, 2.66, 10)])
    def test_end_is_reproducible(self, beta):
        # 1e-13 moves of the start move the pair gap that ends the curve
        # by about as much: one status and one length
        tp = pl.triple_point(beta)
        rng = np.random.default_rng(19)
        ends = set()
        for _ in range(20):
            moved = tuple(pl.SpinDistribution.from_array(
                m.array + 1e-13 * rng.standard_normal(3))
                for m in tp.minimizers)
            curve = pl.coexistence_curve(
                beta, origin=replace(tp, minimizers=moved))
            ends.add((curve.status, len(curve.points)))
        assert len(ends) == 1, ends

    @pytest.mark.parametrize("beta", [2.62, 2.65])
    def test_census_at_cusp_from_nearby_starts(self, beta):
        # from 10 starts within 2e-3 of the curve's cusp, ``_cusp_point``
        # finds that A3 point, and the census at its field finds it as a
        # DEGENERATE point
        curve = pl.coexistence_curve(beta, origin=pl.triple_point(beta))
        cusp = curve.points[-1].minimizers[0].array
        rng = np.random.default_rng(41)
        for _ in range(10):
            angle = rng.uniform(0.0, 2.0 * np.pi)
            d = 2e-3 * math.sqrt(rng.uniform()) * np.array(
                [np.cos(angle), np.sin(angle)])
            nu = mw._cusp_point(beta, cusp + [d[0], d[1], -d[0] - d[1]])
            assert np.abs(nu - cusp).max() <= 1e-12
            alpha = pl.AprioriMeasure.from_array(batch_catastrophe(beta, nu))
            cens = pl.census(pl.ModelParams(beta, alpha))
            assert any(p.kind is PointKind.DEGENERATE
                       and np.abs(p.nu.array - nu).max() <= 1e-6
                       for p in cens.points), d

    @pytest.mark.parametrize("beta", [2.58, 2.6])
    def test_cusp_point_stays_near_its_seed(self, beta):
        # from 30 starts within 2e-3 of the curve's cusp, ``_cusp_point``
        # finds that A3 point or fails; plain Newton alone reaches the
        # on-axis cusp (5/13, 5/13, 3/13) from some of them
        curve = pl.coexistence_curve(beta, origin=pl.triple_point(beta))
        cusp = curve.points[-1].minimizers[0].array
        rng = np.random.default_rng(7)
        for _ in range(30):
            angle = rng.uniform(0.0, 2.0 * np.pi)
            d = 2e-3 * math.sqrt(rng.uniform()) * np.array(
                [np.cos(angle), np.sin(angle)])
            try:
                nu = mw._cusp_point(beta, cusp + [d[0], d[1], -d[0] - d[1]])
            except pl.NumericalError:
                continue
            assert np.abs(nu - cusp).max() <= 1e-12, (d, nu)

    def test_hexagon_regime_ends_at_mirrored_triple_point(self):
        # the curve runs from the triple point to the same triple point
        # permuted onto the next symmetry axis
        tp = pl.triple_point(2.75)
        curve = pl.coexistence_curve(2.75, step=0.005, origin=tp)
        assert curve.status == "triple"
        assert len(curve.points) >= 5
        end = curve.points[-1]
        assert np.array_equal(end.alpha.array, tp.alpha.array[[0, 2, 1]])
        cens = pl.census(pl.ModelParams(2.75, end.alpha))
        assert len(cens.global_minimizers) == 3


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
