import math

import numpy as np
import pytest

import potts_landscape as pl
from potts_landscape.bifurcation import (BETA_BEAK, fold_lines_nu,
                                         fold_lines_pq)
from potts_landscape.model import (batch_catastrophe, batch_degeneracy_lhs,
                                   batch_from_xy, batch_gradient, batch_pq,
                                   batch_uv, batch_xy)
from potts_landscape.rootfind import bracketed_root

from conftest import random_interior


def quadratic_residual(beta, x, nu2):
    """Degeneracy condition as the quadratic in the second component."""
    a = beta * (2.0 - 3.0 * beta * x)
    return a * nu2 ** 2 - a * (1.0 - x) * nu2 + 1.0 - 2.0 * beta * x * (1.0 - x)


class TestDomainIntervals:
    def test_empty_below_two(self):
        assert pl.domain_intervals(1.7).is_empty
        assert pl.domain_intervals(2.0).is_empty

    def test_first_regime(self):
        dom = pl.domain_intervals(2.4)
        assert len(dom.intervals) == 2
        first, second = dom.intervals
        assert first.lo == 0.0
        assert first.hi == pytest.approx(1.0 / 6.0, abs=1e-14)
        assert first.include_hi
        s = 0.5 * math.sqrt(1.0 - 2.0 / 2.4)
        assert second.lo == pytest.approx(0.5 - s, abs=1e-14)
        assert second.hi == pytest.approx(0.5 + s, abs=1e-14)
        assert not second.include_hi

    def test_beak_to_beak_regime(self):
        # 8/3 belongs to the middle case: three intervals whose closures
        # meet at 1/4 and 1/2; the union's closure is [0, 3/4]
        dom = pl.domain_intervals(BETA_BEAK)
        ends = [(iv.lo, iv.hi) for iv in dom.intervals]
        assert len(ends) == 3
        assert ends[0] == (0.0, pytest.approx(0.25, abs=1e-14))
        assert ends[1] == (pytest.approx(0.25, abs=1e-14),
                           pytest.approx(0.5, abs=1e-14))
        assert ends[2] == (pytest.approx(0.5, abs=1e-14),
                           pytest.approx(0.75, abs=1e-14))

    def test_umbilic_middle_interval_collapses(self):
        dom = pl.domain_intervals(3.0)
        assert len(dom.intervals) == 2
        assert dom.intervals[0].hi == pytest.approx(0.5 - 0.5 * math.sqrt(1 / 3), abs=1e-14)
        assert dom.intervals[1].lo == pytest.approx(0.5 + 0.5 * math.sqrt(1 / 9), abs=1e-14)

    def test_endpoints_match_discriminant_roots(self):
        for beta in (2.3, 2.7, 2.9, 3.4):
            dom = pl.domain_intervals(beta)
            roots = set()
            for r in pl.discriminant_roots(beta):
                roots.add(round(r, 14))
            simplex_roots = {round(0.5 - 0.5 * math.sqrt(1 - 2 / beta), 14),
                             round(0.5 + 0.5 * math.sqrt(1 - 2 / beta), 14),
                             0.0}
            for iv in dom.intervals:
                for end in (iv.lo, iv.hi):
                    assert (round(end, 14) in roots
                            or round(end, 14) in simplex_roots)


class TestDiscriminantRoots:
    def test_first_regime_order(self):
        roots = pl.discriminant_roots(2.4)
        assert roots == [pytest.approx(1.0 / 6.0, abs=1e-15),
                         pytest.approx(5.0 / 18.0, abs=1e-15)]

    def test_beak_to_beak_coincidences(self):
        roots = pl.discriminant_roots(BETA_BEAK)
        assert roots[0] == pytest.approx(0.25, abs=1e-12)
        assert roots[1] == pytest.approx(0.25, abs=1e-12)
        assert roots[2] == pytest.approx(0.5, abs=1e-12)
        assert roots[3] == pytest.approx(0.5, abs=1e-12)

    def test_umbilic_coincidences(self):
        roots = pl.discriminant_roots(3.0)
        assert roots[1] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert roots[2] == pytest.approx(1.0 / 3.0, abs=1e-12)


class TestGamma:
    def test_satisfies_quadratic(self):
        g = pl.gamma(2.2, 0.05)
        assert abs(quadratic_residual(2.2, 0.05, g)) <= 1e-10

    def test_inside_simplex(self):
        # sample the middle interval of the three-interval regime
        dom = pl.domain_intervals(3.2)
        mid = dom.intervals[1]
        for t in (0.2, 0.5, 0.8):
            x = mid.lo + t * (mid.hi - mid.lo)
            g = pl.gamma(3.2, x)
            assert 0.0 < g < 1.0 - x
            nu = np.array([x, g, 1.0 - x - g])
            assert nu.min() > 0.0

    def test_outside_domain_rejected(self):
        with pytest.raises(pl.DomainError):
            pl.gamma(2.4, 0.25)   # in the gap between the two intervals
        with pytest.raises(pl.DomainError):
            pl.gamma(2.4, 0.9)

    def test_removable_singularity(self):
        with pytest.raises(pl.RemovableSingularityError):
            pl.gamma(BETA_BEAK, 0.25)
        # approaching the singular abscissa the branch tends to 1/4
        assert pl.gamma(BETA_BEAK, 0.25 - 1e-7) == pytest.approx(0.25, abs=1e-4)
        assert pl.gamma(BETA_BEAK, 0.25 + 1e-7) == pytest.approx(0.25, abs=1e-4)

    def test_only_two_roots(self, rng):
        # gamma and its mirror are the only zeros of the quadratic: scan
        # the second component for further sign changes
        for beta, x in ((2.3, 0.08), (2.75, 0.3), (3.2, 0.1)):
            g = pl.gamma(beta, x)
            mirror = 1.0 - x - g
            assert abs(quadratic_residual(beta, x, g)) <= 1e-10
            assert abs(quadratic_residual(beta, x, mirror)) <= 1e-10
            grid = np.linspace(1e-6, 1.0 - x - 1e-6, 20001)
            vals = quadratic_residual(beta, x, grid)
            changes = int(np.sum(np.sign(vals[:-1]) != np.sign(vals[1:])))
            assert changes <= 2


class TestSliceCurves:
    def test_positive_distance_from_origin(self):
        curves = pl.slice_curves(2.3)
        pq = np.concatenate([batch_pq(c.alpha) for c in curves])
        assert np.hypot(pq[:, 0], pq[:, 1]).min() > 0.1

    def test_degeneracy_residual(self):
        for beta in (2.3, 2.75, 3.2):
            curves = pl.slice_curves(beta)
            worst = max(np.abs(batch_degeneracy_lhs(c.beta, c.nu)).max()
                        for c in curves)
            assert worst <= 1e-9

    def test_branches_are_permutation_images(self):
        curves = pl.slice_curves(2.5, samples_per_interval=50)
        base = {c.interval_index: c for c in curves
                if c.branch.indices == (0, 1, 2)}
        for c in curves:
            ref = base[c.interval_index]
            assert np.abs(c.nu - c.branch.apply(ref.nu)).max() <= 1e-12
            assert np.abs(c.alpha - c.branch.apply(ref.alpha)).max() <= 1e-12

    def test_six_branch_labels(self):
        curves = pl.slice_curves(2.75, samples_per_interval=16)
        labels = {c.branch.label for c in curves}
        assert labels == {"123", "132", "213", "231", "312", "321"}
        intervals = {c.interval_index for c in curves}
        assert intervals == {0, 1, 2}

    def test_rejects_low_beta(self):
        with pytest.raises(pl.DomainError):
            pl.slice_curves(1.9)

    def test_fold_crossing_changes_census_by_one(self):
        # crossing the curve transversally adds or removes one minimum:
        # two inside the cusp region, one outside
        beta = 2.3
        curves = pl.slice_curves(beta, samples_per_interval=60)
        base = next(c for c in curves
                    if c.branch.indices == (0, 1, 2) and c.interval_index == 0)
        uv = batch_uv(base.alpha)
        for k in (25, 35):
            tangent = uv[k + 1] - uv[k - 1]
            normal = np.array([-tangent[1], tangent[0]])
            normal /= np.linalg.norm(normal)
            counts = set()
            for side in (+1.0, -1.0):
                probe = uv[k] + 1e-4 * side * normal
                alpha = pl.from_uv(pl.CoordUV(probe[0], probe[1]))
                counts.add(pl.census(pl.ModelParams(beta, alpha)).n_local_minima)
            assert counts == {1, 2}


FOLD_BETAS = (2.05, 2.3, 2.6, 2.7, 2.75, 2.9, 3.0, 3.2, 4.0, 8.0)


def meets(beta, e):
    """Whether gamma meets its partner root 1 - x - gamma at the interval
    end e: e = 1 - 2/beta or 2 - 3 beta e (1 - e) = 0."""
    return e == 1.0 - 2.0 / beta or abs(2.0 - 3.0 * beta * e * (1.0 - e)) <= 1e-12


def meeting_points(beta):
    """The points (e, (1-e)/2, (1-e)/2) at the meeting ends e."""
    ends = {e for iv in pl.domain_intervals(beta).intervals
            for e in (iv.lo, iv.hi) if meets(beta, e)}
    return [np.array([e, 0.5 - 0.5 * e, 0.5 - 0.5 * e]) for e in ends]


class TestFoldLines:
    @pytest.mark.parametrize("beta", FOLD_BETAS)
    def test_vertices_are_degenerate(self, beta):
        lines = fold_lines_nu(pl.slice_curves(beta, 400))
        for nu in lines:
            assert np.abs(batch_degeneracy_lhs(beta, nu)).max() <= 1e-9
            assert (nu > 0.0).all()
            np.testing.assert_allclose(nu.sum(axis=1), 1.0, atol=1e-15)

    @pytest.mark.parametrize("beta", FOLD_BETAS)
    def test_each_meeting_end_once(self, beta):
        """Every meeting end is a vertex of exactly one line: once, or as
        both ends of a closed loop."""
        lines = fold_lines_nu(pl.slice_curves(beta, 400))
        points = meeting_points(beta)
        assert len(points) == (1 if beta < BETA_BEAK or beta == 3.0 else 3)
        for point in points:
            hits = [np.flatnonzero((nu == point).all(axis=1)).tolist()
                    for nu in lines]
            hits = [(k, at) for k, at in enumerate(hits) if at]
            assert len(hits) == 1, (point, hits)
            k, at = hits[0]
            assert at in ([at[0]], [0, len(lines[k]) - 1]), at

    @pytest.mark.parametrize("beta", FOLD_BETAS)
    def test_no_segment_joins_open_ends(self, beta):
        """At an open end the identity and its (2 3) swap run to different
        simplex edges, and no segment links them: every segment is short,
        an interval with no meeting end gives two lines, one with both
        ends meeting a closed loop, and the lines hold a third of the six
        branches' points."""
        curves = pl.slice_curves(beta, 400)
        lines = fold_lines_nu(curves)
        n_meets = [meets(beta, iv.lo) + meets(beta, iv.hi)
                   for iv in pl.domain_intervals(beta).intervals]
        assert len(lines) == sum(2 if m == 0 else 1 for m in n_meets)
        closed = [bool((nu[0] == nu[-1]).all()) for nu in lines]
        assert closed.count(True) == n_meets.count(2)
        for nu in lines:
            assert np.abs(np.diff(nu, axis=0)).max() < 0.05
        assert sum(map(len, lines)) <= sum(len(c.x_param)
                                           for c in curves) // 3 + 5

    def test_pq_is_the_field_of_nu(self):
        for beta in (2.3, 2.9):
            lines = fold_lines_nu(pl.slice_curves(beta, 50))
            pq = fold_lines_pq(pl.slice_curves(beta, 50))
            assert [len(a) for a in pq] == [len(nu) for nu in lines]
            for nu, a in zip(lines, pq):
                np.testing.assert_array_equal(
                    a, batch_pq(pl.model.batch_catastrophe(beta, nu)))

    def test_empty(self):
        assert fold_lines_nu([]) == [] and fold_lines_pq([]) == []


class TestSurfacePatches:
    def test_hand_values(self):
        plus, minus = pl.surface_patches(32)
        target = np.array([0.5, 0.25, 0.25])
        for patch, expected in ((plus, 4.0), (minus, 8.0 / 3.0)):
            k = int(np.abs(patch.nu - target).max(axis=1).argmin())
            assert np.abs(patch.nu[k] - target).max() < 1e-12
            assert patch.beta[k] == pytest.approx(expected, abs=1e-12)

    def test_pinch_point_at_uniform(self):
        plus, minus = pl.surface_patches(64)
        for patch in (plus, minus):
            k = int(np.abs(patch.nu - 1.0 / 3.0).max(axis=1).argmin())
            assert np.abs(patch.nu[k] - 1.0 / 3.0).max() < 1e-12
            assert patch.beta[k] == pytest.approx(3.0, abs=1e-12)

    def test_degenerate_and_stationary_everywhere(self):
        plus, minus = pl.surface_patches(48)
        for patch in (plus, minus):
            res = batch_degeneracy_lhs(patch.beta, patch.nu)
            assert np.abs(res).max() <= 1e-9
            grad = batch_gradient(patch.beta, patch.alpha, patch.nu)
            assert np.abs(grad).max() <= 1e-10

    def test_plus_sheet_above_three(self):
        plus, _ = pl.surface_patches(48)
        assert plus.beta.min() >= 3.0 - 1e-9

    def test_minus_sheet_minimum(self):
        # the minus sheet tends to 2 near the edge midpoints (both sheets
        # grow without bound near the corners); its grid minimum sits just
        # above 2 and drops toward it as the grid refines
        _, coarse = pl.surface_patches(48)
        _, fine = pl.surface_patches(96)
        assert 2.0 - 1e-12 <= fine.beta.min() <= 2.1
        assert fine.beta.min() < coarse.beta.min()

    def test_grid_validated(self):
        with pytest.raises(pl.DomainError):
            pl.surface_patches(8)


class TestDegenerateLocusPlane:
    def test_umbilic_point(self):
        assert pl.degenerate_locus_xy(3.0, 0.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_matches_simplex_form(self, rng):
        pts = random_interior(rng, 500, margin=1e-3)
        xy = batch_xy(pts)
        betas = rng.uniform(0.3, 5.0, 500)
        for beta, p, n in zip(betas, xy, pts):
            plane = pl.degenerate_locus_xy(beta, p[0], p[1])
            simplex = float(batch_degeneracy_lhs(beta, n))
            assert plane == pytest.approx(simplex, abs=1e-10 * (1 + abs(simplex)))

    def test_axis_cubic_root_bracketed(self):
        beta = 2.5
        cubic = lambda y: (2 * beta ** 2 * y ** 3
                           + 3 * beta * (2 - beta) * y ** 2 + (beta - 3) ** 2)
        assert cubic(-1.0) < 0.0 < cubic(0.0)


def richardson_butterfly(beta, step=1e-3):
    """(c2, c3, c4) of the slice at its on-axis cusp, estimated from the
    locus itself: its push-forward is sampled at x = step, 2 step and
    4 step, each y a root of the plane condition on (-1, 0), and the small
    Vandermonde systems remove the two lowest truncation orders of the
    symmetric (even) and antisymmetric (odd) parts."""
    def uv_on_locus(x, y):
        return batch_uv(batch_catastrophe(beta, batch_from_xy([x, y])))

    def locus_y(x):
        def plane(y):
            return (pl.degenerate_locus_xy(beta, x, y),
                    (12.0 * beta * y
                     + beta * beta * (2.0 * ((y - 1.0) ** 2 - 3.0 * x * x)
                                      + (2.0 * y + 1.0) * 2.0 * (y - 1.0)))
                    / 9.0)
        return bracketed_root(plane, -1.0, 0.0)

    base = uv_on_locus(0.0, (beta - 3.0) / beta)
    hs = np.array([step, 2.0 * step, 4.0 * step])
    sym, asym = np.empty(3), np.empty(3)
    for k, h in enumerate(hs):
        uv = uv_on_locus(float(h), locus_y(float(h)))
        sym[k] = 0.5 * (uv[0] + uv[1]) - 0.5 * (base[0] + base[1])
        asym[k] = 0.5 * (uv[1] - uv[0])
    s2, s4, _ = np.linalg.solve(np.stack([hs ** 2, hs ** 4, hs ** 6], -1), sym)
    _, a3, _ = np.linalg.solve(np.stack([hs, hs ** 3, hs ** 5], -1), asym)
    return s2, a3, s4


class TestButterflyExpansion:
    def test_exact_at_onset(self):
        coeff = pl.butterfly_expansion(18.0 / 7.0)
        assert abs(coeff.c2) <= 1e-12
        assert abs(coeff.c3) <= 1e-12
        assert coeff.c4 == pytest.approx(39366.0 / 2401.0, rel=1e-12)

    @pytest.mark.parametrize("beta, c2, c3, c4", [
        (2.3, 5.5838888888888888889, 1.0592682045982012449,
         59.59136185122197027),
        (2.55, 0.29556818181818181818, 0.17728261703303946131,
         19.306501818612258953),
        (2.6, -0.37555555555555555556, -0.28187523142435728992,
         12.076719135802469136)])
    def test_pinned_values(self, beta, c2, c3, c4):
        coeff = pl.butterfly_expansion(beta)
        assert (coeff.c2, coeff.c3, coeff.c4) == pytest.approx((c2, c3, c4),
                                                               rel=1e-12)
        assert coeff.y0 == (beta - 3.0) / beta

    def test_agrees_with_richardson_reference(self):
        for beta in np.linspace(2.02, 2.66, 33):
            coeff = pl.butterfly_expansion(beta)
            ref = richardson_butterfly(beta)
            for got, want, tol in zip((coeff.c2, coeff.c3, coeff.c4), ref,
                                      (1e-6, 1e-6, 1e-3)):
                assert abs(got - want) <= tol * max(abs(got), 1.0), (
                    beta, got, want)

    def test_quadratic_and_cubic_vanish_at_onset(self):
        coeff = pl.butterfly_expansion(18.0 / 7.0)
        assert abs(coeff.c2) <= 1e-4
        assert abs(coeff.c3) <= 1e-4

    def test_quartic_value_at_onset(self):
        coeff = pl.butterfly_expansion(18.0 / 7.0)
        assert coeff.c4 == pytest.approx(39366.0 / 2401.0, rel=1e-2)

    def test_quadratic_sign_change(self):
        below = pl.butterfly_expansion(2.55)
        above = pl.butterfly_expansion(2.6)
        assert below.c2 * above.c2 < 0.0

    def test_domain_validated(self):
        with pytest.raises(pl.DomainError):
            pl.butterfly_expansion(2.0)
        with pytest.raises(pl.DomainError):
            pl.butterfly_expansion(BETA_BEAK)


class TestSliceCellStructure:
    def test_component_counts_low_beta(self):
        # three disconnected cusp regions before the butterfly: the base
        # curve plus images form three rockets; count cells via labels
        from potts_landscape.cli import label_slice_cells
        curves = pl.slice_curves(2.3, samples_per_interval=800)
        labelled = label_slice_cells(2.3, curves, extent=6.0, resolution=512)
        counts = sorted(c for _, c in labelled if c is not None)
        assert counts.count(2) == 3     # one per rocket interior
        assert 1 in counts              # the outer cell
