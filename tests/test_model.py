import math

import numpy as np
import pytest

import potts_landscape as pl
from potts_landscape.model import (batch_catastrophe, batch_degeneracy_lhs,
                                   batch_free_energy, batch_from_pq,
                                   batch_from_uv, batch_from_xy,
                                   batch_gradient, batch_hessian, batch_pq,
                                   batch_stationary_value, batch_uv, batch_xy)

from conftest import fd_gradient, random_interior

UNIFORM = pl.SpinDistribution.uniform()
AUNIFORM = pl.AprioriMeasure.uniform()


def naive_free_energy(beta, alpha, nu):
    """Independent second implementation of the closed form."""
    quad = math.fsum(v * v for v in nu)
    ent = math.fsum(v * math.log(v / a) for v, a in zip(nu, alpha))
    return -0.5 * beta * quad + ent


class TestSimplexTypes:
    def test_sum_constraint(self):
        with pytest.raises(pl.DomainError):
            pl.SpinDistribution(0.5, 0.4, 0.2)

    def test_boundary_rejected(self):
        with pytest.raises(pl.DomainError):
            pl.SpinDistribution(0.0, 0.5, 0.5)
        with pytest.raises(pl.DomainError):
            pl.AprioriMeasure(1e-13, 0.5, 0.5 - 1e-13)

    def test_negative_rejected(self):
        with pytest.raises(pl.DomainError):
            pl.SpinDistribution(-0.1, 0.6, 0.5)

    def test_bad_beta(self):
        with pytest.raises(pl.DomainError):
            pl.ModelParams(0.0, AUNIFORM)
        with pytest.raises(pl.DomainError):
            pl.ModelParams(float("nan"), AUNIFORM)


class TestFreeEnergy:
    def test_uniform_values(self):
        assert pl.free_energy(pl.ModelParams(3.0, AUNIFORM), UNIFORM) == pytest.approx(-0.5, abs=1e-15)
        assert pl.free_energy(pl.ModelParams(2.0, AUNIFORM), UNIFORM) == pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_against_naive_implementation(self):
        params = pl.ModelParams(2.5, pl.AprioriMeasure(0.2, 0.3, 0.5))
        nu = pl.SpinDistribution(0.3, 0.3, 0.4)
        expected = naive_free_energy(2.5, (0.2, 0.3, 0.5), (0.3, 0.3, 0.4))
        assert pl.free_energy(params, nu) == pytest.approx(expected, abs=1e-12)

    def test_against_naive_random(self, rng):
        nus = random_interior(rng, 200)
        alphas = random_interior(rng, 200)
        betas = rng.uniform(0.5, 4.0, 200)
        for beta, a, n in zip(betas, alphas, nus):
            got = float(batch_free_energy(beta, a, n))
            assert got == pytest.approx(naive_free_energy(beta, a, n), abs=1e-12)

    def test_permutation_invariance(self, rng):
        nus = random_interior(rng, 100)
        alphas = random_interior(rng, 100)
        for perm in pl.PERMUTATIONS:
            f0 = batch_free_energy(2.7, alphas, nus)
            f1 = batch_free_energy(2.7, perm.apply(alphas), perm.apply(nus))
            assert np.abs(f0 - f1).max() < 1e-12


class TestGradient:
    def test_symmetric_point(self):
        g = pl.gradient_local(pl.ModelParams(2.5, AUNIFORM), UNIFORM)
        assert g == (0.0, 0.0)

    def test_matches_finite_differences(self, rng):
        params = pl.ModelParams(2.5, pl.AprioriMeasure(0.2, 0.3, 0.5))
        nu = pl.SpinDistribution(0.3, 0.3, 0.4)

        def f(n1, n2):
            return float(batch_free_energy(
                params.beta, params.alpha.array, [n1, n2, 1.0 - n1 - n2]))

        fd = fd_gradient(f, 0.3, 0.3)
        g = np.array(pl.gradient_local(params, nu))
        assert np.abs(fd - g).max() <= 1e-6 * (1.0 + np.abs(g).max())

    def test_finite_differences_random(self, rng):
        nus = random_interior(rng, 200)
        alphas = random_interior(rng, 200)
        betas = rng.uniform(0.5, 4.0, 200)
        for beta, a, n in zip(betas, alphas, nus):
            def f(n1, n2):
                return float(batch_free_energy(beta, a, [n1, n2, 1.0 - n1 - n2]))
            fd = fd_gradient(f, n[0], n[1])
            g = batch_gradient(beta, a, n)
            assert np.abs(fd - g).max() <= 1e-6 * (1.0 + np.abs(g).max())

    def test_vanishes_under_field_map(self, rng):
        nus = random_interior(rng, 500, margin=1e-3)
        betas = rng.uniform(0.2, 5.0, 500)
        for beta, n in zip(betas, nus):
            alpha = batch_catastrophe(beta, n)
            g = batch_gradient(beta, alpha, n)
            assert np.abs(g).max() <= 1e-10


class TestHessian:
    def test_doubly_degenerate_point(self):
        h = pl.hessian_local(pl.ModelParams(3.0, AUNIFORM), UNIFORM)
        assert np.abs(h).max() == pytest.approx(0.0, abs=1e-12)

    def test_direct_entries(self):
        h = pl.hessian_local(pl.ModelParams(2.0, AUNIFORM), UNIFORM)
        assert np.allclose(h, [[2.0, 1.0], [1.0, 2.0]], atol=1e-12)

    def test_matches_gradient_differences(self, rng):
        nus = random_interior(rng, 100)
        alphas = random_interior(rng, 100)
        betas = rng.uniform(0.5, 4.0, 100)
        h = 1e-6
        for beta, a, n in zip(betas, alphas, nus):
            hess = batch_hessian(beta, n)
            fd = np.empty((2, 2))
            for col, d in enumerate(((h, 0.0), (0.0, h))):
                up = [n[0] + d[0], n[1] + d[1], 1.0 - n[0] - d[0] - n[1] - d[1]]
                dn = [n[0] - d[0], n[1] - d[1], 1.0 - n[0] + d[0] - n[1] + d[1]]
                fd[:, col] = (batch_gradient(beta, a, up)
                              - batch_gradient(beta, a, dn)) / (2.0 * h)
            assert np.abs(fd - hess).max() <= 1e-5 * (1.0 + np.abs(hess).max())


class TestDegeneracy:
    def test_uniform_closed_form(self):
        # at the uniform point the expression collapses to (beta/3 - 1)^2
        for beta in (1.0, 2.5, 3.0, 4.0):
            got = pl.degeneracy_lhs(beta, UNIFORM)
            assert got == pytest.approx((beta / 3.0 - 1.0) ** 2, abs=1e-12)

    def test_hand_values(self):
        nu = pl.SpinDistribution(0.5, 0.25, 0.25)
        assert pl.degeneracy_lhs(8.0 / 3.0, nu) == pytest.approx(0.0, abs=1e-12)
        assert pl.degeneracy_lhs(4.0, nu) == pytest.approx(0.0, abs=1e-12)

    def test_equals_scaled_determinant(self, rng):
        nus = random_interior(rng, 1000, margin=1e-3)
        betas = rng.uniform(0.2, 5.0, 1000)
        h = batch_hessian(betas, nus)
        det = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] ** 2
        prod = nus[:, 0] * nus[:, 1] * nus[:, 2]
        lhs = batch_degeneracy_lhs(betas, nus)
        assert np.abs(lhs - det * prod).max() <= 1e-12


class TestCatastropheMap:
    def test_uniform_fixed_point(self):
        for beta in (0.5, 2.0, 3.7):
            alpha = pl.catastrophe_map(beta, UNIFORM)
            assert np.abs(alpha.array - 1.0 / 3.0).max() < 1e-15

    def test_direct_evaluation(self):
        nu = (0.5, 0.25, 0.25)
        raw = [v * math.exp(-3.0 * v) for v in nu]
        expected = np.array(raw) / math.fsum(raw)
        got = pl.catastrophe_map(3.0, pl.SpinDistribution(*nu))
        assert np.abs(got.array - expected).max() < 1e-14

    def test_result_interior(self, rng):
        nus = random_interior(rng, 300, margin=1e-3)
        betas = rng.uniform(0.2, 8.0, 300)
        alphas = batch_catastrophe(betas, nus)
        assert alphas.min() > 0.0
        assert np.abs(alphas.sum(axis=-1) - 1.0).max() < 1e-12


class TestStationaryValue:
    def test_uniform(self):
        for beta in (1.0, 2.5, 4.0):
            assert pl.stationary_value(beta, UNIFORM) == pytest.approx(-beta / 6.0, abs=1e-12)

    def test_four_phase_coexistence(self):
        # at 4 log 2 the corner minimizers are exactly permutations of
        # (2/3, 1/6, 1/6) and share the uniform minimizer's value
        beta = 4.0 * math.log(2.0)
        corner = pl.SpinDistribution(2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0)
        grad = batch_gradient(beta, AUNIFORM.array, corner.array)
        assert np.abs(grad).max() < 1e-12
        values = [pl.stationary_value(beta, UNIFORM)]
        for perm in pl.PERMUTATIONS:
            values.append(pl.stationary_value(beta, perm.apply(corner)))
        assert max(values) - min(values) <= 1e-8

    def test_identity_with_free_energy(self, rng):
        nus = random_interior(rng, 300, margin=1e-3)
        betas = rng.uniform(0.2, 5.0, 300)
        for beta, n in zip(betas, nus):
            alpha = batch_catastrophe(beta, n)
            direct = float(batch_free_energy(beta, alpha, n))
            assert pl.stationary_value(beta, pl.SpinDistribution.from_array(n)) == pytest.approx(direct, abs=1e-10)


def _written_out_catastrophe(beta, nu):
    """batch_catastrophe with its shifted terms written out in place."""
    b = np.asarray(beta, dtype=float)[..., None]
    n = np.asarray(nu, dtype=float)
    shift = n.min(axis=-1, keepdims=True)
    t = n * np.exp(-b * (n - shift))
    return t / t.sum(axis=-1, keepdims=True)


def _written_out_stationary_value(beta, nu):
    """batch_stationary_value with its shifted terms written out in place."""
    b = np.asarray(beta, dtype=float)
    n = np.asarray(nu, dtype=float)
    shift = n.min(axis=-1)
    lse = np.log(np.sum(n * np.exp(-b[..., None] * (n - shift[..., None])),
                        axis=-1))
    return 0.5 * b * np.sum(n * n, axis=-1) + (lse - b * shift)


class TestSharedKernelTerms:
    """The field map and the stationary value share one helper for their
    shifted terms; both equal the formulas written out, bit for bit."""

    def _assert_both_equal(self, beta, nu):
        for kernel, written in ((batch_catastrophe, _written_out_catastrophe),
                                (batch_stationary_value,
                                 _written_out_stationary_value)):
            got, want = kernel(beta, nu), written(beta, nu)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_random_rows(self, rng):
        nus = random_interior(rng, 500, margin=1e-6)
        for beta in (0.3, 2.6, 4.0 * math.log(2.0), 17.0):
            self._assert_both_equal(beta, nus)
            for n in nus[:20]:
                self._assert_both_equal(beta, n)

    def test_broadcast_betas(self, rng):
        nus = random_interior(rng, 400, margin=1e-4)
        self._assert_both_equal(rng.uniform(0.1, 40.0, 400), nus)
        self._assert_both_equal(rng.uniform(0.1, 40.0, (7, 1)), nus[:30])
        self._assert_both_equal(np.array([2.6, 3.0]), nus[:2])

    def test_large_beta_where_the_shift_matters(self, rng):
        # unshifted, the terms fall to e^{-beta nu}, down to e^{-333} at
        # beta 1e3, and all of them underflow at the uniform point at 3e3
        nus = random_interior(rng, 300, margin=1e-9)
        betas = np.geomspace(50.0, 1e3, 300)
        self._assert_both_equal(betas, nus)
        self._assert_both_equal(1e3, nus)
        self._assert_both_equal(1e3, np.array([0.8, 0.15, 0.05]))
        uniform = np.full(3, 1.0 / 3.0)
        self._assert_both_equal(3e3, uniform)
        assert batch_stationary_value(3e3, uniform) == pytest.approx(-500.0)


class TestCoordinates:
    def test_uniform_maps_to_origin(self):
        assert pl.to_xy(UNIFORM) == pl.CoordXY(0.0, 0.0)
        assert pl.to_uv(AUNIFORM) == pl.CoordUV(0.0, 0.0)
        assert pl.to_pq(AUNIFORM) == pl.CoordPQ(0.0, 0.0)

    def test_hand_values(self):
        xy = pl.to_xy(pl.SpinDistribution(0.5, 0.25, 0.25))
        assert xy.x == pytest.approx(math.sqrt(3.0) / 8.0, abs=1e-15)
        assert xy.y == pytest.approx(-0.125, abs=1e-15)
        uv = pl.to_uv(pl.AprioriMeasure(0.5, 0.25, 0.25))
        assert uv.u == pytest.approx(math.log(2.0), abs=1e-15)
        assert uv.v == pytest.approx(0.0, abs=1e-15)

    def test_triangle_vertices(self):
        # the corners of the simplex map to the triangle corners
        near = batch_xy([1.0 - 2e-9, 1e-9, 1e-9])
        assert np.abs(near - [math.sqrt(3.0) / 2.0, -0.5]).max() < 1e-8

    def test_round_trips(self, rng):
        pts = random_interior(rng, 1000, margin=1e-6)
        assert np.abs(batch_from_xy(batch_xy(pts)) - pts).max() <= 1e-12
        assert np.abs(batch_from_uv(batch_uv(pts)) - pts).max() <= 1e-12
        assert np.abs(batch_from_pq(batch_pq(pts)) - pts).max() <= 1e-12


class TestPermutations:
    def test_group_axioms(self):
        perms = pl.PERMUTATIONS
        assert len({p.indices for p in perms}) == 6
        ident = pl.Permutation.identity()
        for p in perms:
            assert p.compose(p.inverse()).indices == ident.indices
            assert p.inverse().compose(p).indices == ident.indices
            for q in perms:
                assert p.compose(q).indices in {r.indices for r in perms}

    def test_action_composition(self, rng):
        v = random_interior(rng, 1)[0]
        for p in pl.PERMUTATIONS:
            for q in pl.PERMUTATIONS:
                via_compose = p.compose(q).apply(v)
                sequential = p.apply(q.apply(v))
                assert np.abs(via_compose - sequential).max() == 0.0

    def test_typed_action(self):
        nu = pl.SpinDistribution(0.5, 0.3, 0.2)
        swapped = pl.apply_permutation(pl.Permutation((1, 0, 2)), nu)
        assert isinstance(swapped, pl.SpinDistribution)
        assert swapped.v1 == 0.3 and swapped.v2 == 0.5 and swapped.v3 == 0.2

    def test_field_map_equivariance(self, rng):
        nus = random_interior(rng, 50)
        for perm in pl.PERMUTATIONS:
            a = batch_catastrophe(2.9, perm.apply(nus))
            b = perm.apply(batch_catastrophe(2.9, nus))
            assert np.abs(a - b).max() < 1e-14
