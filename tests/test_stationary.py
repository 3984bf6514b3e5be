import math
import os
import subprocess
import sys

import numpy as np
import pytest

import potts_landscape as pl
from potts_landscape import rootfind, stationary
from potts_landscape.maxwell import segment_upper_endpoint_y
from potts_landscape.model import (batch_catastrophe, batch_degeneracy_lhs,
                                   batch_gradient, hessian_eigenvalues)
from potts_landscape.stationary import (PointKind, barycentric_grid,
                                        stationary_points_from_seeds)

from conftest import random_interior

AUNIFORM = pl.AprioriMeasure.uniform()


def classify(beta, nu):
    """(eig_lo, eig_hi, PointKind) for one simplex point."""
    lo, hi = map(float, hessian_eigenvalues(beta, np.asarray(nu, float)))
    return lo, hi, stationary._kind(lo, hi)


def kinds(points):
    out = {k: 0 for k in PointKind}
    for p in points:
        out[p.kind] += 1
    return out


class TestFindStationaryPoints:
    def test_high_temperature_single_minimum(self):
        points = pl.find_stationary_points(pl.ModelParams(1.5, AUNIFORM))
        assert len(points) == 1
        assert points[0].kind is PointKind.MINIMUM
        assert np.abs(points[0].nu.array - 1.0 / 3.0).max() < 1e-8

    def test_four_phase_structure(self):
        beta = 4.0 * math.log(2.0)
        points = pl.find_stationary_points(pl.ModelParams(beta, AUNIFORM))
        count = kinds(points)
        assert count[PointKind.MINIMUM] == 4
        assert count[PointKind.SADDLE] == 3
        values = [p.value for p in points if p.kind is PointKind.MINIMUM]
        assert max(values) - min(values) <= 1e-8

    def test_low_temperature_structure(self):
        points = pl.find_stationary_points(pl.ModelParams(3.5, AUNIFORM))
        count = kinds(points)
        assert count[PointKind.MINIMUM] == 3
        assert count[PointKind.SADDLE] == 3
        assert count[PointKind.MAXIMUM] == 1
        peak = next(p for p in points if p.kind is PointKind.MAXIMUM)
        assert np.abs(peak.nu.array - 1.0 / 3.0).max() < 1e-9

    def test_gradient_residual_invariant(self, rng):
        for beta in (1.7, 2.75, 3.4):
            points = pl.find_stationary_points(pl.ModelParams(beta, AUNIFORM))
            for p in points:
                g = batch_gradient(beta, AUNIFORM.array, p.nu.array)
                assert np.linalg.norm(g) <= 1e-10


class TestCensus:
    def test_inside_cusp_two_minima(self):
        # a field inside one of the three cusp regions, built from the
        # on-axis cusp endpoint and pushed a bit further from the centre
        beta = 2.2
        y = segment_upper_endpoint_y(beta) - 0.015
        alpha = pl.alpha_from_xy(pl.CoordXY(0.0, y))
        cens = pl.census(pl.ModelParams(beta, alpha))
        assert cens.n_local_minima == 2

    def test_outside_cusp_one_minimum(self):
        beta = 2.2
        alpha = pl.alpha_from_xy(pl.CoordXY(0.0, 0.2))
        assert pl.census(pl.ModelParams(beta, alpha)).n_local_minima == 1

    def test_zero_field_regimes(self):
        assert pl.census(pl.ModelParams(2.75, AUNIFORM)).n_local_minima == 4
        assert pl.census(pl.ModelParams(2.62, AUNIFORM)).n_local_minima == 1

    def test_four_phase_point_exact(self):
        """At zero field and beta = 4 log 2 the global minimizers are the
        centroid and the permutations of (2/3, 1/6, 1/6) (Ellis & Wang
        1990), each within 1e-15."""
        census = pl.census(pl.ModelParams(pl.BETA_ELLIS_WANG, AUNIFORM))
        exact = [np.full(3, 1.0 / 3.0)] + [
            np.roll([2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0], i) for i in range(3)]
        assert len(census.global_minimizers) == len(exact)
        for nu in exact:
            _, dist = _nearest(census.global_minimizers, nu)
            assert dist <= 1e-15, (nu.tolist(), dist)

    def test_degenerate_flagged_at_umbilic(self):
        cens = pl.census(pl.ModelParams(3.0, AUNIFORM))
        assert cens.degenerate_warning
        assert cens.n_local_minima == 3
        degen = [p for p in cens.points if p.kind is PointKind.DEGENERATE]
        assert len(degen) == 1
        assert np.abs(degen[0].nu.array - 1.0 / 3.0).max() < 1e-9

    def test_equivariance(self, rng):
        alphas = random_interior(rng, 10, margin=0.05)
        betas = rng.uniform(2.1, 3.5, 10)
        for beta, a in zip(betas, alphas):
            base = pl.census(pl.ModelParams(beta, pl.AprioriMeasure.from_array(a)))
            base_minima = np.array(sorted(
                map(tuple, (p.nu.array for p in base.points
                            if p.kind is PointKind.MINIMUM))))
            for perm in pl.PERMUTATIONS:
                other = pl.census(
                    pl.ModelParams(beta, pl.AprioriMeasure.from_array(perm.apply(a))))
                assert other.n_local_minima == base.n_local_minima
                other_minima = np.array(sorted(
                    map(tuple, (p.nu.array for p in other.points
                                if p.kind is PointKind.MINIMUM))))
                mapped = np.array(sorted(map(tuple, perm.apply(base_minima))))
                assert np.abs(other_minima - mapped).max() <= 1e-8


class TestMorseIndex:
    def test_alternating_sum_is_one(self, rng):
        checked = 0
        while checked < 50:
            beta = float(rng.uniform(0.5, 4.0))
            alpha = pl.AprioriMeasure.from_array(random_interior(rng, 1, 0.03)[0])
            points = pl.find_stationary_points(pl.ModelParams(beta, alpha))
            if any(p.kind is PointKind.DEGENERATE for p in points):
                continue
            count = kinds(points)
            assert (count[PointKind.MINIMUM] - count[PointKind.SADDLE]
                    + count[PointKind.MAXIMUM]) == 1, (beta, alpha)
            checked += 1


class TestBruteForce:
    def test_high_temperature(self):
        nu = pl.brute_force_global_min(pl.ModelParams(1.5, AUNIFORM), 200)
        assert np.abs(nu.array - 1.0 / 3.0).max() <= 1e-6

    def test_tilted_field_ordering(self):
        alpha = pl.AprioriMeasure(0.4, 0.3, 0.3)
        nu = pl.brute_force_global_min(pl.ModelParams(3.5, alpha), 200)
        assert nu.v1 > nu.v2 and nu.v1 > nu.v3

    def test_corner_minimum_below_centre(self):
        # beyond the four-phase temperature the outer minima win
        params = pl.ModelParams(2.9, AUNIFORM)
        nu = pl.brute_force_global_min(params, 200)
        assert np.abs(nu.array - 1.0 / 3.0).max() > 0.2
        centre_value = pl.free_energy(params, pl.SpinDistribution.uniform())
        assert pl.free_energy(params, nu) < centre_value - 1e-4

    def test_grid_density_validated(self):
        with pytest.raises(pl.DomainError):
            pl.brute_force_global_min(pl.ModelParams(2.0, AUNIFORM), 50)

    def test_matches_census_global_minimizers(self, rng):
        hits = 0
        for _ in range(100):
            beta = float(rng.uniform(0.8, 3.8))
            alpha = pl.AprioriMeasure.from_array(random_interior(rng, 1, 0.03)[0])
            params = pl.ModelParams(beta, alpha)
            brute = pl.brute_force_global_min(params, 120)
            cens = pl.census(params)
            dists = [np.abs(g.nu.array - brute.array).max()
                     for g in cens.global_minimizers]
            assert min(dists) <= 1e-5
            hits += 1
        assert hits == 100

    def test_tilting_ordering(self, rng):
        # strict field ordering forces the same ordering on the minimizer
        done = 0
        while done < 200:
            a = random_interior(rng, 1, 0.02)[0]
            if min(abs(a[0] - a[1]), abs(a[1] - a[2]), abs(a[0] - a[2])) < 0.02:
                continue
            beta = float(rng.uniform(0.5, 4.0))
            order = np.argsort(a)
            nu = pl.brute_force_global_min(
                pl.ModelParams(beta, pl.AprioriMeasure.from_array(a)), 120)
            assert (np.argsort(nu.array) == order).all(), (beta, a, nu)
            done += 1


class TestSeedGrid:
    def test_contains_centroid_and_corner_margins(self):
        grid = barycentric_grid(16)
        assert np.abs(grid - 1.0 / 3.0).max(axis=1).min() < 1e-12
        assert grid.min() >= 1e-3 - 1e-15
        assert np.abs(grid.sum(axis=1) - 1.0).max() < 1e-12


def _nearest(points, nu):
    """Index of and max-norm distance to the census point nearest to nu."""
    dist = np.array([np.abs(p.nu.array - nu).max() for p in points])
    return int(np.argmin(dist)), float(dist.min())


def _near_fold(rng, beta, target):
    """An interior point (margin 0.02) with |degeneracy lhs| = target, by
    bisection along a segment whose ends have opposite lhs signs."""
    while True:
        a, b = random_interior(rng, 2, margin=0.02)
        la, lb = batch_degeneracy_lhs(beta, a), batch_degeneracy_lhs(beta, b)
        if la * lb < 0.0:
            break
    goal = math.copysign(target, la)
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (batch_degeneracy_lhs(beta, (1 - mid) * a + mid * b) - goal) * la > 0:
            lo = mid
        else:
            hi = mid
    return (1 - lo) * a + lo * b


def _axis_roots(beta):
    """Roots m != 1/3 of the Ellis-Wang axis function along nu = (m, m,
    1 - 2m), by a dense sign scan and bisection."""
    def g(m):
        return np.log(m) - np.log(1.0 - 2.0 * m) + beta * (1.0 - 3.0 * m)
    ends = np.geomspace(1e-13, 1e-2, 400)
    m = np.unique(np.concatenate([ends, np.linspace(1e-2, 0.49, 20001),
                                  0.5 - ends]))
    gm = g(m)
    k = np.flatnonzero(gm[:-1] * gm[1:] < 0.0)
    lo, hi = m[k], m[k + 1]
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        left = np.sign(g(mid)) == np.sign(g(lo))
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    roots = np.concatenate([0.5 * (lo + hi), m[gm == 0.0]])
    return roots[np.abs(roots - 1.0 / 3.0) > 1e-9]


class TestCompleteness:
    """The census against methods that do not share its search."""

    def test_planted_points_found(self, rng):
        cases = [(float(rng.uniform(0.5, 4.0)),
                  random_interior(rng, 1, margin=0.02)[0]) for _ in range(60)]
        for target in (1e-2, 1e-4):
            for _ in range(30):
                beta = float(rng.uniform(2.2, 4.0))
                cases.append((beta, _near_fold(rng, beta, target)))
        for beta, nu0 in cases:
            alpha = pl.AprioriMeasure.from_array(batch_catastrophe(beta, nu0))
            points = pl.census(pl.ModelParams(beta, alpha)).points
            j, dist = _nearest(points, nu0)
            assert dist <= 1e-8, (beta, nu0.tolist(), dist)
            assert points[j].kind is classify(beta, nu0)[2], (beta, nu0)

    @pytest.mark.parametrize("beta", [1.5, 18 / 7, 2.62, 2.75, 3.0,
                                      4 * math.log(2), 3.5, 6.0])
    def test_zero_field_exact_set(self, beta):
        exact = [np.full(3, 1.0 / 3.0)]
        for m in _axis_roots(beta):
            for axis in range(3):
                nu = np.full(3, m)
                nu[axis] = 1.0 - 2.0 * m
                exact.append(nu)
        points = pl.census(pl.ModelParams(beta, AUNIFORM)).points
        assert len(points) == len(exact)
        for nu in exact:
            j, dist = _nearest(points, nu)
            assert dist <= 1e-9, (beta, nu.tolist(), dist)
            assert points[j].kind is classify(beta, nu)[2]

    def _agrees_with_lattice(self, beta, a):
        points = pl.find_stationary_points(
            pl.ModelParams(beta, pl.AprioriMeasure.from_array(a)))
        for p in points:
            g = batch_gradient(beta, a, p.nu.array)
            assert np.linalg.norm(g) <= 1e-10
        for q in stationary_points_from_seeds(beta, a, barycentric_grid(64)):
            j, dist = _nearest(points, q.nu.array)
            assert dist <= 1e-7, (beta, a.tolist(), q)
            assert points[j].kind is q.kind, (beta, a.tolist(), q)

    def test_lattice_agreement_random(self, rng):
        for _ in range(50):
            self._agrees_with_lattice(float(rng.uniform(0.5, 4.0)),
                                      random_interior(rng, 1, 0.03)[0])

    @pytest.mark.parametrize("eps", [0.0, 1e-9, 1e-6, 1e-3])
    def test_lattice_agreement_ties(self, rng, eps):
        for _ in range(5):
            beta = float(rng.uniform(2.0, 4.0))
            a2 = float(rng.uniform(0.05, 0.45))
            a = np.array([a2 * (1.0 + eps), a2, 1.0 - a2 * (2.0 + eps)])
            self._agrees_with_lattice(beta, a)


def _midpoint_newton(fun, lo, hi, end_lo, end_hi, settled=None):
    """The census's former bracket refinement, kept as an oracle: Newton
    steps on the first two rows of ``fun`` from each bracket's midpoint,
    taken while they stay inside the shrinking bracket and at least halve
    the previous step, bisection otherwise (``rtsafe``).  It ignores
    ``settled``: every round refines to rounding, the stricter reference."""
    eps = 4.0 * np.finfo(float).eps
    x, step = 0.5 * (lo + hi), hi - lo
    for _ in range(100):
        f, df = fun(x)[:2]
        left = np.sign(f) == np.sign(end_lo[0])
        lo, hi = np.where(left, x, lo), np.where(left, hi, x)
        done = (np.abs(f) <= eps * np.abs(x * df)) | (hi - lo <= eps * x)
        if np.all(done):
            break
        newton = x - f / df
        ok = ((lo <= newton) & (newton <= hi)
              & (2.0 * np.abs(f) <= np.abs(step * df)))
        new = np.where(done, x, np.where(ok, newton, 0.5 * (lo + hi)))
        step, x = np.abs(new - x), new
    return x


def _census_or_error(beta, a):
    try:
        return pl.census(
            pl.ModelParams(beta, pl.AprioriMeasure.from_array(a)))
    except pl.NumericalError as exc:
        return str(exc)


class TestRefinement:
    """Work and agreement of the Hermite-started Halley refinement."""

    @staticmethod
    def _sweep(rng):
        """100 fields drawn like the benchmark's census sweep (beta in
        [2, 4], field margin 0.03), near ties, where the iterates stall at
        rounding noise next to nearly meeting branches, then the zero-field
        pins."""
        cases = [(float(rng.uniform(2.0, 4.0)), a)
                 for a in random_interior(rng, 100, margin=0.03)]
        cases += [(beta, np.array([a2 + a2 * 1e-6, a2, 1.0 - 2.0 * a2
                                   - a2 * 1e-6]))
                  for beta in (1.5, 3.0) for a2 in (0.3, 0.35, 0.4, 0.45)]
        return cases + [(beta, AUNIFORM.array) for beta in
                        (1.5, pl.BETA_ELLIS_WANG, pl.BETA_UMBILIC)]

    @staticmethod
    def _counted(monkeypatch):
        """Count ``_branch_values`` calls: in all, and for each census (one
        ``_reduced_roots`` call) the ``_bracketed_halley`` calls it makes, as
        (evaluations, orders of the first one); ``_per_round`` sorts them
        by round."""
        calls, orders, censuses = [0], [], []
        branch_values = stationary._branch_values
        refine = stationary._bracketed_halley
        reduced_roots = stationary._reduced_roots

        def counted(*args):
            calls[0] += 1
            orders.append(args[4])
            return branch_values(*args)

        def round_counted(*args):
            before = calls[0]
            out = refine(*args)
            censuses[-1].append((calls[0] - before, orders[before]))
            return out

        def census_counted(*args):
            censuses.append([])
            return reduced_roots(*args)

        monkeypatch.setattr(stationary, "_branch_values", counted)
        monkeypatch.setattr(stationary, "_bracketed_halley", round_counted)
        monkeypatch.setattr(stationary, "_reduced_roots", census_counted)
        return calls, censuses

    @staticmethod
    def _per_round(census):
        """The evaluations of one census in each of its three rounds, 0 in
        an empty round, which makes no ``_bracketed_halley`` call.  The
        first call is the first round, as the other two refine next to the
        split points it finds; after it, the F' round evaluates F''' (orders
        4) and the F round does not (orders 3).  Each round runs once."""
        kinds = [0] + [5 - o for _, o in census[1:]]
        assert kinds == sorted(set(kinds)) and set(kinds) <= {0, 1, 2}, census
        rounds = [0, 0, 0]
        for kind, (evals, _) in zip(kinds, census):
            rounds[kind] = evals
        return rounds

    def test_work_per_census(self, rng, monkeypatch):
        calls, censuses = self._counted(monkeypatch)
        cases = self._sweep(rng)
        for beta, a in cases:
            pl.census(pl.ModelParams(beta, pl.AprioriMeasure.from_array(a)))
        assert len(censuses) == len(cases)
        assert calls[0] / len(cases) <= 2.4
        rounds = np.array([self._per_round(c) for c in censuses])
        assert rounds.max() <= 12
        # rounds run: the F'' zeros, the F' zeros and the F roots in the
        # cells without a split point; the F' zeros in the cells the F''
        # zeros split; the F roots next to split points.  A split point
        # mostly settles where it starts and an F root mostly ends on its
        # first correction, so the first round takes about one evaluation
        # and the others are mostly empty
        mean = rounds.mean(axis=0)
        assert mean[0] <= 1.3, mean
        assert mean[1] <= 0.1, mean
        assert mean[2] <= 0.2, mean
        # at zero field the F'' and F' brackets next to the branch point
        # t = 1/beta are jumps, not zeros, and are skipped: refined, they
        # would bisect towards the jump
        zero_field = rounds[-3:]
        assert zero_field.max() <= 7, zero_field
        assert zero_field[:, 1:].max() == 0, zero_field

    def test_work_per_round_in_a_batch(self, rng, monkeypatch):
        """A batch runs each round once for all its fields, and a round
        costs what its slowest bracket costs alone."""
        sweep = self._sweep(rng)
        fields = [pl.AprioriMeasure.from_array(a)
                  for _, a in sweep[:12] + sweep[100:108]]
        calls, censuses = self._counted(monkeypatch)
        betas = (1.5, 2.6, 3.0, pl.BETA_ELLIS_WANG, 3.9)
        for beta in betas:
            assert len(pl.censuses(beta, fields)) == 20
        assert len(censuses) == len(betas)
        rounds = np.array([self._per_round(c) for c in censuses])
        assert rounds.max() <= 12, rounds

    def test_agrees_with_midpoint_newton(self, monkeypatch):
        rng = np.random.default_rng(7)
        special = (pl.BETA_BUTTERFLY, pl.BETA_ELLIS_WANG, pl.BETA_UMBILIC,
                   2.745)
        cases = []
        for i in range(1000):
            beta = (special[i % 4] if i % 3 == 0
                    else float(rng.uniform(0.5, 6.0)))
            if i % 4 == 0:
                a = random_interior(rng, 1, margin=0.03)[0]
            elif i % 4 == 1:  # exact and near ties, in every position
                a2 = float(rng.uniform(0.05, 0.45))
                eps = (0.0, 1e-9, 1e-6)[i % 3]
                a = rng.permutation([a2 * (1.0 + eps), a2,
                                     1.0 - a2 * (2.0 + eps)])
            elif i % 4 == 2:  # next to an edge
                a = rng.dirichlet((1.0, 1.0, 1.0))
                a[i % 3] = 10.0 ** rng.uniform(-6.0, -2.0)
                a /= a.sum()
            elif i % 20 == 3:
                a = AUNIFORM.array
            else:
                a = random_interior(rng, 1, margin=0.005)[0]
            cases.append((beta, a))
        new = [_census_or_error(beta, a) for beta, a in cases]
        monkeypatch.setattr(stationary, "_bracketed_halley", _midpoint_newton)
        for (beta, a), got in zip(cases, new):
            want = _census_or_error(beta, a)
            if isinstance(want, str) or isinstance(got, str):
                assert got == want, (beta, a.tolist())
                continue
            case = (beta, a.tolist())
            assert [p.kind for p in got.points] == [
                p.kind for p in want.points], case
            assert got.n_local_minima == want.n_local_minima, case
            for mine, theirs in ((got.points, want.points),
                                 (got.global_minimizers,
                                  want.global_minimizers)):
                assert len(mine) == len(theirs), case
                for p, q in zip(mine, theirs):
                    assert np.abs(p.nu.array - q.nu.array).max() <= 1e-12, case

    def test_finished_roots_carry_their_branch_values(self, rng,
                                                      monkeypatch):
        """A root of F that ends on its Halley correction takes the branch
        values of the evaluation before it, carried there by Taylor: on
        every pair they agree with a fresh evaluation at the root within 4
        rounding units (``rootfind._EPS`` each, 16 eps in all; uncarried,
        they would be off by up to 1e10 eps), and at a tie the own root
        is the root itself, bit for bit."""
        scan, carried = stationary._scan, stationary._carried
        last, seen = [], {"roots": 0, "own": 0}

        def scanned(*args):
            last[:] = args
            return scan(*args)

        def carry(xs, d):
            out = carried(xs, d)
            beta, log_r, t = last[:3]  # the evaluation xs comes from
            moved = d != 0.0
            root = t + d
            fresh = scan(beta, log_r, root, 3)[1][0]
            bound = 4.0 * rootfind._EPS * np.abs(fresh)
            assert (np.abs(out - fresh) <= bound)[..., moved].all(), beta
            own = (fresh == root) & moved
            assert out[own].tobytes() == fresh[own].tobytes(), beta
            seen["roots"] += int(moved.sum())
            seen["own"] += int(own.sum())
            return out

        monkeypatch.setattr(stationary, "_scan", scanned)
        monkeypatch.setattr(stationary, "_carried", carry)
        cases = self._sweep(rng)
        for i in range(120):
            beta = float(rng.uniform(0.5, 6.0))
            if i % 2 == 0:  # exact and near ties, in every position
                a2 = float(rng.uniform(0.05, 0.45))
                eps = (0.0, 0.0, 1e-12, 1e-9, 1e-6)[i % 5]
                a = rng.permutation([a2 * (1.0 + eps), a2,
                                     1.0 - a2 * (2.0 + eps)])
            else:  # next to an edge
                a = rng.dirichlet((1.0, 1.0, 1.0))
                a[i % 3] = 10.0 ** rng.uniform(-6.0, -2.0)
                a /= a.sum()
            cases.append((beta, a))
        # ties with a root at t = 1/beta, where the own root changes branch
        for beta in (3.5, 4.2, 5.0):
            nu = np.array([1.0, 1.0, beta - 2.0]) / beta
            cases.append((beta, batch_catastrophe(beta, nu)))
        for beta, a in cases:
            _census_or_error(beta, a)
        assert seen["roots"] >= len(cases), seen
        assert seen["own"] >= 10, seen

    def test_settled_splits_keep_the_cusp_censuses(self, monkeypatch):
        """At the A3 point ending a ``fold`` coexistence curve, F, F' and
        F'' vanish together: the split rounds must refine there as if no
        split point were ever settled early, bit for bit."""
        fields = []
        for k in range(1, 10):
            curve = pl.coexistence_curve(pl.BETA_BUTTERFLY + k * 1e-2)
            assert curve.status == "fold", k
            fields.append((curve.beta, curve.points[-1].alpha))

        def outcome():
            return [[(p.nu.array.tobytes(), p.kind) for p in points]
                    for c in (pl.census(pl.ModelParams(beta, alpha))
                              for beta, alpha in fields)
                    for points in (c.points, c.global_minimizers)]
        settled = outcome()
        monkeypatch.setattr(stationary, "_SPLIT_TOL", 0.0)
        assert settled == outcome()

    def test_branch_values_scalar_form(self):
        """maxwell's call with a Python float, bool and tie gives the bits
        of the array form, element by element."""
        beta = 2.6
        s = np.array([1e-3, 0.1, 0.2, 1.0 / beta - 1e-9, 0.38])
        log_r = np.array([0.0, 0.0, -0.3, -1.0, -2.0])
        with np.errstate(divide="ignore", invalid="ignore"):
            for upper in (True, False):
                array = stationary._branch_values(
                    beta, log_r, s, np.full(s.shape, upper), 2)
                scalar = stationary._branch_values(beta, 0.0, s, upper, 2)
                assert scalar[:, :2].tobytes() == array[:, :2].tobytes()
                for i, si in enumerate(s.tolist()):
                    one = stationary._branch_values(beta, float(log_r[i]),
                                                    si, upper, 2)
                    assert one.tobytes() == array[:, i].tobytes(), (upper, i)

    def test_lambert_log_accuracy(self):
        """Against a Newton solve in extended precision, with
        ``expm1(eta) - eta`` summed as a series where it cancels."""
        if np.finfo(np.longdouble).eps > 1e-18:
            pytest.skip("no extended precision")
        d = np.concatenate([np.geomspace(1e-20, 1e-3, 300),
                            np.linspace(1e-3, 3.0, 3000),
                            np.geomspace(3.0, 1e4, 500)])
        for upper in (False, True):
            with np.errstate(invalid="ignore"):  # unused series where d > 1
                eta = stationary._lambert_log(d, np.full(d.shape, upper))
            ref = eta.astype(np.longdouble)
            for _ in range(4):
                small = np.where(np.abs(ref) < 0.5, ref, 0.0)
                term, series = small * small / 2, small * small / 2
                for k in range(3, 26):
                    term = term * small / k
                    series = series + term
                g = np.where(np.abs(ref) < 0.5, series, np.expm1(ref) - ref)
                ref = ref - (g - d) / np.expm1(ref)
            assert np.all(np.abs(eta - ref) <= 1e-14 * np.abs(ref)), upper

    @staticmethod
    def _cubic_roots(c, lo, hi, d_lo=None, d_hi=None):
        """Roots of x^3 - c in [lo, hi] by ``_bracketed_halley``, in Newton
        mode, from the true end slopes unless others are given."""
        def fun(x):
            return x ** 3 - c, 3.0 * x * x
        return stationary._bracketed_halley(
            fun, lo, hi, (lo ** 3 - c, 3.0 * lo * lo if d_lo is None else d_lo),
            (hi ** 3 - c, 3.0 * hi * hi if d_hi is None else d_hi))

    def test_halley_roots_independent_of_batch(self):
        # wide, narrow and ill-scaled brackets
        c = np.array([0.3, 2.0, 1e-9, 0.7, 7.0, 0.125])
        lo = np.array([0.0, 1.0, 0.0, 0.5, 1.5, 0.5])
        hi = np.array([1.0, 1.3, 0.01, 1.0, 2.0, 0.75])
        together = self._cubic_roots(c, lo, hi)
        for i in range(len(c)):
            alone = self._cubic_roots(c[i:i + 1], lo[i:i + 1], hi[i:i + 1])
            assert alone.tobytes() == together[i:i + 1].tobytes(), i
        flip = self._cubic_roots(c[::-1], lo[::-1], hi[::-1])
        assert flip[::-1].tobytes() == together.tobytes()
        assert np.all(np.abs(together ** 3 - c) <= 1e-15 * np.maximum(c, 1.0))

    @pytest.mark.parametrize("slope", [0.0, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("end", ["lo", "hi"])
    def test_halley_converges_from_singular_end_slope(self, slope, end):
        """An end slope of 0 or a non-finite one, as at a branch point,
        only spoils the Hermite start; the bracket still converges."""
        c = np.array([0.3, 0.001, 0.9])
        lo, hi = np.zeros(3), np.ones(3)
        want = self._cubic_roots(c, lo, hi)
        bad = np.full(3, slope)
        with np.errstate(invalid="ignore"):  # inf - inf in the start
            got = self._cubic_roots(c, lo, hi, *((bad, None) if end == "lo"
                                                 else (None, bad)))
        assert np.all(np.abs(got - want) <= 4e-16 * want)
        assert np.all(np.abs(got ** 3 - c) <= 1e-15)


class TestOutsideInterior:
    """Stationary points closer to the boundary than a SpinDistribution
    can hold make the census fail instead of coming back incomplete."""

    def test_zero_field_high_beta(self):
        # the three corner minima have components near e^-30
        with pytest.raises(pl.NumericalError,
                           match=r"^3 stationary point\(s\).*component "
                                 r"9\.\d+e-14 < 1e-12$"):
            pl.census(pl.ModelParams(30.0, AUNIFORM))

    @pytest.mark.parametrize("beta", [35.0, 40.0, 50.0])
    def test_zero_field_minima_below_resolution(self, beta):
        # 1 - nu_k of the corner minima is below double resolution, so no
        # bracket holds them; a census of saddles and a maximum alone
        # would report zero minima
        with pytest.raises(pl.NumericalError, match="no local minimum"):
            pl.census(pl.ModelParams(beta, AUNIFORM))

    @pytest.mark.parametrize("beta", [0.5, 2.0, 30.0])
    def test_field_on_the_margin(self, beta):
        alpha = pl.AprioriMeasure(0.5, 0.5 - 1e-12, 1e-12)
        with pytest.raises(pl.NumericalError, match="smallest component"):
            pl.census(pl.ModelParams(beta, alpha))


def _bits(result):
    """Everything a census holds, as bytes and enum members, so that equal
    means bit for bit; an error as its type and message."""
    if isinstance(result, Exception):
        return type(result), str(result)
    numbers = [x for p in result.points
               for x in (*p.nu.array, *p.hess_eigenvalues, p.value)]
    numbers += [x for p in result.global_minimizers for x in p.nu.array]
    return (np.array(numbers).tobytes(), [p.kind for p in result.points],
            result.n_local_minima, len(result.global_minimizers),
            result.degenerate_warning, result.params)


class TestBatch:
    """``censuses`` solves many fields at one beta together; each result is
    the one ``census`` gives for its field alone."""

    @staticmethod
    def _fields(rng, n):
        """Random fields, exact and near ties in every position, zero field,
        fields next to an edge and one on the interior margin, which fails
        at every beta."""
        out = [pl.AprioriMeasure(0.5, 0.5 - 1e-12, 1e-12)]
        for i in range(n - 1):
            if i % 5 == 0:
                a = random_interior(rng, 1, margin=0.03)[0]
            elif i % 5 == 1:
                a2 = float(rng.uniform(0.05, 0.45))
                eps = (0.0, 1e-12, 1e-9, 1e-6)[i % 4]
                a = rng.permutation([a2 * (1.0 + eps), a2,
                                     1.0 - a2 * (2.0 + eps)])
            elif i % 5 == 2:
                a = rng.dirichlet((1.0, 1.0, 1.0))
                a[i % 3] = 10.0 ** rng.uniform(-11.5, -2.0)
                a /= a.sum()
            elif i % 10 == 3:
                a = AUNIFORM.array
            else:
                a = random_interior(rng, 1, margin=0.005)[0]
            out.append(pl.AprioriMeasure.from_array(a))
        return list(rng.permutation(np.array(out, dtype=object)))

    def test_each_field_as_alone(self):
        rng = np.random.default_rng(9)
        betas = [pl.BETA_BUTTERFLY, pl.BETA_ELLIS_WANG, 3.0, 0.5, 6.0]
        betas += rng.uniform(0.5, 6.0, 7).tolist()
        failures = 0
        for beta in betas:
            fields = self._fields(rng, 90)
            batch = stationary._census_batch(
                [pl.ModelParams(beta, a) for a in fields], pl.DEFAULT_TOL)
            assert len(batch) == len(fields)
            for a, got in zip(fields, batch):
                want = _census_or_error(beta, a.array)
                if isinstance(want, str):
                    failures += 1
                    assert isinstance(got, pl.NumericalError), (beta, a)
                    assert str(got) == want, (beta, a)
                else:
                    assert _bits(got) == _bits(want), (beta, a)
            errors = [r for r in batch if isinstance(r, Exception)]
            with pytest.raises(pl.NumericalError) as caught:
                pl.censuses(beta, fields)
            assert str(caught.value) == str(errors[0])
        assert failures >= len(betas)

    def test_errors_in_input_order(self):
        fine = pl.AprioriMeasure(0.5, 0.3, 0.2)
        bad = [pl.AprioriMeasure(0.5, 0.5 - 1e-12, 1e-12),
               pl.AprioriMeasure(1e-12, 0.3, 0.7 - 1e-12)]
        alone = [_census_or_error(2.0, a.array) for a in bad]
        assert all(isinstance(e, str) for e in alone) and len(set(alone)) == 2
        for first, second in ((0, 1), (1, 0)):
            with pytest.raises(pl.NumericalError) as caught:
                pl.censuses(2.0, [fine, bad[first], fine, bad[second]])
            assert str(caught.value) == alone[first]

    def test_empty_and_single(self):
        assert pl.censuses(2.6, []) == ()
        params = pl.ModelParams(2.6, pl.AprioriMeasure(0.2, 0.3, 0.5))
        (got,) = pl.censuses(2.6, [params.alpha])
        assert _bits(got) == _bits(pl.census(params))
        with pytest.raises(pl.DomainError):
            pl.censuses(0.0, [params.alpha])


def test_census_leaves_numpy_ma_unimported():
    """The census finds its distinct samples without ``np.unique``, whose
    first call imports ``numpy.ma``."""
    code = ("import sys; import potts_landscape as pl; "
            "pl.census(pl.ModelParams(2.6, pl.AprioriMeasure(0.5, 0.3, 0.2)));"
            " print('numpy.ma' in sys.modules)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(pl.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"
