import math

import numpy as np
import pytest

import potts_landscape as pl
from potts_landscape.critical import (_crossing_shape_derivative,
                                      _touch_gap_derivative,
                                      crossing_shape_function, fold_centre_p,
                                      touch_gap_function, triangle_vertex_p)
import potts_landscape.critical as critical
import potts_landscape.maxwell as mw
from potts_landscape.model import batch_free_energy
from potts_landscape.rootfind import (_bracketed_halley, _bracketed_newton,
                                      bracketed_root)

AUNIFORM = pl.AprioriMeasure.uniform()


def axis_potential(beta, t):
    """Zero-field free energy along the symmetry axis toward a corner."""
    nu = np.array([1.0 + 2.0 * t, 1.0 - t, 1.0 - t]) / 3.0
    return float(batch_free_energy(beta, AUNIFORM.array, nu))


class TestBetaCross:
    def test_value(self):
        assert pl.beta_cross() == pytest.approx(2.74564, abs=1e-4)

    def test_shape_root(self):
        # invert the defining relation (1+2s)(1-s) = 3/beta, root > 1/4
        beta = pl.beta_cross()
        s = (1.0 + math.sqrt(9.0 - 24.0 / beta)) / 4.0
        assert s == pytest.approx(0.3772, abs=1e-3)
        assert abs(crossing_shape_function(s)) < 1e-10

    def test_outer_extrema_annihilate(self):
        # at the crossing temperature the axis potential has vanishing
        # first and second derivative at the shape root
        beta = pl.beta_cross()
        s = (1.0 + math.sqrt(9.0 - 24.0 / beta)) / 4.0
        h = 1e-4
        d1 = (axis_potential(beta, s + h) - axis_potential(beta, s - h)) / (2 * h)
        d2 = (axis_potential(beta, s + h) - 2 * axis_potential(beta, s)
              + axis_potential(beta, s - h)) / h ** 2
        assert abs(d1) <= 1e-8
        assert abs(d2) <= 1e-6

    def test_shape_function_vanishes_to_rounding_at_the_root(self):
        s = bracketed_root(lambda x: (crossing_shape_function(x),
                                      _crossing_shape_derivative(x)),
                           0.25, 1 - 1e-9)
        assert abs(crossing_shape_function(s)) <= 4e-16
        assert pl.beta_cross() == 3.0 / ((1.0 + 2.0 * s) * (1.0 - s))

    def test_census_jump_across(self):
        beta = pl.beta_cross()
        below = pl.census(pl.ModelParams(beta - 1e-3, AUNIFORM))
        above = pl.census(pl.ModelParams(beta + 1e-3, AUNIFORM))
        assert below.n_local_minima == 1
        assert above.n_local_minima == 4


class TestBetaTouch:
    def test_value(self):
        assert pl.beta_touch() == pytest.approx(2.8024, abs=1e-3)

    def test_endpoint_values(self):
        assert touch_gap_function(8.0 / 3.0) == pytest.approx(1.0 - math.log(3.0), abs=1e-12)
        assert touch_gap_function(3.0) == pytest.approx(1.5 - math.log(4.0), abs=1e-12)

    @pytest.mark.parametrize("x", [2.7, 2.8024, 2.9])
    def test_slope_matches_central_differences(self, x):
        h = 1e-6
        central = (touch_gap_function(x + h)
                   - touch_gap_function(x - h)) / (2 * h)
        assert _touch_gap_derivative(x) == pytest.approx(central, rel=1e-8)

    def test_vertex_meets_fold_line(self):
        beta = pl.beta_touch()
        assert abs(triangle_vertex_p(beta) - fold_centre_p(beta)) <= 1e-8


class TestAllCriticalTemps:
    def test_exact_constants(self):
        temps = pl.all_critical_temps()
        assert temps.butterfly == 18.0 / 7.0
        assert temps.umbilic == 3.0
        assert temps.ellis_wang == 4.0 * math.log(2.0)

    def test_ordering(self):
        t = pl.all_critical_temps()
        assert t.butterfly < t.cross < t.ellis_wang < t.touch < t.umbilic


class TestEllipticUmbilicGerm:
    def test_hessian_vanishes(self):
        h = pl.hessian_local(pl.ModelParams(3.0, AUNIFORM), pl.SpinDistribution.uniform())
        assert np.abs(h).max() <= 1e-12

    def test_cubic_coefficients(self):
        # third-order expansion in plane coordinates is x^2 y - y^3/3
        from potts_landscape.model import batch_from_xy

        def f(x, y):
            return float(batch_free_energy(3.0, AUNIFORM.array,
                                           batch_from_xy([x, y])))

        def third_derivs(h):
            fyyy = (f(0, 2 * h) - 2 * f(0, h) + 2 * f(0, -h) - f(0, -2 * h)) / (2 * h ** 3)
            fxxx = (f(2 * h, 0) - 2 * f(h, 0) + 2 * f(-h, 0) - f(-2 * h, 0)) / (2 * h ** 3)
            fxxy = ((f(h, h) + f(-h, h) - 2 * f(0, h))
                    - (f(h, -h) + f(-h, -h) - 2 * f(0, -h))) / (2 * h ** 2 * h)
            fxyy = ((f(h, h) + f(h, -h) - 2 * f(h, 0))
                    - (f(-h, h) + f(-h, -h) - 2 * f(-h, 0))) / (2 * h * h ** 2)
            return np.array([fxxx, fxxy, fxyy, fyyy])

        d_h = third_derivs(0.01)
        d_2h = third_derivs(0.02)
        derivs = (4.0 * d_h - d_2h) / 3.0   # Richardson to O(h^4)
        coeffs = derivs / np.array([6.0, 2.0, 2.0, 6.0])
        assert np.abs(coeffs - [0.0, 1.0, 0.0, -1.0 / 3.0]).max() <= 1e-4


class TestRootfind:
    def test_bracket_failure_is_reported(self):
        with pytest.raises(pl.NumericalError):
            bracketed_root(lambda x: (1.0 + x * x, 2.0 * x), 0.0, 1.0)

    def test_exact_root_endpoints(self):
        assert bracketed_root(lambda x: (x, 1.0), 0.0, 1.0) == 0.0
        assert bracketed_root(lambda x: (x - 1.0, 1.0), 0.0, 1.0) == 1.0

    @staticmethod
    def _one_element(fun, lo, hi, end_lo, end_hi):
        """The root of ``_bracketed_halley`` on the one bracket, a float."""
        return float(_bracketed_halley(lambda x: fun(x[0]), np.array([lo]),
                                       np.array([hi]), end_lo, end_hi)[0])

    def test_package_roots_are_the_array_roots(self, monkeypatch):
        """The scalar roots of ``maxwell`` and ``critical`` from the float
        iteration are those of the array iteration on one element, bit for
        bit, on the same brackets."""
        brackets = []

        def recorded(fun, lo, hi):
            brackets.append((fun, lo, hi))
            return bracketed_root(fun, lo, hi)
        monkeypatch.setattr(mw, "bracketed_root", recorded)
        monkeypatch.setattr(critical, "bracketed_root", recorded)
        for beta in np.concatenate([np.linspace(2.0001, 10.0, 150),
                                    np.geomspace(10.0, 600.0, 30)]).tolist():
            mw._pair_end(beta, 0, 1.0 / beta)
            mw._zero_field_end(beta)
        pl.beta_cross()
        pl.beta_touch()
        assert len(brackets) > 300
        for fun, lo, hi in brackets:
            end_lo, end_hi = fun(lo), fun(hi)
            assert end_lo[0] != 0.0 and end_hi[0] != 0.0
            root = bracketed_root(fun, lo, hi)
            assert type(root) is float
            assert root == self._one_element(fun, lo, hi, end_lo, end_hi), (
                lo, hi)

    @pytest.mark.parametrize("slope", [None, 0.0, np.nan, np.inf, -np.inf])
    def test_cubic_roots_are_the_array_roots(self, slope):
        """x^3 - c on wide, narrow and ill-scaled brackets, from the true
        end slopes or from a singular one, where numpy divides by zero and
        the float iteration must start and step as it does."""
        rng = np.random.default_rng(3)

        def fun(x):
            return x ** 3 - c, 3.0 * x * x
        for c, lo, hi in zip(rng.uniform(1e-9, 8.0, 200).tolist(),
                             rng.uniform(0.0, 1e-3, 200).tolist(),
                             rng.uniform(2.0, 3.0, 200).tolist()):
            end_lo, end_hi = fun(lo), fun(hi)
            if slope is not None:
                end_lo = (end_lo[0], slope)
            with np.errstate(invalid="ignore", divide="ignore"):
                want = self._one_element(fun, lo, hi, end_lo, end_hi)
            assert _bracketed_newton(fun, lo, hi, end_lo, end_hi) == want

    def test_zero_slopes_bisect_as_the_array_iteration(self):
        """A slope of 0, at the ends (a zero divisor in the Hermite start
        when an end value is 0 too) or at an iterate, where numpy divides
        by zero: the float iteration bisects, as the array one does."""
        def fun(x):
            return x - c, 0.0
        for c, lo, hi in ((0.3, 0.0, 1.0), (0.7, 0.25, 0.75), (1.0, 0.0, 1.0),
                          (0.0, 0.0, 2.0), (1e-300, 0.0, 1.0)):
            end_lo, end_hi = fun(lo), fun(hi)
            with np.errstate(invalid="ignore", divide="ignore"):
                want = self._one_element(fun, lo, hi, end_lo, end_hi)
            assert _bracketed_newton(fun, lo, hi, end_lo, end_hi) == want
            assert abs(want - c) <= 1e-15
