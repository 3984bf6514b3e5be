import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_interior(rng, n, margin=0.01):
    """Random simplex points with all components at least ``margin``."""
    raw = rng.dirichlet((1.0, 1.0, 1.0), size=n)
    return (1.0 - 3.0 * margin) * raw + margin


def fd_gradient(f, x, y, h=1e-6):
    """Central finite differences of a scalar function of two variables."""
    gx = (f(x + h, y) - f(x - h, y)) / (2.0 * h)
    gy = (f(x, y + h) - f(x, y - h)) / (2.0 * h)
    return np.array([gx, gy])


def assert_single_axis_tie(beta, y_star, n_side=30):
    """Uniqueness of the triple point on the axis, from the census alone.

    The axis (-1/2, 0) is sampled geometrically on both sides of the
    triple point's y-coordinate ``y_star``, from 1e-6 to 1/2 away.  The
    samples where both a symmetric minimum and the mirror pair exist form
    one run that holds ``y_star``, and along it the depth of the pair minus
    that of the best symmetric minimum changes sign exactly once, between
    the two samples next to ``y_star``."""
    from potts_landscape.maxwell import axis_minima
    from potts_landscape.model import batch_free_energy, batch_from_xy

    offsets = np.geomspace(1e-6, 0.5, n_side)
    ys = np.concatenate([y_star - offsets[::-1], y_star + offsets])
    ys = ys[(ys > -0.5) & (ys < 0.0)]
    gaps = np.full(len(ys), np.nan)
    for k, y in enumerate(ys):
        sym, asym = axis_minima(beta, float(y))
        assert len(asym) <= 1, (beta, y)
        if sym and asym:
            alpha = batch_from_xy([0.0, float(y)])
            gaps[k] = (batch_free_energy(beta, alpha, asym[0])
                       - batch_free_energy(beta, alpha, np.array(sym)).min())
    both = np.flatnonzero(np.isfinite(gaps))
    assert len(both) and np.all(np.diff(both) == 1), (beta, ys[both])
    assert ys[both[0]] < y_star < ys[both[-1]]
    run_ys, run_gaps = ys[both], gaps[both]
    change = np.flatnonzero(np.sign(run_gaps[:-1]) != np.sign(run_gaps[1:]))
    assert len(change) == 1, (beta, run_ys[change])
    assert run_ys[change[0]] < y_star < run_ys[change[0] + 1]
