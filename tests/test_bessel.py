"""Bessel evaluation against the scipy oracle and the balance point."""

import numpy as np
import pytest
import scipy.optimize
import scipy.special

from clustersim.bessel import bessel_j, bessel_row, efficiency, solve_balanced_depth


@pytest.mark.parametrize(
    "g", [0.0, 0.3, 1.0, 1.4342, 1.434696, 2.7, 4.7, 5.0, 12.0, 12.5]
)
def test_row_matches_scipy(g):
    row = bessel_row(g, 10)
    ref = scipy.special.jv(np.arange(11), g)
    np.testing.assert_allclose(row, ref, atol=1e-13)


def test_negative_order_parity():
    g = 1.7
    for m in range(1, 5):
        assert bessel_j(-m, g) == pytest.approx((-1) ** m * bessel_j(m, g), abs=1e-14)
    assert bessel_j(1, -g) == pytest.approx(-bessel_j(1, g), abs=1e-14)


def test_efficiency_at_known_points():
    # J_0(0) = 1, J_1(0) = 0
    assert efficiency(0.0) == pytest.approx(1.0, abs=1e-14)
    g = 1.4342
    ref = scipy.special.j0(g) ** 2 + scipy.special.j1(g) ** 2
    assert efficiency(g) == pytest.approx(ref, abs=1e-12)


def test_balanced_depth_is_true_crossing():
    """g* solves J_0 = J_1 exactly; the scipy root-finder agrees to 1e-10."""
    g_star = solve_balanced_depth()
    ref = scipy.optimize.brentq(
        lambda g: scipy.special.j0(g) - scipy.special.j1(g), 1.0, 2.0, xtol=1e-13
    )
    assert g_star == pytest.approx(ref, abs=1e-10)
    assert bessel_j(0, g_star) == pytest.approx(bessel_j(1, g_star), abs=1e-12)


def test_balance_splits_evenly():
    g_star = solve_balanced_depth()
    j0, j1 = bessel_j(0, g_star), bessel_j(1, g_star)
    assert j0**2 == pytest.approx(j1**2, rel=1e-10)
    assert efficiency(g_star) == pytest.approx(2 * j0**2, rel=1e-12)
