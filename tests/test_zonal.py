from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hecke_sphere.zonal import _recurrence, chebyshev_U_vec
from theta_oracle import cheb_coeffs, chebyshev_U


def exact_U(n, xs):
    """The oracle's exact U_n at each float of ``xs``, rounded to a float."""
    return np.array([float(chebyshev_U(n, Fraction(float(x)))) for x in xs])


def test_low_degree_closed_forms():
    x = Fraction(3, 7)
    assert chebyshev_U(0, x) == 1
    assert chebyshev_U(1, x) == 2 * x
    assert chebyshev_U(2, x) == 4 * x ** 2 - 1
    assert chebyshev_U(3, x) == 8 * x ** 3 - 4 * x


def test_coefficients_match_recurrence():
    for n in range(10):
        cs = cheb_coeffs(n)
        assert len(cs) == n + 1
        x = Fraction(5, 9)
        assert chebyshev_U(n, x) == _recurrence(n, x)
    assert cheb_coeffs(4) == (1, 0, -12, 0, 16)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 12])
def test_endpoint_values(n):
    assert chebyshev_U(n, 1) == n + 1
    assert chebyshev_U(n, -1) == (-1) ** n * (n + 1)
    ends = chebyshev_U_vec(n, np.array([1.0, -1.0]))
    assert ends.tolist() == [n + 1, (-1) ** n * (n + 1)]


@given(st.integers(0, 30), st.floats(-0.999, 0.999))
def test_trig_matches_exact(n, x):
    frac = Fraction(x).limit_denominator(10 ** 6)
    exact = float(chebyshev_U(n, frac))
    got = chebyshev_U_vec(n, np.array([float(frac)]))[0]
    assert abs(got - exact) < 1e-7 * max(1.0, abs(exact))


@pytest.mark.parametrize("n", [64, 256])
def test_matches_exact_next_to_the_endpoints(n):
    # the trig form divides by sin(theta) -> 0 here, and the recurrence
    # takes over below TRIG_SWITCH: both sides of the switch, on both ends
    d = np.geomspace(1e-15, 1e-2, 100)
    xs = np.concatenate([1.0 - d, d - 1.0])
    err = np.abs(chebyshev_U_vec(n, xs) - exact_U(n, xs)).max()
    assert err <= 1e-9 * (n + 1)


def test_near_boundary_stability():
    # trig form degrades near x = +-1; the recurrence path takes over
    n = 20
    for eps in (1e-13, 1e-14, 0.0):
        x = 1.0 - eps
        assert abs(chebyshev_U_vec(n, np.array([x]))[0] - (n + 1)) < 1e-8 * (n + 1)


def test_vectorised_agrees_with_scalar():
    # the oracle's exact value, one scalar at a time
    xs = np.linspace(-1, 1, 1001)
    for n in (0, 3, 11):
        assert np.allclose(chebyshev_U_vec(n, xs), exact_U(n, xs), atol=1e-9)


@given(st.integers(0, 40), st.floats(-1.0, 1.0))
def test_cap_dominates(n, x):
    # |U_n(x)| <= min{n+1, (1-x^2)^(-1/2)} on [-1, 1]
    d = 1.0 - x * x
    cap = n + 1.0 if d <= 0.0 else min(n + 1.0, d ** -0.5)
    assert abs(chebyshev_U_vec(n, np.array([x]))[0]) <= cap * (1 + 1e-9)
