import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hecke_sphere.zonal import (
    CAPPED, RECURRENCE, TRIG,
    chebyshev_U, chebyshev_U_info, chebyshev_U_vec,
    kernel_cap, pretrace_kernel,
)
from theta_oracle import cheb_coeffs


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
        assert sum(c * x ** j for j, c in enumerate(cs)) == chebyshev_U(n, x)
    assert cheb_coeffs(4) == (1, 0, -12, 0, 16)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 12])
def test_endpoint_values(n):
    assert chebyshev_U(n, 1) == n + 1
    assert chebyshev_U(n, -1) == (-1) ** n * (n + 1)
    assert chebyshev_U_info(n, 1.0) == chebyshev_U_info(n, 1.0).__class__(
        float(n + 1), CAPPED)


@given(st.integers(0, 30), st.floats(-0.999, 0.999))
def test_trig_matches_exact(n, x):
    frac = Fraction(x).limit_denominator(10 ** 6)
    exact = float(chebyshev_U(n, frac))
    assert abs(chebyshev_U(n, float(frac)) - exact) < 1e-7 * max(1.0, abs(exact))


def test_near_boundary_stability():
    # trig form degrades near x = +-1; the recurrence path takes over
    n = 20
    for eps in (1e-13, 1e-14, 0.0):
        x = 1.0 - eps
        info = chebyshev_U_info(n, x)
        if eps == 0.0:
            assert info.regime == CAPPED
        else:
            assert info.regime == RECURRENCE
        assert abs(info.value - (n + 1)) < 1e-8 * (n + 1)
    assert chebyshev_U_info(n, 0.5).regime == TRIG


def test_vectorised_agrees_with_scalar():
    xs = np.linspace(-1, 1, 1001)
    for n in (0, 3, 11):
        v = chebyshev_U_vec(n, xs)
        s = np.array([chebyshev_U(n, float(x)) for x in xs])
        assert np.allclose(v, s, atol=1e-9)


def test_pretrace_kernel_diagonal():
    e = np.array([1.0, 0.0, 0.0, 0.0])
    for n in (0, 4, 9):
        assert pretrace_kernel(n, e, e) == pytest.approx((n + 1) ** 2)


def test_pretrace_kernel_requires_unit_vectors():
    e = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        pretrace_kernel(2, 2 * e, e)


def test_pretrace_kernel_orthogonal_points():
    x = np.array([1.0, 0.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0, 0.0])
    # U_n(0) = 0 for odd n, (-1)^(n/2) for even n
    assert pretrace_kernel(3, x, y) == pytest.approx(0.0)
    assert pretrace_kernel(2, x, y) == pytest.approx(-3.0)


def test_kernel_cap():
    assert kernel_cap(5, 0.0) == 1.0
    assert kernel_cap(5, 1.0) == 6.0
    assert kernel_cap(100, 0.6) == pytest.approx(1.25)
    with pytest.raises(ValueError):
        kernel_cap(5, 1.5)


@given(st.integers(0, 40), st.floats(-1.0, 1.0))
def test_cap_dominates(n, x):
    assert abs(chebyshev_U_info(n, x).value) <= kernel_cap(n, x) * (1 + 1e-9)
