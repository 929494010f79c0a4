import math
from fractions import Fraction

import numpy as np
import pytest

import dense_oracle
from hecke_sphere.hecke import decompose
from hecke_sphere.quat import Quaternion, enumerate_shell, r4_count
from hecke_sphere.theta import (
    DEFAULT_X, DEFAULT_Y, _point,
    coset_coefficient, modularity_check, petersson_estimate,
    spectral_coefficient, theta_coefficient,
)
from hecke_sphere.zonal import chebyshev_U

ONE = (1, 0, 0, 0)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
def test_degree_zero_counts_shell(k):
    tc = theta_coefficient(0, ONE, ONE, k)
    assert tc.value == r4_count(k)
    assert tc.float_value == pytest.approx(float(tc.value))


def test_degree_two_at_identity_vanishes():
    # sum over the shell of tr(m)^2 equals k r4(k), which kills U_2
    for k in range(1, 30):
        tc = theta_coefficient(2, ONE, ONE, k)
        assert tc.value == 0


def brute_theta_square_k(n, qx, qy, k):
    """Independent oracle for perfect-square k: sqrt(k) is an integer, so
    U_n can be evaluated directly on an exact rational argument."""
    qx = Quaternion.from_int_coords(*qx)
    qy = Quaternion.from_int_coords(*qy)
    S = math.isqrt(qx.nr() * qy.nr())
    r = math.isqrt(k)
    total = Fraction(0)
    for m in enumerate_shell(k, "integral").elements:
        t = Fraction((m * qx * qy.conjugate()).tr(), 2 * S * r)
        total += chebyshev_U(n, t)
    return total * r ** n


@pytest.mark.parametrize("n,k", [(2, 4), (2, 9), (4, 1), (4, 4), (6, 9)])
def test_exact_value_against_brute_force(n, k):
    # n even and N_x N_y = 9 a perfect square keep everything rational
    x, y = (1, 2, 2, 0), ONE
    tc = theta_coefficient(n, x, y, k)
    assert tc.value == brute_theta_square_k(n, x, y, k)


def test_diagonal_depends_only_on_trace():
    # at x = y the argument is tr(m)/(2 sqrt k), independent of x
    for k in (2, 5, 9):
        a = theta_coefficient(4, (1, 2, 2, 0), (1, 2, 2, 0), k)
        b = theta_coefficient(4, ONE, ONE, k)
        assert a.value == b.value


def test_irrational_norm_product_gives_float_only():
    tc = theta_coefficient(2, (1, 1, 0, 0), ONE, 3)
    assert tc.value is None
    assert math.isfinite(tc.float_value)


def test_coset_coefficient_examples():
    # norm-1 coset shell: 16 elements, eight with tr = 1, eight with tr = -1;
    # U_0 = 1 so the degree-0 value is -16
    assert coset_coefficient(0, ONE, 1) == pytest.approx(-16.0)
    assert coset_coefficient(0, ONE, 2) == 0.0
    assert coset_coefficient(1, ONE, 1) == pytest.approx(0.0)


@pytest.mark.parametrize("n", [2, 4])
def test_central_identity_small(n):
    dec = decompose(n, primes=(3, 5), even_extras=tuple(range(1, 11)))
    for x, y in [(ONE, ONE), ((1, 2, 2, 0), ONE)]:
        for k in (1, 2, 3, 5, 8, 10):
            tc = theta_coefficient(n, x, y, k)
            sc = spectral_coefficient(n, x, y, k, dec)
            ref = max(1.0, abs(tc.float_value))
            assert abs(tc.float_value - sc) < 1e-9 * ref


def test_spectral_coefficient_matches_dense_oracle():
    n = 4
    dec = decompose(n, primes=(3, 5), even_extras=tuple(range(1, 25)))
    ref = dense_oracle.decompose(n, primes=(3, 5),
                                 even_extras=tuple(range(1, 25)))
    for x, y in [(ONE, ONE), ((1, 2, 2, 0), ONE), ((1, 1, 1, 0), (1, 2, 0, 0))]:
        px, py = (_point(Quaternion.from_int_coords(*q)) for q in (x, y))
        for k in range(1, 25):
            sc = spectral_coefficient(n, x, y, k, dec)
            rc = dense_oracle.spectral_coefficient(n, px, py, k, ref)
            assert abs(sc - rc) <= 1e-9 * (1 + abs(rc))


def test_spectral_requires_matching_degree():
    dec = decompose(2, primes=(3, 5))
    with pytest.raises(ValueError):
        spectral_coefficient(4, ONE, ONE, 1, dec)


def test_modularity_input_validation():
    z = 0.3 + 0.5j
    with pytest.raises(ValueError):
        modularity_check(4, ((1, 1), (1, 1)), z)  # det 0
    with pytest.raises(ValueError):
        modularity_check(4, ((1, 0), (2, 1)), z)  # c not divisible by 4


def test_modularity_identity_matrix():
    res = modularity_check(4, ((1, 0), (0, 1)), 0.25 + 0.6j)
    assert res.residual < 1e-12


def test_modularity_translation():
    # z -> z + 1 must reproduce F exactly (integral Fourier expansion)
    res = modularity_check(4, ((1, 1), (0, 1)), 0.13 + 0.55j)
    assert res.residual < 1e-9


def test_modularity_nontrivial():
    res = modularity_check(4, ((1, 0), (4, 1)), 0.3 + 0.5j)
    assert res.residual < 1e-6
    assert res.tail_bound < 1e-8


def test_modularity_zero_kernel_degree_two():
    # the degree-2 diagonal kernel is identically zero; the check must
    # certify that rather than divide by roundoff noise
    res = modularity_check(2, ((1, 0), (4, 1)), 0.3 + 0.5j,
                           x=ONE, y=ONE)
    assert res.residual == 0.0
    assert res.tail_bound < 1e-8


def test_petersson_guard():
    with pytest.raises(ValueError):
        petersson_estimate(8, 40)
    with pytest.raises(ValueError):
        petersson_estimate(3, 100)


def test_petersson_basic():
    est = petersson_estimate(8, 120)
    assert est.rho > 0
    assert est.tail_ratio < 1e-10
    assert est.log_I1 >= est.log_I2  # the integral strip dominates


def test_petersson_precision_agreement():
    a = petersson_estimate(12, 160, precision="double")
    b = petersson_estimate(12, 160, precision="extended")
    assert abs(a.rho - b.rho) / b.rho < 1e-6


def test_petersson_cutoff_stability():
    a = petersson_estimate(8, 100)
    b = petersson_estimate(8, 200)
    assert abs(a.rho - b.rho) / b.rho < 1e-9


def test_default_points_are_valid():
    assert DEFAULT_X.nr() == 9
    assert DEFAULT_Y.nr() == 1
