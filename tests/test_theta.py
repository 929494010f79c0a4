import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import dense_oracle
import theta_oracle
from hecke_sphere import theta
from hecke_sphere.hecke import decompose
from hecke_sphere.quat import Quaternion, enumerate_shell, r4_count
from hecke_sphere.theta import (
    DEFAULT_X, DEFAULT_Y, _block_traces, _profile_table, _strip_sums,
    modularity_check, petersson_estimate,
    THETA_BLOCK, spectral_coefficient, theta_coefficient, theta_coefficients,
)
from hecke_sphere.zonal import chebyshev_U_vec

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
        total += theta_oracle.chebyshev_U(n, t)
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


# N_x N_y = 9 (the defaults, (1,2,2,0) and 1), 4 and 225
ORACLE_PAIRS = [(DEFAULT_X, DEFAULT_Y),
                (Quaternion.from_int_coords(1, 1, 1, 1), DEFAULT_Y),
                (Quaternion.from_int_coords(3, 0, 4, 0), DEFAULT_X)]


# N_x N_y = 3, 2 and 18: exact for even n only
NON_SQUARE_PAIRS = [(Quaternion.from_int_coords(1, 1, 1, 0), DEFAULT_Y),
                    (Quaternion.from_int_coords(1, 1, 0, 0), DEFAULT_Y),
                    (Quaternion.from_int_coords(1, 0, 1, 0), DEFAULT_X)]


def _reexpansion(n, qx, qy, k, bump=0):
    """The Fraction re-expansion of c_k; ``bump`` adds to the last count."""
    tvals, counts = np.unique(theta_oracle.trace_values(k, qx, qy),
                              return_counts=True)
    counts = counts.tolist()
    counts[-1] += bump
    return theta_oracle.reexpansion_value(n, k, qx.nr() * qy.nr(),
                                          tvals.tolist(), counts)


@pytest.mark.parametrize("qx,qy", ORACLE_PAIRS, ids=["9", "4", "225"])
def test_integer_recurrence_matches_reexpansion(qx, qy):
    for n in range(13):
        for k in range(1, 61):
            assert theta_coefficient(n, qx, qy, k).value == \
                _reexpansion(n, qx, qy, k)


@pytest.mark.parametrize("qx,qy", NON_SQUARE_PAIRS, ids=["3", "2", "18"])
def test_even_degree_is_exact_for_non_square_norms(qx, qy):
    for n in range(0, 13, 2):
        for k in range(1, 41):
            tc = theta_coefficient(n, qx, qy, k)
            assert tc.value == _reexpansion(n, qx, qy, k)


def test_non_square_examples():
    # n = 4, x = (1 + i + j)/sqrt 3, y = 1
    x = Quaternion.from_int_coords(1, 1, 1, 0)
    assert theta_coefficient(4, x, ONE, 1).value == Fraction(-16, 3)
    assert theta_coefficient(4, x, ONE, 7).value == Fraction(1408, 3)


@pytest.mark.parametrize("n,k", [(0, 3), (4, 5), (7, 12), (12, 60)])
def test_reexpansion_oracle_sees_a_perturbed_count(n, k):
    # negative control: one extra element at the largest trace T, where
    # |U_n| is near its cap n + 1, must break the equality
    qx, qy = ORACLE_PAIRS[2]
    assert theta_coefficient(n, qx, qy, k).value != \
        _reexpansion(n, qx, qy, k, bump=1)


def test_odd_degree_with_a_non_square_norm_product_is_refused(monkeypatch):
    # odd n: (2S)^n = 2^n S^n is irrational for S = sqrt 3, sqrt 2, sqrt 18,
    # so there is no exact coefficient; the refusal comes before any join
    def unreachable(*args):
        raise AssertionError("the shells were joined before the refusal")

    monkeypatch.setattr(theta, "_block_traces", unreachable)
    for qx, qy in NON_SQUARE_PAIRS:
        P = qx.nr() * qy.nr()
        for n in (1, 3, 11):
            with pytest.raises(ValueError, match=(
                    rf"^n = {n}: an odd degree needs a square N_x N_y, "
                    rf"got N_x N_y = {P}$")):
                theta_coefficients(n, qx, qy, range(1, 20))


# a pair whose block keys span about 90 bins per trace at k <= 16
LARGE_NORM_PAIR = ((300, 400, 0, 0), ONE)
# (x, y) pairs: square norm products 1, 9 and 9 * 25, non-square 3 and 2,
# and the large-norm pair (500^2)
BATCH_PAIRS = [(ONE, ONE), ((1, 2, 2, 0), ONE), ((1, 2, 2, 0), (3, 4, 0, 0)),
               ((1, 1, 1, 0), ONE), ((1, 1, 0, 0), (1, 0, 0, 0)),
               LARGE_NORM_PAIR]
# starting above 1, with gaps, crossing a block boundary, repeating a k
BATCH_KS = [list(range(1, 41)), [5, 9, 10, 11, 30],
            list(range(THETA_BLOCK - 2, THETA_BLOCK + 3)), [7, 7, 3]]


@pytest.mark.parametrize("n", range(13))
def test_batch_is_bitwise_the_per_k_coefficient(n):
    for x, y in BATCH_PAIRS:
        for ks in BATCH_KS:
            P = theta._as_quat(x).nr() * theta._as_quat(y).nr()
            if n % 2 and math.isqrt(P) ** 2 != P:
                # no exact value: the package and the oracle both refuse
                with pytest.raises(ValueError):
                    theta_coefficients(n, x, y, ks)
                with pytest.raises(ValueError):
                    theta_oracle.theta_coefficient_per_k(n, x, y, ks[0])
                continue
            got = theta_coefficients(n, x, y, ks)
            assert [tc.k for tc in got] == ks
            for tc in got:
                # the oracle checks its exact value against its float U_n sum
                want = theta_oracle.theta_coefficient_per_k(n, x, y, tc.k)
                assert tc == want
                assert type(tc.value) is Fraction
                assert np.float64(tc.float_value).tobytes() == \
                    np.float64(want.float_value).tobytes()


def _recurrence_regime(n, ks):
    """Where ``_theta_block`` runs a block at the default points: "int64"
    (terms and sums), "sums" (int64 terms, Python-integer sums) or
    "object" (both on Python integers), from the bounds it states."""
    P = DEFAULT_X.nr() * DEFAULT_Y.nr()
    T, _ = _block_traces(ks, DEFAULT_X, DEFAULT_Y)
    terms = 4 * n * n * (4 * P * max(ks)) ** n
    if terms >= 2 ** 126:
        return "object"
    return "int64" if len(T) ** 2 * terms < 2 ** 126 else "sums"


@pytest.mark.parametrize("n,ks,regime", [(8, range(1, 65), "int64"),
                                         (8, range(65, 129), "sums"),
                                         (12, range(1, 17), "sums"),
                                         (12, range(17, 65), "object")])
def test_recurrence_regimes_match_the_oracle(n, ks, regime):
    # the integer recurrence on int64, on int64 with Python-integer sums,
    # and on Python integers gives the oracle's exact and float values
    ks = list(ks)
    blocks = [ks[i: i + THETA_BLOCK] for i in range(0, len(ks), THETA_BLOCK)]
    assert {_recurrence_regime(n, b) for b in blocks} == {regime}
    for tc in theta_coefficients(n, DEFAULT_X, DEFAULT_Y, ks):
        want = theta_oracle.theta_coefficient_per_k(n, DEFAULT_X, DEFAULT_Y,
                                                    tc.k)
        assert tc == want and type(tc.value) is Fraction


@pytest.mark.parametrize("x,y", BATCH_PAIRS)
def test_block_traces_are_the_per_k_traces(x, y):
    qx, qy = theta._as_quat(x), theta._as_quat(y)
    for ks in BATCH_KS:
        T, sizes = _block_traces(ks, qx, qy)
        want = [theta_oracle.trace_values(k, qx, qy) for k in ks]
        assert sizes.tolist() == [len(t) for t in want]
        assert T.dtype == np.int64
        assert np.array_equal(T, np.concatenate(want))


GROUPING_BLOCKS = [((DEFAULT_X, DEFAULT_Y), list(range(113, 129))),
                   ((DEFAULT_X, DEFAULT_Y), [7, 7, 3]),
                   (LARGE_NORM_PAIR, list(range(1, 17)))]


@pytest.mark.parametrize("pair,ks", GROUPING_BLOCKS)
def test_grouping_branches_give_one_table(monkeypatch, pair, ks):
    # the block's (key, nbins) as _theta_block passes them
    seen, group = [], theta._group_keys

    def spy(key, nbins):
        seen.append((key, nbins))
        return group(key, nbins)

    monkeypatch.setattr(theta, "_group_keys", spy)
    theta_coefficients(4, *pair, ks)
    (key, nbins), = seen
    want = np.unique(key, return_counts=True)
    for bound in (0, nbins):  # force the sort, then the count
        monkeypatch.setattr(theta, "GROUP_BINS_PER_TRACE", bound)
        monkeypatch.setattr(theta, "GROUP_BINS_FIXED", 0)
        got = group(key, nbins)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize("n", [3, 4, 8])
def test_forced_grouping_branches_keep_every_coefficient(monkeypatch, n):
    for (x, y), ks in GROUPING_BLOCKS:
        runs = []
        for bound in (0, 10 ** 9):
            monkeypatch.setattr(theta, "GROUP_BINS_PER_TRACE", bound)
            monkeypatch.setattr(theta, "GROUP_BINS_FIXED", 0)
            runs.append(theta_coefficients(n, x, y, ks))
        assert runs[0] == runs[1]
        assert [np.float64(tc.float_value).tobytes() for tc in runs[0]] == \
            [np.float64(tc.float_value).tobytes() for tc in runs[1]]


def test_bincount_never_exceeds_the_bins_bound(monkeypatch):
    # the default point and the extreme pair of the perfbench ``exact``
    # generator (coordinates in [-3, 3], largest t_max at x = y = (3,3,3,3))
    # count their keys, the large-norm pair sorts them, and no counted table
    # is longer than the bound allows
    calls = {"bincount": [], "unique": 0}
    bincount, unique = np.bincount, np.unique

    def counting(x, *args, **kwargs):
        out = bincount(x, *args, **kwargs)
        calls["bincount"].append((len(out), len(x)))
        return out

    def sorting(*args, **kwargs):
        calls["unique"] += 1
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", counting)
    monkeypatch.setattr(np, "unique", sorting)
    theta_coefficients(8, DEFAULT_X, DEFAULT_Y, range(1, 129))
    theta_coefficients(4, (3, 3, 3, 3), (3, 3, 3, 3), range(1, 25))
    assert calls["bincount"] and not calls["unique"]
    theta_coefficients(4, *LARGE_NORM_PAIR, range(1, 17))
    assert calls["unique"] == 1
    for bins, traces in calls["bincount"]:
        assert bins <= (theta.GROUP_BINS_PER_TRACE * traces
                        + theta.GROUP_BINS_FIXED)


def test_batch_edge_cases():
    assert theta_coefficients(4, ONE, ONE, []) == []
    assert theta_coefficient(4, ONE, ONE, 7) == theta_coefficients(4, ONE, ONE, [7])[0]
    with pytest.raises(ValueError):
        theta_coefficients(4, ONE, ONE, [3, 0])


def test_oracle_cross_check_sees_a_perturbed_float_path(monkeypatch):
    # negative control of the oracle's exact/float check, which the tests
    # comparing the package with the oracle rely on
    def perturbed(n, x):
        return chebyshev_U_vec(n, x) * (1 + 1e-6)

    monkeypatch.setattr(theta_oracle, "chebyshev_U_vec", perturbed)
    with pytest.raises(ArithmeticError):
        for k in range(1, 20):
            theta_oracle.theta_coefficient_per_k(4, (1, 2, 2, 0), ONE, k)
    with pytest.raises(ArithmeticError):
        theta_oracle.theta_coefficient_per_k(8, ONE, ONE, 5)


def test_coset_coefficient_examples():
    # norm-1 coset shell: 16 elements, eight with tr = 1, eight with tr = -1;
    # U_0 = 1 so the degree-0 sum is 16, and U_1(t) = 2t cancels; coset
    # norms are odd, so every even-k sum vanishes
    assert _strip_sums(0, 2, "coset").tolist() == [16.0, 0.0]
    assert _strip_sums(1, 1, "coset")[0] == pytest.approx(0.0)
    assert not _strip_sums(4, 20, "coset")[1::2].any()


@pytest.mark.parametrize("n", [2, 4])
def test_central_identity_small(n):
    dec = decompose(n, primes=(3, 5))
    ks = (1, 2, 3, 5, 8, 10)
    for x, y in [(ONE, ONE), ((1, 2, 2, 0), ONE)]:
        for k, sc in zip(ks, spectral_coefficient(x, y, ks, dec)):
            tc = theta_coefficient(n, x, y, k)
            ref = max(1.0, abs(tc.float_value))
            assert abs(tc.float_value - sc) < 1e-9 * ref


def test_spectral_coefficient_matches_dense_oracle():
    n = 4
    dec = decompose(n, primes=(3, 5))
    ref = dense_oracle.decompose(n, primes=(3, 5),
                                 even_extras=tuple(range(1, 25)))
    for x, y in [(ONE, ONE), ((1, 2, 2, 0), ONE), ((1, 1, 1, 0), (1, 2, 0, 0))]:
        px, py = (Quaternion.from_int_coords(*q).unit_vector() for q in (x, y))
        ks = range(1, 25)
        for k, sc in zip(ks, spectral_coefficient(x, y, ks, dec)):
            rc = dense_oracle.spectral_coefficient(n, px, py, k, ref)
            assert abs(sc - rc) <= 1e-9 * (1 + abs(rc))


def test_spectral_coefficient_batch_is_per_k():
    # one evaluation of the eigenbasis serves every k, value for value
    n = 6
    dec = decompose(n, primes=(3, 5))
    x, y = (1, 2, 2, 0), (3, 4, 0, 0)
    ks = range(1, 13)
    batch = spectral_coefficient(x, y, ks, dec)
    assert batch == [spectral_coefficient(x, y, [k], dec)[0] for k in ks]


def test_spectral_coefficient_of_no_k():
    # as theta_coefficients, an empty list of k gives an empty list
    dec = decompose(4, primes=(3, 5))
    assert spectral_coefficient(ONE, ONE, [], dec) == []


def test_modularity_input_validation():
    z = 0.3 + 0.5j
    with pytest.raises(ValueError):
        modularity_check(4, ((1, 1), (1, 1)), z)  # det 0
    with pytest.raises(ValueError):
        modularity_check(4, ((1, 0), (2, 1)), z)  # c not divisible by 4


def test_modularity_refuses_a_real_z_before_forming_gamma_z():
    # cz + d = 4 (-1/4) + 1 = 0: gamma z would divide by zero
    with pytest.raises(ValueError,
                       match="^both points must lie in the upper half-plane$"):
        modularity_check(4, ((1, 0), (4, 1)), -0.25)


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
    # every degree-2 kernel is identically zero (S_4(Gamma0(4)) = 0); the
    # check must certify that rather than divide by roundoff noise
    res = modularity_check(2, ((1, 0), (4, 1)), 0.3 + 0.5j)
    assert res.residual == 0.0
    assert res.tail_bound < 1e-8


def test_modularity_detects_a_perturbed_coefficient(monkeypatch):
    # negative control: the true kernel at n = 4 reads a residual of 6.5e-14
    # at z = i/2; scaling c_1 by 1 + 1e-6 breaks modularity, and the
    # residual reads 1.2e-4, far above the 1e-6 gate of ``modularity``
    coefficients = theta.theta_coefficients

    def perturbed(*args):
        return [dataclasses.replace(tc, value=tc.value * Fraction(1000001, 10 ** 6))
                if tc.k == 1 else tc for tc in coefficients(*args)]

    monkeypatch.setattr(theta, "theta_coefficients", perturbed)
    res = modularity_check(4, ((1, 0), (4, 1)), 0.5j)
    assert res.residual > 1e-6


def test_petersson_guard():
    with pytest.raises(ValueError):
        petersson_estimate(8, 40)
    with pytest.raises(ValueError):
        petersson_estimate(3, 100)


def test_petersson_degree_two_is_refused():
    # U_2(x) = 4x^2 - 1 and sum_shell m1^2 = k r4(k) / 4: every S_k is zero
    # (S_4(Gamma0(4)) = 0), so an estimate would only measure roundoff
    for parity in ("integral", "coset"):
        S = theta_oracle.strip_sums(2, 200, parity)
        assert np.max(np.abs(S)) < 1e-9
    with pytest.raises(ValueError, match="n = 2"):
        petersson_estimate(2, 20)


@pytest.mark.parametrize("n", [0, 4, 8, 12, 32])
def test_batched_strip_sums_match_per_shell(n):
    for K in sorted({10 * n + 1, 10 * n + 37, 400}):
        for parity in ("integral", "coset"):
            got = _strip_sums(n, K, parity)
            want = theta_oracle.strip_sums(n, K, parity)
            assert got.shape == want.shape == (K,)
            assert np.all(np.abs(got - want)
                          <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("parity", ["integral", "coset"])
@pytest.mark.parametrize("K", [16, 128, 512])
def test_profile_table_is_bitwise_the_per_k_profiles(K, parity):
    got = _profile_table(K, parity)
    want = theta_oracle.profile_table(K, parity)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()
        with pytest.raises(ValueError):
            g[0] = 1


def test_petersson_matches_per_shell_strips(monkeypatch,
                                            fresh_petersson_cache):
    batched = {n: petersson_estimate(n, 10 * n) for n in (4, 8, 12, 32)}
    calls = []

    def oracle(*args):
        calls.append(args)
        return theta_oracle.strip_sums(*args)

    monkeypatch.setattr(theta, "_strip_sums", oracle)
    # the estimates above are cached; without this the oracle never runs
    theta._petersson_estimate.cache_clear()
    for n, est in batched.items():
        ref = petersson_estimate(n, 10 * n)
        assert calls[-2:] == [(n, 10 * n, "integral"), (n, 10 * n, "coset")]
        # bit-identical with numpy's own summation; another BLAS may sum
        # the per-shell dot products in another order
        for field in ("rho", "log_I1", "log_I2", "tail_ratio"):
            assert getattr(est, field) == pytest.approx(
                getattr(ref, field), rel=1e-13, abs=0)


def test_petersson_cache_is_shared_by_call_forms(fresh_petersson_cache):
    est = petersson_estimate(8, 80)
    for again in (petersson_estimate(n=8, K=80),
                  petersson_estimate(8, K=80)):
        assert again is est
    info = theta._petersson_estimate.cache_info()
    assert (info.hits, info.misses) == (2, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        est.rho = 0.0


def test_petersson_default_cutoff_is_ten_n(fresh_petersson_cache):
    est = petersson_estimate(8)
    assert est.K == 80 and petersson_estimate(8, 80) is est


def test_float_range_refusal_names_n_and_k():
    # a power, a product or an exact value outside the float range is
    # refused alike; a value inside passes as its float
    for value in (lambda: float(16) ** 256, lambda: 1e308 * 10.0,
                  lambda: Fraction(10 ** 309)):
        with pytest.raises(ValueError, match=r"^n = 512: the coefficient at "
                           r"k = 16 lies outside the float range$"):
            theta._as_float(512, 16, value)
    assert theta._as_float(512, 16, lambda: Fraction(1, 3)) == 1 / 3


def test_petersson_basic():
    est = petersson_estimate(8, 120)
    assert est.rho > 0
    assert est.tail_ratio < 1e-10
    assert est.log_I1 >= est.log_I2  # the integral strip dominates


def test_petersson_cutoff_stability():
    a = petersson_estimate(8, 100)
    b = petersson_estimate(8, 200)
    assert abs(a.rho - b.rho) / b.rho < 1e-9


def test_default_points_are_valid():
    assert DEFAULT_X.nr() == 9
    assert DEFAULT_Y.nr() == 1
