from math import isqrt

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hecke_sphere.quat import (
    ONE, I, J, K, XI, UNITS,
    Quaternion, _pairs_by_s, _r3_counts, _r3_odd_counts, _shell_join,
    _shell_projection, enumerate_shell, m1_profile, r3_counts, r4_count,
)


def sigma(k: int) -> int:
    return sum(d for d in range(1, k + 1) if k % d == 0)


def brute_shell_integral(k):
    out = []
    r = int(k ** 0.5) + 1
    for a in range(-r, r + 1):
        for b in range(-r, r + 1):
            for c in range(-r, r + 1):
                for d in range(-r, r + 1):
                    if a * a + b * b + c * c + d * d == k:
                        out.append((2 * a, 2 * b, 2 * c, 2 * d))
    return sorted(out)


def brute_shell_coset(k):
    # half-integer coordinates: all doubled coordinates odd
    out = []
    r = 2 * int(k ** 0.5) + 3
    for a in range(-r, r + 1, 2):
        for b in range(-r, r + 1, 2):
            for c in range(-r, r + 1, 2):
                for d in range(-r, r + 1, 2):
                    if a % 2 and a * a + b * b + c * c + d * d == 4 * k:
                        out.append((a, b, c, d))
    return sorted(out)


def test_hamilton_table():
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert J * I == -K
    assert I * I == -ONE
    assert I * J * K == Quaternion(-2, 0, 0, 0)


def test_units_and_xi():
    assert len(UNITS) == 8
    assert all(u.nr() == 1 for u in UNITS)
    assert XI.nr() == 1
    assert XI.tr() == 1


quat_coords = st.tuples(*[st.integers(-20, 20)] * 4)


@given(quat_coords, quat_coords)
def test_norm_multiplicative(a, b):
    x = Quaternion.from_int_coords(*a)
    y = Quaternion.from_int_coords(*b)
    assert (x * y).nr() == x.nr() * y.nr()


@given(quat_coords, quat_coords)
def test_conjugate_antiautomorphism(a, b):
    x = Quaternion.from_int_coords(*a)
    y = Quaternion.from_int_coords(*b)
    assert (x * y).conjugate() == y.conjugate() * x.conjugate()


@given(quat_coords)
def test_norm_is_self_times_conjugate(a):
    x = Quaternion.from_int_coords(*a)
    assert x * x.conjugate() == Quaternion(2 * x.nr(), 0, 0, 0)


@pytest.mark.parametrize("k", [1, 3, 5, 9, 15, 27, 99, 343])
def test_r4_jacobi_odd(k):
    assert r4_count(k) == 8 * sigma(k)


def test_r4_even():
    # even k: 24 * sigma(odd part)
    assert r4_count(2) == 24
    assert r4_count(4) == 24
    assert r4_count(8) == 24
    assert r4_count(6) == 24 * sigma(3)


@pytest.mark.parametrize("k", range(1, 41))
def test_shell_against_brute_force(k):
    sh = enumerate_shell(k, "integral")
    assert sorted(map(tuple, sh.coords.tolist())) == brute_shell_integral(k)
    assert len(sh) == r4_count(k)


@pytest.mark.parametrize("k", range(1, 41))
def test_coset_shell_against_brute_force(k):
    sh = enumerate_shell(k, "coset")
    assert sorted(map(tuple, sh.coords.tolist())) == brute_shell_coset(k)


def test_shell_sizes():
    for k in range(1, 301):
        assert len(enumerate_shell(k, "integral")) == r4_count(k)
    # odd k: the coset has 16 sigma(k) members, twice the integral shell
    for k in [*range(1, 301, 2), 1023]:
        assert len(enumerate_shell(k, "coset")) == 16 * sigma(k)


@pytest.mark.parametrize("parity", ["integral", "coset"])
@pytest.mark.parametrize("k", [1, 2, 6, 25, 99, 1023, 4095])
def test_shell_coords_read_only_and_strictly_sorted(parity, k):
    coords = enumerate_shell(k, parity).coords
    assert coords.dtype == np.int64 and coords.shape[1:] == (4,)
    with pytest.raises(ValueError):
        coords[..., 0] = 7
    rows = list(map(tuple, coords.tolist()))
    assert all(a < b for a, b in zip(rows, rows[1:]))


def test_coset_even_norms_empty():
    assert len(enumerate_shell(2, "coset")) == 0
    assert len(enumerate_shell(6, "coset")) == 0


def test_coset_unit_count():
    # the 16 half-integer units (all coordinates +-1/2)
    assert len(enumerate_shell(1, "coset")) == 16


@pytest.mark.parametrize("parity,k", [("integral", 10), ("coset", 11),
                                      ("integral", 300), ("coset", 1023),
                                      ("coset", 4095)])
def test_m1_profile_matches_shell(parity, k):
    c1s, counts = m1_profile(k, parity)
    sh = enumerate_shell(k, parity)
    assert counts.sum() == len(sh)
    vals, brute = np.unique(sh.coords[:, 0], return_counts=True)
    assert list(c1s) == list(vals)
    assert list(counts) == list(brute)


@pytest.mark.parametrize("parity", ["integral", "coset"])
def test_shell_join_is_the_per_k_shells(parity):
    # gaps, repeats, even k (an empty coset shell) and shells of several
    # sizes read from one pair table
    # the join reads integral shells in Z^4, the doubled coordinates of
    # enumerate_shell halved, and coset shells in odd doubled coordinates
    ks = [5, 2, 5, 9, 1, 40, 17]
    coords, sizes = _shell_join(ks, parity)
    want = [enumerate_shell(k, parity).coords for k in ks]
    if parity == "integral":
        want = [c // 2 for c in want]
    assert sizes.tolist() == [len(c) for c in want]
    assert coords.dtype == np.int64
    assert np.array_equal(coords, np.concatenate(want))


# blocks with gaps, repeats and empty coset shells (even k), a block of 16
# shells near 128 and the coset shell near k = 1023
PROJECTION_BLOCKS = [[5, 2, 5, 9, 1, 40, 17], list(range(113, 129)), [1023],
                     [997, 1]]
# (w1, -w2, -w3, -w4) of theta traces, one with zero entries, and a vector
# with entries near 2^31
PROJECTION_VECTORS = [(2, -4, -4, 0), (0, 3, 0, -7), (1, 1, 1, 1),
                      (2 ** 31 - 1, -(2 ** 30), 5, 2 ** 31 + 3)]


@pytest.mark.parametrize("parity", ["integral", "coset"])
@pytest.mark.parametrize("v", PROJECTION_VECTORS)
def test_projection_gather_is_the_coordinates_times_v(parity, v):
    for ks in PROJECTION_BLOCKS:
        coords, sizes = _shell_join(ks, parity)
        proj, psizes = _shell_projection(ks, parity, v)
        assert proj.dtype == np.int64
        assert np.array_equal(psizes, sizes)
        assert np.array_equal(proj, coords @ np.array(v, dtype=np.int64))


@pytest.mark.parametrize("bad", [0, -1, -9])
def test_k_below_one_is_refused(bad):
    for parity in ("integral", "coset"):
        with pytest.raises(ValueError, match="k must be >= 1"):
            m1_profile(bad, parity)
        with pytest.raises(ValueError, match="k must be >= 1"):
            enumerate_shell(bad, parity)


@pytest.mark.parametrize("start", [0, 1])
def test_pair_table_read_only_and_bucketed_in_lex_order(start):
    lex, norms, by_norm, starts = _pairs_by_s(64, start)
    for table in (lex, norms, by_norm, starts):
        with pytest.raises(ValueError):
            table[0] = 7
    assert list(map(tuple, lex.tolist())) == sorted(map(tuple, lex.tolist()))
    assert np.array_equal((lex * lex).sum(axis=1), norms)
    for s in range(65):
        bucket = list(map(tuple, by_norm[starts[s]: starts[s + 1]].tolist()))
        assert bucket == [p for p, v in zip(map(tuple, lex.tolist()), norms)
                          if v == s]


def test_shell_norms():
    for k in (5, 13):
        for m in enumerate_shell(k, "integral").elements:
            assert m.nr() == k


def cube_bincount(limit, odd):
    # reference: histogram of a^2 + b^2 + c^2 over the full coordinate cube
    rmax = isqrt(limit)
    ax = np.arange(-rmax | 1, rmax + 1, 2) if odd else np.arange(-rmax, rmax + 1)
    q = ax.astype(np.int64) ** 2
    s = q[:, None, None] + q[None, :, None] + q[None, None, :]
    return np.bincount(s.ravel(), minlength=limit + 1)[: limit + 1]


@pytest.mark.parametrize("limit", [1, 2, 3, 17, 100, 1000, 4096])
def test_r3_tables_match_cube_bincount(limit):
    assert np.array_equal(_r3_counts(limit), cube_bincount(limit, False))
    assert np.array_equal(_r3_odd_counts(limit), cube_bincount(limit, True))


def test_r3_tables_read_only():
    for table in (_r3_counts(100), _r3_odd_counts(100), r3_counts(5)):
        assert table.flags.owndata
        with pytest.raises(ValueError):
            table[0] = 7
