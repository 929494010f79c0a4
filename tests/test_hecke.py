from fractions import Fraction

import numpy as np
import pytest

from hecke_sphere.hecke import (
    decompose, hecke_matrix, hecke_matrix_float, hecke_relations_check,
    selfadjoint_check, t1_vanishing,
)
from hecke_sphere.poly import harmonic_basis, sphere_integral, substitute_left_mul
from hecke_sphere.quat import enumerate_shell, r4_count


def brute_hecke_matrix(n, N):
    """Unscaled operator via direct substitution and exact projection."""
    hb = harmonic_basis(n)
    shell = enumerate_shell(N, "integral")
    out = [[Fraction(0)] * hb.dim for _ in range(hb.dim)]
    for j, p in enumerate(hb.basis):
        img = None
        for m in shell.elements:
            g = substitute_left_mul(p, m)
            img = g if img is None else img + g
        for i, q in enumerate(hb.basis):
            out[i][j] = sphere_integral(img * q) / hb.gram[i]
    return out


@pytest.mark.parametrize("n,N", [(0, 3), (1, 3), (2, 2), (2, 3), (2, 5),
                                 (3, 9), (4, 3)])
def test_matrix_against_direct_substitution(n, N):
    hm = hecke_matrix(n, N)
    brute = brute_hecke_matrix(n, N)
    for i in range(hm.dim):
        for j in range(hm.dim):
            assert Fraction(hm.entries[i][j], hm.denom) == brute[i][j]


@pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 9])
def test_degree_zero_is_representation_number(N):
    hm = hecke_matrix(0, N)
    assert hm.dim == 1
    assert Fraction(hm.entries[0][0], hm.denom) == r4_count(N)


def test_scaled_float_matches_exact():
    for n, N in [(2, 3), (4, 5), (6, 3)]:
        hm = hecke_matrix(n, N)
        exact = np.array([[float(v) for v in row] for row in hm.entries])
        exact *= float(hm.scale())
        approx = hecke_matrix_float(n, N)
        assert np.allclose(exact, approx, atol=1e-12)


def test_t1_projector():
    # T_1 averages over the 8 units; it vanishes on every odd n, and also
    # on n = 2 where its image (dimension 2(n+1) - 6) is empty
    for n in (1, 2, 3, 5, 7):
        assert t1_vanishing(n)
    for n in (0, 4, 6):
        assert not t1_vanishing(n)
        hm = hecke_matrix(n, 1)
        A = np.array(hm.entries, dtype=object)
        # idempotent up to the 8/denominator scale: (A/8d)^2 = A/8d
        d = 8 * hm.denom
        assert np.all(A @ A == d * A)


@pytest.mark.parametrize("n", [0, 2, 4, 6])
def test_selfadjoint(n):
    for N in (1, 2, 3, 5, 9):
        assert selfadjoint_check(n, N)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_relations(n):
    report = hecke_relations_check(n, primes=(3, 5), extra_commuting=(15,))
    assert report["all_pass"], report


def test_relations_reject_odd_degree():
    with pytest.raises(ValueError):
        hecke_relations_check(3)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_decomposition_invariants(n):
    dec = decompose(n, primes=(3, 5), even_extras=(9, 15))
    hb = harmonic_basis(n)
    assert dec.dim == hb.dim

    # vectors are G-orthonormal across the whole decomposition
    g = np.array(hb.gram, dtype=float)
    V = dec.all_vectors()
    gram = (V * g[:, None]).T @ V
    assert np.allclose(gram, np.eye(hb.dim), atol=1e-9)

    for sp in dec.spaces:
        # eigenvalue table is internally consistent with the exact operators
        for N in (3, 5, 9, 15):
            T = hecke_matrix_float(n, N)
            R = T @ sp.vectors - sp.lams[N] * sp.vectors
            assert np.abs(R).max() < 1e-8
        # multiplicativity on the eigenvalue level
        assert sp.lams[15] == pytest.approx(sp.lams[3] * sp.lams[5], abs=1e-9)
        assert sp.lams[9] == pytest.approx(
            sp.lams[3] ** 2 - 3 * sp.lams[1], abs=1e-8)
        assert sp.t1_flag in (0, 1)
        if sp.t1_flag:
            assert sp.multiplicity % (n + 1) == 0

    # T_1 eigenvalues are exactly 0 or 1 (projector onto the flagged part)
    flags = sorted({sp.t1_flag for sp in dec.spaces})
    lam1 = [sp.lams[1] for sp in dec.spaces]
    assert all(abs(l) < 1e-9 or abs(l - 1) < 1e-9 for l in lam1)
    assert flags in ([0], [1], [0, 1])


def test_eigenvalue_of_missing_raises():
    dec = decompose(4, primes=(3, 5))
    with pytest.raises(KeyError):
        dec.eigenvalue_of(dec.spaces[0], 7)


def test_unflagged_part_is_single_space():
    # ker T_1 is annihilated by every odd T_N, so it forms one joint block
    dec = decompose(6, primes=(3, 5))
    unflagged = [sp for sp in dec.spaces if sp.t1_flag == 0]
    assert len(unflagged) == 1
    assert all(abs(unflagged[0].lams[N]) < 1e-9 for N in (1, 3, 5))
