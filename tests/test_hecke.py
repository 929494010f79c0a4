from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt

import numpy as np
import pytest

import dense_oracle
from hecke_sphere import hecke
from hecke_sphere.hecke import (
    decompose, hecke_matrix, hecke_matrix_float, hecke_relations_check,
    row_basis, selfadjoint_check, shell_monomial_matrix, t1_vanishing,
    unit_classes,
)
from hecke_sphere.poly import harmonic_basis, sym_power_values
from hecke_sphere.quat import Quaternion, enumerate_shell, r4_count
from hecke_sphere.zonal import chebyshev_U_vec
from poly_oracle import (
    basis_polys, gram_diagonal, sphere_integral, substitute_left_mul,
)


def brute_hecke_matrix(n, N):
    """Unscaled operator via direct substitution and exact projection."""
    hb = harmonic_basis(n)
    basis = basis_polys(n)
    shell = enumerate_shell(N, "integral")
    out = [[Fraction(0)] * hb.dim for _ in range(hb.dim)]
    for j, p in enumerate(basis):
        img = None
        for m in shell.elements:
            g = substitute_left_mul(p, m)
            img = g if img is None else img + g
        for i, q in enumerate(basis):
            out[i][j] = sphere_integral(img * q) / gram_diagonal(n)[i]
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
        # T_N = entries / (8 denom N^(n/2)), n even
        exact /= 8 * hm.denom * N ** (n // 2)
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


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 6])
def test_selfadjoint_matches_dense_oracle(n):
    # the shell-sum identity against G A = A^T G on the dense matrices
    for N in (1, 2, 3, 5, 9, 15):
        assert selfadjoint_check(n, N) == dense_oracle.selfadjoint_check(n, N)


@pytest.mark.parametrize("n,N", [(2, 3), (4, 5), (6, 9)])
def test_selfadjoint_rejects_perturbed_sum(n, N, monkeypatch):
    S = shell_monomial_matrix(n, N).copy()
    S[0, n] += 1  # one entry off its weighted transpose partner
    monkeypatch.setattr(hecke, "shell_monomial_matrix", lambda n, N: S)
    assert not selfadjoint_check(n, N)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_relations(n):
    report = hecke_relations_check(n, primes=(3, 5))
    assert report["all_pass"], report


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_relations_match_dense_oracle(n):
    # same keys and the same verdicts as the dense integer matrices
    report = hecke_relations_check(n, primes=(3, 5, 7))
    assert report == dense_oracle.hecke_relations_check(n, primes=(3, 5, 7))
    assert report["all_pass"]


def test_relations_detect_a_broken_sum(monkeypatch):
    # the relations read all their shell sums from one batched call
    good = hecke.shell_monomial_matrices

    def broken(n, Ns):
        return tuple(S + 1 if N == 15 else S for N, S in zip(Ns, good(n, Ns)))

    monkeypatch.setattr(hecke, "shell_monomial_matrices", broken)
    report = hecke_relations_check(4, primes=(3, 5))
    assert report["T3*T5=T15"] is False
    assert report["T9=T3^2-3*T1"] is True
    assert report["all_pass"] is False


def test_relations_reject_odd_degree():
    with pytest.raises(ValueError):
        hecke_relations_check(3)


@pytest.mark.parametrize("primes", [(2, 3), (3, 9), (3, 3), (4, 3)])
def test_primes_must_be_distinct_odd_primes(primes):
    # T_2, T_4 and T_9 obey other relations: a report on them would read as
    # a broken algebra, and a decomposition over them means nothing
    with pytest.raises(ValueError):
        hecke_relations_check(4, primes=primes)
    with pytest.raises(ValueError):
        decompose(4, primes=primes)


@lru_cache(maxsize=None)
def _object_shell_sum(n, N):
    """S_N summed over the shell on Python integers, the unbounded path;
    its imaginary part is zero, and the real part is returned."""
    coords = enumerate_shell(N, "integral").coords // 2
    re, im = sym_power_values(coords.astype(object), n).sum(axis=-1)
    assert not np.any(im)
    return re


@pytest.mark.parametrize("n", [0, 1, 2, 5, 8, 12, 16])
def test_shell_sum_matches_object_path(n):
    for N in (1, 2, 3, 4, 5, 9, 15, 25, 49):
        S = shell_monomial_matrix(n, N)
        assert S.dtype == object and not S.flags.writeable
        assert all(type(v) is int for v in S.ravel())
        assert np.array_equal(S, _object_shell_sum(n, N))


@pytest.mark.parametrize("n,N,top", [(32, 9, 4.16e20), (24, 25, 2.04e21)])
def test_shell_sum_falls_back_above_bound(n, N, top):
    coords = enumerate_shell(N, "integral").coords // 2
    ref = _object_shell_sum(n, N)
    assert float(max(abs(v) for v in ref.ravel())) == pytest.approx(top, rel=0.01)
    assert not hecke._int64_exact(n, N, len(coords))
    assert np.array_equal(shell_monomial_matrix(n, N), ref)
    # negative control: the same sum taken in int64 wraps around
    assert not np.array_equal(sym_power_values(coords, n).sum(axis=-1), ref)


def test_int64_bound_at_odd_degree():
    # size 2^n N^(n/2) < 2^63 decided exactly: at n = 3, N = 2 the largest
    # admissible size is floor(2^63 / 2^4.5) = isqrt(2^117)
    top = isqrt(2 ** 117)
    assert hecke._int64_exact(3, 2, top)
    assert not hecke._int64_exact(3, 2, top + 1)
    # n = 5, N = 9: size 2^5 3^5 < 2^63
    top = (2 ** 63 - 1) // 7776
    assert hecke._int64_exact(5, 9, top)
    assert not hecke._int64_exact(5, 9, top + 1)
    # the shells of the relation checks stay on int64 up to n = 12
    assert hecke._int64_exact(12, 49, r4_count(49))
    assert not hecke._int64_exact(16, 49, r4_count(49))


#: unsorted, with repeats; at n = 16 and 24 it mixes int64 and object shells
BATCH_NS = [49, 1, 3, 25, 105, 3, 2, 4, 9, 15]


@pytest.mark.parametrize("n", [0, 1, 2, 5, 8, 12, 16, 24])
def test_shell_sums_batch_matches_object_path(n, monkeypatch):
    monkeypatch.setattr(hecke, "_SHELL_SUMS", {})
    sums = hecke.shell_monomial_matrices(n, BATCH_NS)
    assert len(sums) == len(BATCH_NS)
    for N, S in zip(BATCH_NS, sums):
        assert S.shape == (n + 1, n + 1)
        assert S.dtype == object and not S.flags.writeable
        assert all(type(v) is int for v in S.ravel())
        assert np.array_equal(S, _object_shell_sum(n, N))
    exact = {hecke._int64_exact(n, N, r4_count(N)) for N in BATCH_NS}
    assert exact == ({True, False} if n >= 16 else {True})


#: the left units 1, i, j, k, -1, -i, -j, -k, by their multiplication table
UNITS = [Quaternion.from_int_coords(*u) for u in
         [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
          (-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)]]


def test_shell_sums_blocks_fill_the_cap(monkeypatch):
    # at n = 2 a point holds 9 entries of T; the eight units come first, and
    # the shells of norm 1, 2, 3, 5, 13 have 1, 3, 4, 6, 14 orbit
    # representatives: with a cap of 108 entries a block holds 12 points,
    # so the units and norms 1 and 2 fill the first block exactly, and
    # norms 3 and 5 hold 10 points of the next, where the 14 points of
    # norm 13 do not fit.  Norm 13 is longer than a block: it is cut 12
    # points from its own start, so it straddles the last two blocks
    monkeypatch.setattr(hecke, "_SHELL_SUMS", {})
    monkeypatch.setattr(hecke, "SHELL_BLOCK", 108)
    passes = []
    values = hecke.sym_power_values

    def spy(pts, n):
        passes.append((len(pts), pts.dtype))
        return values(pts, n)

    monkeypatch.setattr(hecke, "sym_power_values", spy)
    Ns = [5, 13, 3, 2, 1]
    sums = hecke.shell_monomial_matrices(2, Ns)
    assert passes == [(12, np.int64), (10, np.int64), (12, np.int64),
                      (2, np.int64)]
    for N, S in zip(Ns, sums):
        assert np.array_equal(S, _object_shell_sum(2, N))


def test_shell_sums_refuse_an_imaginary_part(monkeypatch):
    # every shell is closed under (x1, x2, x3, x4) -> (x1, -x2, x3, -x4),
    # which conjugates T, so S_N is real.  A shell missing one point is not
    # a union of whole left-unit orbits, which is refused first (at odd n
    # S_1 = 0, so the imaginary part could not show); a shell missing one
    # whole orbit passes that check, but not the imaginary part at n = 4.
    # Nothing is cached either way.
    monkeypatch.setattr(hecke, "_SHELL_SUMS", {})
    join = hecke._shell_join

    def drop_first(ks, parity):
        coords, sizes = join(ks, parity)
        sizes = sizes.copy()
        sizes[0] -= 1
        return coords[1:], sizes

    monkeypatch.setattr(hecke, "_shell_join", drop_first)
    with pytest.raises(ArithmeticError, match=r"S_5 at n=3: the norm-5 shell "
                       r"\(47 points\) is not a union of whole left-unit orbits"):
        hecke.shell_monomial_matrices(3, [5])
    assert (3, 5) not in hecke._SHELL_SUMS

    def drop_an_orbit(ks, parity):
        coords, sizes = join(ks, parity)
        m = Quaternion(*map(int, coords[0]))
        orbit = {(q.c1, q.c2, q.c3, q.c4) for q in (u * m for u in UNITS)}
        keep = [tuple(c) not in orbit for c in coords.tolist()]
        sizes = sizes.copy()
        sizes[0] -= 8
        return coords[keep], sizes

    monkeypatch.setattr(hecke, "_shell_join", drop_an_orbit)
    with pytest.raises(ArithmeticError, match=r"S_5 at n=4 has a nonzero"):
        hecke.shell_monomial_matrices(4, [5])
    assert (4, 5) not in hecke._SHELL_SUMS


def _left_images(coords):
    """u m for the units u in the order of ``UNITS``, from the coordinate
    formulas of ``hecke._orbit_mask``; eight arrays like ``coords``."""
    a, b, c, d = coords.T
    images = [coords, np.stack([-b, a, -d, c], axis=1),
              np.stack([-c, d, a, -b], axis=1),
              np.stack([-d, -c, b, a], axis=1)]
    return images + [-x for x in images]


def test_left_images_are_quaternion_products():
    coords = enumerate_shell(105, "integral").coords
    for u, image in zip(UNITS, _left_images(coords)):
        assert image.tolist() == [
            [q.c1, q.c2, q.c3, q.c4]
            for q in (u * Quaternion(*map(int, c)) for c in coords)]
    assert list(hecke.UNITS) == [u.int_coords for u in UNITS]


def test_shells_are_unions_of_orbits():
    # every shell with N <= 200 is a disjoint union of eight-point left-unit
    # orbits, and the mask keeps exactly one point of each
    Ns = list(range(1, 201))
    coords, sizes = hecke._shell_join(Ns, "integral")
    r = 2 * isqrt(200)
    assert np.abs(coords).max() == r
    keep = hecke._orbit_mask(coords, r)
    shell = np.repeat(Ns, sizes)
    B = 2 * r + 1
    w = np.array([B ** 3, B ** 2, B, 1])
    # (norm, lexicographic key) sorts the join: each shell is sorted
    order = shell * B ** 4 + coords @ w
    assert np.all(np.diff(order) > 0)
    index, hits = [], np.zeros(len(coords), dtype=int)
    for image in _left_images(coords):
        key = shell * B ** 4 + image @ w
        at = np.searchsorted(order, key)
        assert np.array_equal(order[np.minimum(at, len(order) - 1)], key)
        index.append(at)
        hits += keep[at]
    index = np.sort(np.stack(index), axis=0)
    assert np.all(np.diff(index, axis=0) > 0)
    assert np.all(hits == 1)
    assert np.array_equal(np.bincount(shell[keep], minlength=201)[1:] * 8, sizes)


def test_orbit_key_bound():
    # the key of _orbit_mask is at most (B^4 - 1) / 2 with B = 2r + 1, below
    # 2^63 exactly when r < ORBIT_KEY_COORD = 2^15; the shells reach r = 2^15
    # (doubled coordinates) at N = 2^28
    top = hecke.ORBIT_KEY_COORD
    assert ((2 * top - 1) ** 4 - 1) // 2 < 2 ** 63 <= ((2 * top + 1) ** 4 - 1) // 2
    # the orbit of a point at the bound keeps its lexicographically largest
    m = Quaternion.from_int_coords(top - 1, -(top - 1), top - 2, 1 - top)
    orbit = np.array([(u * m).int_coords for u in UNITS], dtype=np.int64)
    keep = hecke._orbit_mask(orbit, top - 1)
    assert keep.sum() == 1
    assert tuple(orbit[keep][0]) == max(map(tuple, orbit.tolist()))
    with pytest.raises(ValueError, match="orbit key"):
        hecke._orbit_mask(orbit, top)
    assert 2 * isqrt(2 ** 28 - 1) < top <= 2 * isqrt(2 ** 28)


@pytest.mark.parametrize("n", range(0, 25))
def test_unit_shell_sum(n):
    # S_1 = sum of T over the eight units is 8 P with P^2 = P (T_1 = P) at
    # even n, and 0 at odd n, where T(-u) = -T(u)
    S = shell_monomial_matrix(n, 1)
    if n % 2:
        assert not np.any(S)
    else:
        assert np.array_equal(S @ S, 8 * S)
        assert np.any(S) == (n != 2)


@pytest.mark.parametrize("n", [12, 24])
def test_trace_identity_ties_eigensolve_to_shell_sums(n):
    # basis-free: the trace of T_N on W is sum_lambda dim W_lambda lambda(N)
    # from the eigensolve, and tr S_N / (8 N^(n/2)) from the exact sums;
    # tr T(m) is the character of Sym^n, N^(n/2) U_n(m_1 / sqrt N), so it
    # is also (1/8) sum over the shell of U_n(m_1 / sqrt N).  Each side is
    # at most r4(N) (n + 1) / 8, and they agree to 1e-12 r4(N)
    Ns = [1, 3, 5, 9, 15, 25, 49]
    dec = decompose(n, primes=(3, 5))
    dims = [sp.basis.shape[1] for sp in dec.spaces]
    spectral = hecke.hecke_eigenvalues(dec, Ns) @ dims
    for N, lam in zip(Ns, spectral):
        exact = np.trace(shell_monomial_matrix(n, N)) / (8 * N ** (n // 2))
        # the doubled coordinates have first entry 2 m_1
        c1 = enumerate_shell(N, "integral").coords[:, 0]
        zonal = chebyshev_U_vec(n, c1 / (2 * np.sqrt(N))).sum() / 8
        tol = 1e-12 * r4_count(N)
        assert abs(lam - exact) <= tol and abs(zonal - exact) <= tol
    # T_1 is the projector onto the unit-invariant rows, of rank
    # inv(n) = (n + 1 + 3 (-1)^(n/2)) / 4: tr S_1 = 8 inv(n) exactly
    inv = (n + 1 + 3 * (-1) ** (n // 2)) // 4
    assert np.trace(shell_monomial_matrix(n, 1)) == 8 * inv


@pytest.mark.parametrize("n", [0, 1, 2, 5, 8, 12, 16, 24])
def test_float_shell_sums_match_exact(n, monkeypatch):
    # S_1 R_N in floats against the exact S_N / N^(n/2), in the frame where
    # each T(m / sqrt N) is unitary (T[b, a] sqrt(C(n, a) / C(n, b))), to
    # 1e-13 of |shell|, the bound on the sum there
    monkeypatch.setattr(hecke, "_FLOAT_SUMS", {})
    sums, sizes = hecke._float_shell_sums(n, BATCH_NS)
    assert np.array_equal(sizes, [r4_count(N) for N in BATCH_NS])
    g = np.sqrt([float(comb(n, b)) for b in range(n + 1)])
    for N, S, size in zip(BATCH_NS, sums, sizes):
        exact = shell_monomial_matrix(n, N).astype(float) / N ** (n / 2)
        err = np.abs(S - exact) * g[None, :] / g[:, None]
        assert err.max() <= 1e-13 * size


@pytest.mark.parametrize("points", [None, 7])
def test_eigenvalues_do_not_depend_on_earlier_calls(monkeypatch, points):
    # the float shell sums are cached per (n, N), and a shell is cut into
    # blocks where it would be cut alone, so lambda(N) is the same float
    # whichever shells were summed before it.  A cap of 7 points cuts the
    # eight units and every shell with more than 7 orbit representatives
    monkeypatch.setattr(hecke, "_FLOAT_SUMS", {})
    if points:
        monkeypatch.setattr(hecke, "SHELL_BLOCK", points * 11 ** 2)
    dec = decompose(10, (3, 5))
    hecke.hecke_eigenvalues(dec, range(1, 17))
    after = hecke.hecke_eigenvalues(dec, range(1, 41))
    hecke._FLOAT_SUMS.clear()
    alone = hecke.hecke_eigenvalues(dec, range(1, 41))
    assert after.tobytes() == alone.tobytes()


def test_shell_sums_joined_once(monkeypatch):
    monkeypatch.setattr(hecke, "_SHELL_SUMS", {})
    joins = []
    join = hecke._shell_join

    def spy(ks, parity):
        joins.append(list(ks))
        return join(ks, parity)

    monkeypatch.setattr(hecke, "_shell_join", spy)
    first = hecke.shell_monomial_matrices(4, [9, 3, 5])
    again = hecke.shell_monomial_matrices(4, [5, 9, 3, 9])
    assert joins == [[3, 5, 9]]
    assert [id(S) for S in again] == [id(first[i]) for i in (2, 0, 1, 0)]
    # a set with one new shell joins that shell alone
    hecke.shell_monomial_matrices(4, [3, 7])
    assert joins == [[3, 5, 9], [7]]


def _shell_operator(n, N):
    """Float S_N^T / (8 N^(n/2)), the action of T_N on row vectors."""
    S = shell_monomial_matrix(n, N).astype(float)
    return S.T / (8.0 * N ** (n / 2))


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_decomposition_invariants(n):
    dec = decompose(n, primes=(3, 5))
    assert dec.dim == (n + 1) ** 2
    extras = hecke.hecke_eigenvalues(dec, (9, 15))

    # the bases of the W_lambda are orthonormal across the decomposition,
    # and the row vectors are orthonormal for the weights C(n, b)
    R = np.hstack([sp.basis for sp in dec.spaces])
    assert np.allclose(R.T @ R, np.eye(n + 1), atol=1e-12)
    P = row_basis(n)
    w = np.array([comb(n, b) for b in range(n + 1)], dtype=float)
    assert np.allclose(P.conj().T @ (w[:, None] * P), np.eye(n + 1), atol=1e-12)

    for sp, (lam9, lam15) in zip(dec.spaces, extras.T):
        lams = {**sp.lams, 9: lam9, 15: lam15}
        # eigenvalue table is internally consistent with the exact shell sums
        V = P @ sp.basis
        for N in (3, 5, 9, 15):
            R_N = _shell_operator(n, N) @ V - lams[N] * V
            assert np.abs(R_N).max() < 1e-8
        # multiplicativity on the eigenvalue level
        assert lams[15] == pytest.approx(lams[3] * lams[5], abs=1e-9)
        assert lams[9] == pytest.approx(
            lams[3] ** 2 - 3 * lams[1], abs=1e-8)
        assert sp.t1_flag in (0, 1)
        assert sp.multiplicity % (n + 1) == 0

    # T_1 eigenvalues are exactly 0 or 1 (projector onto the flagged part)
    flags = sorted({sp.t1_flag for sp in dec.spaces})
    lam1 = [sp.lams[1] for sp in dec.spaces]
    assert all(abs(l) < 1e-9 or abs(l - 1) < 1e-9 for l in lam1)
    assert flags in ([0], [1], [0, 1])


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_dense_oracle_invariants(n):
    # the reference itself: G-orthonormal eigenvectors of the dense matrices
    dec = dense_oracle.decompose(n, primes=(3, 5), even_extras=(9, 15))
    hb = harmonic_basis(n)
    g = np.array(gram_diagonal(n), dtype=float)
    V = dec.all_vectors()
    assert np.allclose((V * g[:, None]).T @ V, np.eye(hb.dim), atol=1e-9)
    for sp in dec.spaces:
        for N in (3, 5, 9, 15):
            T = hecke_matrix_float(n, N)
            assert np.abs(T @ sp.vectors - sp.lams[N] * sp.vectors).max() < 1e-8


@pytest.mark.parametrize("n", [4, 8, 12, 24])
def test_decomposition_matches_dense_oracle(n):
    extras = (9, 15)
    dec = decompose(n, primes=(3, 5))
    ref = dense_oracle.decompose(n, primes=(3, 5), even_extras=extras)
    assert ([(sp.multiplicity, sp.t1_flag) for sp in dec.spaces]
            == [(sp.multiplicity, sp.t1_flag) for sp in ref.spaces])
    read = hecke.hecke_eigenvalues(dec, extras)
    for sp, rp, col in zip(dec.spaces, ref.spaces, read.T):
        lams = {**sp.lams, **dict(zip(extras, col))}
        assert lams.keys() == rp.lams.keys()
        for N, lam in lams.items():
            assert lam == pytest.approx(rp.lams[N], abs=1e-9)
    assert dec.group_margin > hecke.GROUP_TOL


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_eigenvalue_readout_matches_dense_oracle(n):
    # lambda(9) and lambda(15), read from the finished decomposition, against
    # the dense eigensolve that diagonalised T_9 and T_15 up front
    dec = decompose(n, primes=(3, 5))
    ref = dense_oracle.decompose(n, primes=(3, 5), even_extras=(9, 15))
    read = hecke.hecke_eigenvalues(dec, (9, 15))
    assert read.shape == (2, len(dec.spaces)) == (2, len(ref.spaces))
    for i, N in enumerate((9, 15)):
        for lam, rp in zip(read[i], ref.spaces):
            assert lam == pytest.approx(rp.lams[N], abs=1e-9)


def _perturb_row_operator(monkeypatch, N, E):
    """Make ``_row_operators`` return T_N + E, leaving every other N as is."""
    good = hecke._row_operators

    def perturbed(n, Ns):
        return np.stack([op + E if M == N else op
                         for M, op in zip(Ns, good(n, Ns))])

    monkeypatch.setattr(hecke, "_row_operators", perturbed)


def test_residual_gate_rejects_a_perturbed_prime(monkeypatch):
    # a small seeded symmetric perturbation of T_5 no longer commutes with
    # T_3: the eigenvectors of T_3 miss T_5 v = lambda v, and the one solve
    # raises
    n = 4
    E = np.random.default_rng(0).standard_normal((n + 1, n + 1))
    _perturb_row_operator(monkeypatch, 5, 1e-6 * (E + E.T))
    with pytest.raises(hecke.DegeneracyError,
                       match=r"n=4 N=5: residual \S+ exceeds"):
        decompose(n, primes=(3, 5))


@pytest.mark.parametrize("N", [9, 15])
def test_residual_gate_rejects_a_readout_not_scalar_on_a_class(
        monkeypatch, N):
    # T_N + E with E coupling two basis vectors of one class: the read-out
    # runs the eigensolve's residual check and names N
    n = 6
    dec = decompose(n, primes=(3, 5))
    sp = next(sp for sp in dec.spaces if sp.basis.shape[1] >= 2)
    u, v = sp.basis[:, 0], sp.basis[:, 1]
    _perturb_row_operator(monkeypatch, N, 1e-6 * (np.outer(u, v) + np.outer(v, u)))
    assert hecke.hecke_eigenvalues(dec, (3, 5)).shape == (2, len(dec.spaces))
    with pytest.raises(hecke.DegeneracyError,
                       match=rf"n=6 N={N}: residual \S+ exceeds"):
        hecke.hecke_eigenvalues(dec, (3, 5, N))


def test_unflagged_part_is_single_space():
    # ker T_1 is annihilated by every odd T_N, so it forms one joint block
    dec = decompose(6, primes=(3, 5))
    unflagged = [sp for sp in dec.spaces if sp.t1_flag == 0]
    assert len(unflagged) == 1
    assert all(abs(unflagged[0].lams[N]) < 1e-9 for N in (1, 3, 5))


def _inv(n):
    """dim of the unit invariants in Sym^n: (n + 1 + 3 (-1)^(n/2)) / 4."""
    return (n + 1 + 3 * (-1) ** (n // 2)) // 4


@pytest.mark.parametrize("n", range(2, 65, 2))
def test_unit_classes_match_the_unit_average(n):
    # T_1 is the 0/1 indicator of the fixed coordinates; exactly in
    # integers, S_1 / 8 is a projector of rank inv(n)
    cls = unit_classes(n)
    assert set(cls.tolist()) <= {-1, 0, 2}
    assert np.count_nonzero(cls >= 0) == _inv(n)
    (T1,) = hecke._row_operators(n, [1])
    assert np.abs(T1 - np.diag((cls >= 0).astype(float))).max() <= 1e-12
    S = shell_monomial_matrix(n, 1)
    assert np.array_equal(S @ S, 8 * S)
    assert np.trace(S) == 8 * _inv(n)


@pytest.mark.parametrize("n", range(2, 25, 2))
def test_unit_classes_are_not_coupled(n):
    cls = unit_classes(n)
    cross = cls[:, None] != cls[None, :]
    Ns = [1, 3, 5, 7, 9, 15]
    for N, op in zip(Ns, hecke._row_operators(n, Ns)):
        # T_3 = 0 exactly at n = 2: its float operator is roundoff alone
        top = np.abs(op).max() if np.any(shell_monomial_matrix(n, N)) else 1.0
        assert np.abs(op[cross]).max(initial=0.0) <= 1e-13 * top


def _newform_dims(n):
    """(d2, d4): dim S^new_{n+2}(Gamma0(2)) and dim S^new_{n+2}(Gamma0(4)).

    From the genus-0 closed forms at even weight k >= 4: dim S_k(SL2(Z)) =
    floor(k/12) - [k = 2 mod 12], dim S_k(Gamma0(2)) = floor(k/4) - 1 and
    dim S_k(Gamma0(4)) = k/2 - 2, less the old forms.
    """
    k = n + 2
    s1 = k // 12 - (k % 12 == 2)
    d2 = k // 4 - 1 - 2 * s1
    return d2, k // 2 - 2 - 2 * d2 - 3 * s1


@pytest.mark.parametrize("n", list(range(2, 65, 2)) + [96, 128])
def test_flagged_classes_count_newforms_of_level_2_and_4(n):
    # the flagged classes with dim W = 1 are the level-2 newforms, those
    # with dim W = 2 the level-4 newforms, one column in each u class
    d2, d4 = _newform_dims(n)
    assert d2 + 2 * d4 == _inv(n)
    cls = unit_classes(n)
    dims = {1: 0, 2: 0}
    for sp in decompose(n, primes=(3, 5)).spaces:
        if sp.t1_flag:
            k = sp.basis.shape[1]
            dims[k] += 1
            if k == 2:
                own = cls[np.abs(sp.basis).argmax(axis=0)]
                assert sorted(own.tolist()) == [0, 2]
    assert dims == {1: d2, 2: d4}


def test_empty_readout():
    dec = decompose(6, primes=(3, 5))
    out = hecke.hecke_eigenvalues(dec, [])
    assert out.shape == (0, len(dec.spaces))


def _row_operator(n, N):
    """T_N on W in ``row_basis(n)``, formed for one N."""
    S = shell_monomial_matrix(n, N)
    P = row_basis(n)
    w = np.array([float(comb(n, b)) for b in range(n + 1)])
    S_T = S.T.astype(float) * w[:, None]
    M = P.conj().T @ S_T @ P / (8.0 * float(N) ** (n / 2))
    return 0.5 * (M.real + M.real.T)


@pytest.mark.parametrize("n", range(2, 13, 2))
def test_row_operators_match_per_shell_formula(n):
    # the float row operators against the exact shell sums, to 1e-13 of the
    # largest entry (absolutely where T_N = 0, as T_3 at n = 2)
    Ns = [1, 3, 5, 7, 9, 15, 25, 49]
    ops = hecke._row_operators(n, Ns)
    assert ops.shape == (len(Ns), n + 1, n + 1)
    for N, op in zip(Ns, ops):
        ref = _row_operator(n, N)
        assert np.abs(op - ref).max() <= 1e-13 * max(np.abs(ref).max(), 1.0)


def test_row_operators_accept_vanishing_operator():
    # T_3 = 0 at n = 2 exactly, so its float operator is roundoff alone;
    # measured against |T_3| <= |shell| / 8 it passes the realness check
    assert not np.any(shell_monomial_matrix(2, 3))
    (op,) = hecke._row_operators(2, [3])
    assert np.abs(op).max() < 1e-14


def test_row_operators_reject_perturbed_sum(monkeypatch):
    good = hecke._float_shell_sums

    def perturbed(n, Ns):
        sums, sizes = good(n, Ns)
        sums = sums.copy()
        for i, N in enumerate(Ns):
            if N == 5:
                # one imaginary entry off its conjugate partner: exactly
                # 1 added to Im S_5[0, n], on the scale of S_5 / 5^(n/2)
                sums[i, 0, n] += 1j / 5 ** (n / 2)
        return sums, sizes

    monkeypatch.setattr(hecke, "_float_shell_sums", perturbed)
    with pytest.raises(hecke.DegeneracyError, match=r"T_5 not real symmetric"):
        hecke._row_operators(4, [1, 3, 5, 9])
    with pytest.raises(hecke.DegeneracyError, match=r"T_5 not real symmetric"):
        decompose(4, primes=(3, 5))


def test_decompose_takes_no_seed():
    with pytest.raises(TypeError):
        decompose(4, seed=7)


def test_decompose_is_deterministic(monkeypatch):
    # no number is drawn: with the float shell sums summed again, a second
    # solve gives the same bits
    first = decompose(24, primes=(3, 5))
    monkeypatch.setattr(hecke, "_FLOAT_SUMS", {})
    second = decompose(24, primes=(3, 5))
    assert first.group_margin == second.group_margin
    assert len(first.spaces) == len(second.spaces)
    for a, b in zip(first.spaces, second.spaces):
        assert a.lams == b.lams and a.t1_flag == b.t1_flag
        assert a.basis.tobytes() == b.basis.tobytes()


def test_forced_tie_is_split_by_the_next_prime(monkeypatch):
    # move the T_3 eigenvalue of one dim-1 flagged class onto that of
    # another in the same u class: T_3 still commutes with T_1 and T_5 but
    # no longer splits the two, and T_5 on the tied cluster must
    n = 24
    clusters = []
    solve = hecke._eigh_in_turn

    def spy(ops):
        if len(ops) == 1:  # T_5 on a cluster of T_3
            clusters.append(len(ops[0]))
        return solve(ops)

    monkeypatch.setattr(hecke, "_eigh_in_turn", spy)
    ref = decompose(n, primes=(3, 5))
    # unpatched, T_3 alone splits every block at this degree
    assert clusters == []
    cls = unit_classes(n)
    a, b = [sp for sp in ref.spaces
            if sp.t1_flag and sp.basis.shape[1] == 1
            and cls[np.abs(sp.basis[:, 0]).argmax()] == 0][:2]
    v = a.basis[:, 0]
    _perturb_row_operator(monkeypatch, 3,
                          (b.lams[3] - a.lams[3]) * np.outer(v, v))
    dec = decompose(n, primes=(3, 5))
    assert clusters == [2]
    # the classes are the unpatched ones, in another order: same flags,
    # multiplicities, lambda(1) and lambda(5), and bases up to sign
    def key(sp):
        return sp.t1_flag, sp.lams[5], sp.basis.shape[1]

    assert len(dec.spaces) == len(ref.spaces)
    for sp, rp in zip(sorted(dec.spaces, key=key), sorted(ref.spaces, key=key)):
        assert (sp.multiplicity, sp.t1_flag) == (rp.multiplicity, rp.t1_flag)
        for N in (1, 5):
            assert sp.lams[N] == pytest.approx(rp.lams[N], abs=1e-12)
        assert np.allclose(np.abs(sp.basis.T @ rp.basis),
                           np.eye(sp.basis.shape[1]), atol=1e-10)
    # the tied pair both read the lambda(3) that was moved onto
    for w in (v, b.basis[:, 0]):
        (sp,) = [sp for sp in dec.spaces
                 if sp.basis.shape[1] == 1 and abs(sp.basis[:, 0] @ w) > 0.5]
        assert sp.lams[3] == pytest.approx(b.lams[3], abs=1e-12)


def test_class_counts_at_low_degree_and_at_256():
    # n = 0: the constant function; n = 2: nothing is flagged
    assert hecke.expected_classes(0) == (1, 0)
    assert hecke.expected_classes(2) == (0, 0)
    for n in (0, 2, 256):
        dims = [sp.basis.shape[1] for sp in decompose(n, primes=(3, 5)).spaces
                if sp.t1_flag]
        d2, d4 = hecke.expected_classes(n)
        assert (dims.count(1), dims.count(2), len(dims)) == (d2, d4, d2 + d4)
        assert type(d2) is int and type(d4) is int
    assert hecke.expected_classes(256) == _newform_dims(256) == (21, 22)
    with pytest.raises(ValueError):
        hecke.expected_classes(5)


def test_merged_classes_are_refused(monkeypatch):
    # a grouping that merges two flagged classes leaves a space that passes
    # every residual but breaks the class counts
    group = hecke._group

    def merged(tables, primes):
        groups = group(tables, primes)
        i, j = [k for k, g in enumerate(groups) if tables[1][g[0]] > 0.5][:2]
        return ([groups[i] + groups[j]]
                + [g for k, g in enumerate(groups) if k not in (i, j)])

    monkeypatch.setattr(hecke, "_group", merged)
    d2, d4 = hecke.expected_classes(12)
    with pytest.raises(hecke.DegeneracyError) as exc:
        decompose(12, primes=(3, 5))
    assert str(exc.value).startswith("n=12: ")
    assert f"(d2, d4) = ({d2}, {d4})" in str(exc.value)
