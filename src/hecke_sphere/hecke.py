"""Hecke operators on the degree-n harmonic subspace.

The unscaled operator is f(x) -> sum over nr(m) = N of f(m x); the Hecke
operator T_N is that sum divided by 8 N^(n/2).  The harmonic basis is
made of the real and imaginary parts of the matrix coefficients t_{ba} of
T(x) = Sym^n of the 2x2 model of x (see ``poly``).  Since T(m x) =
T(m) T(x), the unscaled operator sends t_{ba} to sum_c S_N[b, c] t_{ca},
where S_N = sum_{nr(m)=N} T(m) is an exact (n+1) x (n+1) matrix of
Gaussian integers; it acts on the row label alone.  The matrix in the
harmonic basis follows by taking real and imaginary parts, with the
conjugation rule t_{n-b,n-a} = (-1)^(a+b) conj t_{ba} and the contents of
the basis polynomials.  The exact and float matrices are the same integer
map, divided exactly or in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import numpy as np

from .poly import HarmonicBasis, harmonic_basis, sym_power_values
from .quat import enumerate_shell


class DegeneracyError(Exception):
    """Joint diagonalisation failed; re-draw the random combination."""


def _shell_true_coords(N: int):
    sh = enumerate_shell(N, "integral")
    return (sh.coords // 2).tolist()


@lru_cache(maxsize=None)
def shell_monomial_matrix(n: int, N: int) -> np.ndarray:
    """S_N = sum over the norm-N shell of T(m), exact; shape (2, n+1, n+1).

    Entry [0] is the real part and [1] the imaginary part, as Python
    integers in an object array.  T(m) acts on binary forms of degree n,
    so its rows and columns are indexed by the monomials X^b Y^(n-b).
    """
    coords = np.array(_shell_true_coords(N), dtype=object)
    total = sym_power_values(coords, n).sum(axis=-1)
    total.setflags(write=False)
    return total


def _part_coordinates(hb: HarmonicBasis):
    """Where the real and imaginary parts of every t_{ca} sit in the basis.

    Returns (index, factor), arrays of shape (2, n+1, n+1) indexed
    [part, c, a], with part(t_{ca}) = factor * basis[index]; the factor is
    0 for the vanishing imaginary part of a self-conjugate entry.
    """
    n = hb.n
    where = {lab: i for i, lab in enumerate(hb.labels)}
    index = np.zeros((2, n + 1, n + 1), dtype=np.intp)
    factor = np.zeros((2, n + 1, n + 1), dtype=object)
    for c in range(n + 1):
        for a in range(n + 1):
            rep = min((c, a), (n - c, n - a))
            if rep == (c, a):
                signs = (1, 1)
            else:  # t_{n-c,n-a} = (-1)^(c+a) conj t_{ca}
                s = (-1) ** (c + a)
                signs = (s, -s)
            for part in (0, 1):
                i = where.get(rep + (part,))
                if i is not None:
                    index[part, c, a] = i
                    factor[part, c, a] = signs[part] * hb.contents[i]
    return index, factor


def _unscaled_map(n: int, N: int):
    """Integer matrix R and contents c; the unscaled operator is R[j, i] / c[i].

    basis[i] = part(t_{ba}) / c[i] is sent to part(sum_c S_N[b, c] t_{ca})
    / c[i]; R[:, i] holds the basis coordinates of the numerator.
    """
    hb = harmonic_basis(n)
    s_re, s_im = shell_monomial_matrix(n, N)
    index, factor = _part_coordinates(hb)
    b, a, part = np.array(hb.labels, dtype=np.intp).T
    imag = part[:, None] == 1
    # Re(S t) = S_re Re t - S_im Im t and Im(S t) = S_im Re t + S_re Im t:
    # coefficients of Re t_{c a} and Im t_{c a} in column i, shape (dim, n+1)
    on_re = np.where(imag, s_im[b], s_re[b])
    on_im = np.where(imag, s_re[b], -s_im[b])
    R = np.zeros((hb.dim, hb.dim), dtype=object)
    cols = np.arange(hb.dim)[:, None]
    # a = n/2 sends t_{ca} and t_{n-c,a} to one basis vector: accumulate
    np.add.at(R, (index[0][:, a].T, cols), on_re * factor[0][:, a].T)
    np.add.at(R, (index[1][:, a].T, cols), on_im * factor[1][:, a].T)
    return R, np.array(hb.contents, dtype=object)


@dataclass(frozen=True)
class HeckeMatrix:
    """Exact matrix of 8 N^(n/2) T_N in the harmonic basis.

    ``entries / denom`` is the matrix of the unscaled operator
    f -> sum_{nr(m)=N} f(m x); T_N itself is that divided by 8 N^(n/2).
    ``denom`` is 1 whenever the unscaled matrix is integral.
    """

    n: int
    N: int
    entries: tuple
    denom: int

    @property
    def dim(self):
        return len(self.entries)

    def unscaled(self) -> np.ndarray:
        """Object array of the integer matrix ``denom * (8 N^(n/2) T_N)``."""
        return np.array([[v for v in row] for row in self.entries], dtype=object)

    def scale(self) -> Fraction:
        """T_N = scale * entries (requires n even or N a perfect square)."""
        return Fraction(1, 8 * self.denom * _int_pow_half(self.N, self.n))


def _int_pow_half(N: int, n: int) -> int:
    if n % 2 == 0:
        return N ** (n // 2)
    r = isqrt(N)
    if r * r != N:
        raise ValueError("N^(n/2) is not integral for odd n and non-square N")
    return r ** n


@lru_cache(maxsize=None)
def hecke_matrix(n: int, N: int) -> HeckeMatrix:
    """Exact Hecke matrix in the harmonic basis (columns = images of basis)."""
    if n < 0 or N < 1:
        raise ValueError("need n >= 0 and N >= 1")
    R, c = _unscaled_map(n, N)
    # column i is R[:, i] / c[i] with reduced denominator c[i] / g[i]
    g = np.gcd.reduce(np.vstack([R, c[None, :]]), axis=0)
    d = math.lcm(*(abs(v) for v in c // g))
    entries = (R // g) * (d // (c // g))
    return HeckeMatrix(n, N, tuple(map(tuple, entries.tolist())), d)


@lru_cache(maxsize=None)
def hecke_matrix_float(n: int, N: int) -> np.ndarray:
    """Float matrix of the scaled operator T_N (harmonic-basis coordinates)."""
    R, c = _unscaled_map(n, N)
    return R.astype(float) / c.astype(float) / (8.0 * float(N) ** (n / 2))


def t1_vanishing(n: int) -> bool:
    """Exact vanishing of the T_1 matrix; true for every odd n."""
    hm = hecke_matrix(n, 1)
    return all(v == 0 for row in hm.entries for v in row)


def selfadjoint_check(n: int, N: int) -> bool:
    """Exact self-adjointness test G A = A^T G against the Gram matrix."""
    hb = harmonic_basis(n)
    A = hecke_matrix(n, N).entries
    g = hb.gram
    dim = hb.dim
    for i in range(dim):
        for j in range(dim):
            if g[i] * A[i][j] != g[j] * A[j][i]:
                return False
    return True


def hecke_relations_check(n: int, primes=(3, 5), alpha_max: int = 2,
                          extra_commuting=()) -> dict:
    """Exact integer-matrix verification of the Hecke algebra relations.

    Checks multiplicativity T_M T_N = T_{MN} for distinct odd primes,
    the recursion T_{p^2} = T_p^2 - p T_1, and vanishing commutators over
    the primes, their squares, products, and ``extra_commuting``.
    """
    if n % 2:
        raise ValueError("relations are checked on even n")
    report = {}
    primes = tuple(sorted(primes))

    def U(N):
        hm = hecke_matrix(n, N)
        if hm.denom != 1:
            # unscaled matrix should be integral; fall back to cleared entries
            report.setdefault("nonintegral", []).append((N, hm.denom))
        return hm.unscaled(), hm.denom

    mats = {}
    Ns = set([1]) | set(primes) | {p * p for p in primes} | set(extra_commuting)
    for p in primes:
        for q in primes:
            if p < q:
                Ns.add(p * q)
    for N in sorted(Ns):
        mats[N] = U(N)

    def TN(N):
        # exact Fraction matrix of T_N
        E, d = mats[N]
        s = Fraction(1, 8 * d * N ** (n // 2))
        return E, s

    for p in primes:
        for q in primes:
            if p >= q:
                continue
            Ep, sp = TN(p)
            Eq, sq = TN(q)
            Epq, spq = TN(p * q)
            lhs = Ep @ Eq
            # sp*sq*lhs == spq*Epq  <=>  cross-multiplied integers agree
            c = sp * sq / spq
            ok = bool(np.all(lhs * c.numerator == Epq * c.denominator))
            report[f"T{p}*T{q}=T{p*q}"] = ok

    for p in primes:
        if alpha_max < 2:
            continue
        Ep, sp = TN(p)
        Ep2, sp2 = TN(p * p)
        E1, s1 = TN(1)
        lhs = Ep @ Ep
        # T_{p^2} = T_p^2 - p T_1
        c2 = sp * sp / sp2
        c1 = p * s1 / sp2
        ok = bool(np.all(Ep2 * (c2.denominator * c1.denominator)
                         == lhs * (c2.numerator * c1.denominator)
                         - E1 * (c1.numerator * c2.denominator)))
        report[f"T{p * p}=T{p}^2-{p}*T1"] = ok

    keys = sorted(mats)
    for a in range(len(keys)):
        for b in range(a + 1, len(keys)):
            M1, _ = mats[keys[a]]
            M2, _ = mats[keys[b]]
            ok = bool(np.all(M1 @ M2 == M2 @ M1))
            report[f"[T{keys[a]},T{keys[b]}]=0"] = ok

    report["all_pass"] = all(v for k, v in report.items()
                             if isinstance(v, bool))
    return report


# ---------------------------------------------------------------------------
# joint spectral decomposition


@dataclass(frozen=True)
class EigenSpace:
    """One joint eigenspace V_lambda with its eigenvalue table."""

    lams: dict
    vectors: np.ndarray  # (dim, multiplicity), coordinates in the rational basis
    t1_flag: int

    @property
    def multiplicity(self):
        return self.vectors.shape[1]


@dataclass(frozen=True)
class SpectralDecomposition:
    n: int
    primes: tuple
    extras: tuple
    seed: int
    spaces: tuple

    @property
    def dim(self):
        return sum(s.multiplicity for s in self.spaces)

    def all_vectors(self):
        return np.concatenate([s.vectors for s in self.spaces], axis=1)

    def eigenvalue_of(self, space: EigenSpace, N: int) -> float:
        lam = space.lams.get(N)
        if lam is None:
            raise KeyError(
                f"eigenvalue for N={N} not computed; add it to even_extras")
        return lam


def _whitened_operator(n: int, N: int, sqrt_g: np.ndarray) -> np.ndarray:
    T = hecke_matrix_float(n, N)
    S = (sqrt_g[:, None] * T) / sqrt_g[None, :]
    asym = np.abs(S - S.T).max() / max(np.abs(S).max(), 1e-30)
    if asym > 1e-9:
        raise DegeneracyError(f"whitened T_{N} not symmetric (asym {asym:.2e})")
    return 0.5 * (S + S.T)


def joint_eigenspaces(n: int, primes=(3, 5), even_extras=(), seed: int = 0,
                      group_tol: float = 1e-7) -> SpectralDecomposition:
    """Simultaneous diagonalisation of the odd Hecke operators.

    A fixed-seed random integer combination of the whitened prime operators
    is diagonalised; eigenvectors are validated per operator by residual and
    grouped into V_lambda by matching eigenvalue tables.
    """
    if n % 2:
        raise ValueError("joint decomposition is computed for even n")
    if not primes:
        raise ValueError("need at least one odd prime")
    hb = harmonic_basis(n)
    dim = hb.dim
    sqrt_g = np.sqrt(np.array(hb.gram, dtype=float))

    Ns = sorted(set(primes) | set(even_extras) | {1})
    ops = {N: _whitened_operator(n, N, sqrt_g) for N in Ns}

    rng = np.random.default_rng(seed)
    coeffs = rng.integers(1, 1000, size=len(primes))
    combo = sum(int(c) * ops[p] for c, p in zip(coeffs, primes))
    _, vecs = np.linalg.eigh(combo)

    tables = {}
    for N in Ns:
        S = ops[N]
        SV = S @ vecs
        lam = np.einsum("ij,ij->j", vecs, SV)
        resid = np.linalg.norm(SV - vecs * lam[None, :], axis=0)
        tol = 1e-9 * max(np.linalg.norm(S), 1.0)
        if resid.max() > tol:
            raise DegeneracyError(
                f"n={n} N={N}: residual {resid.max():.3e} exceeds {tol:.3e}; "
                f"re-draw with a different seed")
        tables[N] = lam

    # group eigenvectors whose prime tables agree within tolerance
    order = np.lexsort(tuple(tables[p] for p in reversed(primes)))
    groups = []
    for j in order:
        placed = False
        for g in groups:
            r = g[0]
            if all(abs(tables[p][j] - tables[p][r]) <= group_tol * (1 + abs(tables[p][r]))
                   for p in primes):
                g.append(j)
                placed = True
                break
        if placed is False:
            groups.append([j])

    spaces = []
    for g in groups:
        idxs = np.array(g)
        lams = {N: float(np.mean(tables[N][idxs])) for N in Ns}
        t1 = 1 if lams[1] > 0.5 else 0
        coords = vecs[:, idxs] / sqrt_g[:, None]
        spaces.append(EigenSpace(lams=lams, vectors=coords, t1_flag=t1))
    dec = SpectralDecomposition(n=n, primes=tuple(primes),
                                extras=tuple(even_extras), seed=seed,
                                spaces=tuple(spaces))
    assert dec.dim == dim
    return dec


def decompose(n: int, primes=(3, 5), even_extras=(), seed: int = 0,
              retries: int = 5) -> SpectralDecomposition:
    """joint_eigenspaces with automatic seed re-draws on degeneracy."""
    last = None
    for s in range(seed, seed + retries):
        try:
            return joint_eigenspaces(n, primes, even_extras, seed=s)
        except DegeneracyError as exc:
            last = exc
    raise last
