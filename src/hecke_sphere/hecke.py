"""Hecke operators on the degree-n harmonic subspace.

The unscaled operator is f(x) -> sum over nr(m) = N of f(m x); the Hecke
operator T_N is that sum divided by 8 N^(n/2).  The degree-n harmonics are
spanned by the matrix coefficients t_{ba} of T(x) = Sym^n of the 2x2 model
of x (see ``poly``).  Since T(m x) = T(m) T(x), the unscaled operator sends
f_{v,a}(x) = sum_b v_b t_{ba}(x) to f_{S_N^T v, a}, where
S_N = sum_{nr(m)=N} T(m) is an (n+1) x (n+1) matrix: every Hecke operator
acts on the row label alone.  S_N is real: the conjugate of the 2x2 model
of x is the model of x' = (x1, -x2, x3, -x4), so T(x') = conj T(x), and
every shell is closed under x -> x'.  So S_N is stored as one exact
integer matrix; ``shell_monomial_matrices`` refuses a sum whose imaginary
part is not zero.  The exact checks read S_N directly.  The matrices in the
harmonic basis (real and imaginary parts of the t_{ba}, made primitive)
follow from S_N by the conjugation rule t_{n-b,n-a} = (-1)^(a+b) conj
t_{ba} and the contents, since part(S_N t) = S_N part(t).

Every shell is a disjoint union of eight-point left-unit orbits {u m}, and
T(u m) = T(u) T(m), so S_N = S_1 R_N: R_N sums T over one point per orbit
and S_1 over the eight units.  ``shell_monomial_matrices`` forms the exact
S_N, and ``_float_shell_sums`` the float D_N (below) from the unit points
m / sqrt N, each for a set of N from one join (m in Z^4) and through one
block loop, ``_run_sums``, sized by ``SHELL_BLOCK``.  Both sum the columns
a <= n/2 that ``sym_power_values`` returns: the conjugation rule holds
point by point, so for every sum, and ``complete_columns`` fills in the
rest of S_1 and S_N (of D_1 and D_N), S_1 before the product, which reads
every column of S_1.  The exact layer is the one place where integers
live, in the integer frame of T; the exact S_N are the oracle:
``hecke_relations_check`` (all products S_a S_b in one stacked product),
``selfadjoint_check`` and ``t1_vanishing`` read them.  ``decompose``
diagonalises the primes in turn on each class of left u (``unit_classes``),
clustering and grouping within ``GROUP_TOL``, and refuses class counts
other than ``expected_classes``; ``hecke_eigenvalues`` reads lambda(N) of
every class for any N on demand from the finished decomposition, through
the same residual check.

The spectral layer forms no (n+1)^2 x (n+1)^2 matrix, and it works in the
unitary frame D(x) = G^(-1/2) T(x) G^(1/2), G = diag C(n, b), of ``poly``.
With W = C^(n+1) and v (x) e_a <-> g_{v,a} = sqrt(n + 1) sum_b v_b D_{ba},
each joint eigenspace is V_lambda = W_lambda (x) C^(n+1), W_lambda a joint
eigenspace of the D_N^T, where D_N = G^(-1/2) S_N G^(1/2) / N^(n/2) and T_N
acts as D_N^T / 8.  By Schur orthogonality int g_{v,a} conj g_{w,c} =
delta_{ac} sum_b v_b conj(w_b), so the D_N^T are self-adjoint; in the
integer frame this is the exact ``selfadjoint_check``.  The conjugation
rule gives conj g_{v,a} = (-1)^a g_{v*,n-a} with
v* = ((-1)^b conj v_b)_{n-b}, and v -> v* commutes with the real T_N.  In
an orthonormal basis of its fixed vectors (``row_basis``) every T_N is a
real symmetric (n+1) x (n+1) matrix, which ``decompose`` diagonalises.

Which basis.  No basis-invariant pointwise statistic of a block varies
with x, so the plain fourth moment sum_j phi_j^4 and the individual sup
max_j |phi_j| of ``moments`` are only defined once a basis inside each
V_lambda is fixed.  The paper text kept with this package (the abstract)
does not say which.  In a V_lambda flagged by T_1 this package takes the
joint eigenlines of three real operators that commute with every T_N:
right rotation x -> x e^{i theta}, diagonal on the column label a with
the column pairs {a, n - a} as isotypic pieces; right multiplication by
j, which sends column a to (-1)^a times column n - a, so g_a(x j) =
conj g_a(x) and its eigenlines are Re g_a and Im g_a
(``moments.eigen_values``); and left multiplication by u = (1 + i)/sqrt 2,
which normalises the Lipschitz order.  Left u is the sign 1 - c on the
coordinates of class c of ``unit_classes``, and it breaks the tie where
dim W_lambda > 1 (n = 4, 8, 10, ...), which more primes do not split.
``decompose`` diagonalises each class on its own, so every flagged column
lies in one class: the basis is fixed up to signs no statistic sees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import comb, isqrt

import numpy as np

from .poly import (
    HarmonicBasis, complete_columns, harmonic_basis, sym_power_values,
)
from .quat import _shell_join


class DegeneracyError(Exception):
    """A float T_N is not real symmetric or not diagonal in the eigenbasis,
    or the flagged class counts are not ``expected_classes``."""


def _int64_exact(n: int, N: int, size: int) -> bool:
    """Whether ``size`` points of norm N give S_N exactly in int64.

    True iff size 2^n N^(n/2) < 2^63, the bound stated in
    ``shell_monomial_matrices``; it is compared squared,
    size^2 4^n N^n < 2^126, so that odd n stays in exact integers.
    """
    return size * size * 4 ** n * N ** n < 2 ** 126


#: most entries of T (points x (n+1)(n/2+1), the columns a <= n/2) that
#: one block of ``_run_sums`` holds, in int64 (``shell_monomial_matrices``)
#: or in floats (``_float_shell_sums``)
SHELL_BLOCK = 2 ** 14

#: the left units 1, i, j, k, -1, -i, -j, -k in integral coordinates, as
#: a tuple so that importing the module builds no array
UNITS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
         (-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1))

#: ``_orbit_mask`` is exact in int64 for coordinates of modulus below
#: this, so on the Z^4 coordinates of every shell of norm N < 2^30
ORBIT_KEY_COORD = 2 ** 15


def _orbit_mask(coords, r: int) -> np.ndarray:
    """True at one point of each left-unit orbit {u m} among ``coords``.

    The units act on the left by i m = (-b, a, -d, c), j m = (-c, d, a, -b)
    and k m = (-d, -c, b, a) for m = (a, b, c, d), and -1 by negation, so
    the orbit of m is {+-m, +-i m, +-j m, +-k m}, eight distinct points.
    The key x . (B^3, B^2, B, 1), with B = 2r + 1 and r at least every
    |coordinate|, orders the box [-r, r]^4 lexicographically (balanced
    base-B digits) and is odd, key(-x) = -key(x); so m is the
    lexicographically largest point of its orbit iff its key k1 exceeds
    |k_i|, |k_j| and |k_k|, the keys of i m, j m and k m.  Every key is at
    most r (B^4 - 1) / (B - 1) = (B^4 - 1) / 2 in modulus, below 2^63 iff
    r < ``ORBIT_KEY_COORD``; a larger r raises ``ValueError``.
    """
    if r >= ORBIT_KEY_COORD:
        raise ValueError(f"orbit key needs coordinates below {ORBIT_KEY_COORD}")
    B = 2 * r + 1
    a, b, c, d = coords.T
    k1 = ((a * B + b) * B + c) * B + d
    lo = -k1
    keep = np.ones(len(coords), dtype=bool)
    for k in (((b * -B + a) * B - d) * B + c,
              ((c * -B + d) * B + a) * B - b,
              ((d * -B - c) * B + b) * B + a):
        keep &= (lo < k) & (k < k1)
    return keep


def _orbit_representatives(n: int, Ns):
    """(reps, counts): one point per left-unit orbit of each norm-N shell.

    ``reps`` holds the Z^4 coordinates of the orbit representatives
    (``_orbit_mask``) of the shells of ``Ns`` from one ``_shell_join``,
    concatenated in the order of ``Ns``, and ``counts`` their number per
    shell.  A shell that is not a union of whole orbits, |shell| != 8
    #reps, raises ``ArithmeticError`` naming n and N.
    """
    coords, sizes = _shell_join(Ns, "integral")
    keep = _orbit_mask(coords, isqrt(max(Ns)))
    shell = np.repeat(np.arange(len(Ns)), sizes)
    counts = np.bincount(shell[keep], minlength=len(Ns))
    for N, size, count in zip(Ns, sizes.tolist(), counts.tolist()):
        if size != 8 * count:
            raise ArithmeticError(
                f"S_{N} at n={n}: the norm-{N} shell ({size} points) is not "
                f"a union of whole left-unit orbits ({count} representatives)")
    return coords[keep], counts


#: S_N per (n, N), filled by ``shell_monomial_matrices``
_SHELL_SUMS: dict = {}


def _run_sums(pts, n: int, sizes) -> np.ndarray:
    """Sum of ``sym_power_values(pts, n)`` over each run of ``pts``.

    ``pts`` is cut into consecutive runs of ``sizes`` points; the result
    has one entry per run, of the shape and dtype of the values of a point.
    The values are taken in order on blocks of whole runs, of at most
    ``step`` points: the most whose (n+1)(n/2+1) entries each fit in
    ``SHELL_BLOCK``, and at least one.  A longer run starts a block and is
    cut at multiples of ``step`` from its own start; its last piece starts
    the block that the next runs join.  So a run is cut where it would be
    alone, and its float sum does not depend on the runs summed with it.
    One ``np.add.reduceat`` sums the pieces of the runs inside a block, and
    each piece is added to its run's total in order.
    """
    step = max(1, SHELL_BLOCK // ((n + 1) * (n // 2 + 1)))
    starts, end = [0], 0
    for size in sizes:
        end += size
        if end - starts[-1] > step:
            if end - size > starts[-1]:
                starts.append(end - size)
            starts += range(starts[-1] + step, end, step)
    run = np.repeat(np.arange(len(sizes)), sizes)
    R = None
    for i, j in zip(starts, starts[1:] + [len(pts)]):
        ids = run[i:j]
        # where each run's piece starts inside the block
        cut = np.flatnonzero(np.diff(ids, prepend=-1))
        part = np.add.reduceat(sym_power_values(pts[i:j], n), cut, axis=-1)
        if R is None:
            R = np.zeros((len(sizes),) + part.shape[:-1], dtype=part.dtype)
        R[ids[cut]] += np.moveaxis(part, -1, 0)
    return R


def shell_monomial_matrices(n: int, Ns) -> tuple:
    """S_N = sum over the norm-N shell of T(m) for every N in ``Ns``, in order.

    Each S_N is exact and real, of shape (n+1, n+1), as Python integers in
    a read-only object array.  T(m) acts on binary forms of degree n, so
    its rows and columns are indexed by the monomials X^b Y^(n-b).
    Results are cached per (n, N); the shells not yet cached come from one
    ``_shell_join``.

    Each shell is a disjoint union of left-unit orbits {u m}, and
    T(u m) = T(u) T(m), so S_N = S_1 R_N with R_N the sum of T over one
    point per orbit (``_orbit_representatives``) and S_1 = sum_u T(u).
    ``_run_sums``, the loop of ``_float_shell_sums``, takes the eight units
    and the representatives of every shell within the int64 bound below in
    int64, in the columns a <= n/2; a shell above the bound is one
    ``sym_power_values`` pass on Python integers, summed at once.  S_1 is
    real, since the units are closed under the conjugation x -> x' of the
    module docstring, and S_1 = 0 at odd n, where T(-u) = -T(u);
    ``complete_columns`` gives all of its columns.
    So S_1 Im R_N is zero; it is formed on the columns a <= n/2, whose
    conjugates are the rest, and a sum where it is not raises
    ``ArithmeticError`` and caches nothing.  S_N = S_1 Re R_N is formed
    in the dtype of R_N and completed.

    Each T(u) has one entry of modulus 1 per row and column, since the 2x2
    model of a unit is diagonal or antidiagonal with unit entries; so the
    forms of the unit points are monomials, exact in int64 at any n, and
    every partial sum of a row of S_1 times a column of R_N is at most
    8 max |R_N|.  Every coefficient of the linear forms z X - conj(w) Y
    and w X + conj(z) Y of ``sym_power_values`` has modulus at most
    sqrt N, so the coefficient of X^(d-j) Y^j in a product of d of them
    has modulus at most C(d, j) N^(d/2).  In ``_form_mul`` each real
    product u_r g_r - u_i g_i (or u_r g_i + u_i g_r) is at most |u| |g| by
    Cauchy-Schwarz, so for factors of degrees e and d - e every partial
    sum of a product coefficient is at most sum_s C(e, s) C(d - e, j - s)
    N^(d/2) = C(d, j) N^(d/2) by Vandermonde, and so at most 2^n N^(n/2)
    for d <= n.  Every partial sum of R_N, over any subset of the
    representatives, is then at most #reps 2^n N^(n/2): this covers a
    shell split across blocks, whose pieces are summed in turn.  Every
    partial sum of S_1 R_N is at most 8 #reps 2^n N^(n/2) = |shell| 2^n
    N^(n/2); ``_int64_exact`` requires that below 2^63.  A shell above
    that bound is summed on Python integers, in one pass: its cost is
    big-integer arithmetic, and smaller blocks would only add
    ``_form_mul`` calls.
    """
    Ns = [int(N) for N in Ns]
    todo = sorted({N for N in Ns if (n, N) not in _SHELL_SUMS})
    if todo:
        reps, counts = _orbit_representatives(n, todo)
        shells = np.split(reps, np.cumsum(counts)[:-1])
        exact = [_int64_exact(n, N, 8 * len(s)) for N, s in zip(todo, shells)]
        small = [s for s, e in zip(shells, exact) if e]
        # run 0 is the units, exact in int64 at any n (below)
        R = iter(_run_sums(
            np.concatenate([np.array(UNITS, dtype=np.int64)] + small), n,
            [len(UNITS)] + [len(s) for s in small]))
        S1 = complete_columns(next(R)[0], n)
        totals = [S1 @ (next(R) if e else
                        sym_power_values(s.astype(object), n).sum(axis=-1))
                  for s, e in zip(shells, exact)]
        for N, total in zip(todo, totals):
            if np.any(total[1]):
                raise ArithmeticError(
                    f"S_{N} at n={n} has a nonzero imaginary part: "
                    f"the norm-{N} shell is not closed under conjugation")
        for N, total in zip(todo, totals):
            total = complete_columns(total[0], n).astype(object)
            total.setflags(write=False)
            _SHELL_SUMS[n, N] = total
    return tuple(_SHELL_SUMS[n, N] for N in Ns)


# also an lru_cache, so that its hits can be counted (perfbench/tracer.py)
@lru_cache(maxsize=None)
def shell_monomial_matrix(n: int, N: int) -> np.ndarray:
    """S_N of one shell, exact and real; shape (n+1, n+1).

    The one-N call of ``shell_monomial_matrices``, which states the layout
    and the int64 bound; that bound holds per shell, so a shell is summed
    in int64 or on Python integers alike here and in a batch.
    """
    return shell_monomial_matrices(n, [N])[0]


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
    S = shell_monomial_matrix(n, N)
    index, factor = _part_coordinates(hb)
    b, a, part = np.array(hb.labels, dtype=np.intp).T
    # S is real, so part(S t) = S part(t): column i holds S[b, c] times
    # the coordinates of part(t_{c a}), indexed [i, c]
    at = (part[:, None], np.arange(n + 1), a[:, None])
    R = np.zeros((hb.dim, hb.dim), dtype=object)
    # a = n/2 sends t_{ca} and t_{n-c,a} to one basis vector: accumulate
    np.add.at(R, (index[at], np.arange(hb.dim)[:, None]), S[b] * factor[at])
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
    """Exact vanishing of T_1, read off S_1; true for every odd n."""
    return not np.any(shell_monomial_matrix(n, 1))


def selfadjoint_check(n: int, N: int) -> bool:
    """Exact self-adjointness: C(n, c) S_N[b, c] = S_N[c, b] C(n, b).

    This is G S_N^T = S_N G in integers, G = diag C(n, b): D_N^T is
    symmetric in the unitary frame of the module docstring.  S_N is real
    (``shell_monomial_matrices``), so no conjugate enters.
    """
    S = shell_monomial_matrix(n, N)
    w = np.array([comb(n, b) for b in range(n + 1)], dtype=object)
    return bool(np.all(S * w == S.T * w[:, None]))


def odd_primes(primes) -> tuple:
    """``primes`` as a tuple, in order; ValueError unless distinct odd primes.

    The relations and the joint decomposition are stated for odd primes:
    T_2 and prime powers obey other relations.
    """
    primes = tuple(primes)
    for p in primes:
        if p < 3 or not all(p % d for d in range(2, isqrt(p) + 1)):
            raise ValueError(f"{p} is not an odd prime")
    if len(set(primes)) != len(primes):
        raise ValueError(f"primes {primes} are not distinct")
    return primes


def hecke_relations_check(n: int, primes=(3, 5)) -> dict:
    """Exact verification of the Hecke algebra relations on the shell sums.

    T_N = S_N / (8 N^(n/2)) acts through S_N on the row label, so
    multiplicativity T_p T_q = T_{pq} for distinct odd primes reads
    S_p S_q = 8 S_{pq}, the recursion T_{p^2} = T_p^2 - p T_1 reads
    8 S_{p^2} = S_p^2 - 8 p^(n+1) S_1, and the commutators are taken over
    1, the primes, their squares and their pairwise products.
    ``primes`` must be distinct odd primes (``odd_primes``).
    """
    if n % 2:
        raise ValueError("relations are checked on even n")
    report = {}
    primes = tuple(sorted(odd_primes(primes)))
    Ns = {1} | set(primes) | {p * p for p in primes}
    Ns |= {p * q for p in primes for q in primes if p < q}
    keys = sorted(Ns)
    S = dict(zip(keys, shell_monomial_matrices(n, keys)))
    # the squares S_p S_p, and both orders of every pair of keys (p q too)
    pairs = [(p, p) for p in primes]
    pairs += [ab for i, a in enumerate(keys) for b in keys[i + 1:]
              for ab in ((a, b), (b, a))]
    A = np.stack([S[a] for a, _ in pairs])
    B = np.stack([S[b] for _, b in pairs])
    prod = dict(zip(pairs, A @ B))

    for p in primes:
        for q in primes:
            if p < q:
                report[f"T{p}*T{q}=T{p*q}"] = bool(np.all(
                    prod[p, q] == 8 * S[p * q]))
    for p in primes:
        report[f"T{p * p}=T{p}^2-{p}*T1"] = bool(np.all(
            8 * S[p * p] == prod[p, p] - 8 * p ** (n + 1) * S[1]))
    for i, a in enumerate(keys):
        for b in keys[i + 1:]:
            report[f"[T{a},T{b}]=0"] = bool(np.all(prod[a, b] == prod[b, a]))

    report["all_pass"] = all(report.values())
    return report


# ---------------------------------------------------------------------------
# joint spectral decomposition on the row space


@lru_cache(maxsize=None)
def row_basis(n: int) -> np.ndarray:
    """Columns P of row vectors v with P^H P = I and v* = v, unitary frame.

    Column k < n/2 is (e_k + (-1)^k e_{n-k}) / sqrt 2, column n - k is
    i (e_k - (-1)^k e_{n-k}) / sqrt 2 and column n/2 is e_{n/2} or
    i e_{n/2} as n/2 is even or odd.
    """
    if n % 2:
        raise ValueError("the real row basis is built for even n")
    h = n // 2
    P = np.zeros((n + 1, n + 1), dtype=complex)
    for k in range(h):
        s = (-1) ** k
        P[[k, n - k], k] = np.array([1, s]) / math.sqrt(2)
        P[[k, n - k], n - k] = np.array([1j, -1j * s]) / math.sqrt(2)
    P[h, h] = 1j ** (h % 2)
    P.setflags(write=False)
    return P


@lru_cache(maxsize=None)
def unit_classes(n: int) -> np.ndarray:
    """Per ``row_basis(n)`` coordinate k: the sign class of left u, or -1.

    S_1 / 8, the average over the eight units, is in these coordinates the
    0/1 indicator of the k <= n/2 with k = n/2 mod 2, less k = n/2 when n/2
    is odd: inv(n) = (n + 1 + 3 (-1)^(n/2)) / 4 of them.  There left u acts
    as (-1)^((k - n/2)/2), and the class is (k - n/2) mod 4, 0 or 2; every
    other k is -1.  Each T_N = S_1 R_N / (8 N^(n/2)) vanishes off the fixed
    k and commutes with left u, so it couples no two classes.
    """
    if n % 2:
        raise ValueError("the unit classes are built for even n")
    h = n // 2
    k = np.arange(n + 1)
    fixed = (k <= h) & ((k - h) % 2 == 0) & ((k < h) | (h % 2 == 0))
    cls = np.where(fixed, (k - h) % 4, -1)
    cls.setflags(write=False)
    return cls


#: sum over the norm-N shell of T(m / sqrt N) and |shell| per (n, N), in
#: floats, filled by ``_float_shell_sums``
_FLOAT_SUMS: dict = {}


def _float_shell_sums(n: int, Ns):
    """(sums, sizes): D_N = sum of D(m / sqrt N) over nr(m) = N, and |shell|.

    For every N in ``Ns``, in order: ``sums`` is complex of shape
    (len(Ns), n+1, n+1), D_N = G^(-1/2) S_N G^(1/2) / N^(n/2) in the
    unitary frame of ``poly``, and ``sizes`` the shell sizes.  As in
    ``shell_monomial_matrices`` it is D_1 R_N, with R_N the sum of
    D(m / sqrt N) over one point m per left-unit orbit of the shells not
    yet cached (one ``_shell_join``), and D_1 the sum of D over the eight
    units, each completed by ``complete_columns`` from its columns
    a <= n/2.  ``_run_sums`` sums the units and the unit points m / sqrt N
    of the representatives, a shell cut where it would be cut alone, so a
    cached sum does not depend on the shells summed with it.  Cached per
    (n, N).
    """
    Ns = [int(N) for N in Ns]
    todo = sorted({N for N in Ns if (n, N) not in _FLOAT_SUMS})
    if todo:
        reps, counts = _orbit_representatives(n, todo)
        pts = np.concatenate(
            [UNITS, reps / np.repeat(np.sqrt(todo), counts)[:, None]])
        R = _run_sums(pts, n, [len(UNITS)] + counts.tolist())
        sums = complete_columns(complete_columns(R[0], n) @ R[1:], n)
        sums.setflags(write=False)
        for N, S, count in zip(todo, sums, counts.tolist()):
            _FLOAT_SUMS[n, N] = (S, 8 * count)
    return (np.stack([_FLOAT_SUMS[n, N][0] for N in Ns]),
            np.array([_FLOAT_SUMS[n, N][1] for N in Ns], dtype=float))


def _row_operators(n: int, Ns) -> np.ndarray:
    """P^H D_N^T P / 8 for every N in ``Ns``, D_N of ``_float_shell_sums``.

    T_N on W in ``row_basis(n)``, all N stacked in one product; shape
    (len(Ns), n+1, n+1).  Raises ``DegeneracyError`` at the first N whose
    operator is not real symmetric.  Every D(m / sqrt N) is unitary, so
    |T_N| <= |shell| / 8, and the defect is measured against that bound:
    T_N itself can vanish (T_3 at n = 2), leaving only roundoff.
    """
    sums, sizes = _float_shell_sums(n, Ns)
    P = row_basis(n)
    # (P^H D_N^T P)^T = P^T D_N conj(P): every operand stays contiguous
    M = (P.T @ sums @ P.conj()).transpose(0, 2, 1) / 8.0
    off = np.maximum(np.abs(M.imag).max(axis=(1, 2)), np.abs(
        M.real - M.real.transpose(0, 2, 1)).max(axis=(1, 2))) / (sizes / 8.0)
    for N, o in zip(Ns, off):
        if o > 1e-9:
            raise DegeneracyError(f"T_{N} not real symmetric (off by {o:.2e})")
    return 0.5 * (M.real + M.real.transpose(0, 2, 1))


@dataclass(frozen=True)
class EigenSpace:
    """One joint eigenspace V_lambda = W_lambda (x) C^(n+1).

    ``basis`` holds an orthonormal basis of W_lambda as real columns, in
    the coordinates of ``row_basis(n)``; the column label a of t_{ba}
    spans the other factor.
    """

    lams: dict
    basis: np.ndarray  # (n+1, dim W_lambda), real
    t1_flag: int

    @property
    def multiplicity(self):
        return self.basis.shape[0] * self.basis.shape[1]


#: relative tolerance of the clusters of the solve and of the grouping
GROUP_TOL = 1e-7


@dataclass(frozen=True)
class SpectralDecomposition:
    """Joint eigenspaces of the odd Hecke operators at degree n.

    ``group_margin`` is the smallest relative gap between the prime
    eigenvalue tables of two distinct spaces (None with fewer than two);
    tables within ``GROUP_TOL`` of each other were grouped together.
    ``hecke_eigenvalues`` reads lambda(N) of the spaces for any N.
    ``seed`` is 0, as no seed enters ``decompose``; the benchmark's tracer
    still reads it.
    """

    n: int
    spaces: tuple
    group_margin: float | None
    seed = 0


def _group_margin(spaces, primes):
    L = np.array([[sp.lams[p] for p in primes] for sp in spaces])
    gap = (np.abs(L[:, None] - L[None]) / (1 + np.maximum(
        np.abs(L[:, None]), np.abs(L[None])))).max(axis=2)
    return float(gap[~np.eye(len(L), dtype=bool)].min()) if len(L) > 1 else None


def _rayleigh_quotients(n: int, Ns, ops, vecs) -> np.ndarray:
    """v^T T_N v, shape (len(Ns), columns), per column v of ``vecs`` and
    T_N in ``ops``; ``DegeneracyError`` names n and the first N at which a
    column misses T_N v = lambda v by over 1e-9 max(|T_N|, 1)."""
    out = np.empty((len(Ns), vecs.shape[1]))
    for i, (N, S) in enumerate(zip(Ns, ops)):
        SV = S @ vecs
        lam = np.einsum("ij,ij->j", vecs, SV)
        resid = np.linalg.norm(SV - vecs * lam[None, :], axis=0)
        tol = 1e-9 * max(np.linalg.norm(S), 1.0)
        if resid.max() > tol:
            raise DegeneracyError(
                f"n={n} N={N}: residual {resid.max():.3e} exceeds {tol:.3e}")
        out[i] = lam
    return out


def _eigh_in_turn(ops) -> np.ndarray:
    """Orthonormal eigenvectors of ops[0] that diagonalise ops[1:] in turn:
    each run of eigenvalues whose neighbours lie within ``GROUP_TOL``
    (1 + |lambda|) of each other is rotated by the solve of ops[1:] on it."""
    lam, U = np.linalg.eigh(ops[0])
    ends = 1 + np.flatnonzero(np.diff(lam) > GROUP_TOL * (1 + np.abs(lam[:-1])))
    for a, b in zip([0, *ends], [*ends, len(lam)]):
        if b - a > 1 and len(ops) > 1:
            u = U[:, a:b]
            U[:, a:b] = u @ _eigh_in_turn([u.T @ op @ u for op in ops[1:]])
    return U


def _group(tables, primes) -> list:
    """Columns whose prime eigenvalue tables agree within ``GROUP_TOL``."""
    groups = []
    for j in np.lexsort(tuple(tables[p] for p in reversed(primes))):
        for g in groups:
            r = g[0]
            if all(abs(tables[p][j] - tables[p][r]) <= GROUP_TOL * (1 + abs(tables[p][r]))
                   for p in primes):
                g.append(j)
                break
        else:
            groups.append([j])
    return groups


def expected_classes(n: int) -> tuple:
    """(d2, d4): how many flagged classes have dim W = 1 and dim W = 2.

    d2 = dim S^new_{n+2}(Gamma0(2)) and d4 = dim S^new_{n+2}(Gamma0(4)),
    from the genus-0 closed forms at weight k = n + 2: dim S_k(SL2(Z)) =
    s1 = floor(k/12) - [k = 2 mod 12], dim S_k(Gamma0(2)) = floor(k/4) - 1
    and dim S_k(Gamma0(4)) = k/2 - 2, stated for k >= 4; d2 is the second
    less 2 s1 and d4 the third less 2 d2 + 3 s1.  At n = 0 they give
    (1, 0), the constant function.  d2 + 2 d4 = inv(n) of ``unit_classes``.
    The identification with these newforms is measured (every even n to
    160 and some to 512), not proven.
    """
    if n % 2 or n < 0:
        raise ValueError("the class counts are stated for even n >= 0")
    k = n + 2
    s1 = k // 12 - (k % 12 == 2)
    d2 = k // 4 - 1 - 2 * s1
    return d2, k // 2 - 2 - 2 * d2 - 3 * s1


def decompose(n: int, primes=(3, 5)) -> SpectralDecomposition:
    """Simultaneous diagonalisation of the odd Hecke operators on W.

    On each u class of ``unit_classes`` the primes are diagonalised in
    turn (``_eigh_in_turn``): the first on the whole block, each next one
    on a cluster the earlier ones left; no seed enters.  The coordinates
    that the units do not fix, where every T_N vanishes, are identity
    columns, and a space is flagged when its columns come from a u class.
    All columns are validated by residual against T_1 and each prime
    (``_rayleigh_quotients``); the lambda of the unflagged columns are then
    written as 0, which S_N = S_1 R_N makes exact.  Columns are grouped
    into W_lambda by matching prime eigenvalue tables within ``GROUP_TOL``
    (``_group``).  ``DegeneracyError`` is raised when a gate fails: a
    residual, or flagged class counts other than ``expected_classes``.
    """
    if n % 2:
        raise ValueError("joint decomposition is computed for even n")
    primes = odd_primes(primes)
    if not primes:
        raise ValueError("need at least one odd prime")
    Ns = sorted(set(primes) | {1})
    ops = dict(zip(Ns, _row_operators(n, Ns)))

    cls = unit_classes(n)
    # identity columns sorted by class; column j lives on class col_cls[j]
    order = np.argsort(cls, kind="stable")
    col_cls, vecs = cls[order], (np.arange(n + 1)[:, None] == order) * 1.0
    for c in (0, 2):
        rows = order[col_cls == c][:, None]
        vecs[rows, col_cls == c] = _eigh_in_turn(
            [ops[p][rows, rows.T] for p in primes])
    tables = dict(zip(Ns, _rayleigh_quotients(n, Ns, ops.values(), vecs)))
    for t in tables.values():
        t[col_cls < 0] = 0.0

    spaces = []
    for g in _group(tables, primes):
        idxs = np.array(g)
        lams = {N: float(np.mean(tables[N][idxs])) for N in Ns}
        spaces.append(EigenSpace(lams=lams, basis=vecs[:, idxs],
                                 t1_flag=int(col_cls[g[0]] >= 0)))

    dims = [sp.basis.shape[1] for sp in spaces if sp.t1_flag]
    got, want = (dims.count(1), dims.count(2)), expected_classes(n)
    if got != want or len(dims) != sum(got):
        raise DegeneracyError(
            f"n={n}: the flagged classes of dim W = 1 and 2 number {got} "
            f"({len(dims) - sum(got)} of another dim), not (d2, d4) = {want}")
    return SpectralDecomposition(n=n, spaces=tuple(spaces),
                                 group_margin=_group_margin(spaces, primes))


def hecke_eigenvalues(dec: SpectralDecomposition, Ns) -> np.ndarray:
    """lambda(N) of every space of ``dec`` for every N in ``Ns``.

    Shape (len(Ns), len(dec.spaces)), from one ``_row_operators`` call: the
    mean of the space's column quotients, as ``EigenSpace.lams`` holds for
    1 and the primes, and 0 on the unflagged space once every column has
    passed.  A T_N that is not scalar on some space fails the residual
    check of ``_rayleigh_quotients``, which names that N.  No N gives a
    (0, len(dec.spaces)) array.
    """
    if not len(Ns):
        return np.empty((0, len(dec.spaces)))
    # in C order, as decompose builds it: one BLAS kernel for both
    vecs = np.ascontiguousarray(np.hstack([sp.basis for sp in dec.spaces]))
    lam = _rayleigh_quotients(dec.n, Ns, _row_operators(dec.n, Ns), vecs)
    cuts = np.cumsum([sp.basis.shape[1] for sp in dec.spaces])[:-1]
    out = np.array([p.mean(axis=1) for p in np.split(lam, cuts, axis=1)]).T
    out[:, [not sp.t1_flag for sp in dec.spaces]] = 0.0
    return out
