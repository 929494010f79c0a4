"""Geometry-of-numbers counting apparatus.

Covers the quaternion shells by cylinder classes C(R) (imaginary part at
most nr/R^2), counts them exactly against the predicted bounds, computes
the capped counting function A(X), and verifies Minkowski's second theorem
and the successive-minima product bound on concrete 4-dimensional bodies.

Counting cost: one O(K)-memory r3 table per power of two K (2 sqrt(K) numpy
passes) and one cached table of the class counts of all k <= K per (K, R)
(sqrt(K) passes): ``shell_class_count`` is a lookup, ``shell_class_table``
one table per R sliced at the cutoff with the bounds formed as float arrays,
``dyadic_class_count`` one prefix sum plus sqrt(M) window sums, and
``a_of_x`` one running prefix of A per n, extended in k order on demand
by (k, m1) tables that add the terms in the order of the scalar loop.

Lattice points: each public function validates its basis once
(``_lattice_basis``) and passes the entries to the cached helpers; one
cached Bareiss adjugate per basis decides that it is nonsingular and gives
the covolume; every basis is then LLL-reduced once
(the all-integer algorithm, cached per basis), and every enumeration runs on
the reduced basis, whose adjugate over the exact determinant gives the
coefficient radii.  The minima enumerate one region, t * body with t the
largest gauge of a reduced basis vector.  Every body is 0-symmetric, so only
the lexicographically positive half of each coefficient box is formed (the
budget is charged for the whole box): counts are twice the half's members
plus the origin, and the greedy minima test a candidate's independence by
one dot product with each integer row spanning the orthogonal complement of
the points chosen so far.
Membership is one exact integer test per body, on int64 while every
coordinate is at most ``INT64_COORD`` and on Python integers above it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import numpy as np

from .quat import CapacityError, _round_up_pow2, r3_counts

EPSILON = 0.1  # fixed exponent slack folded into fitted constants


@dataclass(frozen=True)
class CountRecord:
    family: str
    params: tuple
    count: int
    bound: float

    @property
    def ratio(self) -> float:
        return self.count / self.bound


def _class_table(K: int, R: int) -> np.ndarray:
    """Read-only class counts of all k <= K for C(R); entry k does not
    depend on K, so any K >= k gives the same count."""
    # R^2 > K, like R^2 = K + 1, leaves only the s = 0 members: the clamp
    # keeps the counts and bounds the cache keys (R = 2^40 is in use)
    return _class_counts(K, min(R * R, K + 1))


def _single_bound(k, R: int, k_eps):
    """(1 + sqrt(k)/R + k/R^3) k^EPSILON, with ``k_eps`` = k ** EPSILON.

    For a Python int k the terms are Python divisions, as written; for a
    float array k they are numpy's, equal bit for bit whenever R^3 is exact
    in a double (R a power of two, or R^3 < 2^53): sqrt and each division
    are correctly rounded in both."""
    return (1 + np.sqrt(k) / R + k / R ** 3) * k_eps


@lru_cache(maxsize=None)
def _class_counts(K: int, R2: int) -> np.ndarray:
    """Read-only counts[k] = |{nr(m) = k, m in C(R)}| for k <= K, R2 = R^2.

    Members with m1^2 + s = k lie in C(R) iff s (R^2 - 1) <= m1^2, a prefix
    of s for each m1: one shifted add of the r3 table per m1.
    """
    r3 = r3_counts(K)
    out = np.zeros(K + 1, dtype=np.int64)
    for m1 in range(isqrt(K) + 1):
        q = m1 * m1
        top = K - q if R2 == 1 else min(K - q, q // (R2 - 1))
        out[q: q + top + 1] += (2 if m1 else 1) * r3[: top + 1]
    out.setflags(write=False)
    return out


def shell_class_count(k: int, R: int) -> CountRecord:
    """|{nr(m) = k, m in C(R)}| with the single-shell bound alongside."""
    if k < 1 or R < 1:
        raise ValueError("need k >= 1 and R >= 1")
    count = int(_class_table(_round_up_pow2(k), R)[k])
    bound = float(_single_bound(k, R, k ** EPSILON))
    return CountRecord("singlebound", (k, R), count, bound)


def shell_class_table(cutoff: int, Rs):
    """``shell_class_count(k, R)`` for k = 1..cutoff and every R in ``Rs``,
    as (counts, bounds) arrays of shape (cutoff, len(Rs)); no rows when
    cutoff < 1, as ``range(1, cutoff + 1)`` has none.

    One class-count table per R at the power of two above the cutoff
    serves every k.  k^EPSILON is Python ``pow`` over the cutoff values
    (``np.power`` may differ from libm in the last ulp), so for R a power
    of two every bound equals the record's bit for bit.
    """
    if any(R < 1 for R in Rs):
        raise ValueError("need R >= 1")
    cutoff = max(cutoff, 0)
    K = _round_up_pow2(cutoff)
    k = np.arange(1, cutoff + 1, dtype=float)
    k_eps = np.array([j ** EPSILON for j in range(1, cutoff + 1)])
    counts = np.empty((cutoff, len(Rs)), dtype=np.int64)
    bounds = np.empty((cutoff, len(Rs)))
    for i, R in enumerate(Rs):
        counts[:, i] = _class_table(K, R)[1: cutoff + 1]
        bounds[:, i] = _single_bound(k, R, k_eps)
    return counts, bounds


def dyadic_class_count(M: int, R: int) -> CountRecord:
    """|{M < nr(m) <= 2M, m in C(R)}| with the cylinder bound alongside.

    For each m1 the admitted imaginary norms form the window
    M - m1^2 < s <= 2M - m1^2, s (R^2 - 1) <= m1^2, summed off a prefix sum.
    """
    if M < 1 or R < 1:
        raise ValueError("need M >= 1 and R >= 1")
    # clamped as in shell_class_count; R^2 - 1 <= 2M keeps the int64
    # divisions of the m1^2 array in range (R^2 = 2^80 would overflow)
    R2 = min(R * R, 2 * M + 1)
    prefix = np.concatenate(([0], np.cumsum(r3_counts(2 * M)[: 2 * M + 1])))
    m1 = np.arange(isqrt(2 * M) + 1, dtype=np.int64)
    q = m1 * m1
    lo = np.maximum(M + 1 - q, 0)
    hi = 2 * M - q if R2 == 1 else np.minimum(2 * M - q, q // (R2 - 1))
    window = np.where(hi >= lo, prefix[hi + 1] - prefix[lo], 0)
    count = int((np.where(m1 > 0, 2, 1) * window).sum())
    bound = math.sqrt(M) + M ** 2 / R ** 3
    return CountRecord("intbound", (M, R), count, bound)


def a_of_x(n: int, X: int) -> float:
    """A(X): sum over k <= X of the squared capped shell sums.

    The shell summand min(n+1, sqrt(k/s)) with s the imaginary norm is
    irrational, so the outer accumulation is floating point over exact
    integer shell counts; the s = 0 members take the capped value n + 1.
    """
    if X < 1:
        raise ValueError("need X >= 1")
    _extend_a_prefix(n, _round_up_pow2(X))
    return _A_PREFIXES[n][X]


#: per n, the running totals A(0), A(1), ... that ``_extend_a_prefix``
#: accumulates
_A_PREFIXES: dict = {}


def _extend_a_prefix(n: int, limit: int) -> None:
    """Extend the running totals of ``_A_PREFIXES[n]`` to A(limit) at
    least, in k order from its last k, so every A(X) is the same float
    whatever limits were asked before.

    A block of k is one (k, m1) table of the terms mult r3(s) min(n + 1,
    sqrt(k / s)) with s = k - m1^2 (mult (n + 1) at s = 0, and 0 at s < 0
    or r3(s) = 0, which leaves a sum unchanged), summed along m1 by
    ``np.cumsum``, which adds in order as the loop over m1 would (``np.sum``
    adds pairwise).  The squares are added by one ``np.cumsum`` seeded with
    the last total, so every A(X) is the float of the scalar loop bit for
    bit.  A table holds at most 2^14 terms, so memory stays O(limit)."""
    prefix = _A_PREFIXES.setdefault(n, [0.0])
    if len(prefix) > limit:
        return
    r3 = r3_counts(limit)
    m1 = np.arange(isqrt(limit) + 1, dtype=np.int64)
    mult = np.where(m1 > 0, 2, 1)
    rows = max(1, 2 ** 14 // len(m1))
    for k0 in range(len(prefix), limit + 1, rows):
        k = np.arange(k0, min(k0 + rows, limit + 1), dtype=np.int64)[:, None]
        s = k - m1 * m1
        coef = mult * np.where(s >= 0, r3[np.maximum(s, 0)], 0)
        cap = np.minimum(np.sqrt(k / np.maximum(s, 1)), n + 1.0)
        inner = np.cumsum(coef * np.where(s == 0, n + 1.0, cap), axis=1)[:, -1]
        totals = np.cumsum(np.concatenate(([prefix[-1]], inner * inner)))
        prefix += totals[1:].tolist()


def fit_constant(records) -> float:
    """Smallest C with count <= C * bound across a family of records."""
    return max((r.ratio for r in records), default=0.0)


# ---------------------------------------------------------------------------
# convex bodies and successive minima


@dataclass(frozen=True)
class CylinderSpec:
    """0-symmetric cylinder x1^2 <= 2M, x2^2+x3^2+x4^2 <= 2M/R^2."""

    M: int
    R: int

    def __post_init__(self):
        if self.M < 1 or self.R < 1 or self.R & (self.R - 1):
            raise ValueError("need M >= 1 and R a power of two")

    def gauge_sq(self, v) -> Fraction:
        """Exact squared gauge: v in t*body iff gauge_sq(v) <= t^2."""
        s = v[1] ** 2 + v[2] ** 2 + v[3] ** 2
        return Fraction(max(v[0] ** 2, self.R ** 2 * s), 2 * self.M)

    def gauge_sq_float(self, V: np.ndarray) -> np.ndarray:
        s = V[:, 1] ** 2 + V[:, 2] ** 2 + V[:, 3] ** 2
        return np.maximum(V[:, 0] ** 2, float(self.R ** 2) * s) / (2.0 * self.M)

    def contains(self, V: np.ndarray) -> np.ndarray:
        """Exact membership of each row of the integer array ``V``."""
        two_m = 2 * self.M
        s = V[:, 1] ** 2 + V[:, 2] ** 2 + V[:, 3] ** 2
        # R^2 s <= 2M iff s <= floor(2M / R^2): no product to overflow
        return (V[:, 0] ** 2 <= two_m) & (s <= two_m // self.R ** 2)

    def bbox(self) -> tuple:
        a = math.sqrt(2 * self.M)
        return (a, a / self.R, a / self.R, a / self.R)

    def volume(self) -> float:
        return 2 * math.sqrt(2 * self.M) * (4 / 3) * math.pi * (2 * self.M / self.R ** 2) ** 1.5


@dataclass(frozen=True)
class Box:
    """Axis box |x_i| <= h_i, for closed-form test instances."""

    h: tuple

    def __post_init__(self):
        h = tuple(self.h)
        if len(h) != 4 or not all(
                isinstance(x, numbers.Integral) and x >= 1 for x in h):
            raise ValueError("need four positive integer half-widths")
        object.__setattr__(self, "h", tuple(int(x) for x in h))

    def gauge_sq(self, v) -> Fraction:
        return max(Fraction(int(v[i]) ** 2, self.h[i] ** 2) for i in range(4))

    def gauge_sq_float(self, V: np.ndarray) -> np.ndarray:
        return np.max(V.astype(float) ** 2
                      / np.array(self.h, dtype=float) ** 2, axis=1)

    def contains(self, V: np.ndarray) -> np.ndarray:
        """Exact membership of each row of the integer array ``V``."""
        return np.all(np.abs(V) <= np.array(self.h), axis=1)

    def bbox(self) -> tuple:
        return tuple(float(hi) for hi in self.h)

    def volume(self) -> float:
        return math.prod(2.0 * hi for hi in self.h)


#: int64 bound on lattice-point coordinates: |v_i| <= 2^30 keeps v_1^2 and
#: v_2^2 + v_3^2 + v_4^2 (at most 3 * 2^60) exact in int64; larger points
#: are formed on Python integers
INT64_COORD = 2 ** 30


def _box_points(basis: np.ndarray, radii, budget: int):
    """Coefficients C of the lexicographically positive half of the box
    |c_i| <= radii[i] and the points V = C B^T.

    Every body is 0-symmetric, so the origin and -C stand for the rest of
    the box.  In "ij" order the half is the points after the origin: block
    k holds c_j = 0 for j < k and c_k > 0, for k = 3, 2, 1, 0.  The budget
    is charged for the full box."""
    npts = math.prod(2 * r + 1 for r in radii)
    if npts > budget:
        raise CapacityError(
            f"enumeration of {npts} points exceeds the {budget} budget")
    C = np.zeros((npts // 2, 4), dtype=np.int64)
    start = 0
    for k in (3, 2, 1, 0):
        shape = (radii[k],) + tuple(2 * r + 1 for r in radii[k + 1:])
        size = math.prod(shape)
        block = C[start: start + size].reshape(shape + (4,))
        for j in range(k, 4):
            axis = np.arange(1 if j == k else -radii[j], radii[j] + 1)
            block[..., j] = axis.reshape((-1,) + (1,) * (3 - j))
        start += size
    rows = basis.tolist()
    if max(sum(abs(b) * r for b, r in zip(row, radii)) for row in rows) > INT64_COORD:
        return C, C.astype(object) @ np.array(rows, dtype=object).T
    return C, C @ basis.T


def _complement(W: list, c: list):
    """Integer rows spanning the orthogonal complement of span(chosen, c),
    given rows ``W`` spanning that of the chosen vectors, or None when c is
    in their span (W c = 0).  For a = W c with a_p != 0 the rows
    a_p w_i - a_i w_p, i != p, are independent and orthogonal to c."""
    a = [sum(x * y for x, y in zip(w, c)) for w in W]
    p = next((i for i, x in enumerate(a) if x), None)
    if p is None:
        return None
    return [[a[p] * x - a[i] * y for x, y in zip(W[i], W[p])]
            for i in range(len(W)) if i != p]


def _greedy_minima(C: np.ndarray, V: np.ndarray, body):
    """Linearly independent points in gauge order; returns up to 4 minima.

    Candidates are the half box: v and -v have equal gauge and span."""
    g = body.gauge_sq_float(V.astype(float))
    order = np.argsort(g, kind="stable")
    W = [[int(i == j) for j in range(4)] for i in range(4)]
    lams = []
    for idx in order:
        rest = _complement(W, C[idx].tolist())
        if rest is None:
            continue
        W = rest
        lams.append(math.sqrt(float(body.gauge_sq(V[idx].tolist()))))
        if len(lams) == 4:
            break
    return lams


@lru_cache(maxsize=4096)
def _adjugate(entries: tuple) -> tuple:
    """(d B^-1, d) for the integer 4x4 matrix B with row-major ``entries``,
    d = +-det B, in exact integers, or (None, 0) when B is singular (cached,
    as the validation, every region and the covolume of one lattice need
    it): fraction-free Gauss-Jordan (Bareiss) on [B | I], where every
    division by the previous pivot is exact, ends at [d I | d B^-1]; a
    column with no pivot left means rank < 4."""
    mat = [list(entries[4 * i: 4 * i + 4]) + [int(i == j) for j in range(4)]
           for i in range(4)]
    prev = 1
    for col in range(4):
        piv = next((r for r in range(col, 4) if mat[r][col]), None)
        if piv is None:
            return None, 0
        mat[col], mat[piv] = mat[piv], mat[col]
        p = mat[col]
        for r in range(4):
            if r != col:
                f = mat[r][col]
                mat[r] = [(p[col] * a - f * b) // prev for a, b in zip(mat[r], p)]
        prev = p[col]
    return tuple(tuple(row[4:]) for row in mat), prev


def _body_region(basis: np.ndarray, body, t: float, budget: int):
    """All lattice points of t * body: per-axis coefficient box enumeration."""
    adj, det = _adjugate(tuple(basis.ravel().tolist()))
    # per-axis coefficient bounds: |c_i| <= t * sum_j |(B^-1)_ij| * bbox_j,
    # with B^-1 = adj / det exact up to the one rounding of each entry
    inv = np.abs(np.array(adj, dtype=float)) / abs(det)
    radii = np.floor(inv @ np.array(body.bbox()) * t + 1e-9)
    return _box_points(basis, [int(r) for r in radii], budget)


def _lll(rows) -> list:
    """LLL-reduced basis (delta = 3/4) of the lattice spanned by the linearly
    independent integer vectors ``rows``, by the all-integer algorithm (de
    Weger 1989; Cohen, Alg. 2.6.7).

    With b*_i the Gram-Schmidt vectors, d[i] = |b*_0|^2 ... |b*_{i-1}|^2
    (d[0] = 1) and lam[i][j] = d[j + 1] mu_ij are integers, and every update
    below divides exactly: no rational is ever formed."""
    b = [[int(a) for a in r] for r in rows]
    n = len(b)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def red(k, l):
        # size-reduce b_k against b_l: |mu_kl| <= 1/2 afterwards
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    k, kmax = 1, 0
    d[1] = dot(b[0], b[0])
    while k < n:
        if k > kmax:  # incremental Gram-Schmidt of b_k
            kmax = k
            for j in range(k + 1):
                u = dot(b[k], b[j])
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                else:
                    d[k + 1] = u
        red(k, k - 1)
        # Lovasz: |b*_k|^2 >= (3/4 - mu_{k,k-1}^2) |b*_{k-1}|^2
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            b[k - 1], b[k] = b[k], b[k - 1]
            for j in range(k - 1):
                lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
            m = lam[k][k - 1]
            swapped = (d[k - 1] * d[k + 1] + m * m) // d[k]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
                lam[i][k - 1] = (swapped * t + m * lam[i][k]) // d[k + 1]
            d[k] = swapped
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    return b


@lru_cache(maxsize=4096)
def _reduced(entries: tuple) -> np.ndarray:
    """Read-only LLL-reduced basis (as columns) of the lattice spanned by the
    columns of the nonsingular 4x4 matrix with row-major ``entries``, cached
    so that every enumeration of one lattice reduces it once; int64, or
    Python integers when a reduced entry leaves int64."""
    cols = _lll([entries[j::4] for j in range(4)])
    fits = all(-2 ** 63 <= a < 2 ** 63 for c in cols for a in c)
    B = np.array(cols, dtype=np.int64 if fits else object).T
    B.setflags(write=False)
    return B


def _lattice_basis(basis) -> tuple:
    """The row-major entries of ``basis`` as Python integers, checked to be
    a 4x4 matrix of integers (a float entry is refused, not truncated) in
    int64 range with nonzero exact determinant (a float determinant
    misjudges both ways).  Each public lattice function calls it once and
    passes the entries to the cached helpers."""
    # nested lists stay Python integers: numpy would turn [[2**63, 0, ...]]
    # into floats
    A = basis if isinstance(basis, np.ndarray) else np.array(basis, dtype=object)
    entries = A.ravel().tolist()
    # ``type(a) is int`` first: the ABC check costs half of this function
    integral = A.dtype.kind in "iu" or A.dtype == object and all(
        type(a) is int or isinstance(a, numbers.Integral) for a in entries)
    if A.shape != (4, 4) or not integral:
        raise ValueError("basis must be a nonsingular 4x4 integer matrix")
    entries = tuple(int(a) for a in entries)
    if any(not -2 ** 63 <= a < 2 ** 63 for a in entries):
        raise ValueError("basis entries must lie in int64: -2^63 <= a < 2^63")
    if _adjugate(entries)[1] == 0:
        raise ValueError("basis must be a nonsingular 4x4 integer matrix")
    return entries


def successive_minima(basis, body, budget: int = 10 ** 7):
    """Successive minima of ``body`` on the lattice spanned by ``basis``.

    The basis is LLL-reduced (once per lattice); its four vectors are
    linearly independent lattice points, so their largest gauge t bounds
    lambda_4, and one per-axis enumeration of t * body makes the greedy
    gauge-ordered extraction certifiably complete; a candidate is
    independent of the points chosen so far when it is not orthogonal to
    the integer rows spanning their orthogonal complement.  The basis must
    be an integer matrix with nonzero exact determinant (``ValueError``
    otherwise); ``CapacityError`` is raised when the reduced coefficient box
    exceeds the budget.  The result is cached per basis entries, body and
    budget, so callers on one lattice share one enumeration, while an
    exhausted budget raises on every call.
    """
    return _successive_minima(_lattice_basis(basis), body, budget)


@lru_cache(maxsize=4096)
def _successive_minima(entries: tuple, body, budget: int) -> tuple:
    B = _reduced(entries)
    t = max(math.sqrt(float(body.gauge_sq(v))) for v in B.T.tolist())
    C, V = _body_region(B, body, t * (1 + 1e-9), budget)
    return tuple(_greedy_minima(C, V, body))


def lattice_point_count(basis, body, budget: int = 10 ** 7) -> int:
    """Exact |body ∩ lattice| by bounded enumeration on the LLL-reduced
    basis: twice the points of the half box in the body, plus the origin
    (the body and its exact membership test are symmetric under v -> -v)."""
    return _lattice_point_count(_lattice_basis(basis), body, budget)


def _lattice_point_count(entries: tuple, body, budget: int) -> int:
    _, V = _body_region(_reduced(entries), body, 1.0, budget)
    return 2 * int(np.count_nonzero(body.contains(V))) + 1


def product_bound_check(basis, body, budget: int = 10 ** 7) -> bool:
    """|body ∩ lattice| <= prod_i (1 + 2i / lambda_i)."""
    entries = _lattice_basis(basis)
    lams = _successive_minima(entries, body, budget)
    count = _lattice_point_count(entries, body, budget)
    prod = math.prod(1 + 2 * (i + 1) / lams[i] for i in range(4))
    return count <= prod * (1 + 1e-12)


def minkowski_sandwich(basis, body, budget: int = 10 ** 7):
    """(lower, middle, upper) of 2^4/4! <= prod lambda_i vol/covol <= 2^4."""
    entries = _lattice_basis(basis)
    lams = _successive_minima(entries, body, budget)
    covol = abs(_adjugate(entries)[1])
    middle = math.prod(lams) * body.volume() / covol
    return 16.0 / 24.0, middle, 16.0
