"""Geometry-of-numbers counting apparatus.

Covers the quaternion shells by cylinder classes C(R) (imaginary part at
most nr/R^2), counts them exactly against the predicted bounds, computes
the capped counting function A(X), and verifies Minkowski's second theorem
and the successive-minima product bound on concrete 4-dimensional bodies.

Counting cost: one O(K)-memory r3 table per power of two K (2 sqrt(K) numpy
passes) and one cached table of the class counts of all k <= K per (K, R)
(sqrt(K) passes): ``shell_class_count`` is a lookup, ``shell_class_table``
one table per R sliced at the cutoff with the bounds formed as float arrays,
``dyadic_class_count`` one prefix sum plus sqrt(M) window sums.

Lattice points: one cached Bareiss adjugate per basis decides that it is
nonsingular and gives the coefficient radii (adjugate over the exact
determinant) and the covolume; when a box exceeds the budget, the basis is
LLL-reduced first.  Every body is 0-symmetric, so only the lexicographically
positive half of each coefficient box is formed (the budget is charged for
the whole box): counts are twice the half's members plus the origin, and the
greedy minima test a candidate's independence by one dot product with each
integer row spanning the orthogonal complement of the points chosen so far.
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

from .quat import CapacityError, Quaternion, _round_up_pow2, r3_counts

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


def in_cylinder_class(m: Quaternion, R: int) -> bool:
    """Exact test of m2^2+m3^2+m4^2 <= nr(m)/R^2 in doubled coordinates."""
    s4 = m.c2 ** 2 + m.c3 ** 2 + m.c4 ** 2
    nr4 = m.c1 ** 2 + s4
    return R * R * s4 <= nr4


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
    count = int(_class_table(_round_up_pow2(max(k, 16)), R)[k])
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
    K = _round_up_pow2(max(cutoff, 16))
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


def d_class_counts(k: int, i_max: int):
    """Partition of the norm-k shell into D(2^i) = C(2^i) \\ C(2^(i+1)).

    Returns (counts, core): counts[i] = |D(2^i) shell members| and core the
    purely real members (imaginary part zero), which lie in every C(R).
    """
    cs = [shell_class_count(k, 2 ** i).count for i in range(i_max + 2)]
    core = 2 * (isqrt(k) ** 2 == k)  # s = 0 members: m1 = +-sqrt(k)
    counts = [cs[i] - cs[i + 1] for i in range(i_max + 1)]
    return counts, core


def a_of_x(n: int, X: int) -> float:
    """A(X): sum over k <= X of the squared capped shell sums.

    The shell summand min(n+1, sqrt(k/s)) with s the imaginary norm is
    irrational, so the outer accumulation is floating point over exact
    integer shell counts; the s = 0 members take the capped value n + 1.
    """
    if X < 1:
        raise ValueError("need X >= 1")
    return _a_prefix(n, _round_up_pow2(X))[X]


@lru_cache(maxsize=None)
def _a_prefix(n: int, limit: int) -> tuple:
    """Running totals A(0), ..., A(limit), accumulated in k order."""
    r3 = r3_counts(limit)
    total, prefix = 0.0, [0.0]
    for k in range(1, limit + 1):
        inner = 0.0
        for m1 in range(0, isqrt(k) + 1):
            s = k - m1 * m1
            mult = 2 if m1 > 0 else 1
            if s == 0:
                inner += mult * (n + 1)
            elif r3[s]:
                inner += mult * int(r3[s]) * min(n + 1.0, math.sqrt(k / s))
        total += inner * inner
        prefix.append(total)
    return tuple(prefix)


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

    def norm_coeff(self) -> float:
        # gauge_sq(v) >= coeff * |v|^2
        R2 = self.R ** 2
        return R2 / ((1 + R2) * 2.0 * self.M)

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

    def norm_coeff(self) -> float:
        return 1.0 / sum(float(hi) ** 2 for hi in self.h)

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
    """LLL-reduced basis (delta = 3/4) of the lattice spanned by the integer
    vectors ``rows``, with the Gram-Schmidt data kept in exact rationals."""
    b = [[int(a) for a in r] for r in rows]
    n = len(b)

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def gram_schmidt():
        star, mu = [], [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            v = [Fraction(a) for a in b[i]]
            for j in range(i):
                mu[i][j] = dot(b[i], star[j]) / dot(star[j], star[j])
                v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
            star.append(v)
        return star, mu

    star, mu = gram_schmidt()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                star, mu = gram_schmidt()
        if (dot(star[k], star[k])
                >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * dot(star[k - 1], star[k - 1])):
            k += 1
        else:
            b[k - 1], b[k] = b[k], b[k - 1]
            star, mu = gram_schmidt()
            k = max(k - 1, 1)
    return b


def _with_reduction(fn, B: np.ndarray, *args):
    """``fn(B, *args)``; if its enumeration exceeds the budget, ``fn`` on an
    LLL-reduced basis of the same lattice, whose coefficient boxes are far
    smaller when B is skewed (minima and counts do not depend on the basis)."""
    try:
        return fn(B, *args)
    except CapacityError:
        reduced = np.array(_lll(B.T.tolist()), dtype=np.int64).T
        return fn(reduced, *args)


def _lattice_basis(basis) -> np.ndarray:
    """``basis`` as an int64 array, checked to be a 4x4 matrix of integers
    (a float entry is refused, not truncated) with nonzero exact
    determinant (a float determinant misjudges both ways)."""
    A = np.asarray(basis)
    entries = A.ravel().tolist()
    integral = A.dtype.kind in "iu" or A.dtype == object and all(
        isinstance(a, numbers.Integral) for a in entries)
    if A.shape != (4, 4) or not integral or _adjugate(tuple(entries))[1] == 0:
        raise ValueError("basis must be a nonsingular 4x4 integer matrix")
    return A.astype(np.int64)


def successive_minima(basis, body, budget: int = 10 ** 7):
    """Successive minima of ``body`` on the lattice spanned by ``basis``.

    A small coefficient cube supplies four linearly independent points,
    whose fourth gauge value t bounds lambda_4; the exact region t * body
    is then enumerated per axis, so the greedy gauge-ordered extraction
    is certifiably complete; a candidate is independent of the points
    chosen so far when it is not orthogonal to the integer rows spanning
    their orthogonal complement.  If either enumeration exceeds the budget,
    both run again on an LLL-reduced basis.  The basis must be an integer
    matrix with nonzero exact determinant (``ValueError`` otherwise); the
    result is cached per basis entries, body and budget, so callers on one
    lattice share one enumeration, while an exhausted budget raises
    ``CapacityError`` on every call.
    """
    B = _lattice_basis(basis)
    return _successive_minima(tuple(int(a) for a in B.ravel()), body, budget)


@lru_cache(maxsize=4096)
def _successive_minima(entries: tuple, body, budget: int) -> tuple:
    B = np.array(entries, dtype=np.int64).reshape(4, 4)
    return _with_reduction(_minima, B, body, budget)


def _minima(B: np.ndarray, body, budget: int) -> tuple:
    r = 2
    while True:
        C, V = _box_points(B, (r,) * 4, budget)
        lams = _greedy_minima(C, V, body)
        if len(lams) == 4:
            break
        r *= 2
    C, V = _body_region(B, body, lams[3] * (1 + 1e-9), budget)
    lams = _greedy_minima(C, V, body)
    return tuple(lams)


def lattice_point_count(basis, body, budget: int = 10 ** 7) -> int:
    """Exact |body ∩ lattice| by bounded enumeration: twice the points of
    the half box in the body, plus the origin (the body and its exact
    membership test are symmetric under v -> -v)."""
    _, V = _with_reduction(_body_region, _lattice_basis(basis), body, 1.0, budget)
    return 2 * int(np.count_nonzero(body.contains(V))) + 1


def product_bound_check(basis, body, budget: int = 10 ** 7) -> bool:
    """|body ∩ lattice| <= prod_i (1 + 2i / lambda_i)."""
    lams = successive_minima(basis, body, budget)
    count = lattice_point_count(basis, body, budget)
    prod = math.prod(1 + 2 * (i + 1) / lams[i] for i in range(4))
    return count <= prod * (1 + 1e-12)


def minkowski_sandwich(basis, body, budget: int = 10 ** 7):
    """(lower, middle, upper) of 2^4/4! <= prod lambda_i vol/covol <= 2^4."""
    lams = successive_minima(basis, body, budget)
    covol = abs(_adjugate(tuple(_lattice_basis(basis).ravel().tolist()))[1])
    middle = math.prod(lams) * body.volume() / covol
    return 16.0 / 24.0, middle, 16.0
