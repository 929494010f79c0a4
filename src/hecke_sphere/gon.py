"""Geometry-of-numbers counting apparatus.

Covers the quaternion shells by cylinder classes C(R) (imaginary part at
most nr/R^2), counts them exactly against the predicted bounds, computes
the capped counting function A(X), and verifies Minkowski's second theorem
and the successive-minima product bound on concrete 4-dimensional bodies.

Counting cost: one O(K)-memory r3 table per power of two K (2 sqrt(K) numpy
passes) and one cached table of the class counts of all k <= K per (K, R)
(sqrt(K) passes): ``shell_class_count`` is a lookup, ``dyadic_class_count``
one prefix sum plus sqrt(M) window sums.
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
    K = _round_up_pow2(max(k, 16))
    # R^2 > K, like R^2 = K + 1, leaves only the s = 0 members: the clamp
    # keeps the counts and bounds the cache keys (R = 2^40 is in use)
    count = int(_class_counts(K, min(R * R, K + 1))[k])
    bound = (1 + math.sqrt(k) / R + k / R ** 3) * k ** EPSILON
    return CountRecord("singlebound", (k, R), count, bound)


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

    def norm_coeff(self) -> float:
        return 1.0 / sum(float(hi) ** 2 for hi in self.h)

    def bbox(self) -> tuple:
        return tuple(float(hi) for hi in self.h)

    def volume(self) -> float:
        return math.prod(2.0 * hi for hi in self.h)


def _exact_rank(rows) -> int:
    """Rank of a list of integer 4-vectors by fraction-free (Bareiss)
    elimination: every division by the previous pivot is exact."""
    mat = [[int(a) for a in r] for r in rows]
    rank, prev = 0, 1
    for col in range(4):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        p = mat[rank]
        for r in range(rank + 1, len(mat)):
            f = mat[r][col]
            mat[r] = [(p[col] * a - f * b) // prev for a, b in zip(mat[r], p)]
        prev = p[col]
        rank += 1
    return rank


def _cube_points(basis: np.ndarray, r: int, budget: int):
    npts = (2 * r + 1) ** 4
    if npts > budget:
        raise CapacityError(
            f"enumeration of {npts} points exceeds the {budget} budget")
    ax = np.arange(-r, r + 1)
    C = np.stack(np.meshgrid(ax, ax, ax, ax, indexing="ij"),
                 axis=-1).reshape(-1, 4)
    V = C @ basis.T
    return C, V


def _greedy_minima(C: np.ndarray, V: np.ndarray, body):
    """Linearly independent points in gauge order; returns up to 4 minima."""
    g = body.gauge_sq_float(V.astype(float))
    order = np.argsort(g, kind="stable")
    chosen, lams = [], []
    for idx in order:
        if not np.any(C[idx]):
            continue
        if chosen and _exact_rank(chosen + [C[idx]]) == len(chosen):
            continue
        chosen.append(C[idx].tolist())
        lams.append(math.sqrt(float(body.gauge_sq(V[idx].tolist()))))
        if len(lams) == 4:
            break
    return lams


def _body_region(basis: np.ndarray, body, t: float, budget: int):
    """All lattice points of t * body: per-axis coefficient box enumeration."""
    invB = np.linalg.inv(basis.astype(float))
    # per-axis coefficient bounds: |c_i| <= t * sum_j |(B^-1)_ij| * bbox_j
    radii = np.floor(np.abs(invB) @ np.array(body.bbox()) * t + 1e-9).astype(int)
    npts = int(np.prod(2 * radii + 1))
    if npts > budget:
        raise CapacityError(
            f"enumeration of {npts} points exceeds the {budget} budget")
    axes = [np.arange(-r, r + 1) for r in radii]
    C = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
    return C, C @ basis.T


def _lattice_basis(basis) -> np.ndarray:
    """``basis`` as an int64 array, checked to be a nonsingular 4x4 matrix
    by exact rank (a float determinant misjudges both ways)."""
    B = np.asarray(basis, dtype=np.int64)
    if B.shape != (4, 4) or _exact_rank(B.tolist()) != 4:
        raise ValueError("basis must be a nonsingular 4x4 integer matrix")
    return B


def successive_minima(basis, body, budget: int = 10 ** 7):
    """Successive minima of ``body`` on the lattice spanned by ``basis``.

    A small coefficient cube supplies four linearly independent points,
    whose fourth gauge value t bounds lambda_4; the exact region t * body
    is then enumerated per axis, so the greedy gauge-ordered extraction
    with exact rank tests is certifiably complete.  The basis must have
    exact rank 4 (``ValueError`` otherwise); the result is cached per
    basis entries, body and budget, so callers on one lattice share one
    enumeration, while an exhausted budget raises ``CapacityError`` on
    every call.
    """
    B = _lattice_basis(basis)
    return _successive_minima(tuple(int(a) for a in B.ravel()), body, budget)


@lru_cache(maxsize=4096)
def _successive_minima(entries: tuple, body, budget: int) -> tuple:
    B = np.array(entries, dtype=np.int64).reshape(4, 4)
    r = 2
    while True:
        C, V = _cube_points(B, r, budget)
        lams = _greedy_minima(C, V, body)
        if len(lams) == 4:
            break
        r *= 2
    C, V = _body_region(B, body, lams[3] * (1 + 1e-9), budget)
    lams = _greedy_minima(C, V, body)
    return tuple(lams)


def lattice_point_count(basis, body, budget: int = 10 ** 7) -> int:
    """Exact |body ∩ lattice| by bounded enumeration (origin included)."""
    _, V = _body_region(_lattice_basis(basis), body, 1.0, budget)
    g = body.gauge_sq_float(V.astype(float))
    count = 0
    for v in V[g <= 1.0 + 1e-12]:
        if body.gauge_sq(v.tolist()) <= 1:
            count += 1
    return count


def product_bound_check(basis, body, budget: int = 10 ** 7) -> bool:
    """|body ∩ lattice| <= prod_i (1 + 2i / lambda_i)."""
    lams = successive_minima(basis, body, budget)
    count = lattice_point_count(basis, body, budget)
    prod = math.prod(1 + 2 * (i + 1) / lams[i] for i in range(4))
    return count <= prod * (1 + 1e-12)


def minkowski_sandwich(basis, body, budget: int = 10 ** 7):
    """(lower, middle, upper) of 2^4/4! <= prod lambda_i vol/covol <= 2^4."""
    lams = successive_minima(basis, body, budget)
    covol = abs(np.linalg.det(np.asarray(basis, dtype=float)))
    middle = math.prod(lams) * body.volume() / covol
    return 16.0 / 24.0, middle, 16.0
