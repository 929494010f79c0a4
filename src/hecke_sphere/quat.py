"""Exact arithmetic in the integral quaternions and their half-integer coset.

Quaternions are stored through doubled integer coordinates, so the order
B(Z) (all coordinates integral) and the shifted coset B(Z) + (1+i+j+k)/2
(all coordinates half-odd) live in a single integer representation.

Norm shells are joined from one cached table of two-square pairs per
parity: a first pair (c1, c2) and a completing pair (c3, c4) from the
bucket of the remaining norm, both walked in lexicographic order, so every
shell comes out sorted without a sort, in its own coordinates (integral
shells in Z^4, coset shells doubled; ``enumerate_shell`` doubles the
integral ones).  One index step serves two gathers with equal results: the
coordinates of every member, and their projection c . v onto one vector,
which never forms the coordinates.  The m1 profiles of many shells come
from one pass over the (k, c1) pairs against the r3 count tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

INTEGRAL = "integral"
COSET = "coset"


class CapacityError(Exception):
    """Raised when an enumeration exceeds its point budget."""


@dataclass(frozen=True, order=True)
class Quaternion:
    """Quaternion (c1 + c2*i + c3*j + c4*k)/2 with doubled integer coordinates.

    All four doubled coordinates must share parity: even coordinates give an
    element of B(Z), odd coordinates an element of the coset B(Z)+xi with
    xi = (1+i+j+k)/2.
    """

    c1: int
    c2: int
    c3: int
    c4: int

    def __post_init__(self):
        p = self.c1 & 1
        if (self.c2 & 1) != p or (self.c3 & 1) != p or (self.c4 & 1) != p:
            raise ValueError(
                f"mixed-parity doubled coordinates: "
                f"({self.c1},{self.c2},{self.c3},{self.c4})"
            )

    @classmethod
    def from_int_coords(cls, a, b, c, d):
        """Element a + b*i + c*j + d*k of B(Z)."""
        return cls(2 * a, 2 * b, 2 * c, 2 * d)

    @property
    def int_coords(self):
        """True coordinates; only valid for integral elements."""
        if self.c1 & 1:
            raise ValueError("coset element has half-integer coordinates")
        return (self.c1 // 2, self.c2 // 2, self.c3 // 2, self.c4 // 2)

    def conjugate(self):
        return Quaternion(self.c1, -self.c2, -self.c3, -self.c4)

    def nr(self):
        """Reduced norm, always a nonnegative integer."""
        s = self.c1 * self.c1 + self.c2 * self.c2 + self.c3 * self.c3 + self.c4 * self.c4
        assert s % 4 == 0
        return s // 4

    def tr(self):
        """Reduced trace; equals the doubled first coordinate."""
        return self.c1

    def __mul__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        a1, a2, a3, a4 = self.c1, self.c2, self.c3, self.c4
        b1, b2, b3, b4 = other.c1, other.c2, other.c3, other.c4
        d1 = a1 * b1 - a2 * b2 - a3 * b3 - a4 * b4
        d2 = a1 * b2 + a2 * b1 + a3 * b4 - a4 * b3
        d3 = a1 * b3 - a2 * b4 + a3 * b1 + a4 * b2
        d4 = a1 * b4 + a2 * b3 - a3 * b2 + a4 * b1
        # product of doubled coordinates carries a factor 4; one factor 2 stays
        assert d1 % 2 == 0 and d2 % 2 == 0 and d3 % 2 == 0 and d4 % 2 == 0
        return Quaternion(d1 // 2, d2 // 2, d3 // 2, d4 // 2)

    def __neg__(self):
        return Quaternion(-self.c1, -self.c2, -self.c3, -self.c4)

    def unit_vector(self):
        """Float coordinates of q/sqrt(nr(q)) as a 4-vector on S^3."""
        n = self.nr()
        if n == 0:
            raise ValueError("zero quaternion has no unit vector")
        s = 2.0 * n ** 0.5
        return np.array([self.c1 / s, self.c2 / s, self.c3 / s, self.c4 / s])

    def __repr__(self):
        return f"Quaternion({self.c1}, {self.c2}, {self.c3}, {self.c4})"


ONE = Quaternion.from_int_coords(1, 0, 0, 0)
I = Quaternion.from_int_coords(0, 1, 0, 0)
J = Quaternion.from_int_coords(0, 0, 1, 0)
K = Quaternion.from_int_coords(0, 0, 0, 1)
XI = Quaternion(1, 1, 1, 1)

#: the eight units of B(Z)
UNITS = (ONE, -ONE, I, -I, J, -J, K, -K)


# ---------------------------------------------------------------------------
# shell enumeration and counting tables


def _round_up_pow2(x):
    """The least power of two >= x and >= 16: every cached table's size."""
    n = 16
    while n < x:
        n *= 2
    return n


def _cube_sum_counts(limit: int, start: int) -> np.ndarray:
    """Read-only r[s] = #{(a,b,c) : a^2+b^2+c^2 = s <= limit}, a, b, c of
    parity ``start`` (0: all integers, 1: odd only), as r1 * r1 * r1 with r1
    the +-weighted square indicator: one shifted add per square and factor.
    """
    r1 = np.zeros(limit + 1, dtype=np.int64)
    squares = [a * a for a in range(start, isqrt(limit) + 1, 1 + start)]
    for q in squares:
        r1[q] += 2 if q else 1
    r = r1
    for _ in range(2):
        acc = np.zeros_like(r1)
        for q in squares:
            acc[q:] += r1[q] * r[: limit + 1 - q]
        r = acc
    r.setflags(write=False)
    return r


@lru_cache(maxsize=None)
def _r3_counts(limit: int) -> np.ndarray:
    """r3[s] = #{(a,b,c) in Z^3 : a^2+b^2+c^2 = s} for s <= limit."""
    return _cube_sum_counts(limit, 0)


def r3_counts(limit: int) -> np.ndarray:
    return _r3_counts(_round_up_pow2(limit))


@lru_cache(maxsize=None)
def _r3_odd_counts(limit: int) -> np.ndarray:
    """Counts of odd triples (a,b,c), all odd, with a^2+b^2+c^2 = s <= limit."""
    return _cube_sum_counts(limit, 1)


def r3_odd_counts(limit: int) -> np.ndarray:
    return _r3_odd_counts(_round_up_pow2(limit))


@lru_cache(maxsize=None)
def _pairs_by_s(limit: int, start: int):
    """Pairs (a, b) of parity ``start`` (0: all integers, 1: odd only) with
    a^2 + b^2 <= limit, held twice: ``lex`` in lexicographic order with its
    ``norms``, and ``by_norm``, the same pairs stably sorted by norm, whose
    norm-s bucket ``by_norm[starts[s]: starts[s + 1]]`` is therefore in
    lexicographic order too.  All four arrays are read-only."""
    rmax = isqrt(limit)
    ax = np.arange(-(rmax | start), rmax + 1, 1 + start, dtype=np.int64)
    A, B = np.meshgrid(ax, ax, indexing="ij")
    lex = np.stack([A.ravel(), B.ravel()], axis=1)
    norms = (lex * lex).sum(axis=1)
    keep = norms <= limit
    lex, norms = lex[keep], norms[keep]
    order = np.argsort(norms, kind="stable")
    by_norm = lex[order]
    starts = np.searchsorted(norms[order], np.arange(limit + 2))
    for a in (lex, norms, by_norm, starts):
        a.setflags(write=False)
    return lex, norms, by_norm, starts


def _shell_norms(ks, parity: str):
    """(start, S) for the norm-k shells of one parity, k in ``ks``: members
    are read on true integral coordinates (start 0), where their norm is
    S = k, or on odd doubled coset coordinates (start 1), where it is 4k."""
    ks = np.asarray(ks, dtype=np.int64)
    if np.any(ks < 1):
        raise ValueError("k must be >= 1")
    if parity not in (INTEGRAL, COSET):
        raise ValueError(f"unknown parity {parity!r}")
    start = int(parity == COSET)
    return start, 4 * ks if start else ks


def _join_index(ks, parity: str):
    """The index step of the shell join for every k in ``ks``: the pair
    tables ``lex`` and ``by_norm`` of ``_pairs_by_s``, the first pairs
    ``first`` (indices into ``lex``, in the order of ``ks`` and then of
    ``lex``) with ``cnt``, the size of each one's completing bucket, the
    completions ``right`` (indices into ``by_norm``, one per shell
    member) and the size of each shell.

    A member is a first pair (c1, c2) of norm v <= S followed by a pair
    (c3, c4) from the two-square bucket of norm S - v, with S = k on true
    integral coordinates and S = 4k on the odd doubled coset coordinates
    (no bucket completes an even k).  The first pairs are taken in
    lexicographic order and every bucket is in lexicographic order, so
    each shell comes out sorted on (c1, c2, c3, c4) with no sort.
    """
    start, S = _shell_norms(ks, parity)
    lex, norms, by_norm, starts = _pairs_by_s(_round_up_pow2(int(S.max())), start)
    shell, first = np.nonzero(norms <= S[:, None])
    rest = S[shell] - norms[first]
    lo, cnt = starts[rest], starts[rest + 1] - starts[rest]
    ends = np.cumsum(cnt)
    # the completions of each first pair are one contiguous bucket, walked
    # by index arithmetic over the concatenated output
    right = np.repeat(lo - ends + cnt, cnt) + np.arange(int(cnt.sum()))
    bounds = np.searchsorted(shell, np.arange(len(S) + 1))
    sizes = np.diff(np.concatenate(([0], ends))[bounds])
    return lex, by_norm, first, cnt, right, sizes


def _shell_join(ks, parity: str):
    """Own coordinates (module docstring) of the norm-k shells of one parity
    for every k in ``ks``, concatenated in the order of ``ks``, and the size
    of each shell: the coordinate gather over ``_join_index``."""
    lex, by_norm, first, cnt, right, sizes = _join_index(ks, parity)
    coords = np.empty((len(right), 4), dtype=np.int64)
    coords[:, :2] = lex[np.repeat(first, cnt)]
    coords[:, 2:] = by_norm[right]
    return coords, sizes


def _shell_projection(ks, parity: str, v):
    """c . v over the coordinates c of ``_shell_join(ks, parity)``, in the
    same order, and the size of each shell: the projection gather over
    ``_join_index``.  It equals ``_shell_join(ks, parity)[0] @ v`` entry
    for entry (int64 arithmetic is a ring, wrapped or not), but projects
    each pair table once and never forms the N x 4 coordinates."""
    lex, by_norm, first, cnt, right, sizes = _join_index(ks, parity)
    v = np.asarray(v, dtype=np.int64)
    return np.repeat((lex @ v[:2])[first], cnt) + (by_norm @ v[2:])[right], sizes


@dataclass(frozen=True)
class NormShell:
    """All quaternions of one parity class with a fixed reduced norm.

    ``coords`` holds doubled coordinates, one row per element, sorted
    lexicographically on (c1, c2, c3, c4).
    """

    k: int
    parity: str
    coords: np.ndarray

    @property
    def elements(self):
        return tuple(Quaternion(*(int(v) for v in row)) for row in self.coords)

    def __len__(self):
        return len(self.coords)


@lru_cache(maxsize=4096)
def enumerate_shell(k: int, parity: str = INTEGRAL) -> NormShell:
    """Complete, duplicate-free, lexicographically sorted norm-k shell."""
    coords, _ = _shell_join([k], parity)
    if parity == INTEGRAL:
        coords *= 2
    coords.setflags(write=False)
    return NormShell(k, parity, coords)


def _m1_profiles(ks, parity: str):
    """The m1 profiles of the norm-k shells of one parity for every k in
    ``ks``, in one pass over the (k, c1) pairs: arrays (i, c1, count) of the
    pairs with count > 0, in the order of ``ks`` and then of c1, where ``i``
    indexes ``ks``.  The count of c1 is the number of triples (c2, c3, c4)
    of the same parity completing it, read from the r3 tables."""
    start, S = _shell_norms(ks, parity)
    smax = int(S.max())
    top = isqrt(smax)
    v = np.arange(-(top | start), top + 1, 1 + start, dtype=np.int64)
    i, j = np.nonzero(v * v <= S[:, None])
    r3 = r3_odd_counts(smax) if start else r3_counts(smax)
    counts = r3[S[i] - v[j] * v[j]]
    keep = counts > 0
    c1 = v[j] if start else 2 * v[j]
    return i[keep], c1[keep], counts[keep]


def m1_profile(k: int, parity: str = INTEGRAL):
    """Distribution of the doubled first coordinate over the norm-k shell.

    Returns two arrays (c1_values, counts); the reduced trace of an element
    is its doubled first coordinate.
    """
    _, c1, counts = _m1_profiles([k], parity)
    return c1, counts


def r4_count(k: int) -> int:
    """Number of elements of B(Z) with reduced norm k (8*sigma(k) for odd k)."""
    return int(_m1_profiles([k], INTEGRAL)[2].sum())
