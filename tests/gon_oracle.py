"""Reference successive minima and lattice counts over the full coefficient box.

Keeps the enumeration that ``gon`` replaced: every point of each coefficient
box (both v and -v, and the origin) is formed and gauged, the minima come
from a doubling coefficient cube followed by the region of its fourth
minimum, the greedy extraction decides independence by a Bareiss rank of
the chosen coefficients plus the candidate, and a basis is validated by
that rank.  The given basis is enumerated first; only when a box exceeds
the budget is the enumeration rerun on a basis reduced by the oracle's own
LLL, which keeps the Gram-Schmidt data in ``Fraction``s and rebuilds it
after every step.  The tests compare ``gon``'s reduce-always, half-box
results with these bit for bit.  The exact adjugate and the bodies are
shared with ``gon``.  ``in_cylinder_class`` is the per-element membership
test that the brute-force class counts are taken with.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from hecke_sphere.gon import INT64_COORD, _adjugate
from hecke_sphere.quat import CapacityError


def in_cylinder_class(m, R: int) -> bool:
    """Exact test of m2^2+m3^2+m4^2 <= nr(m)/R^2 for a quaternion m, in
    doubled coordinates."""
    s4 = m.c2 ** 2 + m.c3 ** 2 + m.c4 ** 2
    nr4 = m.c1 ** 2 + s4
    return R * R * s4 <= nr4


def exact_rank(rows) -> int:
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


def box_points(basis: np.ndarray, radii, budget: int):
    """Coefficients C of the whole box |c_i| <= radii[i] in "ij" order and
    the points V = C B^T."""
    npts = math.prod(2 * r + 1 for r in radii)
    if npts > budget:
        raise CapacityError(
            f"enumeration of {npts} points exceeds the {budget} budget")
    axes = [np.arange(-r, r + 1) for r in radii]
    C = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
    rows = basis.tolist()
    if max(sum(abs(b) * r for b, r in zip(row, radii)) for row in rows) > INT64_COORD:
        return C, C.astype(object) @ np.array(rows, dtype=object).T
    return C, C @ basis.T


def greedy_minima(C: np.ndarray, V: np.ndarray, body):
    """Linearly independent points in gauge order; returns up to 4 minima."""
    g = body.gauge_sq_float(V.astype(float))
    order = np.argsort(g, kind="stable")
    chosen, lams = [], []
    for idx in order:
        if not np.any(C[idx]):
            continue
        if chosen and exact_rank(chosen + [C[idx]]) == len(chosen):
            continue
        chosen.append(C[idx].tolist())
        lams.append(math.sqrt(float(body.gauge_sq(V[idx].tolist()))))
        if len(lams) == 4:
            break
    return lams


def body_region(basis: np.ndarray, body, t: float, budget: int):
    adj, det = _adjugate(tuple(basis.ravel().tolist()))
    inv = np.abs(np.array(adj, dtype=float)) / abs(det)
    radii = np.floor(inv @ np.array(body.bbox()) * t + 1e-9)
    return box_points(basis, [int(r) for r in radii], budget)


def lll(rows) -> list:
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


def with_reduction(fn, B: np.ndarray, *args):
    """``fn(B, *args)``, or ``fn`` on an LLL-reduced basis of the same
    lattice when its enumeration exceeds the budget."""
    try:
        return fn(B, *args)
    except CapacityError:
        reduced = np.array(lll(B.T.tolist()), dtype=np.int64).T
        return fn(reduced, *args)


def lattice_basis(basis) -> np.ndarray:
    B = np.asarray(basis, dtype=np.int64)
    if B.shape != (4, 4) or exact_rank(B.tolist()) != 4:
        raise ValueError("basis must be a nonsingular 4x4 integer matrix")
    return B


def minima(B: np.ndarray, body, budget: int) -> tuple:
    r = 2
    while True:
        C, V = box_points(B, (r,) * 4, budget)
        lams = greedy_minima(C, V, body)
        if len(lams) == 4:
            break
        r *= 2
    C, V = body_region(B, body, lams[3] * (1 + 1e-9), budget)
    return tuple(greedy_minima(C, V, body))


def successive_minima(basis, body, budget: int = 10 ** 7) -> tuple:
    return with_reduction(minima, lattice_basis(basis), body, budget)


def lattice_point_count(basis, body, budget: int = 10 ** 7) -> int:
    _, V = with_reduction(body_region, lattice_basis(basis), body, 1.0, budget)
    return int(np.count_nonzero(body.contains(V)))


def results(basis, body, budget: int = 10 ** 7) -> tuple:
    """(minima, point count, Minkowski sandwich middle, product-bound flag),
    from one minima enumeration."""
    lams = successive_minima(basis, body, budget)
    count = lattice_point_count(basis, body, budget)
    covol = abs(_adjugate(tuple(lattice_basis(basis).ravel().tolist()))[1])
    middle = math.prod(lams) * body.volume() / covol
    prod = math.prod(1 + 2 * (i + 1) / lams[i] for i in range(4))
    return lams, count, middle, count <= prod * (1 + 1e-12)
