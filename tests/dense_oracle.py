"""Dense harmonic-basis reference for the row-space spectral layer.

The package decomposes the degree-n harmonics through the (n+1) x (n+1)
shell sums S_N.  This module keeps the earlier computation on the
(n+1)^2 x (n+1)^2 Hecke matrices in the rational harmonic basis, so the
tests can compare the two: the whitened dense eigensolve, the product
basis pinned by right rotation, right j and left u on the harmonic labels,
the moment statistics, the pre-trace sum and the spectral side of the
central identity, and the exact relation and self-adjointness checks on
the dense integer matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from hecke_sphere.hecke import (
    DegeneracyError, hecke_matrix, hecke_matrix_float,
)
from hecke_sphere.moments import MomentReport
from hecke_sphere.poly import HarmonicBasis, basis_values, harmonic_basis
from poly_oracle import basis_polys, gram_diagonal


@dataclass(frozen=True)
class DenseSpace:
    """One joint eigenspace V_lambda in rational harmonic coordinates."""

    lams: dict
    vectors: np.ndarray  # (dim, multiplicity), coordinates in the rational basis
    t1_flag: int

    @property
    def multiplicity(self):
        return self.vectors.shape[1]


@dataclass(frozen=True)
class DenseDecomposition:
    n: int
    seed: int
    spaces: tuple

    def all_vectors(self):
        return np.concatenate([s.vectors for s in self.spaces], axis=1)


def _whitened_operator(n, N, sqrt_g):
    T = hecke_matrix_float(n, N)
    S = (sqrt_g[:, None] * T) / sqrt_g[None, :]
    asym = np.abs(S - S.T).max() / max(np.abs(S).max(), 1e-30)
    if asym > 1e-9:
        raise DegeneracyError(f"whitened T_{N} not symmetric (asym {asym:.2e})")
    return 0.5 * (S + S.T)


def joint_eigenspaces(n, primes=(3, 5), even_extras=(), seed=0,
                      group_tol=1e-7):
    """Dense eigensolve of a seeded combination of the whitened T_p."""
    sqrt_g = np.sqrt(np.array(gram_diagonal(n), dtype=float))
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
            raise DegeneracyError(f"n={n} N={N}: residual {resid.max():.3e}")
        tables[N] = lam

    order = np.lexsort(tuple(tables[p] for p in reversed(primes)))
    groups = []
    for j in order:
        for g in groups:
            r = g[0]
            if all(abs(tables[p][j] - tables[p][r])
                   <= group_tol * (1 + abs(tables[p][r])) for p in primes):
                g.append(j)
                break
        else:
            groups.append([j])

    spaces = []
    for g in groups:
        idxs = np.array(g)
        lams = {N: float(np.mean(tables[N][idxs])) for N in Ns}
        coords = vecs[:, idxs] / sqrt_g[:, None]
        spaces.append(DenseSpace(lams=lams, vectors=coords,
                                 t1_flag=1 if lams[1] > 0.5 else 0))
    return DenseDecomposition(n=n, seed=seed, spaces=tuple(spaces))


def decompose(n, primes=(3, 5), even_extras=(), seed=0, retries=5):
    last = None
    for s in range(seed, seed + retries):
        try:
            return joint_eigenspaces(n, primes, even_extras, seed=s)
        except DegeneracyError as exc:
            last = exc
    raise last


def _right_j(hb: HarmonicBasis):
    """Signed permutation of f(x) -> f(x j) on the harmonic basis.

    basis[i] goes to sign[i] * basis[perm[i]]; the sign is read off one
    coefficient, using x j = (-x3, -x4, x1, x2).
    """
    n = hb.n
    basis = basis_polys(n)
    index = {lab: i for i, lab in enumerate(hb.labels)}
    perm = np.empty(hb.dim, dtype=np.intp)
    sign = np.empty(hb.dim)
    for i, (b, a, part) in enumerate(hb.labels):
        rb, ra = min((b, n - a), (n - b, a))
        perm[i] = k = index[(rb, ra, part)]
        alpha, v = next(iter(basis[i].coeffs.items()))
        image = (alpha[2], alpha[3], alpha[0], alpha[1])
        sign[i] = (-1) ** (alpha[0] + alpha[1]) * v / basis[k].coeffs[image]
    return perm, sign


def _pin_block(Q, key, perm, sign):
    cols = []
    for g in sorted(set(key.tolist())):
        rows = np.flatnonzero(key == g)
        s, V = np.linalg.eigh(Q[rows].T @ Q[rows])
        if np.any((s > 1e-6) & (s < 1 - 1e-6)):
            raise DegeneracyError("eigenspace does not split over the labels")
        keep = s > 0.5
        r = int(np.count_nonzero(keep))
        if r == 0:
            continue
        if g % 2:
            raise DegeneracyError("flagged eigenspace not fixed by the units")
        E = np.zeros((Q.shape[0], r))
        E[rows] = Q[rows] @ V[:, keep]
        if r > 1:
            JE = np.empty_like(E)
            JE[perm] = sign[:, None] * E
            ev, W = np.linalg.eigh(0.5 * (E.T @ JE + JE.T @ E))
            if np.diff(ev).min() < 1.0:
                raise DegeneracyError("eigenspace left unsplit")
            E = E @ W
        cols.append(E)
    return np.hstack(cols)


def pinned_blocks(dec):
    """(vectors, t1_flag) per eigenspace, flagged ones in the pinned basis."""
    n = dec.n
    hb = harmonic_basis(n)
    sqrt_g = np.sqrt(np.array(gram_diagonal(n), dtype=float))
    perm, sign = _right_j(hb)
    b, a = np.array([lab[:2] for lab in hb.labels]).T
    key = 4 * np.minimum(a, n - a) + (b - n // 2) % 4
    blocks = []
    for sp in dec.spaces:
        vecs = sp.vectors
        if sp.t1_flag:
            Q = vecs * sqrt_g[:, None]
            vecs = _pin_block(Q, key, perm, sign) / sqrt_g[:, None]
        blocks.append((vecs, sp.t1_flag))
    return blocks


def _block_stats(hb, blocks, pts):
    B = basis_values(hb, pts)
    fourth = np.zeros(pts.shape[0])
    closure = np.zeros(pts.shape[0])
    sup_ind = 0.0
    for vectors, t1_flag in blocks:
        vals = vectors.T @ B
        sq = vals ** 2
        closure += sq.sum(axis=0)
        if t1_flag:
            fourth += (sq ** 2).sum(axis=0)
            sup_ind = max(sup_ind, float(np.abs(vals).max()))
    return fourth, closure, sup_ind


def _ascend(hb, blocks, x, steps=20):
    best = x / np.linalg.norm(x)
    val = float(_block_stats(hb, blocks, best[None, :])[0][0])
    step = 0.05
    for _ in range(steps):
        cands = np.vstack([best + d * step * e
                           for e in np.eye(4) for d in (1.0, -1.0)])
        cands /= np.linalg.norm(cands, axis=1, keepdims=True)
        stat = _block_stats(hb, blocks, cands)[0]
        i = int(np.argmax(stat))
        if stat[i] > val:
            best, val = cands[i], float(stat[i])
        else:
            step *= 0.5
    return val


def moment_sweep(n, dec, grid, seed=0, refine_steps=20):
    hb = harmonic_basis(n)
    blocks = pinned_blocks(dec)
    fourth, closure, sup_ind = _block_stats(hb, blocks, grid)
    target = float((n + 1) ** 2)
    flagged = [blk for blk in blocks if blk[1]]
    j = int(np.argmax(fourth))
    fourth_val = _ascend(hb, flagged, grid[j], refine_steps)
    return MomentReport(
        n=n, grid_size=grid.shape[0], seed=seed,
        sup_family=float(sum(v.shape[1] ** 2 for v, _ in flagged)),
        sup_fourth=max(fourth_val, float(fourth[j])),
        sup_individual=sup_ind,
        closure_error=float(np.abs(closure - target).max() / target),
    )


def pretrace_sum(dec, xs, ys):
    """sum_j phi_j(x) phi_j(y) over the whole dense eigenbasis."""
    hb = harmonic_basis(dec.n)
    m = xs.shape[0]
    B = basis_values(hb, np.vstack([xs, ys]))
    lhs = np.zeros(m)
    for sp in dec.spaces:
        lhs += np.einsum("jp,jp->p", sp.vectors.T @ B[:, :m],
                         sp.vectors.T @ B[:, m:])
    return lhs


def spectral_coefficient(n, x, y, k, dec):
    """(8/(n+1)) sum_j lambda_j(k) phi_j(x) phi_j(y) k^(n/2), densely."""
    B = basis_values(harmonic_basis(n), np.stack([x, y]))
    total = 0.0
    for sp in dec.spaces:
        vals = sp.vectors.T @ B
        total += sp.lams[k] * float(vals[:, 0] @ vals[:, 1])
    return (8.0 / (n + 1)) * total * float(k) ** (n / 2)


def hecke_relations_check(n, primes=(3, 5), extra_commuting=()):
    """The Hecke relations on the exact dense integer matrices."""
    report = {}
    primes = tuple(sorted(primes))
    mats = {}
    Ns = {1} | set(primes) | {p * p for p in primes} | set(extra_commuting)
    Ns |= {p * q for p in primes for q in primes if p < q}
    for N in sorted(Ns):
        hm = hecke_matrix(n, N)
        mats[N] = (np.array(hm.entries, dtype=object),
                   Fraction(1, 8 * hm.denom * N ** (n // 2)))

    for p in primes:
        for q in primes:
            if p >= q:
                continue
            (Ep, sp), (Eq, sq), (Epq, spq) = mats[p], mats[q], mats[p * q]
            c = sp * sq / spq
            report[f"T{p}*T{q}=T{p*q}"] = bool(np.all(
                (Ep @ Eq) * c.numerator == Epq * c.denominator))

    for p in primes:
        (Ep, sp), (Ep2, sp2), (E1, s1) = mats[p], mats[p * p], mats[1]
        c2 = sp * sp / sp2
        c1 = p * s1 / sp2
        report[f"T{p * p}=T{p}^2-{p}*T1"] = bool(np.all(
            Ep2 * (c2.denominator * c1.denominator)
            == (Ep @ Ep) * (c2.numerator * c1.denominator)
            - E1 * (c1.numerator * c2.denominator)))

    keys = sorted(mats)
    for i, a in enumerate(keys):
        for b in keys[i + 1:]:
            M1, M2 = mats[a][0], mats[b][0]
            report[f"[T{a},T{b}]=0"] = bool(np.all(M1 @ M2 == M2 @ M1))

    report["all_pass"] = all(v for v in report.values())
    return report


def selfadjoint_check(n, N):
    """G A = A^T G for the exact dense matrix and the exact Gram diagonal."""
    hb = harmonic_basis(n)
    A = hecke_matrix(n, N).entries
    g = gram_diagonal(n)
    return all(g[i] * A[i][j] == g[j] * A[j][i]
               for i in range(hb.dim) for j in range(hb.dim))
