"""Moment statistics of joint eigenfunction families on the 3-sphere.

Evaluates an orthonormal joint eigenbasis on a seeded grid and forms the
plain fourth moment and the individual sup proxy over the eigenvalue
classes with unit odd part at N = 1 (the flagged blocks), refining the
best grid point of the fourth moment by local coordinate ascent.  The
family fourth moment needs no grid: it is constant on S^3 (see below), so
``sup_family`` is set to that constant exactly.

Which statistics depend on a basis.  A joint eigenspace V_lambda factors
as W_lambda (x) C^{n+1}: left multiplication, and with it every Hecke
operator, acts on the row label b of the matrix coefficients t_{ba} that
``harmonic_basis`` is built from, while the column label a spans the
multiplicity factor.  Hence sum_{j in V_lambda} phi_j(x)^2 = dim V_lambda
at every x, and ``sup_family`` is exactly the sum over flagged blocks of
(dim V_lambda)^2 in any orthonormal basis.  For the same reason no
basis-invariant pointwise statistic of a block varies with x, so the plain
fourth moment sum_j phi_j^4 and the individual sup max_j |phi_j| are only
defined once a basis inside each V_lambda is fixed.  The paper text kept
with this package (the abstract) does not say which orthonormal
eigenbasis its plain fourth moment is taken over; this module decides it.

The pinned basis of a flagged V_lambda is the product basis: a fixed basis
of W_lambda tensor the weight basis of the multiplicity factor, in real
form.  It is made of the joint eigenlines, inside V_lambda, of three real
operators that commute with every T_N:

- right rotation x -> x e^{i theta}, diagonal on the column labels; its
  isotypic pieces are the label pairs {a, n - a}, a coordinate grouping of
  the harmonic basis;
- right multiplication by j, a signed swap a <-> n - a, which picks the
  two real lines inside each pair;
- left multiplication by u = (1 + i)/sqrt(2), which normalises the
  Lipschitz order and so commutes with every T_N.  A flagged block is
  fixed by the units, so u^2 = i acts trivially on it and u acts as the
  sign (-1)^((b - n/2)/2) on the row label b.  It breaks the tie where
  dim W_lambda > 1 (n = 4, 8, 10, ...), which more primes do not split.

Each joint eigenline is one real function up to sign, which no statistic
sees, so ``sup_fourth`` and ``sup_individual`` do not depend on the basis
LAPACK returns.  A block these operators leave unsplit raises
``DegeneracyError`` instead of falling back to an arbitrary basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hecke import DegeneracyError, SpectralDecomposition
from .poly import HarmonicBasis, basis_values, harmonic_basis


def sphere_grid(size: int, seed: int = 0) -> np.ndarray:
    """Deterministic grid on S^3 from normalised 4D Gaussian draws."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((size, 4))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


@dataclass(frozen=True)
class MomentReport:
    """Sups of the moment statistics at degree n.

    ``sup_family`` is the sum over flagged blocks of (dim V_lambda)^2, the
    value of the family statistic at every point; ``sup_fourth`` and
    ``sup_individual`` are taken in the pinned basis described in the
    module docstring.
    """

    n: int
    grid_size: int
    seed: int
    sup_family: float
    sup_fourth: float
    sup_individual: float
    closure_error: float  # max relative deviation of sum |phi_j|^2 from (n+1)^2


def _right_j(hb: HarmonicBasis):
    """Signed permutation of f(x) -> f(x j) on the harmonic basis.

    Right multiplication by j sends t_{ba} to +-t_{b,n-a}, so basis[i] goes
    to sign[i] * basis[perm[i]] with perm read off the labels; the sign is
    read off one coefficient, using x j = (-x3, -x4, x1, x2).
    """
    n = hb.n
    index = {lab: i for i, lab in enumerate(hb.labels)}
    perm = np.empty(hb.dim, dtype=np.intp)
    sign = np.empty(hb.dim)
    for i, (b, a, part) in enumerate(hb.labels):
        rb, ra = min((b, n - a), (n - b, a))
        perm[i] = k = index[(rb, ra, part)]
        alpha, v = next(iter(hb.basis[i].coeffs.items()))
        image = (alpha[2], alpha[3], alpha[0], alpha[1])
        sign[i] = (-1) ** (alpha[0] + alpha[1]) * v / hb.basis[k].coeffs[image]
    return perm, sign


def _pin_block(Q: np.ndarray, key: np.ndarray, perm: np.ndarray,
               sign: np.ndarray) -> np.ndarray:
    """Joint eigenlines of one flagged block given by orthonormal columns Q.

    Q is in whitened coordinates; ``key`` groups the coordinates by label
    pair and by the row-label class that fixes the sign of u.
    """
    cols = []
    for g in sorted(set(key.tolist())):
        rows = np.flatnonzero(key == g)
        # Q[rows] Q[rows]^T projects onto the block's part in group g, so
        # the Gram matrix below has only the eigenvalues 0 and 1
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
                raise DegeneracyError(
                    f"eigenspace left unsplit: {r} lines share the "
                    f"eigenvalues {np.round(ev, 6).tolist()} of right j")
            E = E @ W
        cols.append(E)
    return np.hstack(cols)


def pinned_blocks(dec: SpectralDecomposition):
    """(vectors, t1_flag) per eigenspace, flagged ones in the pinned basis.

    Vectors are coordinates in the rational harmonic basis, as in
    ``EigenSpace.vectors``; unflagged spaces keep the basis of ``dec``.
    """
    n = dec.n
    hb = harmonic_basis(n)
    sqrt_g = np.sqrt(np.array(hb.gram, dtype=float))
    perm, sign = _right_j(hb)
    b, a = np.array([lab[:2] for lab in hb.labels]).T
    # label pair {a, n-a}, then the row label's class mod 4: even classes
    # carry the sign of u, odd ones are moved by the units
    key = 4 * np.minimum(a, n - a) + (b - n // 2) % 4
    blocks = []
    for sp in dec.spaces:
        vecs = sp.vectors
        if sp.t1_flag:
            Q = vecs * sqrt_g[:, None]
            vecs = _pin_block(Q, key, perm, sign) / sqrt_g[:, None]
        blocks.append((vecs, sp.t1_flag))
    return blocks


def _block_stats(hb: HarmonicBasis, blocks, pts: np.ndarray):
    """Plain fourth moment and closure sum at each point, individual sup."""
    B = basis_values(hb, pts)  # (dim, npts)
    fourth = np.zeros(pts.shape[0])
    closure = np.zeros(pts.shape[0])
    sup_ind = 0.0
    for vectors, t1_flag in blocks:
        vals = vectors.T @ B  # (mult, npts)
        sq = vals ** 2
        closure += sq.sum(axis=0)
        if t1_flag:
            fourth += (sq ** 2).sum(axis=0)
            sup_ind = max(sup_ind, float(np.abs(vals).max()))
    return fourth, closure, sup_ind


def _ascend(hb: HarmonicBasis, blocks, x: np.ndarray, steps: int = 20):
    """Coordinate ascent of the plain fourth moment from x; its best value."""
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


def moment_sweep(n: int, dec: SpectralDecomposition, grid: np.ndarray,
                 seed: int = 0, refine_steps: int = 20) -> MomentReport:
    """Moment statistics at degree n on a grid.

    ``sup_family`` is exact, the sum over flagged blocks of their squared
    dimensions; ``sup_fourth`` is the grid sup refined by coordinate ascent
    from the best grid point; ``sup_individual`` is the grid sup.
    """
    if dec.n != n:
        raise ValueError("decomposition degree mismatch")
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    hb = harmonic_basis(n)
    blocks = pinned_blocks(dec)
    fourth, closure, sup_ind = _block_stats(hb, blocks, grid)
    target = float((n + 1) ** 2)
    closure_err = float(np.abs(closure - target).max() / target)
    # the fourth moment is a sum over the flagged blocks alone
    flagged = [blk for blk in blocks if blk[1]]
    j = int(np.argmax(fourth))
    fourth_val = _ascend(hb, flagged, grid[j], refine_steps)
    return MomentReport(
        n=n, grid_size=grid.shape[0], seed=seed,
        sup_family=float(sum(vecs.shape[1] ** 2 for vecs, _ in flagged)),
        sup_fourth=max(fourth_val, float(fourth[j])),
        sup_individual=sup_ind,
        closure_error=closure_err,
    )


def pretrace_residual(dec: SpectralDecomposition, xs: np.ndarray,
                      ys: np.ndarray) -> float:
    """Max deviation of sum_j phi_j(x) phi_j(y) from (n+1) U_n(x . y)."""
    from .zonal import chebyshev_U_vec

    hb = harmonic_basis(dec.n)
    m = xs.shape[0]
    B = basis_values(hb, np.vstack([xs, ys]))
    Bx, By = B[:, :m], B[:, m:]
    lhs = np.zeros(m)
    for sp in dec.spaces:
        lhs += np.einsum("jp,jp->p", sp.vectors.T @ Bx, sp.vectors.T @ By)
    rhs = (dec.n + 1) * chebyshev_U_vec(dec.n, np.einsum("pi,pi->p", xs, ys))
    return float(np.abs(lhs - rhs).max())


def growth_fit(ns, values):
    """Least-squares slope/intercept of log(value) against log(n)."""
    ns = np.asarray(ns, dtype=float)
    vs = np.asarray(values, dtype=float)
    if len(ns) < 4:
        raise ValueError("need at least 4 data points for a growth fit")
    A = np.vstack([np.log(ns), np.ones_like(ns)]).T
    coef, *_ = np.linalg.lstsq(A, np.log(vs), rcond=None)
    resid = np.log(vs) - A @ coef
    return float(coef[0]), float(coef[1]), resid
