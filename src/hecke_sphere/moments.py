"""Moment statistics of joint eigenfunction families on the 3-sphere.

Evaluates an orthonormal joint eigenbasis on a seeded grid and forms the
plain fourth moment and the individual sup proxy over the eigenvalue
classes with unit odd part at N = 1 (the flagged blocks), refining the
best grid point of the fourth moment by local coordinate ascent.  The
family fourth moment needs no grid: it is constant on S^3 (see below), so
``sup_family`` is set to that constant exactly.

Evaluation.  Each joint eigenspace is V_lambda = W_lambda (x) C^(n+1) (see
``hecke``): the Hecke operators act on the row label b of the matrix
coefficients t_{ba} of T(x) = Sym^n(x), the column label a spans the
multiplicity factor.  For a real vector of W_lambda in ``row_basis``
coordinates, with row vector v in the unitary frame D(x) of ``poly``, the
g_a = sqrt(n + 1) sum_b v_b D_{ba} are orthonormal and
conj g_a = (-1)^a g_{n-a}, so sqrt 2 Re g_a and sqrt 2 Im g_a for a < n/2,
with g_{n/2} (real for even n/2, imaginary for odd), are n + 1 real
orthonormal eigenfunctions.  ``_products`` contracts the row vectors with
``sym_power_values`` (the columns a <= n/2) in one complex matrix product,
O(n^3) work per point for the whole eigenbasis, and applies the weights
sqrt(2 (n + 1)), sqrt(n + 1) at a = n/2, and the zero there in place.
``eigen_values`` reads its real and imaginary parts as a view, and the
sweep sums its statistics on the float view of the product.  A sweep
checks that the closure sums (below) stay within ``CLOSURE_TOL`` of
(n + 1)^2.  The float values D(x) of ``sym_power_values`` are unitary to
roundoff (a deviation of about 1.5e-13 at n = 128 and 3e-13 at n = 256 over
200 random unit points; the closure error of a 500-point sweep reads
1.1e-13 and 2.3e-13), so the gate holds far past the degrees swept here; it
still raises ``ClosureError`` rather than report statistics of a basis that
is not orthonormal.

Which statistics depend on a basis.  Since the multiplicity factor is the
column label, sum_{j in V_lambda} phi_j(x)^2 = dim V_lambda at every x,
and ``sup_family`` is exactly the sum over flagged blocks of
(dim V_lambda)^2 in any orthonormal basis.  The plain fourth moment and
the individual sup are taken in the basis of ``hecke`` ("Which basis"),
which a sweep checks and does not pin again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hecke import (
    DegeneracyError, SpectralDecomposition, row_basis, unit_classes,
)
from .poly import sym_power_values

#: points per evaluation chunk; every statistic is taken per point
CHUNK = 256

#: the largest relative deviation of the closure sums that a sweep accepts
CLOSURE_TOL = 1e-7

#: rounds of the coordinate ascent that refines the best grid point
REFINE_STEPS = 20


class ClosureError(ArithmeticError):
    """The closure sums sum_j phi_j(x)^2 at the grid points miss (n + 1)^2
    by ``CLOSURE_TOL`` relative or more: the float eigenbasis values have
    lost orthonormality, and no statistic of the sweep can be trusted."""


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
    ``sup_individual`` are taken in the basis of ``dec``, one column per
    sign class of left u in each flagged block (module docstring).
    """

    n: int
    grid_size: int
    seed: int
    sup_family: float
    sup_fourth: float
    sup_individual: float
    closure_error: float  # max relative deviation of sum |phi_j|^2 from (n+1)^2


@lru_cache(maxsize=None)
def _weights(n: int) -> np.ndarray:
    """sqrt(2 (n + 1)) for a < n/2 and sqrt(n + 1) at a = n/2."""
    w = np.full(n // 2 + 1, np.sqrt(2.0 * (n + 1)))
    w[-1] = np.sqrt(n + 1.0)
    w.setflags(write=False)
    return w


def _products(n: int, R: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """w_a sum_b v_b D_{ba} (``_weights``) for every column v of R, complex
    (k, n/2 + 1, #pts), contiguous, its vanishing part at a = n/2 set to 0.
    """
    h = n // 2
    T = sym_power_values(np.asarray(pts, dtype=float), n)
    G = (row_basis(n) @ R).T @ T.reshape(n + 1, -1)
    # the float view interleaves the real and imaginary part of each point
    F = G.view(float).reshape(R.shape[1], h + 1, 2 * len(pts))
    F[:, h, (h + 1) % 2::2] = 0.0
    F *= _weights(n)[:, None]
    return G.reshape(R.shape[1], h + 1, len(pts))


def eigen_values(n: int, R: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Real orthonormal eigenfunctions at pts, shape (2, k, n/2 + 1, #pts).

    ``R`` holds k real vectors of W in ``row_basis(n)`` coordinates.
    Entries [0, i, a] and [1, i, a] are sqrt 2 Re g_a and sqrt 2 Im g_a of
    vector i; at a = n/2 the sqrt 2 is dropped and the vanishing part is 0.
    The result is a view of the complex ``_products`` with its real and
    imaginary parts as the leading axis.
    """
    G = _products(n, R, pts)
    return np.moveaxis(G.view(float).reshape(G.shape + (2,)), -1, 0)


def _block_stats(n: int, R: np.ndarray, flagged: int, pts: np.ndarray):
    """Fourth moment of R's first ``flagged`` columns, closure sum, sup.

    The sums are taken on the float view of ``_products``, whose last axis
    interleaves the real and imaginary parts of each point: these are the
    values of ``eigen_values`` without its copy-free transpose.
    """
    h = n // 2
    fourth = np.empty(len(pts))
    closure = np.empty(len(pts))
    sup_ind = 0.0
    for i in range(0, len(pts), CHUNK):
        G = _products(n, R, pts[i:i + CHUNK]).view(float)
        sq = np.square(G, out=G).reshape(-1, G.shape[-1])
        s = sq.sum(axis=0)
        closure[i:i + CHUNK] = s[0::2] + s[1::2]
        sq = sq[:flagged * (h + 1)]
        s = np.einsum("ij,ij->j", sq, sq)
        fourth[i:i + CHUNK] = s[0::2] + s[1::2]
        sup_ind = max(sup_ind, float(np.sqrt(sq.max(initial=0.0))))
    return fourth, closure, sup_ind


def _ascend(n: int, R: np.ndarray, x: np.ndarray):
    """Coordinate ascent of the plain fourth moment of R's functions from x.

    Each of the ``REFINE_STEPS`` rounds tries the eight moves of the current
    step and halves the step when none of them gains.  One ``_block_stats``
    call scores the moves of the step and of its next two halvings from the
    same point, so up to three rounds that gain nothing share one call.
    """
    best = x / np.linalg.norm(x)
    val = float(_block_stats(n, R, R.shape[1], best[None, :])[0][0])
    step = 0.05
    left = REFINE_STEPS
    # the moves +-e_1, ..., +-e_4 in that order, scaled per step size below
    moves = (np.eye(4)[:, None, :] * np.array([1.0, -1.0])[:, None]).reshape(8, 4)
    while left:
        sizes = step * 0.5 ** np.arange(min(3, left))
        cands = best + (sizes[:, None, None] * moves).reshape(-1, 4)
        cands /= np.linalg.norm(cands, axis=1, keepdims=True)
        stats = _block_stats(n, R, R.shape[1], cands)[0].reshape(len(sizes), 8)
        for h, stat in enumerate(stats):
            left -= 1
            i = int(np.argmax(stat))
            if stat[i] > val:
                best, val = cands[8 * h + i], float(stat[i])
                break
            step *= 0.5
    return val


def moment_sweep(dec: SpectralDecomposition, grid: np.ndarray,
                 seed: int = 0) -> MomentReport:
    """Moment statistics at the degree n = ``dec.n`` on a grid.

    ``sup_family`` is exact, the sum over flagged blocks of their squared
    dimensions; ``sup_fourth`` is the grid sup refined by the fixed
    ``REFINE_STEPS`` rounds of coordinate ascent from the best grid point;
    ``sup_individual`` is the grid sup.  Raises ``DegeneracyError`` unless
    each flagged column lies in one class of ``unit_classes`` (to 1e-10 of
    its norm), no two of a block in one, and ``ClosureError`` when
    ``closure_error`` is not below ``CLOSURE_TOL``.
    """
    n = dec.n
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    cls = unit_classes(n)
    flagged = [sp.basis for sp in dec.spaces if sp.t1_flag]
    for basis in flagged:
        own = cls[np.abs(basis).argmax(axis=0)]
        off = np.abs(basis) * (cls[:, None] != own)
        if (np.any(own < 0) or len(set(own.tolist())) < len(own) or np.any(
                off.max(axis=0) > 1e-10 * np.linalg.norm(basis, axis=0))):
            raise DegeneracyError(
                f"n={n}: a flagged block of dim W = {basis.shape[1]} is not "
                f"one column per sign class of left u")
    # the fourth moment is a sum over the flagged blocks alone: put them first
    R = np.hstack(flagged + [sp.basis for sp in dec.spaces if not sp.t1_flag])
    k = sum(basis.shape[1] for basis in flagged)
    fourth, closure, sup_ind = _block_stats(n, R, k, grid)
    target = float((n + 1) ** 2)
    closure_err = float(np.abs(closure - target).max() / target)
    if not closure_err < CLOSURE_TOL:
        raise ClosureError(f"closure error {closure_err:.2e} at n={n} is "
                           f"not below {CLOSURE_TOL:g}")
    j = int(np.argmax(fourth))
    fourth_val = _ascend(n, R[:, :k], grid[j])
    return MomentReport(
        n=n, grid_size=grid.shape[0], seed=seed,
        sup_family=float(sum(((n + 1) * basis.shape[1]) ** 2
                             for basis in flagged)),
        sup_fourth=max(fourth_val, float(fourth[j])),
        sup_individual=sup_ind,
        closure_error=closure_err,
    )


def pretrace_residual(dec: SpectralDecomposition, xs: np.ndarray,
                      ys: np.ndarray) -> float:
    """Max deviation of sum_j phi_j(x) phi_j(y) from (n+1) U_n(x . y)."""
    from .zonal import chebyshev_U_vec

    m = xs.shape[0]
    if not m:
        raise ValueError("the pre-trace residual needs at least one pair")
    R = np.hstack([sp.basis for sp in dec.spaces])
    F = eigen_values(dec.n, R, np.vstack([xs, ys]))
    lhs = np.einsum("jkap,jkap->p", F[..., :m], F[..., m:])
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
