"""Per-shell and Fraction references for the batched theta layer.

The package sums the Petersson strips for all k <= K in one pass over a
cached profile table built in one pass over all (k, c1) pairs, and takes
exact theta coefficients from an integer recurrence, batched over blocks of
k whose traces come from one shell join.  This module keeps the earlier
computations, one shell at a time, so the tests can compare the two: the
traces of one enumerated shell, the profile table concatenated from per-k
``m1_profile`` calls, the per-k strip sum S_k, the per-k theta coefficient
(float sum and integer recurrence over one shell), and the Chebyshev
re-expansion of U_n into its integer monomial coefficients, summed power by
power in ``Fraction``s.  ``chebyshev_U`` evaluates those coefficients
exactly, the reference for the package's float U_n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from hecke_sphere.quat import Quaternion, enumerate_shell, m1_profile
from hecke_sphere.theta import ThetaCoefficient, _as_quat
from hecke_sphere.zonal import chebyshev_U_vec


def trace_values(k: int, qx: Quaternion, qy: Quaternion) -> np.ndarray:
    """tr(m q_x conj(q_y)) over the norm-k integral shell, exact integers."""
    w = qx * qy.conjugate()
    # tr(m w) = (c(m) . (w1, -w2, -w3, -w4)) / 2 in doubled coordinates
    vec = np.array([w.c1, -w.c2, -w.c3, -w.c4], dtype=np.int64)
    prod = enumerate_shell(k, "integral").coords @ vec
    assert not np.any(prod & 1)
    return prod // 2


def profile_table(K: int, parity: str):
    """The m1 profiles of the shells k <= K concatenated in k order from one
    ``m1_profile`` call per k, as (k, t = c1 / (2 sqrt k), count) arrays."""
    prof = [m1_profile(k, parity) for k in range(1, K + 1)]
    return (np.repeat(np.arange(1, K + 1, dtype=np.int32),
                      [len(c) for c, _ in prof]),
            np.concatenate([c / (2.0 * math.sqrt(k))
                            for k, (c, _) in enumerate(prof, 1)]),
            np.concatenate([m for _, m in prof]).astype(np.int32))


@lru_cache(maxsize=None)
def cheb_coeffs(n: int):
    """Integer coefficients of U_n, index = power of x (zeros interleaved)."""
    if n == 0:
        return (1,)
    prev, cur = [1], [0, 2]
    for _ in range(n - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return tuple(cur)


def chebyshev_U(n: int, x):
    """U_n(x) from its integer coefficients by Horner's rule; exact for int
    or Fraction x."""
    acc = 0
    for c in reversed(cheb_coeffs(n)):
        acc = acc * x + c
    return acc


def shell_kernel_sum(n: int, k: int, parity: str) -> float:
    """S_k = sum over the norm-k shell of U_n(tr(m) / (2 sqrt k))."""
    c1s, counts = m1_profile(k, parity)
    if not len(c1s):
        return 0.0
    vals = chebyshev_U_vec(n, c1s / (2.0 * math.sqrt(k)))
    return float(counts @ vals)


def strip_sums(n: int, K: int, parity: str) -> np.ndarray:
    """S_1, ..., S_K one shell at a time."""
    return np.array([shell_kernel_sum(n, k, parity) for k in range(1, K + 1)])


def reexpansion_value(n: int, k: int, P: int, tvals, counts) -> Fraction:
    """k^(n/2) sum cnt * U_n(T / (2 S sqrt k)), S = sqrt(P), through the
    monomial coefficients a_j of U_n: only powers j of the parity of n
    occur, so each term a_j k^((n-j)/2) sum cnt T^j / (2S)^j is rational
    when n is even, (2S)^j = 4^(j/2) P^(j/2), or when P is a square."""
    S = math.isqrt(P)
    assert n % 2 == 0 or S * S == P
    a = cheb_coeffs(n)
    total = Fraction(0)
    for j in range(n % 2, n + 1, 2):
        if a[j]:
            power_sum = sum(c * T ** j for T, c in zip(tvals, counts))
            scale = (4 * P) ** (j // 2) * (2 * S) ** (j % 2)
            total += Fraction(a[j] * power_sum * k ** ((n - j) // 2), scale)
    return total


def theta_coefficient_per_k(n: int, x, y, k: int) -> ThetaCoefficient:
    """The k-th theta coefficient from the norm-k shell alone: the float
    sum of U_n over its traces and the integer recurrence over its
    distinct traces, with the same 1e-9 exact/float cross-check."""
    qx, qy = _as_quat(x), _as_quat(y)
    Nx, Ny = qx.nr(), qy.nr()
    traces = trace_values(k, qx, qy)
    denom = 2.0 * math.sqrt(float(k) * Nx * Ny)
    fv = float(k) ** (n / 2) * float(np.sum(chebyshev_U_vec(n, traces / denom)))
    P = Nx * Ny
    S = math.isqrt(P)
    if n % 2 and S * S != P:
        return ThetaCoefficient(n, k, qx, qy, None, fv)
    tvals, counts = np.unique(traces, return_counts=True)
    T = tvals.astype(object)
    prev, cur = 0 * T, 0 * T + 1
    for _ in range(n):
        prev, cur = cur, 2 * T * cur - 4 * P * k * prev
    total = Fraction(int(cur @ counts.astype(object)),
                     2 ** n * P ** (n // 2) * S ** (n % 2))
    if total != 0:
        rel = abs(fv - float(total)) / abs(float(total))
        if rel > 1e-9:
            raise ArithmeticError(
                f"exact/float disagreement {rel:.2e} at n={n}, k={k}")
    return ThetaCoefficient(n, k, qx, qy, total, fv)
