"""Theta-kernel coefficients, the central identity, and the norm estimate.

The degree-n kernel attached to unit quaternions x, y produces a weight
n+2 cusp form whose k-th Fourier coefficient is

    c_k(x, y) = k^(n/2) * sum_{nr(m)=k} U_n( tr(m x conj(y)) / (2 sqrt(k)) )

over the integer quaternion shell.  With x = q_x/sqrt(N_x) for an integral
q_x and S = sqrt(N_x N_y), W_n(T) = (2S sqrt k)^n U_n(T / (2S sqrt k)) obeys
the integer recurrence W_m = 2T W_(m-1) - 4 N_x N_y k W_(m-2) (W_0 = 1,
W_1 = 2T), so c_k = sum cnt * W_n(T) / (2S)^n over the distinct traces T is
an exact rational whenever (2S)^n is an integer: for every even n, where it
is 2^n (N_x N_y)^(n/2), and for odd n when N_x N_y is a perfect square, as
at the one kernel point of ``modularity_check``, (1+2i+2j)/3 and 1.  Odd n
with a non-square N_x N_y is refused.  Coefficients are computed per block
of ``THETA_BLOCK`` values of k: the block's traces come from one two-square
join over all its shells, projected without forming coordinates, and the
recurrence runs once per distinct (k, T) pair.  It runs on int64 while
every term fits, 2n (4 N_x N_y k)^(n/2) < 2^63, and on Python integers
above; the per-k sums of counts times W_n move to Python integers on their
own when the number of traces times that bound does not fit; a coefficient
outside the float range is refused, naming n and k.  The Petersson strips
(K = 10n by default) are batched per degree over one cached profile table.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import numpy as np

from .hecke import SpectralDecomposition, hecke_eigenvalues
from .moments import eigen_values
from .quat import Quaternion, _m1_profiles, _round_up_pow2, _shell_projection
from .zonal import chebyshev_U_vec


def _as_quat(q) -> Quaternion:
    if isinstance(q, Quaternion):
        return q
    return Quaternion.from_int_coords(*q)


def _block_traces(ks: list, qx: Quaternion, qy: Quaternion):
    """tr(m q_x conj(q_y)) over the norm-k integral shells for every k in
    ``ks``, concatenated in the order of ``ks`` and of each shell, as exact
    integers, and the size of each shell."""
    w = qx * qy.conjugate()
    # tr(m w) = m . (w1, -w2, -w3, -w4) for m in Z^4, w in doubled coordinates
    return _shell_projection(ks, "integral", (w.c1, -w.c2, -w.c3, -w.c4))


#: ``_group_keys`` counts with ``np.bincount`` while a block's bins number
#: at most GROUP_BINS_PER_TRACE * traces + GROUP_BINS_FIXED, and sorts with
#: ``np.unique`` above.  A block's keys take len(ks) (2 t_max + 1) values,
#: and t_max <= 2 sqrt(N_x N_y k) grows without bound in the input norms.
#: Counting costs a pass over the bins on top of its passes over the traces;
#: sorting costs a fixed overhead and more per trace, so the point where
#: sorting wins grows with the traces.  The bound was placed where that
#: point lay when both ways also returned each trace's index (near 8,700
#: bins for 1,280 traces, 22,000 for 6,312, 55,000 for 18,784), and keeps
#: the bin table (8 bytes a bin) within 16 bytes a trace plus 64 KiB.
#: Without that index, measured on an Intel Xeon core, counting still wins
#: on the default point's blocks (48 us to 198 us at k = 113..128: 18,784
#: traces, 8,464 bins) and sorting on the widest block the benchmark draws
#: (26 us to 35-40 us at x = y = (3, 3, 3, 3): 1,280 traces, 9,232 bins).
GROUP_BINS_PER_TRACE = 2
GROUP_BINS_FIXED = 8192


def _group_keys(key: np.ndarray, nbins: int):
    """(keys, counts) of an int64 ``key`` with values in [0, nbins), as
    ``np.unique(key, return_counts=True)`` returns them: the sorted distinct
    values and how often each occurs."""
    if nbins > GROUP_BINS_PER_TRACE * len(key) + GROUP_BINS_FIXED:
        return np.unique(key, return_counts=True)
    counts = np.bincount(key)
    keys = np.flatnonzero(counts)
    return keys, counts[keys]


@dataclass(frozen=True)
class ThetaCoefficient:
    n: int
    k: int
    value: Fraction
    float_value: float  # float(value), refused outside the float range


#: values of k per block in ``theta_coefficients``: bounds the traces and
#: recurrence terms held at once (16 shells near k = 128 hold 18,784 traces)
THETA_BLOCK = 16


def _as_float(n: int, k: int, value) -> float:
    """``value()``, the degree-n coefficient at k, as a float; outside the
    float range (inf or ``OverflowError``) ``ValueError`` names n and k."""
    try:
        f = float(value())
    except OverflowError:
        f = math.inf
    if math.isinf(f):
        raise ValueError(f"n = {n}: the coefficient at k = {k} lies outside "
                         f"the float range")
    return f


def theta_coefficient(n: int, x, y, k: int) -> ThetaCoefficient:
    """k-th Fourier coefficient of the degree-n theta kernel at (x, y)."""
    return theta_coefficients(n, x, y, [k])[0]


def theta_coefficients(n: int, x, y, ks) -> list:
    """``theta_coefficient(n, x, y, k)`` for every k in ``ks``, in order,
    computed ``THETA_BLOCK`` values of k at a time."""
    if n < 0:
        raise ValueError("n must be >= 0")
    ks = [int(k) for k in ks]
    if any(k < 1 for k in ks):
        raise ValueError("coefficients start at k = 1; there is no constant term")
    qx, qy = _as_quat(x), _as_quat(y)
    out = []
    for i in range(0, len(ks), THETA_BLOCK):
        out += _theta_block(n, qx, qy, ks[i: i + THETA_BLOCK])
    return out


def _theta_block(n: int, qx: Quaternion, qy: Quaternion, ks: list) -> list:
    P = qx.nr() * qy.nr()
    S = isqrt(P)
    if n % 2 and S * S != P:
        raise ValueError(f"n = {n}: an odd degree needs a square N_x N_y, "
                         f"got N_x N_y = {P}")
    T, sizes = _block_traces(ks, qx, qy)
    # distinct (block index, T) pairs from one 1-D int64 key
    tmax = int(np.abs(T).max())
    span = 2 * tmax + 1
    key = np.repeat(np.arange(len(ks), dtype=np.int64), sizes) * span + (T + tmax)
    keys, counts = _group_keys(key, len(ks) * span)
    idx = keys // span
    Tu = keys % span - tmax

    # |T| <= 2 S sqrt(k), so |W_m| <= (m+1) (4Pk)^(m/2): every term of the
    # recurrence is at most 2n (4Pk)^(n/2), and each per-k sum of counts
    # times W_n at most len(T) times that.  The recurrence runs on int64
    # when the term bound is below 2^63 and the sums when len(T) times it
    # is (both decided on their squares), each on Python integers above
    term_sq = 4 * n * n * (4 * P * max(ks)) ** n
    dtype = np.int64 if term_sq < 2 ** 126 else object
    Tu = Tu.astype(dtype)
    c = np.array([4 * P * k for k in ks], dtype=dtype)[idx]
    prev, cur = 0 * Tu, 0 * Tu + 1  # W_(-1), W_0
    for _ in range(n):
        prev, cur = cur, 2 * Tu * cur - c * prev
    if len(T) ** 2 * term_sq >= 2 ** 126:
        cur = cur.astype(object)
    # every shell is nonempty (r4(k) >= 8), so each block index starts a run
    starts = np.flatnonzero(np.diff(idx, prepend=-1))
    sums = np.add.reduceat(cur * counts, starts)
    # (2S)^n = 2^n P^(n/2) S^(n mod 2), and S is an integer for odd n
    denom = 2 ** n * P ** (n // 2) * S ** (n % 2)
    out = []
    for k, num in zip(ks, sums):
        total = Fraction(int(num), denom)
        out.append(ThetaCoefficient(n, k, total,
                                    _as_float(n, k, lambda: total)))
    return out


def spectral_coefficient(x, y, ks, dec: SpectralDecomposition) -> list:
    """Spectral side of the central identity: the k-th coefficient of
    (8/(n+1)) sum_j phi_j(x) phi_j(y) Phi_j for each k in ``ks``, at the
    degree n = ``dec.n``.

    The eigenbasis is evaluated at x and y once, and every lambda(k) is
    read from ``dec`` in one ``hecke_eigenvalues`` call."""
    n = dec.n
    qx, qy = _as_quat(x), _as_quat(y)
    R = np.hstack([sp.basis for sp in dec.spaces])
    F = eigen_values(n, R, np.stack([qx.unit_vector(), qy.unit_vector()]))
    pair = np.einsum("jka,jka->k", F[..., 0], F[..., 1])
    lams = np.repeat(hecke_eigenvalues(dec, ks),
                     [sp.basis.shape[1] for sp in dec.spaces], axis=1)
    return [_as_float(n, k, lambda: (8.0 / (n + 1)) * float(lam @ pair)
                      * float(k) ** (n / 2)) for k, lam in zip(ks, lams)]


# ---------------------------------------------------------------------------
# modularity


DEFAULT_X = Quaternion(2, 4, 4, 0)  # (1+2i+2j)/3, norm 9
DEFAULT_Y = Quaternion(2, 0, 0, 0)  # 1
#: ``modularity_check`` returns once its certified relative tail is below
TAIL_TOL = 1e-8


def _log_geometric_tail(log_term, K: int) -> float:
    """log of the geometric-ratio majorant of sum_{k>K} exp(log_term(k)):
    the first term over 1 - r, r the ratio of the first two terms, or inf
    when r >= 0.999.  Valid once the term ratio decreases in k."""
    k0 = K + 1
    r = math.exp(log_term(k0 + 1) - log_term(k0))
    if r >= 0.999:
        return math.inf
    return log_term(k0) - math.log1p(-r)


def _coeff_tail_bound(n: int, K: int, y: float) -> float:
    """Rigorous bound on sum_{k>K} (n+1) r4(k) k^(n/2) e^(-2 pi k y).

    Uses r4(k) <= 24 k (1 + ln k) and a geometric-ratio majorant; valid
    once the term ratio is below 1.
    """
    def log_term(k):
        return (math.log(24 * (n + 1)) + math.log(k) + math.log1p(math.log(k))
                + 0.5 * n * math.log(k) - 2 * math.pi * k * y)

    return math.exp(_log_geometric_tail(log_term, K))


@dataclass(frozen=True)
class ModularityResult:
    n: int
    K: int
    residual: float
    tail_bound: float


def modularity_check(n: int, gamma, z: complex, K: int = 0) -> ModularityResult:
    """Relative residual |F(gamma z) - (cz+d)^(n+2) F(z)| / |F(z)| of the
    degree-n kernel at x = ``DEFAULT_X``, y = ``DEFAULT_Y``, summed from its
    exact rational coefficients (N_x N_y = 9 is a perfect square, so odd n
    are exact too).

    Both evaluations truncate the Fourier series at K terms, starting at K
    (64 for K = 0); K grows until the certified truncation tail, relative to
    |F(z)|, drops below ``TAIL_TOL``, and returns only then.  A z that is not
    finite or not in the upper half-plane, or a (cz+d)^(n+2) outside the
    float range, is refused before any coefficient is computed.
    """
    if K < 0:
        raise ValueError(
            f"needs cutoff K >= 0 (0 starts at K = 64), got K = {K}")
    (a, b), (c, d) = gamma
    if a * d - b * c != 1:
        raise ValueError("gamma must have determinant 1")
    if c % 4 != 0:
        raise ValueError("lower-left entry must be divisible by 4")
    if not cmath.isfinite(z):
        raise ValueError(f"z must be finite, got z = {z}")
    # Im(gamma z) = Im z / |cz + d|^2, and cz + d = 0 only on the real axis
    if z.imag <= 0:
        raise ValueError("both points must lie in the upper half-plane")
    gz = (a * z + b) / (c * z + d)
    ymin = min(z.imag, gz.imag)
    try:
        factor, factor_abs = (c * z + d) ** (n + 2), abs(c * z + d) ** (n + 2)
    except OverflowError:  # a float power overflows; a complex one may be nan
        factor = math.inf
    if not cmath.isfinite(factor):
        raise ValueError(f"n = {n}: (cz + d)^(n+2) lies outside the float range")

    K = K or 64
    coeffs = []
    while True:
        # exact rationals kill roundoff: a vanishing kernel stays exactly 0
        coeffs += [float(tc.value) for tc in theta_coefficients(
            n, DEFAULT_X, DEFAULT_Y, range(len(coeffs) + 1, K + 1))]
        # relative to |F(z)| unless the kernel vanishes identically up to K
        residual = 0.0
        tail_bound = _coeff_tail_bound(n, K, ymin) * (1 + factor_abs)
        if any(coeffs):
            Fz = sum(v * cmath.exp(2j * math.pi * k * z)
                     for k, v in enumerate(coeffs, 1))
            Fgz = sum(v * cmath.exp(2j * math.pi * k * gz)
                      for k, v in enumerate(coeffs, 1))
            cmax = max(abs(v) * math.exp(-2 * math.pi * k * z.imag)
                       for k, v in enumerate(coeffs, 1))
            if abs(Fz) < 1e-3 * cmax:
                raise ValueError("test point is ill-conditioned: |F(z)| too small")
            tail_bound /= abs(Fz)
            residual = abs(Fgz - factor * Fz) / abs(Fz)
        if tail_bound < TAIL_TOL:
            return ModularityResult(n=n, K=K, residual=residual,
                                    tail_bound=tail_bound)
        if K >= 4096:
            raise ValueError(f"n = {n}: tail bound not certified by K=4096")
        K *= 2


# ---------------------------------------------------------------------------
# Petersson-norm estimate


@dataclass(frozen=True)
class PeterssonEstimate:
    n: int
    K: int
    log_I1: float
    log_I2: float
    rho: float
    tail_ratio: float  # certified bound on tail / (I1 + I2)


def _log_upper_gamma(n_plus_1: int, x: np.ndarray) -> np.ndarray:
    """log Gamma(n+1, x) via the exact upward recurrence from Gamma(1, x)."""
    g = -x
    lx = np.log(x)
    for s in range(1, n_plus_1):
        g = np.logaddexp(math.log(s) + g, s * lx - x)
    return g


@lru_cache(maxsize=None)
def _profile_table(K: int, parity: str):
    """The m1 profiles of the shells k <= K, in k order and then c1 order,
    from one pass over the (k, c1) pairs (``quat._m1_profiles``), as
    read-only (k, t = c1 / (2 sqrt k), count) arrays."""
    i, c1, counts = _m1_profiles(np.arange(1, K + 1), parity)
    k = i + 1
    table = (k.astype(np.int32), c1 / (2.0 * np.sqrt(k)),
             counts.astype(np.int32))
    for v in table:
        v.setflags(write=False)
    return table


def _strip_sums(n: int, K: int, parity: str) -> np.ndarray:
    """S_k = sum over the norm-k shell of U_n(tr(m) / (2 sqrt k)), k = 1..K."""
    ks, ts, cs = _profile_table(_round_up_pow2(K), parity)
    end = int(np.searchsorted(ks, K, side="right"))
    vals = chebyshev_U_vec(n, ts[:end])
    return np.bincount(ks[:end], weights=cs[:end] * vals, minlength=K + 1)[1:]


def _logsumexp(v: np.ndarray) -> float:
    if not len(v):
        return -math.inf
    m = np.max(v)
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.sum(np.exp(v - m))))


def petersson_estimate(n: int, K: int = 0) -> PeterssonEstimate:
    """Truncated strip-integral estimate of the normalised kernel norm.

    rho(n) = (4 pi)^n / Gamma(n+2) * 2^(-n-1) * (I1 + I2), where I1 sums
    k^n S_k^2 Gamma(n+1, sqrt(3) pi k) / (2 pi k)^(n+1) over all k and I2
    is the analogous coset sum over odd k.  Both strips share the same
    exponential scale: the half-frequency expansions e(kz/2) still have
    squared modulus e^(-2 pi k y).  All magnitudes are handled in log space,
    in float64.  K = 0 is the default cutoff K = 10n.  The (frozen) result
    is cached per (n, K), however passed, with K = 0 resolved first.
    """
    return _petersson_estimate(n, K or 10 * n)


@lru_cache(maxsize=None)
def _petersson_estimate(n: int, K: int) -> PeterssonEstimate:
    if n < 0 or n % 2:
        raise ValueError("n must be a nonnegative even integer")
    if n == 2:  # U_2 = 4x^2 - 1 and sum m1^2 = k r4(k) / 4 give S_k = 0
        raise ValueError("n = 2: both strips vanish (S_4(Gamma0(4)) = 0)")
    if K < 10 * n:
        raise ValueError(
            f"K={K} < 10n={10 * n}: the tail certificate needs K >= 10n")
    ks = np.arange(1.0, K + 1)

    def strip(parity):
        S = _strip_sums(n, K, parity)
        mask = S != 0.0
        kk = ks[mask]
        logS2 = 2.0 * np.log(np.abs(S[mask]))
        lg = _log_upper_gamma(n + 1, math.sqrt(3) * math.pi * kk)
        terms = logS2 + n * np.log(kk) + lg - (n + 1) * np.log(2 * math.pi * kk)
        return _logsumexp(terms)

    log_I1 = strip("integral")
    log_I2 = strip("coset")
    log_sum = np.logaddexp(log_I1, log_I2)

    def log_term(k):
        # |S_k| <= 24 (n+1) k (1 + ln k); Gamma(s,x) <= 2 x^(s-1) e^(-x)
        # once x >= 2(s-1), which sqrt(3) pi k > 5 K >= 50 n guarantees.
        xk = math.sqrt(3) * math.pi * k
        return (2 * (math.log(24 * (n + 1)) + math.log(k)
                     + math.log1p(math.log(k)))
                + n * math.log(k) + math.log(2) + n * math.log(xk) - xk
                - (n + 1) * math.log(2 * math.pi * k))

    # one tail majorant covers both strips; double it for the pair
    tail = _log_geometric_tail(log_term, K) + math.log(2)
    tail_ratio = float(np.exp(tail - log_sum))

    log_rho = (n * math.log(4 * math.pi) - math.lgamma(n + 2)
               - (n + 1) * math.log(2) + log_sum)
    return PeterssonEstimate(n=n, K=K, log_I1=float(log_I1),
                             log_I2=float(log_I2), rho=float(np.exp(log_rho)),
                             tail_ratio=tail_ratio)
