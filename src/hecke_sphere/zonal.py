"""Chebyshev polynomials of the second kind and the pre-trace kernel."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

#: below this |sin(theta)| the trig form of U_n has lost too much precision
TRIG_SWITCH = 1e-6

CAPPED = "capped"
TRIG = "trig"
RECURRENCE = "recurrence"


@dataclass(frozen=True)
class KernelValue:
    value: float
    regime: str


def _recurrence(n, x):
    if n == 0:
        return x * 0 + 1
    prev = x * 0 + 1
    cur = 2 * x
    for _ in range(n - 1):
        prev, cur = cur, 2 * x * cur - prev
    return cur


def chebyshev_U(n: int, x):
    """U_n(x); exact for int/Fraction input, dual-path float otherwise."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if isinstance(x, (int, Fraction)):
        return _recurrence(n, x)
    x = float(x)
    if abs(x) > 1.0:
        return _recurrence(n, x)
    return chebyshev_U_info(n, x).value


def chebyshev_U_info(n: int, x: float) -> KernelValue:
    """Float U_n on [-1, 1] with the evaluation regime recorded."""
    x = float(x)
    if abs(x) >= 1.0:
        v = float(n + 1) if x >= 1.0 else float((-1) ** n * (n + 1))
        return KernelValue(v, CAPPED)
    theta = math.acos(x)
    s = math.sin(theta)
    if s < TRIG_SWITCH:
        return KernelValue(float(_recurrence(n, x)), RECURRENCE)
    return KernelValue(math.sin((n + 1) * theta) / s, TRIG)


def chebyshev_U_vec(n: int, x: np.ndarray) -> np.ndarray:
    """Vectorised float U_n for arguments in [-1, 1]."""
    x = np.clip(np.asarray(x, dtype=float), -1.0, 1.0)
    theta = np.arccos(x)
    s = np.sin(theta)
    safe = s >= TRIG_SWITCH
    out = np.empty_like(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        out[safe] = np.sin((n + 1) * theta[safe]) / s[safe]
    edge = ~safe
    if edge.any():
        out[edge] = _recurrence(n, x[edge])
    return out


def pretrace_kernel(n: int, x, y) -> float:
    """(n+1) U_n(<x, y>) for float unit quaternions x, y.

    This is (n+1) times the zonal reproducing value of the degree-n
    eigenspace: summing phi_j(x) conj(phi_j(y)) over an orthonormal basis
    gives exactly this number.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    for v in (x, y):
        if abs(v @ v - 1.0) > 1e-12:
            raise ValueError("arguments must be unit quaternions")
    t = float(x @ y)  # equals tr(x * conj(y)) / 2
    if abs(t) > 1.0 + 1e-9:
        raise ValueError(f"kernel argument {t} outside [-1, 1]")
    return (n + 1) * chebyshev_U_info(n, t).value


def kernel_cap(n: int, x: float) -> float:
    """The pointwise bound min{n+1, (1-x^2)^(-1/2)} on |U_n| over [-1, 1]."""
    if abs(x) > 1.0:
        raise ValueError("x must lie in [-1, 1]")
    d = 1.0 - x * x
    if d <= 0.0 or d ** -0.5 >= n + 1:
        return float(n + 1)
    return d ** -0.5
