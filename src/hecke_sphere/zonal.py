"""Chebyshev polynomials of the second kind, batched over float arguments."""

from __future__ import annotations

import numpy as np

#: below this |sin(theta)| the trig form of U_n has lost too much precision
TRIG_SWITCH = 1e-6


def _recurrence(n, x):
    if n == 0:
        return x * 0 + 1
    prev = x * 0 + 1
    cur = 2 * x
    for _ in range(n - 1):
        prev, cur = cur, 2 * x * cur - prev
    return cur


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
