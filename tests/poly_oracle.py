"""Exact polynomial reference for the polynomial-free harmonic basis.

The package keeps only the labels and contents of the degree-n harmonic
basis and never builds a polynomial.  This module keeps the sparse exact
polynomials in x1..x4 that the tests check it against: ``Poly4`` with its
content and Laplacian, exact sphere integrals, the Fischer (apolar)
pairing, substitution under left multiplication, ``basis_polys``, the
basis polynomials themselves, built from the symmetric-power entries and
the package's labels, ``gram_diagonal``, their Gram diagonal in closed
form, and ``full_columns``, the conjugation rule entry by entry, which
gives the tests the columns a > n/2 that ``sym_power_values`` leaves out.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd

import numpy as np

from hecke_sphere.poly import _sym_power_entries, harmonic_basis
from hecke_sphere.quat import Quaternion


def _dfact(n: int) -> int:
    """Double factorial with the convention (-1)!! = 1."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


class Poly4:
    """Sparse homogeneous polynomial in x1..x4 with exact coefficients."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs=None):
        self.n = n
        c = {}
        if coeffs:
            for a, v in coeffs.items():
                if v:
                    if sum(a) != n:
                        raise ValueError(f"exponent {a} has degree != {n}")
                    c[a] = v
        self.coeffs = c

    @classmethod
    def monomial(cls, alpha, coeff=1):
        return cls(sum(alpha), {tuple(alpha): coeff})

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, Poly4) and self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, frozenset(self.coeffs.items())))

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("degree mismatch")
        c = dict(self.coeffs)
        for a, v in other.coeffs.items():
            w = c.get(a, 0) + v
            if w:
                c[a] = w
            else:
                c.pop(a, None)
        out = Poly4.zero(self.n)
        out.coeffs = c
        return out

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        out = Poly4.zero(self.n)
        out.coeffs = {a: -v for a, v in self.coeffs.items()}
        return out

    def scale(self, s):
        if not s:
            return Poly4.zero(self.n)
        out = Poly4.zero(self.n)
        out.coeffs = {a: v * s for a, v in self.coeffs.items()}
        return out

    def __mul__(self, other):
        if not isinstance(other, Poly4):
            return self.scale(other)
        c = {}
        for a, u in self.coeffs.items():
            for b, v in other.coeffs.items():
                key = (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])
                w = c.get(key, 0) + u * v
                if w:
                    c[key] = w
                else:
                    c.pop(key, None)
        out = Poly4.zero(self.n + other.n)
        out.coeffs = c
        return out

    __rmul__ = scale

    def laplacian(self):
        c = {}
        for a, v in self.coeffs.items():
            for i in range(4):
                if a[i] >= 2:
                    b = list(a)
                    b[i] -= 2
                    key = tuple(b)
                    w = c.get(key, 0) + v * a[i] * (a[i] - 1)
                    if w:
                        c[key] = w
                    else:
                        c.pop(key, None)
        out = Poly4.zero(max(self.n - 2, 0))
        out.coeffs = c
        return out

    def content(self) -> int:
        """GCD of the (integer) coefficients; 1 for the zero polynomial."""
        g = 0
        for v in self.coeffs.values():
            g = gcd(g, v)
        return g or 1

    def signed_content(self) -> int:
        """The content, negated when the lex-first coefficient is negative."""
        g = self.content()
        if self.coeffs and self.coeffs[min(self.coeffs)] < 0:
            g = -g
        return g

    def primitive(self):
        """Divide by the content, signed so the lex-first coefficient is > 0."""
        g = self.signed_content()
        if g == 1:
            return self
        out = Poly4.zero(self.n)
        out.coeffs = {a: v // g for a, v in self.coeffs.items()}
        return out

    def evaluate(self, p):
        """Direct monomial evaluation; exact for exact inputs."""
        total = None
        for a, v in self.coeffs.items():
            term = v
            for i in range(4):
                e = a[i]
                if e:
                    term = term * p[i] ** e
            total = term if total is None else total + term
        if total is None:
            zero = p[0] - p[0]
            return zero
        return total

    def __repr__(self):
        if not self.coeffs:
            return f"Poly4({self.n}, 0)"
        parts = [f"{v}*x^{a}" for a, v in sorted(self.coeffs.items())]
        return f"Poly4({self.n}, {' + '.join(parts[:6])}{' + ...' if len(parts) > 6 else ''})"


def monomial_sphere_integral(alpha) -> Fraction:
    """Integral of x^alpha over S^3 under the uniform probability measure."""
    if any(a < 0 for a in alpha):
        raise ValueError("exponents must be nonnegative")
    if any(a % 2 for a in alpha):
        return Fraction(0)
    num = 1
    for a in alpha:
        num *= _dfact(a - 1)
    den = 1
    h = sum(alpha) // 2
    for j in range(h):
        den *= 4 + 2 * j
    return Fraction(num, den)


def sphere_integral(f: Poly4) -> Fraction:
    return sum((monomial_sphere_integral(a) * v for a, v in f.coeffs.items()),
               Fraction(0))


@lru_cache(maxsize=None)
def _multifact(alpha) -> int:
    out = 1
    for a in alpha:
        out *= factorial(a)
    return out


def fischer_dot(f: Poly4, g: Poly4):
    """Apolar pairing sum_alpha alpha! f_alpha g_alpha (same-degree polys)."""
    if len(g.coeffs) < len(f.coeffs):
        f, g = g, f
    total = 0
    gc = g.coeffs
    for a, v in f.coeffs.items():
        w = gc.get(a)
        if w is not None:
            total += _multifact(a) * v * w
    return total


def sphere_to_fischer_ratio(n: int) -> Fraction:
    """For harmonic f,g of degree n: int_{S^3} f g = ratio * fischer_dot(f,g)."""
    return Fraction(1, 2 ** n * factorial(n + 1))


def substitute_left_mul(f: Poly4, m: Quaternion) -> Poly4:
    """Return g(x) = f(m x) for integral m; exact.

    For homogeneous f of degree n and N = nr(m), f((m/sqrt(N)) x) equals
    N^(-n/2) g(x).
    """
    w1, w2, w3, w4 = m.int_coords
    rows = [
        {0: w1, 1: -w2, 2: -w3, 3: -w4},
        {1: w1, 0: w2, 3: w3, 2: -w4},
        {2: w1, 3: -w2, 0: w3, 1: w4},
        {3: w1, 2: w2, 1: -w3, 0: w4},
    ]
    lin = []
    for row in rows:
        d = {}
        for j, c in row.items():
            if c:
                key = [0, 0, 0, 0]
                key[j] = 1
                d[tuple(key)] = c
        lin.append(Poly4(1, d))

    pow_cache = {}

    def linpow(i, e):
        if e == 0:
            return Poly4.monomial((0, 0, 0, 0))
        got = pow_cache.get((i, e))
        if got is None:
            got = linpow(i, e - 1) * lin[i]
            pow_cache[(i, e)] = got
        return got

    out = Poly4.zero(f.n)
    for a, v in f.coeffs.items():
        term = Poly4.monomial((0, 0, 0, 0), v)
        for i in range(4):
            if a[i]:
                term = term * linpow(i, a[i])
        out = out + term
    return out


@lru_cache(maxsize=None)
def basis_polys(n: int) -> tuple:
    """The basis polynomials: part(t_{ba}) made primitive, label by label."""
    table = _sym_power_entries(n)
    return tuple(Poly4(n, table[a][b][part]).primitive()
                 for b, a, part in harmonic_basis(n).labels)


@lru_cache(maxsize=None)
def gram_diagonal(n: int) -> tuple:
    """int_{S^3} p_i^2 for the basis polynomials p_i, in closed form.

    The Gram matrix under the uniform probability measure is diagonal by
    Schur orthogonality, with int |t_{ba}|^2 = C(n, b) / (C(n, a) (n + 1));
    Re and Im share it equally unless t_{ba} is self-conjugate, and basis
    vector i is divided by contents[i].
    """
    hb = harmonic_basis(n)
    return tuple(
        Fraction(comb(n, b), comb(n, a) * (n + 1) * c * c
                 * (1 if (b, a) == (n - b, n - a) else 2))
        for (b, a, _), c in zip(hb.labels, hb.contents))


def full_columns(T, n: int):
    """Model values on all n + 1 columns from the columns a <= n/2.

    ``T`` is indexed [part, b, a, ...] with an integer real and imaginary
    part, or [b, a, ...] with complex entries, as ``sym_power_values``
    returns it or any sum of it over points; each entry a > n/2 is set by
    t_{ba} = (-1)^(a+b) conj t_{n-b,n-a}, one at a time.
    """
    parts = T if T.dtype.kind != "c" else T[None]
    out = np.zeros(parts.shape[:2] + (n + 1,) + parts.shape[3:], dtype=T.dtype)
    h = n // 2
    out[:, :, :h + 1] = parts
    for b in range(n + 1):
        for a in range(h + 1, n + 1):
            s = (-1) ** (a + b)
            src = parts[:, n - b, n - a]
            if T.dtype.kind == "c":
                out[0, b, a] = s * np.conj(src[0])
            else:
                out[0, b, a] = s * src[0]
                out[1, b, a] = -s * src[1]
    return out if T.dtype.kind != "c" else out[0]
