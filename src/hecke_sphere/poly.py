"""Exact homogeneous polynomials in four variables and harmonic bases.

The degree-n harmonic subspace (the (-n(n+2))-Laplace eigenspace on S^3,
of dimension (n+1)^2) is built from the matrix coefficients of the n-th
symmetric power of the standard 2x2 complex realisation of a quaternion:
those coefficients are harmonic, have integer coefficients, and are
mutually orthogonal on the sphere.  So the Gram matrix is diagonal and
known in closed form: by Schur orthogonality, int_{S^3} |t_{ba}|^2 =
C(n, b) / (C(n, a) (n + 1)) under the uniform probability measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd

import numpy as np

from .quat import Quaternion

Exponent = tuple


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


def evaluate(f: Poly4, p):
    return f.evaluate(p)


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


# ---------------------------------------------------------------------------
# harmonic basis via symmetric-power matrix coefficients

@lru_cache(maxsize=None)
def _conj_power(p: int, q: int) -> tuple:
    """K with z^p conj(z)^q = sum_m i^m K[m] u^(p+q-m) v^m for z = u + i v."""
    return tuple(sum((-1) ** (m - k) * comb(p, k) * comb(q, m - k)
                     for k in range(max(0, m - q), min(p, m) + 1))
                 for m in range(p + q + 1))


@lru_cache(maxsize=None)
def _sym_power_entries(n: int):
    """Entries t[b][a] of the n-th symmetric power of the 2x2 model of x.

    With z = x1 + i x2, w = x3 + i x4 the quaternion x maps to
    [[z, w], [-conj(w), conj(z)]]; expanding
    (z X - conj(w) Y)^a (w X + conj(z) Y)^(n-a) = sum_b t[b][a] X^b Y^(n-b)
    gives harmonic degree-n polynomials with t[.][a](m x) = Sym^n(m) t[.][a](x).
    Returns table[a][b] = (re, im), coefficient dicts of Re and Im t_{ba}.

    The X^b coefficient is the sum over i of C(a, i) C(n-a, b-i) (-1)^(a-i)
    z^i conj(z)^(n-a-b+i) w^(b-i) conj(w)^(a-i).  Terms of different i
    have different degree in (x1, x2), so no monomial occurs twice.
    """
    table = []
    for a in range(n + 1):
        col = []
        for b in range(n + 1):
            re, im = {}, {}
            for i in range(max(0, a + b - n), min(a, b) + 1):
                c = (-1) ** (a - i) * comb(a, i) * comb(n - a, b - i)
                kz = _conj_power(i, n - a - b + i)
                kw = _conj_power(b - i, a - i)
                dz, dw = len(kz) - 1, len(kw) - 1
                for m, u in enumerate(kz):
                    for mw, v in enumerate(kw):
                        if u and v:
                            # i^(m + mw) is real for even m + mw
                            s = m + mw
                            part = im if s % 2 else re
                            part[(dz - m, m, dw - mw, mw)] = (
                                (-1) ** (s // 2) * c * u * v)
            col.append((re, im))
        table.append(col)
    return table


@dataclass(frozen=True)
class HarmonicBasis:
    """Exact basis of the degree-n harmonic polynomials with its Gram diagonal.

    ``labels[i]`` is ``(b, a, part)`` and ``contents[i]`` a nonzero integer
    with ``basis[i] = part(t_{ba}) / contents[i]``, the real (part 0) or
    imaginary (part 1) part of t_{ba} made primitive.  Left multiplication
    acts on the row label b, right multiplication on the column label a.
    The Gram matrix with respect to the uniform probability measure on S^3
    is diagonal by Schur orthogonality; ``gram[i]`` is its i-th diagonal
    entry, C(n, b) / (C(n, a) (n + 1) contents[i]^2), halved unless
    (b, a) = (n - b, n - a).
    """

    n: int
    basis: tuple
    gram: tuple
    labels: tuple
    contents: tuple

    @property
    def dim(self):
        return len(self.basis)


@lru_cache(maxsize=None)
def harmonic_basis(n: int) -> HarmonicBasis:
    """Exact-rational basis of the degree-n harmonic subspace, dim (n+1)^2."""
    if n < 0:
        raise ValueError("n must be >= 0")
    table = _sym_power_entries(n)
    seen = set()
    polys = []
    labels = []
    for b in range(n + 1):
        for a in range(n + 1):
            rep = min((b, a), (n - b, n - a))
            if rep in seen:
                continue
            seen.add(rep)
            rb, ra = rep
            re, im = table[ra][rb]
            p = Poly4(n, re)
            q = Poly4(n, im)
            if rep == (n - rb, n - ra):
                # self-conjugate entry: exactly one of Re/Im survives
                keep = p if not p.is_zero() else q
                polys.append(keep)
                labels.append((rb, ra, 0 if keep is p else 1))
            else:
                polys += [p, q]
                labels += [(rb, ra, 0), (rb, ra, 1)]
    assert len(polys) == (n + 1) ** 2
    contents = tuple(p.signed_content() for p in polys)
    polys = [p.primitive() for p in polys]
    # int |t_{ba}|^2 = C(n, b) / (C(n, a) (n + 1)); Re and Im share it
    # equally unless t_{ba} is self-conjugate
    gram = tuple(
        Fraction(comb(n, b), comb(n, a) * (n + 1) * c * c
                 * (1 if (b, a) == (n - b, n - a) else 2))
        for (b, a, _), c in zip(labels, contents))
    return HarmonicBasis(n, tuple(polys), gram, tuple(labels), contents)


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


# ---------------------------------------------------------------------------
# batched values of the symmetric-power model

def _form_mul(F, G):
    """Product of complex binary forms, batched over points.

    A form of degree d is a pair (re, im) of arrays of shape (d + 1, #pts)
    whose row k is the coefficient of X^(d-k) Y^k.
    """
    if len(F[0]) > len(G[0]):
        F, G = G, F
    (fr, fi), (gr, gi) = F, G
    shape = (len(fr) + len(gr) - 1, fr.shape[1])
    re = np.zeros(shape, dtype=fr.dtype)
    im = np.zeros(shape, dtype=fr.dtype)
    d = len(gr)
    for s in range(len(fr)):
        ur, ui = fr[s], fi[s]
        re[s:s + d] += ur * gr - ui * gi
        im[s:s + d] += ur * gi + ui * gr
    return re, im


def sym_power_values(pts, n: int, cols: int | None = None):
    """Real and imaginary parts of T(x) = [t_{ba}(x)] at each point.

    ``pts`` has shape (#pts, 4) and holds floats, or Python integers in an
    object array for exact values.  Returns one array of shape
    (2, n + 1, cols, #pts) indexed [part, b, a, p], part 0 real and 1
    imaginary: the entries of ``_sym_power_entries`` in the first ``cols``
    columns (all n + 1 by default) evaluated at each point with O(n^3)
    work.  T is the n-th symmetric power of the 2x2 model, so T(1) = I and
    T(m x) = T(m) T(x).
    """
    cols = n + 1 if cols is None else cols
    pts = np.asarray(pts)
    x1, x2, x3, x4 = pts.T
    # the columns (z, -conj w) and (w, conj z) as linear forms in X, Y
    col_a = (np.stack([x1, -x3]), np.stack([x2, x4]))
    col_b = (np.stack([x3, x1]), np.stack([x4, -x2]))
    one = (np.ones((1, len(pts)), dtype=pts.dtype),
           np.zeros((1, len(pts)), dtype=pts.dtype))
    pow_b = [one]
    for _ in range(n):
        pow_b.append(_form_mul(pow_b[-1], col_b))
    T = np.empty((2, n + 1, cols, len(pts)), dtype=pts.dtype)
    pow_a = one
    for a in range(cols):
        if a:
            pow_a = _form_mul(pow_a, col_a)
        full_re, full_im = _form_mul(pow_a, pow_b[n - a])
        # t_{ba} is the coefficient of X^b Y^(n-b), row n - b of the product
        T[0, :, a] = full_re[::-1]
        T[1, :, a] = full_im[::-1]
    return T


def basis_values(hb: HarmonicBasis, pts: np.ndarray) -> np.ndarray:
    """Values of each basis polynomial at each point; shape (dim, #pts)."""
    T = sym_power_values(np.asarray(pts, dtype=float), hb.n)
    b, a, part = np.array(hb.labels, dtype=np.intp).T
    vals = T[part, b, a]
    vals /= np.array(hb.contents, dtype=float)[:, None]
    return vals


def basis_to_json(hb: HarmonicBasis) -> dict:
    """Schema: {n, dim, polys: [[[a1,a2,a3,a4], "p/q"], ...]}."""
    polys = []
    for p in hb.basis:
        polys.append([[list(a), str(Fraction(v))] for a, v in sorted(p.coeffs.items())])
    return {"n": hb.n, "dim": hb.dim, "polys": polys}
