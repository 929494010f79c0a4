"""Exact homogeneous polynomials in four variables and harmonic bases.

The degree-n harmonic subspace (the (-n(n+2))-Laplace eigenspace on S^3,
of dimension (n+1)^2) is built from the matrix coefficients of the n-th
symmetric power of the standard 2x2 complex realisation of a quaternion:
those coefficients are harmonic, have integer coefficients, and are
mutually orthogonal on the sphere, which keeps every later Gram matrix
diagonal and exactly computable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd

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

def _cmul(p, q):
    """Product of complex polynomials given as (real dict, imag dict)."""
    pr, pi = p
    qr, qi = q
    re = {}
    im = {}
    for a, u in pr.items():
        for b, v in qr.items():
            key = (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])
            re[key] = re.get(key, 0) + u * v
    for a, u in pi.items():
        for b, v in qi.items():
            key = (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])
            re[key] = re.get(key, 0) - u * v
    for a, u in pr.items():
        for b, v in qi.items():
            key = (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])
            im[key] = im.get(key, 0) + u * v
    for a, u in pi.items():
        for b, v in qr.items():
            key = (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])
            im[key] = im.get(key, 0) + u * v
    return ({k: v for k, v in re.items() if v}, {k: v for k, v in im.items() if v})


def _cadd(p, q):
    pr, pi = p
    qr, qi = q
    re = dict(pr)
    for a, v in qr.items():
        w = re.get(a, 0) + v
        if w:
            re[a] = w
        else:
            re.pop(a, None)
    im = dict(pi)
    for a, v in qi.items():
        w = im.get(a, 0) + v
        if w:
            im[a] = w
        else:
            im.pop(a, None)
    return re, im


def _binary_mul(F, G):
    """Product of binary forms whose coefficients are complex polynomials."""
    out = [({}, {}) for _ in range(len(F) + len(G) - 1)]
    for s, fc in enumerate(F):
        if not fc[0] and not fc[1]:
            continue
        for t, gc in enumerate(G):
            if not gc[0] and not gc[1]:
                continue
            out[s + t] = _cadd(out[s + t], _cmul(fc, gc))
    return out


@lru_cache(maxsize=None)
def _sym_power_entries(n: int):
    """Entries t[b][a] of the n-th symmetric power of the 2x2 model of x.

    With z = x1 + i x2, w = x3 + i x4 the quaternion x maps to
    [[z, w], [-conj(w), conj(z)]]; expanding
    (z X - conj(w) Y)^a (w X + conj(z) Y)^(n-a) = sum_b t[b][a] X^b Y^(n-b)
    gives harmonic degree-n polynomials with t[.][a](m x) = Sym^n(m) t[.][a](x).
    """
    one = ({(0, 0, 0, 0): 1}, {})
    z = ({(1, 0, 0, 0): 1}, {(0, 1, 0, 0): 1})
    zbar = ({(1, 0, 0, 0): 1}, {(0, 1, 0, 0): -1})
    w = ({(0, 0, 1, 0): 1}, {(0, 0, 0, 1): 1})
    mwbar = ({(0, 0, 1, 0): -1}, {(0, 0, 0, 1): 1})

    # column a of M: (z, -conj(w)); column b... second column: (w, conj(z))
    colA = [z, mwbar]            # coefficients of X, Y in (z X - conj(w) Y)
    colB = [w, zbar]

    powA = [[one]]
    for _ in range(n):
        powA.append(_binary_mul(powA[-1], colA))
    powB = [[one]]
    for _ in range(n):
        powB.append(_binary_mul(powB[-1], colB))

    table = []
    for a in range(n + 1):
        full = _binary_mul(powA[a], powB[n - a])
        # full[t] is the coefficient of X^(n-t) Y^t; entry (b, a) sits at t = n-b
        col = [full[n - b] for b in range(n + 1)]
        table.append(col)
    # table[a][b] = t_{b a}
    return table


@dataclass(frozen=True)
class HarmonicBasis:
    """Exact basis of the degree-n harmonic polynomials with its Gram matrix.

    The Gram matrix is with respect to the uniform probability measure on
    S^3 and is diagonal for this basis by Schur orthogonality.  ``labels[i]``
    is ``(b, a, part)`` and ``contents[i]`` a nonzero integer with
    ``basis[i] = part(t_{ba}) / contents[i]``, the real (part 0) or
    imaginary (part 1) part of t_{ba} made primitive.  Left multiplication
    acts on the row label b, right multiplication on the column label a.
    """

    n: int
    basis: tuple
    gram: tuple
    labels: tuple
    contents: tuple

    @property
    def dim(self):
        return len(self.basis)

    def gram_diag(self):
        return tuple(self.gram[i][i] for i in range(self.dim))


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

    ratio = sphere_to_fischer_ratio(n)
    dim = len(polys)
    supports = [frozenset(p.coeffs) for p in polys]
    gram = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            if i != j and supports[i].isdisjoint(supports[j]):
                continue
            v = fischer_dot(polys[i], polys[j])
            if v:
                g = ratio * v
                gram[i][j] = g
                gram[j][i] = g
    return HarmonicBasis(n, tuple(polys), tuple(tuple(row) for row in gram),
                         tuple(labels), contents)


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

    A form of degree d is a pair (re, im) of arrays of shape (#pts, d + 1)
    whose entry k is the coefficient of X^(d-k) Y^k.
    """
    if F[0].shape[1] > G[0].shape[1]:
        F, G = G, F
    (fr, fi), (gr, gi) = F, G
    shape = (fr.shape[0], fr.shape[1] + gr.shape[1] - 1)
    re = np.zeros(shape, dtype=fr.dtype)
    im = np.zeros(shape, dtype=fr.dtype)
    d = gr.shape[1]
    for s in range(fr.shape[1]):
        ur, ui = fr[:, s:s + 1], fi[:, s:s + 1]
        re[:, s:s + d] += ur * gr - ui * gi
        im[:, s:s + d] += ur * gi + ui * gr
    return re, im


def sym_power_values(pts, n: int):
    """Real and imaginary parts of T(x) = [t_{ba}(x)] at each point.

    ``pts`` has shape (#pts, 4) and holds floats, or Python integers in an
    object array for exact values.  Returns two arrays of shape
    (#pts, n + 1, n + 1) indexed [p, b, a], the entries of
    ``_sym_power_entries`` evaluated at each point with O(n^3) work.  T is
    the n-th symmetric power of the 2x2 model, so T(1) = I and
    T(m x) = T(m) T(x).
    """
    pts = np.asarray(pts)
    x1, x2, x3, x4 = (pts[:, k:k + 1] for k in range(4))
    # the columns (z, -conj w) and (w, conj z) as linear forms in X, Y
    col_a = (np.hstack([x1, -x3]), np.hstack([x2, x4]))
    col_b = (np.hstack([x3, x1]), np.hstack([x4, -x2]))
    one = (np.ones((len(pts), 1), dtype=pts.dtype),
           np.zeros((len(pts), 1), dtype=pts.dtype))
    pow_b = [one]
    for _ in range(n):
        pow_b.append(_form_mul(pow_b[-1], col_b))
    re = np.empty((len(pts), n + 1, n + 1), dtype=pts.dtype)
    im = np.empty_like(re)
    pow_a = one
    for a in range(n + 1):
        if a:
            pow_a = _form_mul(pow_a, col_a)
        full_re, full_im = _form_mul(pow_a, pow_b[n - a])
        # t_{ba} is the coefficient of X^b Y^(n-b), entry n - b of the product
        re[:, :, a] = full_re[:, ::-1]
        im[:, :, a] = full_im[:, ::-1]
    return re, im


def basis_values(hb: HarmonicBasis, pts: np.ndarray) -> np.ndarray:
    """Values of each basis polynomial at each point; shape (dim, #pts)."""
    re, im = sym_power_values(np.asarray(pts, dtype=float), hb.n)
    b, a, part = np.array(hb.labels, dtype=np.intp).T
    vals = np.where(part[:, None] == 1, im[:, b, a].T, re[:, b, a].T)
    return vals / np.array(hb.contents, dtype=float)[:, None]


def basis_to_json(hb: HarmonicBasis) -> dict:
    """Schema: {n, dim, polys: [[[a1,a2,a3,a4], "p/q"], ...]}."""
    polys = []
    for p in hb.basis:
        polys.append([[list(a), str(Fraction(v))] for a, v in sorted(p.coeffs.items())])
    return {"n": hb.n, "dim": hb.dim, "polys": polys}
