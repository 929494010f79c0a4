"""The degree-n harmonic basis on S^3 and batched values of its model.

The degree-n harmonic subspace (the (-n(n+2))-Laplace eigenspace on S^3,
of dimension (n+1)^2) is built from the matrix coefficients of the n-th
symmetric power of the standard 2x2 complex realisation of a quaternion:
those coefficients are harmonic, have integer coefficients, and are
mutually orthogonal on the sphere.  So the Gram matrix is diagonal and
known in closed form: by Schur orthogonality, int_{S^3} |t_{ba}|^2 =
C(n, b) / (C(n, a) (n + 1)) under the uniform probability measure.  The
basis is named by labels and integer contents; no polynomial is built
except for the ``basis`` JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

import numpy as np

# ---------------------------------------------------------------------------
# harmonic basis via symmetric-power matrix coefficients

@lru_cache(maxsize=None)
def _conj_power(p: int, q: int) -> tuple:
    """K with z^p conj(z)^q = sum_m i^m K[m] u^(p+q-m) v^m for z = u + i v."""
    return tuple(sum((-1) ** (m - k) * comb(p, k) * comb(q, m - k)
                     for k in range(max(0, m - q), min(p, m) + 1))
                 for m in range(p + q + 1))


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


@lru_cache(maxsize=None)
def _parity_profile(p: int, q: int) -> tuple:
    """(gcd, top, sign) of the nonzero K[m] with m even, then with m odd.

    K = _conj_power(p, q); ``top`` is the largest such m and ``sign`` the
    sign of K[top], or (0, -1, 0) when all of them vanish.
    """
    K = _conj_power(p, q)
    out = []
    for r in (0, 1):
        nz = [m for m in range(r, len(K), 2) if K[m]]
        out.append((gcd(*(K[m] for m in nz)), nz[-1], 1 if K[nz[-1]] > 0 else -1)
                   if nz else (0, -1, 0))
    return tuple(out)


def _signed_contents(n: int, b: int, a: int) -> tuple:
    """Signed contents of Re t_{ba} and Im t_{ba}; 0 for a vanishing part.

    Term i of ``_sym_power_entries`` puts c_i Kz[m] Kw[mw] (-1)^((m+mw)//2)
    on x^(dz-m, m, n-dz-mw, mw), in Re or Im as m + mw is even or odd, and
    no monomial occurs in two terms.  Over the m of parity r and the mw of
    parity r' the gcd is |c_i| gcd(Kz) gcd(Kw), and the lex-first monomial
    takes the largest m, then the largest mw.  The sign is that of the
    lex-first coefficient of the part.
    """
    g = [0, 0]
    first = [None, None]
    for i in range(max(0, a + b - n), min(a, b) + 1):
        c = comb(a, i) * comb(n - a, b - i)
        kz = _parity_profile(i, n - a - b + i)
        kw = _parity_profile(b - i, a - i)
        dz = n - a - b + 2 * i
        for r in (0, 1):
            gz, mz, sz = kz[r]
            for rw in (0, 1):
                gw, mw, sw = kw[rw]
                if not (gz and gw):
                    continue
                part = (r + rw) % 2
                g[part] = gcd(g[part], c * gz * gw)
                key = (dz - mz, mz, n - dz - mw, mw)
                if first[part] is None or key < first[part][0]:
                    sign = (-1) ** (a - i + (mz + mw) // 2) * sz * sw
                    first[part] = (key, sign)
    return tuple(gp * f[1] if f else 0 for gp, f in zip(g, first))


@dataclass(frozen=True)
class HarmonicBasis:
    """Exact basis of the degree-n harmonic polynomials with its Gram diagonal.

    ``labels[i]`` is ``(b, a, part)`` and ``contents[i]`` a nonzero integer;
    basis vector i is part(t_{ba}) / contents[i], the real (part 0) or
    imaginary (part 1) part of t_{ba} made primitive with its lex-first
    coefficient positive.  No polynomial is stored: ``basis_values``
    evaluates the basis and ``basis_to_json`` writes its coefficients.
    Left multiplication acts on the row label b, right multiplication on
    the column label a.  The Gram matrix with respect to the uniform
    probability measure on S^3 is diagonal by Schur orthogonality;
    ``gram[i]`` is its i-th diagonal entry, C(n, b) / (C(n, a) (n + 1)
    contents[i]^2), halved unless (b, a) = (n - b, n - a).
    """

    n: int
    gram: tuple
    labels: tuple
    contents: tuple

    @property
    def dim(self):
        return len(self.labels)


@lru_cache(maxsize=None)
def harmonic_basis(n: int) -> HarmonicBasis:
    """Exact-rational basis of the degree-n harmonic subspace, dim (n+1)^2."""
    if n < 0:
        raise ValueError("n must be >= 0")
    labels, contents = [], []
    # one of t_{ba} and t_{n-b,n-a} = (-1)^(a+b) conj t_{ba}, the lex-first
    for b in range(n + 1):
        for a in range(n + 1):
            if (b, a) > (n - b, n - a):
                continue
            re, im = _signed_contents(n, b, a)
            if (b, a) == (n - b, n - a):
                # self-conjugate entry: exactly one of Re/Im survives
                parts = [(0, re)] if re else [(1, im)]
            else:
                parts = [(0, re), (1, im)]
            for part, c in parts:
                labels.append((b, a, part))
                contents.append(c)
    assert len(labels) == (n + 1) ** 2 and all(contents)
    # int |t_{ba}|^2 = C(n, b) / (C(n, a) (n + 1)); Re and Im share it
    # equally unless t_{ba} is self-conjugate
    gram = tuple(
        Fraction(comb(n, b), comb(n, a) * (n + 1) * c * c
                 * (1 if (b, a) == (n - b, n - a) else 2))
        for (b, a, _), c in zip(labels, contents))
    return HarmonicBasis(n, gram, tuple(labels), tuple(contents))


# ---------------------------------------------------------------------------
# batched values of the symmetric-power model

def _form_mul(F, G):
    """Product of binary forms, batched over points.

    A form of degree d has d + 1 rows of coefficients over the points, row
    k that of X^(d-k) Y^k: one complex array of shape (d + 1, #pts) for
    float points, a pair (re, im) of integer arrays of that shape for exact
    points.
    """
    if not isinstance(F, tuple):
        if len(F) > len(G):
            F, G = G, F
        out = np.zeros((len(F) + len(G) - 1, F.shape[1]), dtype=F.dtype)
        d = len(G)
        for s in range(len(F)):
            out[s:s + d] += F[s] * G
        return out
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
    """The entries T(x) = [t_{ba}(x)] at each point.

    ``pts`` has shape (#pts, 4) and holds floats, or integers for exact
    values: Python integers in an object array are always exact, int64 only
    under a bound the caller proves (the products wrap around silently;
    ``hecke.shell_monomial_matrix`` states one).  The entries of
    ``_sym_power_entries`` in the first ``cols`` columns (all n + 1 by
    default) are evaluated at each point with O(n^3) work and returned as

    - for float points, one complex128 array of shape (n + 1, cols, #pts)
      indexed [b, a, p];
    - for integer points, one array of their dtype of shape
      (2, n + 1, cols, #pts) indexed [part, b, a, p], part 0 the real and
      1 the imaginary part.

    T is the n-th symmetric power of the 2x2 model, so T(1) = I and
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
    exact = pts.dtype.kind != "f"
    if not exact:
        col_a, col_b, one = (re + 1j * im for re, im in (col_a, col_b, one))
    # the powers of col_b that column a uses, of degree n - a, kept in
    # increasing degree and dropped once used
    pow_b, power = [], one
    for d in range(n + 1):
        if d:
            power = _form_mul(power, col_b)
        if d > n - cols:
            pow_b.append(power)
    if exact:
        T = np.empty((2, n + 1, cols, len(pts)), dtype=pts.dtype)
    else:
        T = np.empty((n + 1, cols, len(pts)), dtype=complex)
    pow_a = one
    for a in range(cols):
        if a:
            pow_a = _form_mul(pow_a, col_a)
        product = _form_mul(pow_a, pow_b.pop())
        # t_{ba} is the coefficient of X^b Y^(n-b), row n - b of the product
        if exact:
            T[0, :, a], T[1, :, a] = product[0][::-1], product[1][::-1]
        else:
            T[:, a] = product[::-1]
    return T


def basis_values(hb: HarmonicBasis, pts: np.ndarray) -> np.ndarray:
    """Values of each basis polynomial at each point; shape (dim, #pts)."""
    T = sym_power_values(np.asarray(pts, dtype=float), hb.n)
    b, a, part = np.array(hb.labels, dtype=np.intp).T
    # the real and imaginary parts of T as a trailing axis, without a copy
    parts = T.view(float).reshape(T.shape + (2,))
    vals = parts[b, a, :, part]
    vals /= np.array(hb.contents, dtype=float)[:, None]
    return vals


def basis_to_json(hb: HarmonicBasis) -> dict:
    """Schema: {n, dim, polys: [[[a1,a2,a3,a4], "c"], ...]}, c an integer.

    The primitive coefficients are those of ``_sym_power_entries`` divided
    by the contents, listed in lex order of the exponents.
    """
    table = _sym_power_entries(hb.n)
    polys = [[[list(al), str(v // c)] for al, v in sorted(table[a][b][part].items())]
             for (b, a, part), c in zip(hb.labels, hb.contents)]
    return {"n": hb.n, "dim": hb.dim, "polys": polys}
