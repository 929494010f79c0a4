"""The degree-n harmonic basis on S^3 and batched values of its model.

The degree-n harmonic subspace (the (-n(n+2))-Laplace eigenspace on S^3,
of dimension (n+1)^2) is built from the matrix coefficients of the n-th
symmetric power of the standard 2x2 complex realisation of a quaternion:
those coefficients are harmonic, have integer coefficients, and are
mutually orthogonal on the sphere.  So the Gram matrix is diagonal and
known in closed form: by Schur orthogonality, int_{S^3} |t_{ba}|^2 =
C(n, b) / (C(n, a) (n + 1)) under the uniform probability measure.  The
basis is named by labels and integer contents.  ``_sym_power_entries``
is the one definition of the t_{ba} as polynomials: ``harmonic_basis``
reads the contents off it and ``basis_to_json`` the coefficients, and no
other code builds a polynomial.

``sym_power_values`` evaluates the model in batches, in two frames: the
integer frame T(x) = [t_{ba}(x)] exactly at integer points, by products of
binary forms, which only the exact layer of ``hecke`` reads; and at float
points the unitary frame D(x) = G^(-1/2) T(x) G^(1/2), G = diag C(n, b),
unitary at unit x, in which every float layer works.  Both return only
the columns a <= n/2: the conjugation rule t_{n-b,n-a} = (-1)^(a+b)
conj t_{ba}, which D obeys too, gives the others, and holds for any sum
over points, so ``complete_columns`` fills them in on a sum (``hecke``),
and the eigenfunctions need none (``moments``).  D(x)[b, a] =
|x|^n U^(a+b-n) W^(b-a) d_{ba}(theta), and the Fourier form of Wigner's
d-matrix (T. Risbo, J. Geodesy 70, 1996; Feng, Wang, Yang and Jin, Phys.
Rev. E 92, 2015) is d(theta) = V diag(e^{i (2k - n) theta}) V^H with one
unitary factor V = D((1 + k) / sqrt 2): one real product of a constant
matrix with the cosines and sines of the multiples of theta, and two phase
products.  No transcendental function is called: the phases U, W and
e^{i theta} are the coordinates divided by their moduli, and every
multiple angle and phase power is a cumulative complex product.  V is read
from an O(n^2) Krawtchouk integer recurrence and rounded once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd, sqrt

import numpy as np

# ---------------------------------------------------------------------------
# harmonic basis via symmetric-power matrix coefficients

@lru_cache(maxsize=None)
def _conj_power(p: int, q: int) -> tuple:
    """K with z^p conj(z)^q = sum_m i^m K[m] u^(p+q-m) v^m for z = u + i v."""
    return tuple(sum((-1) ** (m - k) * comb(p, k) * comb(q, m - k)
                     for k in range(max(0, m - q), min(p, m) + 1))
                 for m in range(p + q + 1))


# one degree at a time: ``harmonic_basis`` and ``basis_to_json`` share it
@lru_cache(maxsize=1)
def _sym_power_entries(n: int):
    """Entries t[b][a] of the n-th symmetric power of the 2x2 model of x.

    With z = x1 + i x2, w = x3 + i x4 the quaternion x maps to
    [[z, w], [-conj(w), conj(z)]]; expanding
    (z X - conj(w) Y)^a (w X + conj(z) Y)^(n-a) = sum_b t[b][a] X^b Y^(n-b)
    gives harmonic degree-n polynomials with t[.][a](m x) = Sym^n(m) t[.][a](x).
    Returns table[a][b] = (re, im), coefficient dicts of Re and Im t_{ba};
    the table is cached, and no caller may change it.

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


def _signed_content(coeffs: dict) -> int:
    """gcd of the coefficients, signed like the lex-first one; 0 if none."""
    if not coeffs:
        return 0
    g = gcd(*coeffs.values())
    return g if coeffs[min(coeffs)] > 0 else -g


@dataclass(frozen=True)
class HarmonicBasis:
    """Exact basis of the degree-n harmonic polynomials.

    ``labels[i]`` is ``(b, a, part)`` and ``contents[i]`` a nonzero integer;
    basis vector i is part(t_{ba}) / contents[i], the real (part 0) or
    imaginary (part 1) part of t_{ba} made primitive with its lex-first
    coefficient positive; the content is the gcd of that part's
    coefficients in ``_sym_power_entries``.  No polynomial is stored:
    ``basis_values`` evaluates the basis and ``basis_to_json`` writes its
    coefficients.
    Left multiplication acts on the row label b, right multiplication on
    the column label a.
    """

    n: int
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
    table = _sym_power_entries(n)
    labels, contents = [], []
    # one of t_{ba} and t_{n-b,n-a} = (-1)^(a+b) conj t_{ba}, the lex-first
    for b in range(n + 1):
        for a in range(n + 1):
            if (b, a) > (n - b, n - a):
                continue
            re, im = map(_signed_content, table[a][b])
            if (b, a) == (n - b, n - a):
                # self-conjugate entry: exactly one of Re/Im survives
                parts = [(0, re)] if re else [(1, im)]
            else:
                parts = [(0, re), (1, im)]
            for part, c in parts:
                labels.append((b, a, part))
                contents.append(c)
    assert len(labels) == (n + 1) ** 2 and all(contents)
    return HarmonicBasis(n, tuple(labels), tuple(contents))


# ---------------------------------------------------------------------------
# batched values of the symmetric-power model

def _form_mul(F, G):
    """Product of binary forms with Gaussian-integer coefficients, batched.

    A form of degree d is a pair (re, im) of integer arrays of shape
    (d + 1, #pts), row k holding the coefficient of X^(d-k) Y^k.
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


def _exact_values(pts, n: int):
    """T(x), a <= n/2, at integer points from binary forms; see below."""
    cols = n // 2 + 1
    x1, x2, x3, x4 = pts.T
    # the columns (z, -conj w) and (w, conj z) as linear forms in X, Y
    col_a = (np.stack([x1, -x3]), np.stack([x2, x4]))
    col_b = (np.stack([x3, x1]), np.stack([x4, -x2]))
    one = (np.ones((1, len(pts)), dtype=pts.dtype),
           np.zeros((1, len(pts)), dtype=pts.dtype))
    # the powers of col_b that column a uses, of degree n - a, kept in
    # increasing degree and dropped once used
    pow_b, power = [], one
    for d in range(n + 1):
        if d:
            power = _form_mul(power, col_b)
        if d > n - cols:
            pow_b.append(power)
    T = np.empty((2, n + 1, cols, len(pts)), dtype=pts.dtype)
    pow_a = one
    for a in range(cols):
        if a:
            pow_a = _form_mul(pow_a, col_a)
        re, im = _form_mul(pow_a, pow_b.pop())
        # t_{ba} is the coefficient of X^b Y^(n-b), row n - b of the product
        T[0, :, a], T[1, :, a] = re[::-1], im[::-1]
    return T


def _model_integers(n: int):
    """c[a][m], the t^m coefficient of (1 - t)^a (1 + t)^(n-a), for a <= n/2.

    At 1 + k the columns (z X - conj(w) Y, w X + conj(z) Y) are (X + iY,
    iX + Y), so T(1 + k)[b, a] = i^(b-a) c[a][n-b], a Krawtchouk
    polynomial value (Koornwinder, SIAM J. Math. Anal. 13, 1982), and
    c[n-a][m] = (-1)^m c[a][m] gives the columns a > n/2.  Row 0 holds
    the C(n, m), and the rows c[a] come from (1 + t) P_{a+1} = (1 - t) P_a:
    O(n^2) additions and no division.
    """
    rows = [[comb(n, m) for m in range(n + 1)]]
    for _ in range(n // 2):
        # c[a][m] = c[a-1][m] - c[a-1][m-1] - c[a][m-1]
        prev, row = rows[-1], [rows[-1][0]]
        for m in range(1, n + 1):
            row.append(prev[m] - prev[m - 1] - row[m - 1])
        rows.append(row)
    return rows


@lru_cache(maxsize=8)
def _model_factors(n: int):
    """V = D((1 + k) / sqrt 2), read-only; V is symmetric and unitary.

    V[b, a] = i^(b-a) c[a][n-b] sqrt(C(n, a) / (C(n, b) 2^n)) with c of
    ``_model_integers``; each modulus is the square root of that exact
    rational, rounded once by Python's int / int, with no overflow at any
    n.  The moduli are taken for a <= b <= n/2: V = V^T, and c[n-a][m] =
    (-1)^m c[a][m] and c[a][n-m] = (-1)^a c[a][m] fold the rest onto them.
    """
    c = _model_integers(n)
    h, binom = n // 2, c[0]
    Q = np.empty((h + 1, h + 1))
    for b in range(h + 1):
        for a in range(b + 1):
            t = c[a][n - b]
            m = sqrt(t * t * binom[a] / (binom[b] << n))
            Q[b, a] = -m if t < 0 else m
            Q[a, b] = -Q[b, a] if (b - a) % 2 else Q[b, a]
    k = np.arange(n + 1)
    f, up = np.minimum(k, n - k), k > h
    # the signs (-1)^a of folding row b and (-1)^(n-b) of folding column a
    flips = np.outer(up, k) + np.outer(n - f, up)
    V = Q[np.ix_(f, f)] * np.array([1, 1j, -1, -1j])[
        (k[:, None] - k + 2 * flips) % 4]
    V.setflags(write=False)
    return V


# M holds about (n + 1) (n/2 + 1) n floats: 65 MiB at n = 256
@lru_cache(maxsize=8)
def _fourier_matrix(n: int):
    """(M, ms): d_{ba}(theta) - delta_{ba} = M @ [cos ms theta - 1, sin ms theta].

    ms are the m > 0 with m = n mod 2, ascending, and M, read-only and of
    shape ((n + 1) (n/2 + 1), 2 len(ms)), has rows indexed by (b, a),
    a <= n/2.
    Since cos theta + sin theta j = (1 + k)(cos theta + sin theta i)(1 - k) / 2
    and D(e^{i theta}) = diag(e^{i (2k - n) theta}),
    d_{ba}(theta) = sum_k V[b, k] e^{i (2k - n) theta} V^H[k, a] with V of
    ``_model_factors``.  d is real, so the terms k and n - k pair into a
    cosine and a sine of m = 2k - n, and at theta = 0 the cosine
    coefficients sum to d_{ba}(0) = delta_{ba}, which is therefore added
    back exactly.
    """
    V = _model_factors(n)
    cols = n // 2 + 1
    VH = V.conj().T
    ms = np.arange(2 - n % 2, n + 1, 2)
    M = np.empty((2, len(ms), n + 1, cols))
    for j, m in enumerate(ms):
        hi, lo = (n + m) // 2, (n - m) // 2
        C_hi = np.multiply.outer(V[:, hi], VH[hi, :cols])
        C_lo = np.multiply.outer(V[:, lo], VH[lo, :cols])
        # Re(C_hi e^{i m theta} + C_lo e^{-i m theta})
        M[0, j] = (C_hi + C_lo).real
        M[1, j] = (C_lo - C_hi).imag
    M = M.reshape(2 * len(ms), (n + 1) * cols).T
    M.setflags(write=False)
    return M, ms


def _unit(z, r):
    """z / r where r > 0 and 1 where r = 0, with no division by zero."""
    return np.divide(z, r, out=np.ones(len(z), dtype=complex), where=r > 0)


def _int_power(u, n: int):
    """u^n by repeated squaring: numpy's complex power calls exp and log
    from an exponent of 100 on."""
    out = np.ones_like(u)
    while n:
        if n & 1:
            out = out * u
        u = u * u
        n >>= 1
    return out


def _float_values(pts, n: int):
    """D(x), a <= n/2, from the Fourier form of d, by products; see below.

    The unit phases U = z / |z|, W = w / |w| and E = e^{i theta} =
    (|z| + i |w|) / |x| are read off the coordinates, each 1 where its
    modulus is 0, so no point lies on a branch cut: a signed zero
    coordinate gives the same values bit for bit.
    e^{i m theta} for the m of ``_fourier_matrix`` is the cumulative product
    E^(2 - n mod 2), E^2, E^2, ...; at x = 1 every factor is exactly 1, so
    D(1) = I holds exactly.
    """
    M, ms = _fourier_matrix(n)
    cols = n // 2 + 1
    x1, x2, x3, x4 = pts.T
    r, s = np.hypot(x1, x2), np.hypot(x3, x4)
    norm = np.hypot(r, s)
    U, W = _unit(x1 + 1j * x2, r), _unit(x3 + 1j * x4, s)
    E = _unit(r + 1j * s, norm)
    E2 = E * E
    powers = np.empty((len(ms), len(pts)), dtype=complex)
    powers[:] = E2
    if n % 2:
        powers[:1] = E
    np.cumprod(powers, axis=0, out=powers)
    trig = np.concatenate([powers.real - 1.0, powers.imag])
    d = (M @ trig).reshape(n + 1, cols, len(pts))
    diag = np.arange(cols)
    d[diag, diag] += 1.0
    # |x|^n U^(a+b-n) W^(b-a) = |x|^n conj(U)^n (U W)^b (U conj W)^a
    rows = np.empty((n + 1, len(pts)), dtype=complex)
    rows[0] = norm ** n * _int_power(U.conj(), n)
    rows[1:] = U * W
    np.cumprod(rows, axis=0, out=rows)
    colq = np.empty((cols, len(pts)), dtype=complex)
    colq[0] = 1.0
    colq[1:] = U * W.conj()
    np.cumprod(colq, axis=0, out=colq)
    D = rows[:, None, :] * colq
    D *= d
    return D


def sym_power_values(pts, n: int):
    """The model at each point, in the columns a <= n/2: T(x) at integer
    points, D(x) at float points.

    ``pts`` has shape (#pts, 4) and holds floats, or integers for exact
    values: Python integers in an object array are always exact, int64 only
    under a bound the caller proves (the products wrap around silently;
    ``hecke.shell_monomial_matrices`` states one).  With h = n // 2 the
    columns a <= h are returned as

    - for integer points, the integer frame t_{ba}(x) of
      ``_sym_power_entries``, one array of their dtype of shape
      (2, n + 1, h + 1, #pts) indexed [part, b, a, p], part 0 the real and
      1 the imaginary part, from the binary forms
      (z X - conj(w) Y)^a (w X + conj(z) Y)^(n-a), O(n^3) work per point;
    - for float points, the unitary frame D(x)[b, a] =
      t_{ba}(x) sqrt(C(n, a) / C(n, b)), one complex128 array of shape
      (n + 1, h + 1, #pts) indexed [b, a, p], by the factorisation of the
      module docstring: r + i s = |x| e^{i theta}, z = r U, w = s W and
      d(theta) = D(cos theta + sin theta j), real.

    The columns a > h follow by t_{n-b,n-a} = (-1)^(a+b) conj t_{ba}, and
    D alike (``complete_columns``).  T(1) = I and T(m x) = T(m) T(x), and D
    alike; D(x) is unitary at unit x to roundoff at high n, and D(1) = I
    holds exactly.
    """
    pts = np.asarray(pts)
    if pts.dtype.kind == "f":
        return _float_values(pts, n)
    return _exact_values(pts, n)


def complete_columns(X, n: int):
    """X on all n + 1 columns from its columns a <= n/2, on its last two
    axes [b, a]: X[b, a] = (-1)^(a+b) conj X[n-b, n-a] for a > n/2.

    The rule of t_{ba} and D_{ba}, and so of every sum of them over points.
    A real X is taken as a real part; an imaginary part takes the opposite
    sign in the columns a > n/2.
    """
    h = n // 2
    out = np.empty(X.shape[:-1] + (n + 1,), dtype=X.dtype)
    out[..., :h + 1] = X
    # explicit indices: at n = 0 the slice start n - h - 1 would be -1
    a = np.arange(h + 1, n + 1)
    sign = (1 - 2 * ((a + np.arange(n + 1)[:, None]) % 2)).astype(X.dtype)
    # a product by (-1)^(a+b) + 0i, not a negation: a zero keeps sign +0,
    # so D(1) = I holds bit for bit
    np.multiply(X[..., ::-1, n - a].conj(), sign, out=out[..., h + 1:])
    return out


def basis_values(hb: HarmonicBasis, pts: np.ndarray) -> np.ndarray:
    """Values of each basis polynomial at each point; shape (dim, #pts).

    The float ``sym_power_values`` are D(x) in the columns a <= n/2, which
    ``complete_columns`` completes; t_{ba} = D_{ba} sqrt(C(n, b) / C(n, a))
    takes them back to the integer frame.
    """
    D = complete_columns(np.moveaxis(
        sym_power_values(np.asarray(pts, dtype=float), hb.n), -1, 0), hb.n)
    b, a, part = np.array(hb.labels, dtype=np.intp).T
    # the real and imaginary parts of D as a trailing axis, without a copy
    parts = D.view(float).reshape(D.shape + (2,))
    vals = parts[:, b, a, part].T
    g = np.sqrt([float(comb(hb.n, k)) for k in range(hb.n + 1)])
    vals *= (g[b] / g[a] / np.array(hb.contents, dtype=float))[:, None]
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
