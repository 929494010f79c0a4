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

``sym_power_values`` evaluates T(x) = [t_{ba}(x)] in batches, exactly at
integer points (products of binary forms) and in floats at float points
through the factorisation T(x)[b, a] = |x|^n U^(a+b-n) V^(b-a) d_{ba}(theta)
and the Fourier form of Wigner's d-matrix (T. Risbo, J. Geodesy 70, 1996;
Feng, Wang, Yang and Jin, Phys. Rev. E 92, 2015): one real product of a
constant matrix with the cosines and sines of the multiples of theta, and
two phase products.  No transcendental function is called: the phases U,
V and e^{i theta} are the coordinates divided by their moduli, and every
multiple angle and phase power is a cumulative complex product.  The
constant matrix comes from the exact factors T(1 + k) and
T(1 - k) = conj T(1 + k), whose entries are Krawtchouk polynomial values
read from an O(n^2) integer recurrence.  The coefficients of that matrix
are bounded in the unitary frame, so the float values stay unitary, up to
the rescaling by sqrt(C(n, a) / C(n, b)), to roundoff at every degree used.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _exact_values(pts, n: int, cols: int):
    """T(x) at integer points by products of binary forms; see below."""
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
    """T(1 + k) exactly: (re, im), lists of Python integers indexed [b][a].

    At 1 + k the columns (z X - conj(w) Y, w X + conj(z) Y) are (X + iY,
    iX + Y), so T(1 + k)[b, a] = i^(b-a) c[a][n-b], where c[a][m] is the
    coefficient of t^m in P_a = (1 - t)^a (1 + t)^(n-a), a Krawtchouk
    polynomial value (Koornwinder, SIAM J. Math. Anal. 13, 1982).  The
    rows c[a] come from (1 + t) P_{a+1} = (1 - t) P_a: O(n^2) additions
    and no division.
    """
    row = [comb(n, m) for m in range(n + 1)]
    re = [[0] * (n + 1) for _ in range(n + 1)]
    im = [[0] * (n + 1) for _ in range(n + 1)]
    for a in range(n + 1):
        if a:
            # c[a][m] = c[a-1][m] - c[a-1][m-1] - c[a][m-1]
            prev, row = row, [row[0]]
            for m in range(1, n + 1):
                row.append(prev[m] - prev[m - 1] - row[m - 1])
        for b in range(n + 1):
            # i^(b-a) is real for even b - a and negative for (b - a) % 4 >= 2
            part = im if (b - a) % 2 else re
            part[b][a] = -row[n - b] if (b - a) % 4 >= 2 else row[n - b]
    return re, im


@lru_cache(maxsize=8)
def _model_factors(n: int):
    """(A, B) = (T(1 + k) / 2^n, T(1 - k)), exact integers rounded to floats.

    1 - k = (1 + k)', so T(1 - k) = conj T(1 + k) (see ``hecke``): both
    come from one ``_model_integers`` table, converted once.  Every zero
    is +0.0, so A and B equal bit for bit the factors rounded from
    ``_exact_values`` at (1, 0, 0, 1) and (1, 0, 0, -1).
    """
    re, im = np.array(_model_integers(n), dtype=float)
    A = (re + 1j * im) / 2.0 ** n
    # conj T(1 + k), with +0.0 imaginary zeros where .conj() gives -0.0
    B = re - 1j * im
    A.setflags(write=False)
    B.setflags(write=False)
    return A, B


# M holds about (n + 1) cols n floats: 68 MiB at n = 256 and cols = 129
@lru_cache(maxsize=8)
def _fourier_matrix(n: int, cols: int):
    """(M, ms): d_{ba}(theta) - delta_{ba} = M @ [cos ms theta - 1, sin ms theta].

    ms are the m > 0 with m = n mod 2, ascending, and M, read-only and of
    shape ((n + 1) cols, 2 len(ms)), has rows indexed by (b, a), a < cols.
    Since cos theta + sin theta j = (1 + k)(cos theta + sin theta i)(1 - k) / 2
    and T(e^{i theta}) = diag(e^{i (2k - n) theta}),
    d_{ba}(theta) = sum_k C[b, a, k] e^{i (2k - n) theta} with
    C[b, a, k] = T(1 + k)[b, k] T(1 - k)[k, a] / 2^n, where both factors
    are exact Krawtchouk integers rounded once (``_model_factors``).  d is
    real, so the terms k and n - k pair into a cosine and a sine of
    m = 2k - n, and at theta = 0 the cosine coefficients sum to
    d_{ba}(0) = delta_{ba}, which is therefore added back exactly.
    """
    A, B = _model_factors(n)
    ms = np.arange(2 - n % 2, n + 1, 2)
    M = np.empty((2, len(ms), n + 1, cols))
    for j, m in enumerate(ms):
        hi, lo = (n + m) // 2, (n - m) // 2
        C_hi = np.multiply.outer(A[:, hi], B[hi, :cols])
        C_lo = np.multiply.outer(A[:, lo], B[lo, :cols])
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


def _float_values(pts, n: int, cols: int):
    """T(x) at float points from the Fourier form of d, by products; see below.

    The unit phases U = z / |z|, V = w / |w| and E = e^{i theta} =
    (|z| + i |w|) / |x| are read off the coordinates, each 1 where its
    modulus is 0, so no point lies on a branch cut: a signed zero
    coordinate gives the same values bit for bit.
    e^{i m theta} for the m of ``_fourier_matrix`` is the cumulative product
    E^(2 - n mod 2), E^2, E^2, ...; at x = 1 every factor is exactly 1, so
    T(1) = I holds exactly.
    """
    M, ms = _fourier_matrix(n, cols)
    x1, x2, x3, x4 = pts.T
    r, s = np.hypot(x1, x2), np.hypot(x3, x4)
    norm = np.hypot(r, s)
    U, V = _unit(x1 + 1j * x2, r), _unit(x3 + 1j * x4, s)
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
    # |x|^n U^(a+b-n) V^(b-a) = |x|^n conj(U)^n (U V)^b (U conj V)^a
    rows = np.empty((n + 1, len(pts)), dtype=complex)
    rows[0] = norm ** n * _int_power(U.conj(), n)
    rows[1:] = U * V
    np.cumprod(rows, axis=0, out=rows)
    colq = np.empty((cols, len(pts)), dtype=complex)
    colq[0] = 1.0
    colq[1:] = U * V.conj()
    np.cumprod(colq, axis=0, out=colq)
    T = rows[:, None, :] * colq
    T *= d
    return T


def sym_power_values(pts, n: int, cols: int | None = None):
    """The entries T(x) = [t_{ba}(x)] at each point.

    ``pts`` has shape (#pts, 4) and holds floats, or integers for exact
    values: Python integers in an object array are always exact, int64 only
    under a bound the caller proves (the products wrap around silently;
    ``hecke.shell_monomial_matrices`` states one).  The entries of
    ``_sym_power_entries`` in the first ``cols`` columns (all n + 1 by
    default) are returned as

    - for float points, one complex128 array of shape (n + 1, cols, #pts)
      indexed [b, a, p];
    - for integer points, one array of their dtype of shape
      (2, n + 1, cols, #pts) indexed [part, b, a, p], part 0 the real and
      1 the imaginary part.

    T is the n-th symmetric power of the 2x2 model, so T(1) = I and
    T(m x) = T(m) T(x).  Integer points multiply the binary forms
    (z X - conj(w) Y)^a (w X + conj(z) Y)^(n-a), O(n^3) work per point.
    Float points use the factorisation T(x)[b, a] = |x|^n U^(a+b-n)
    V^(b-a) d_{ba}(theta), where z = r U, w = s V, r + i s = |x| e^{i theta}
    and d_{ba}(theta) = t_{ba}(cos theta, 0, sin theta, 0) is real: d is one
    real product of the constant ``_fourier_matrix`` (built from the exact
    Krawtchouk factors T(1 +- k) of ``_model_factors``) with the real and
    imaginary parts of e^{i m theta}.  The phases are read off the
    coordinates and their powers are cumulative complex products, with no
    trigonometric call.  Every coefficient there is bounded in the unitary
    frame, so the values stay unitary (rescaled by sqrt(C(n, a) / C(n, b)))
    to roundoff at high n, and T(1) = I holds exactly.
    """
    cols = n + 1 if cols is None else cols
    pts = np.asarray(pts)
    if pts.dtype.kind == "f":
        return _float_values(pts, n, cols)
    return _exact_values(pts, n, cols)


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
