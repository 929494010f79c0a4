import warnings
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from hecke_sphere import poly
from hecke_sphere.poly import (
    _sym_power_entries, basis_to_json, basis_values, complete_columns,
    harmonic_basis, sym_power_values,
)
from hecke_sphere.quat import Quaternion
from poly_oracle import (
    Poly4, basis_polys, fischer_dot, full_columns, gram_diagonal,
    monomial_sphere_integral, sphere_integral, sphere_to_fischer_ratio,
    substitute_left_mul,
)


def test_monomial_integral_values():
    # int x1^2 dsigma = 1/4, int x1^4 = 1/8, int x1^2 x2^2 = 1/24
    assert monomial_sphere_integral((2, 0, 0, 0)) == Fraction(1, 4)
    assert monomial_sphere_integral((4, 0, 0, 0)) == Fraction(1, 8)
    assert monomial_sphere_integral((2, 2, 0, 0)) == Fraction(1, 24)
    assert monomial_sphere_integral((1, 0, 0, 0)) == 0
    assert monomial_sphere_integral((1, 1, 2, 0)) == 0


def test_monomial_integral_monte_carlo():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((200000, 4))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    for alpha in [(2, 0, 0, 0), (2, 2, 0, 0), (4, 2, 0, 0), (2, 2, 2, 2)]:
        mc = np.prod(pts ** np.array(alpha), axis=1).mean()
        assert abs(mc - float(monomial_sphere_integral(alpha))) < 5e-3


def test_norm_poly_integrates_to_one():
    r2 = Poly4(2, {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1,
                   (0, 0, 2, 0): 1, (0, 0, 0, 2): 1})
    assert sphere_integral(r2) == 1
    assert sphere_integral(r2 * r2) == 1


@pytest.mark.parametrize("n", range(0, 7))
def test_basis_harmonic_and_dimension(n):
    hb = harmonic_basis(n)
    assert hb.dim == (n + 1) ** 2
    for p in basis_polys(n):
        assert p.laplacian().is_zero()
        assert p.content() == 1


def test_basis_degree_one_spans_coordinates():
    mons = sorted(a for p in basis_polys(1) for a in p.coeffs)
    assert mons == [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)]


@pytest.mark.parametrize("n", range(0, 5))
def test_gram_diagonal_matches_direct_integrals(n):
    hb = harmonic_basis(n)
    basis = basis_polys(n)
    gram = gram_diagonal(n)
    assert len(gram) == hb.dim
    for i, p in enumerate(basis):
        for j, q in enumerate(basis):
            assert sphere_integral(p * q) == (gram[i] if i == j else 0)
        assert gram[i] > 0


@pytest.mark.parametrize("n", range(0, 11))
def test_closed_form_gram_matches_pairwise_fischer(n):
    # the pairwise Gram computation the closed form replaced, as the oracle
    hb = harmonic_basis(n)
    basis = basis_polys(n)
    gram = gram_diagonal(n)
    ratio = sphere_to_fischer_ratio(n)
    supports = [frozenset(p.coeffs) for p in basis]
    for i, p in enumerate(basis):
        for j in range(i, hb.dim):
            if i != j and supports[i].isdisjoint(supports[j]):
                continue
            g = ratio * fischer_dot(p, basis[j])
            assert g == (gram[i] if i == j else 0)


@pytest.mark.parametrize("n", range(0, 6))
def test_fischer_to_sphere_ratio(n):
    # ratio relates the apolar pairing to the sphere integral on degree n
    ratio = sphere_to_fischer_ratio(n)
    p = basis_polys(n)[0]
    assert ratio * fischer_dot(p, p) == sphere_integral(p * p)


def test_substitute_left_mul_numeric():
    rng = np.random.default_rng(1)
    m = Quaternion.from_int_coords(2, -1, 3, 1)
    for n in (1, 2, 5):
        basis = basis_polys(n)
        f = basis[min(2, len(basis) - 1)]
        g = substitute_left_mul(f, m)
        for _ in range(5):
            x = rng.standard_normal(4)
            mx = np.array([
                [m.c1, -m.c2, -m.c3, -m.c4],
                [m.c2, m.c1, -m.c4, m.c3],
                [m.c3, m.c4, m.c1, -m.c2],
                [m.c4, -m.c3, m.c2, m.c1],
            ]) / 2.0 @ x
            assert abs(float(g.evaluate(x)) - float(f.evaluate(mx))) < 1e-8 * max(
                1.0, abs(float(f.evaluate(mx))))


def test_substitute_preserves_harmonicity():
    m = Quaternion.from_int_coords(1, 1, 1, 0)
    for f in basis_polys(3)[:3]:
        assert substitute_left_mul(f, m).laplacian().is_zero()


@pytest.mark.parametrize("n", [0, 1, 2, 5, 8, 12])
def test_basis_values_shape(n):
    hb = harmonic_basis(n)
    pts = np.random.default_rng(2).standard_normal((10, 4))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    vals = basis_values(hb, pts)
    assert vals.shape == (hb.dim, 10)
    direct = np.array([[float(p.evaluate(x)) for x in pts] for p in basis_polys(n)])
    assert np.allclose(vals, direct)


def test_primitive_normalization():
    p = Poly4(2, {(2, 0, 0, 0): -4, (0, 2, 0, 0): 6})
    q = p.primitive()
    assert q.content() == 1
    # sign convention: first coefficient in lex order is positive
    first = min(q.coeffs)
    assert q.coeffs[first] > 0


@pytest.mark.parametrize("n", range(0, 19))
def test_labels_name_matrix_coefficients(n):
    # harmonic_basis reads the contents off the same table; the oracle's
    # Poly4 takes each labelled entry's signed content on its own
    hb = harmonic_basis(n)
    table = _sym_power_entries(n)
    assert len(hb.labels) == hb.dim
    for c, (b, a, part) in zip(hb.contents, hb.labels):
        assert c == Poly4(n, table[a][b][part]).signed_content()


@pytest.mark.parametrize("n", range(0, 13))
def test_basis_json_matches_oracle_polynomials(n):
    doc = basis_to_json(harmonic_basis(n))
    polys = [[[list(al), str(v)] for al, v in sorted(p.coeffs.items())]
             for p in basis_polys(n)]
    assert doc == {"n": n, "dim": (n + 1) ** 2, "polys": polys}


@pytest.mark.parametrize("n", range(0, 13))
def test_sym_power_entries_match_batched_values(n):
    # the symbolic entries against the batched evaluator, exactly, at
    # integer points; a nonzero difference of degree n vanishes at a random
    # point with probability at most n / 201 (Schwartz-Zippel).  The
    # evaluator returns the columns a <= n/2, and both the package's
    # ``complete_columns`` and the oracle's entrywise ``full_columns`` give
    # every other column, real and imaginary part
    table = _sym_power_entries(n)
    rng = np.random.default_rng(n)
    pts = rng.integers(-100, 101, size=(12, 4)).tolist()
    half = sym_power_values(np.array(pts, dtype=object), n)
    assert half.shape == (2, n + 1, n // 2 + 1, 12)
    # the [b, a] axes last; an imaginary part takes the opposite sign in
    # the completed columns
    done = complete_columns(np.moveaxis(half, -1, 1), n)
    done[1, ..., n // 2 + 1:] *= -1
    for T in (np.moveaxis(done, 1, -1), full_columns(half, n)):
        assert T.shape == (2, n + 1, n + 1, 12)
        for a in range(n + 1):
            for b in range(n + 1):
                for part in (0, 1):
                    f = Poly4(n, table[a][b][part])
                    assert [f.evaluate(x) for x in pts] == T[part, b, a].tolist()


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_sym_power_multiplicative(n):
    # T(m m') = T(m) T(m') exactly on integral quaternions; the Hecke
    # matrices are built from this property
    rng = np.random.default_rng(n)
    for _ in range(5):
        m, mp = (Quaternion.from_int_coords(*rng.integers(-4, 5, size=4).tolist())
                 for _ in range(2))
        pts = np.array([m.int_coords, mp.int_coords, (m * mp).int_coords],
                       dtype=object)
        T = full_columns(sym_power_values(pts, n), n)
        assert T.shape == (2, n + 1, n + 1, 3)
        (re, im) = (np.moveaxis(T[part], -1, 0) for part in (0, 1))
        prod_re = re[0] @ re[1] - im[0] @ im[1]
        prod_im = re[0] @ im[1] + im[0] @ re[1]
        assert np.all(prod_re == re[2]) and np.all(prod_im == im[2])
    one = np.array([[1, 0, 0, 0]], dtype=object)
    T = full_columns(sym_power_values(one, n), n)
    assert np.all(T[0, :, :, 0] == np.eye(n + 1, dtype=int))
    assert not np.any(T[1, :, :, 0])


def _hamilton(x, y):
    """Quaternion products of the rows of x and y, coordinates 1, i, j, k."""
    a1, b1, c1, d1 = x.T
    a2, b2, c2, d2 = y.T
    return np.stack([a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                     a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                     a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                     a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2], axis=1)


def _unit_points(size, seed):
    pts = np.random.default_rng(seed).standard_normal((size, 4))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _unitary(exact, n):
    """Exact values [part, b, a, p] in floats and in the unitary frame,
    D[b, a] = t_{ba} sqrt(C(n, a) / C(n, b)), indexed [b, a, p]."""
    g = np.sqrt([float(comb(n, b)) for b in range(n + 1)])
    T = exact[0].astype(float) + 1j * exact[1].astype(float)
    return T * (g[:T.shape[1]] / g[:, None])[..., None]


@pytest.mark.parametrize("n", range(0, 25))
def test_complex_path_matches_exact_path(n):
    # float points with integer coordinates against the same points as
    # Python integers, taken to the unitary frame, on every column: the
    # float columns a > n/2 from ``complete_columns``, the exact ones from
    # the oracle's entrywise rule.  Each point's error is measured against
    # its largest entry, since single entries cancel
    pts = np.random.default_rng(n).integers(-100, 101, size=(12, 4))
    exact = sym_power_values(pts.astype(object), n)
    T = sym_power_values(pts.astype(float), n)
    assert T.dtype == np.complex128 and T.shape == (n + 1, n // 2 + 1, 12)
    D = np.moveaxis(complete_columns(np.moveaxis(T, -1, 0), n), 0, -1)
    ref = _unitary(full_columns(exact, n), n)
    assert D.shape == ref.shape == (n + 1, n + 1, 12)
    err = np.abs(D - ref).max(axis=(0, 1))
    assert np.all(err <= 1e-12 * np.abs(ref).max(axis=(0, 1)))


@pytest.mark.parametrize("n", range(0, 25))
def test_complex_path_matches_exact_path_on_axes(n):
    # points with z = 0 or w = 0, where the factorisation sets U = 1 or
    # V = 1, the coordinate axes, the origin and generic integer points,
    # the columns a <= n/2; the error is measured as in the test above
    rng = np.random.default_rng(1000 + n)
    pts = rng.integers(-100, 101, size=(16, 4))
    pts[:4, :2] = 0
    pts[4:8, 2:] = 0
    pts[8:13] = [[3, 0, 0, 0], [0, -2, 0, 0], [0, 0, 5, 0], [0, 0, 0, -1],
                 [0, 0, 0, 0]]
    exact = sym_power_values(pts.astype(object), n)
    T = sym_power_values(pts.astype(float), n)
    ref = _unitary(exact, n)
    err = np.abs(T - ref).max(axis=(0, 1))
    assert np.all(err <= 1e-12 * np.abs(ref).max(axis=(0, 1)))


#: the cuts of atan2 along the negative axes, approached from either side,
#: points with z = 0 or w = 0 and the origin; rows 2i and 2i + 1 differ
#: only in the sign of a zero coordinate
CUT_POINTS = np.array([
    [-1.0, 0.0, 0.0, 0.0], [-1.0, -0.0, 0.0, 0.0],
    [0.0, 0.0, -1.0, 0.0], [0.0, 0.0, -1.0, -0.0],
    [-3.0, 0.0, -4.0, 0.0], [-3.0, -0.0, -4.0, -0.0],
    [-0.0, 0.0, 2.0, -5.0], [0.0, -0.0, 2.0, -5.0],
    [7.0, -1.0, -0.0, 0.0], [7.0, -1.0, 0.0, -0.0],
    [0.0, 0.0, 0.0, 0.0], [-0.0, -0.0, -0.0, -0.0]])


@pytest.mark.parametrize("n", range(0, 25))
def test_complex_path_at_branch_cuts_and_degenerate_points(n):
    # the phases are read off the coordinates, so a signed zero cannot put
    # a point on either side of a cut: each pair agrees bit for bit, and
    # every value matches the exact path as in the tests above
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        T = sym_power_values(CUT_POINTS, n)
    assert T[..., 0::2].tobytes() == T[..., 1::2].tobytes()
    exact = sym_power_values(CUT_POINTS.astype(int).astype(object), n)
    ref = _unitary(exact, n)
    err = np.abs(T - ref).max(axis=(0, 1))
    assert np.all(err <= 1e-12 * np.abs(ref).max(axis=(0, 1)))


def test_complex_path_calls_no_transcendental_function(monkeypatch):
    # every phase and every multiple angle comes from complex products of
    # the coordinates
    def forbidden(*args, **kwargs):
        raise AssertionError("the float path called a transcendental function")

    for name in ("arctan2", "cos", "sin", "exp", "log"):
        monkeypatch.setattr(np, name, forbidden)
    for n in (0, 1, 12, 25):
        sym_power_values(_unit_points(4, n), n)


@pytest.fixture
def fresh_fourier_cache():
    """The large Fourier matrices a test builds are not left in the cache."""
    poly._fourier_matrix.cache_clear()
    yield
    poly._fourier_matrix.cache_clear()


def _complete(T, n):
    """Float values [b, a, p] of the columns a <= n/2 completed by
    ``complete_columns``, indexed [p, b, a]."""
    return complete_columns(np.moveaxis(T, -1, 0), n)


@pytest.mark.parametrize("n", [128, 256])
def test_complex_path_unitary_at_high_degree(n, fresh_fourier_cache):
    # the float values D, completed, are unitary at unit points; the
    # monomial-basis products reached |D D^H - I| = 4e4 at n = 128
    D = _complete(sym_power_values(_unit_points(3, n), n), n)
    err = np.abs(D @ D.conj().transpose(0, 2, 1) - np.eye(n + 1)).max()
    assert err < 1e-12


def _model_t1k(n):
    """T(1 + k)[b, a] = i^(b-a) c[a][n-b] from ``_model_integers`` as object
    arrays (re, im), the columns a > n/2 from c[n-a][m] = (-1)^m c[a][m]."""
    c = poly._model_integers(n)
    assert len(c) == n // 2 + 1
    re, im = (np.zeros((n + 1, n + 1), dtype=object) for _ in range(2))
    for b in range(n + 1):
        for a in range(n + 1):
            v = c[a][n - b] if 2 * a <= n else (-1) ** (n - b) * c[n - a][n - b]
            # i^(b-a) is real for even b - a and negative for (b - a) % 4 >= 2
            (im if (b - a) % 2 else re)[b, a] = -v if (b - a) % 4 >= 2 else v
    return re, im


@pytest.mark.parametrize("n", range(0, 65))
def test_model_factors_match_exact_path(n):
    # the recurrence table is T(1 + k) exactly and T(1 - k) its conjugate.
    # V = D((1 + k) / sqrt 2) is read-only and symmetric, each entry has
    # the signs of the exact entry t = T(1 + k)[b, a], of which one part is
    # 0, and its modulus is within 1 ulp of sqrt(|t|^2 C(n, a) / (C(n, b) 2^n))
    E = full_columns(poly._exact_values(
        np.array([[1, 0, 0, 1], [1, 0, 0, -1]], dtype=object), n), n)
    re, im = _model_t1k(n)
    assert np.array_equal(E[0, ..., 0], re) and np.array_equal(E[1, ..., 0], im)
    assert np.array_equal(E[0, ..., 1], re) and np.array_equal(E[1, ..., 1], -im)
    V = poly._model_factors(n)
    assert V.shape == (n + 1, n + 1) and not V.flags.writeable
    assert np.array_equal(V, V.T)
    for b in range(n + 1):
        for a in range(n + 1):
            z, t = complex(V[b, a]), (E[0, b, a, 0], E[1, b, a, 0])
            assert [(x > 0) - (x < 0) for x in (z.real, z.imag)] == [
                (x > 0) - (x < 0) for x in t]
            v = abs(z.real + z.imag)
            q = Fraction((t[0] ** 2 + t[1] ** 2) * comb(n, a), comb(n, b) << n)
            lo, hi = (Fraction(np.nextafter(v, x)) for x in (0.0, 2.0))
            assert lo * lo < q < hi * hi or q == v == 0


@pytest.mark.parametrize("n", [4, 12, 24])
def test_fourier_matrix_matches_exact_path(n):
    # d(theta) = delta + M @ [cos ms theta - 1, sin ms theta] against the
    # exact T(p) / |p|^n, in the unitary frame, at p = (x1, 0, x3, 0) with
    # |p| an integer, in the columns a <= n/2 that M holds
    pts = np.array([[5, 0, 0, 0], [3, 0, 4, 0], [5, 0, 12, 0], [8, 0, -15, 0],
                    [0, 0, 1, 0]])
    radii = np.array([5, 5, 13, 17, 1])
    exact = sym_power_values(pts.astype(object), n)
    assert not np.any(exact[1])
    ref = _unitary(exact, n).real / radii.astype(float) ** n
    theta = np.arctan2(pts[:, 2], pts[:, 0])
    cols = n // 2 + 1
    M, ms = poly._fourier_matrix(n)
    assert np.array_equal(ms, np.arange(2 - n % 2, n + 1, 2))
    assert M.shape == ((n + 1) * cols, 2 * len(ms)) and not M.flags.writeable
    trig = np.concatenate([np.cos(np.outer(ms, theta)) - 1.0,
                           np.sin(np.outer(ms, theta))])
    d = (M @ trig).reshape(n + 1, cols, len(pts))
    d[np.arange(cols), np.arange(cols)] += 1.0
    err = np.abs(d - ref).max(axis=(0, 1))
    assert np.all(err <= 1e-12 * np.abs(ref).max(axis=(0, 1)))


def test_model_integers_unitary_at_degree_96():
    # (1 + k)(1 - k) = 2, so T(1 + k) conj T(1 + k) = T(2) = 2^n I exactly;
    # the exact path is too slow to serve as the oracle at this degree
    n = 96
    re, im = _model_t1k(n)
    # (re + i im)(re - i im) = re re + im im + i (im re - re im)
    scalar = [[2 ** n if b == a else 0 for a in range(n + 1)] for b in range(n + 1)]
    assert (re @ re + im @ im).tolist() == scalar
    assert not np.any(im @ re - re @ im)


def test_model_integers_match_krawtchouk_sums_at_degree_512():
    # c[a][m] = sum_j (-1)^j C(a, j) C(n-a, m-j), the coefficient of t^m in
    # (1 - t)^a (1 + t)^(n-a), on 50 seeded entries with a <= n/2
    n = 512
    c = poly._model_integers(n)
    rng = np.random.default_rng(512)
    for a, m in zip(rng.integers(0, n // 2 + 1, size=50).tolist(),
                    rng.integers(0, n + 1, size=50).tolist()):
        want = sum((-1) ** j * comb(a, j) * comb(n - a, m - j)
                   for j in range(max(0, a + m - n), min(a, m) + 1))
        assert c[a][m] == want


@pytest.mark.parametrize("n", [0, 1, 2, 7, 12, 24])
def test_complex_path_identity_and_multiplicative(n):
    # D(1) = I after completion, bit for bit
    D = _complete(sym_power_values(np.array([[1.0, 0.0, 0.0, 0.0]]), n), n)[0]
    assert D.tobytes() == np.eye(n + 1, dtype=complex).tobytes()
    # D(xy) = D(x) D(y) at unit points, where every D is unitary: entries
    # stay at most 1
    x, y = _unit_points(6, n), _unit_points(6, n + 100)
    Dx, Dy, Dxy = (_complete(sym_power_values(p, n), n)
                   for p in (x, y, _hamilton(x, y)))
    err = np.abs(Dx @ Dy - Dxy)
    assert err.max() < 1e-12 * (n + 1)


@pytest.mark.parametrize("n", [0, 1, 4, 9, 16])
def test_basis_values_match_exact_entries(n):
    # the basis polynomials are integral, so at integer points their exact
    # values are the exact entries over the contents
    hb = harmonic_basis(n)
    pts = np.random.default_rng(n).integers(-9, 10, size=(8, 4))
    exact = full_columns(sym_power_values(pts.astype(object), n), n)
    b, a, part = np.array(hb.labels, dtype=np.intp).T
    contents = np.array(hb.contents, dtype=object)[:, None]
    assert not np.any(exact[part, b, a] % contents)
    ref = (exact[part, b, a] // contents).astype(float)
    vals = basis_values(hb, pts)
    assert vals.shape == (hb.dim, 8)
    assert np.all(np.abs(vals - ref) <= 1e-12 * np.abs(ref).max(axis=0))
