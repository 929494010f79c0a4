import csv
import io
import json
import math
from fractions import Fraction
from math import isqrt

import gon_oracle
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hecke_sphere import gon
from hecke_sphere.cli import main as cli_main
from hecke_sphere.gon import (
    EPSILON, INT64_COORD, Box, CylinderSpec, _adjugate, _body_region,
    _box_points, _complement, _lll, _reduced, a_of_x, dyadic_class_count,
    fit_constant, lattice_point_count, minkowski_sandwich,
    product_bound_check, shell_class_count, shell_class_table,
    successive_minima,
)
from hecke_sphere.quat import (
    CapacityError, Quaternion, enumerate_shell, r3_counts, r4_count,
)
from gon_oracle import in_cylinder_class


def brute_shell_class_count(k, R):
    return sum(1 for m in enumerate_shell(k, "integral").elements
               if in_cylinder_class(m, R))


def brute_dyadic_class_count(M, R):
    return sum(brute_shell_class_count(k, R) for k in range(M + 1, 2 * M + 1))


def loop_shell_class_count(k, R):
    # reference: per-s loop over imaginary norms s <= k / R^2, m1^2 = k - s
    r3 = r3_counts(k)
    count = 0
    for s in range(0, k // (R * R) + 1):
        rem = k - s
        if isqrt(rem) ** 2 == rem:
            count += int(r3[s]) * (2 if rem > 0 else 1)
    return count


def m1_count(lo, hi):
    # number of integers m1 with lo <= m1^2 <= hi (hi >= 0), signs included
    r = isqrt(hi)
    return sum(1 for m1 in range(-r, r + 1) if lo <= m1 * m1)


def loop_dyadic_class_count(M, R):
    # reference: per-s loop, C(R) membership s R^2 <= m1^2 + s plus the window
    r3 = r3_counts(2 * M)
    count = 0
    for s in range(0, 2 * M + 1):
        if r3[s]:
            lo = max(s * (R * R - 1), M - s + 1)
            count += int(r3[s]) * m1_count(lo, 2 * M - s)
    return count


def fraction_rank(rows):
    # reference: Gaussian elimination over the rationals
    mat = [list(map(Fraction, r)) for r in rows]
    rank, col = 0, 0
    while rank < len(mat) and col < 4:
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(rank + 1, len(mat)):
            if mat[r][col]:
                f = mat[r][col] / mat[rank][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return rank


def test_in_cylinder_class():
    # the oracle's membership test: purely real members belong to every class
    assert in_cylinder_class(Quaternion.from_int_coords(3, 0, 0, 0), 1024)
    # nr = 9, imaginary norm 8: in C(1), not in C(2) (4*8 > 9)
    m = Quaternion.from_int_coords(1, 2, 2, 0)
    assert in_cylinder_class(m, 1)
    assert not in_cylinder_class(m, 2)


@pytest.mark.parametrize("k", [1, 2, 5, 9, 16, 25, 50])
@pytest.mark.parametrize("R", [1, 2, 4, 8])
def test_shell_count_brute_force(k, R):
    rec = shell_class_count(k, R)
    assert rec.count == brute_shell_class_count(k, R)


def test_shell_count_r_one_is_whole_shell():
    for k in (1, 3, 8, 20):
        assert shell_class_count(k, 1).count == r4_count(k)


@pytest.mark.parametrize("M", [1, 2, 5, 8, 12])
@pytest.mark.parametrize("R", [1, 2, 4, 8])
def test_dyadic_count_brute_force(M, R):
    rec = dyadic_class_count(M, R)
    assert rec.count == brute_dyadic_class_count(M, R)


@pytest.mark.parametrize("R", [1, 2, 4, 8, 16, 2 ** 40])
def test_shell_count_matches_loop(R):
    for k in range(1, 301):
        assert shell_class_count(k, R).count == loop_shell_class_count(k, R)


@pytest.mark.parametrize("R", [1, 2, 4, 8, 2 ** 40])
def test_dyadic_count_brute_force_up_to_32(R):
    for M in range(1, 33):
        brute = brute_dyadic_class_count(M, R)
        assert dyadic_class_count(M, R).count == brute
        assert loop_dyadic_class_count(M, R) == brute


def test_counting_csv_matches_loops(tmp_path):
    assert cli_main(["counting", "--cutoff", "128", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "counting.csv", newline="") as fh:
        lines = fh.readlines()
    rows = []
    for k in range(1, 129):
        for b in range(7):
            R = 2 ** b
            count = loop_shell_class_count(k, R)
            bound = (1 + math.sqrt(k) / R + k / R ** 3) * k ** EPSILON
            rows.append(("singlebound", k, R, count, bound, count / bound))
    for a in range(4, 13):
        for b in range(7):
            M, R = 2 ** a, 2 ** b
            count = loop_dyadic_class_count(M, R)
            bound = math.sqrt(M) + M ** 2 / R ** 3
            rows.append(("intbound", M, R, count, bound, count / bound))
    expected = io.StringIO(newline="")
    csv.writer(expected).writerows(rows)
    assert "".join(lines[2:]) == expected.getvalue()


@pytest.mark.parametrize("cutoff", [1, 16, 17, 300])
def test_counting_csv_matches_the_records(tmp_path, cutoff):
    # the table path of `counting` against one CountRecord per (k, R)
    assert cli_main(["counting", "--cutoff", str(cutoff),
                     "--out", str(tmp_path)]) == 0
    with open(tmp_path / "counting.csv", newline="") as fh:
        lines = fh.readlines()
    shell = [shell_class_count(k, 2 ** b)
             for k in range(1, cutoff + 1) for b in range(7)]
    dyadic = [dyadic_class_count(2 ** a, 2 ** b)
              for a in range(4, 13) for b in range(7)]
    expected = io.StringIO(newline="")
    csv.writer(expected).writerows(
        (r.family, r.params[0], r.params[1], r.count, r.bound, r.ratio)
        for r in shell + dyadic)
    assert "".join(lines[2:]) == expected.getvalue()
    summary = json.loads((tmp_path / "counting-summary.json").read_text())
    assert summary["constant"] == max(fit_constant(shell), fit_constant(dyadic))


@pytest.mark.parametrize("R", [1, 2, 3, 8, 64, 1000, 2 ** 40])
def test_class_table_is_the_record(R):
    for cutoff in (0, 1, 16, 40):
        counts, bounds = shell_class_table(cutoff, [R, 1])
        assert counts.shape == bounds.shape == (cutoff, 2)
        for k in range(1, cutoff + 1):
            rec = shell_class_count(k, R)
            assert (counts[k - 1, 0], bounds[k - 1, 0]) == (rec.count, rec.bound)
    with pytest.raises(ValueError):
        shell_class_table(4, [2, 0])


def test_dyadic_large_r_keeps_only_near_real():
    # M = 8, R >= 8: only m with m1^2 in (8, 16] and tiny imaginary part
    assert dyadic_class_count(8, 8).count == 4
    assert dyadic_class_count(8, 64).count == 4


def test_partition_identity():
    for k in (7, 12, 25):
        # the D-classes D(2^i) = C(2^i) - C(2^(i+1)) are the differences of
        # nested classes, C(1) is the whole shell, and the deep class keeps
        # only the purely real members m1 = +-sqrt(k)
        cs = [shell_class_count(k, 2 ** i).count for i in range(7)]
        assert cs[0] == r4_count(k)
        assert all(a >= b for a, b in zip(cs, cs[1:]))
        assert shell_class_count(k, 2 ** 40).count == 2 * (isqrt(k) ** 2 == k)


def test_a_of_x_degree_zero():
    # n = 0 caps every summand at 1, so A(X) = sum_k r4(k)^2... with the cap
    # the inner sum is the full shell count only when all s = 0
    assert a_of_x(0, 1) == pytest.approx(64.0)  # r4(1)^2 with cap 1 = 8^2
    assert a_of_x(0, 2) > a_of_x(0, 1)
    with pytest.raises(ValueError):
        a_of_x(2, 0)


def test_a_of_x_brute_force():
    # independent accumulation straight off the shell elements
    n, X = 2, 12
    total = 0.0
    for k in range(1, X + 1):
        inner = 0.0
        for m in enumerate_shell(k, "integral").elements:
            s = (m.c2 ** 2 + m.c3 ** 2 + m.c4 ** 2) // 4
            inner += (n + 1) if s == 0 else min(n + 1.0, math.sqrt(k / s))
        total += inner * inner
    assert a_of_x(n, X) == pytest.approx(total, rel=1e-12)


def direct_a_prefix(n, limit):
    """A(1), ..., A(limit - 1) from one fresh accumulation in k order."""
    r3 = r3_counts(limit)
    direct, total = {}, 0.0
    for k in range(1, limit):
        inner = 0.0
        for m1 in range(0, math.isqrt(k) + 1):
            s = k - m1 * m1
            mult = 2 if m1 > 0 else 1
            if s == 0:
                inner += mult * (n + 1)
            elif r3[s]:
                inner += mult * int(r3[s]) * min(n + 1.0, math.sqrt(k / s))
        total += inner * inner
        direct[k] = total
    return direct


def test_a_of_x_prefix_is_the_direct_sum():
    # the cached running total adds the same floats in the same order as a
    # fresh accumulation up to X, so the values agree bit for bit
    direct = direct_a_prefix(64, 200)
    for X in (1, 2, 7, 16, 17, 64, 100, 128, 199):
        assert a_of_x(64, X) == direct[X]


def test_a_of_x_does_not_depend_on_the_order_of_reads(monkeypatch):
    # one running prefix per n, extended on demand: reading X downwards
    # from a fresh start, then upwards past it, gives the direct sums
    monkeypatch.setattr(gon, "_A_PREFIXES", {})
    direct = direct_a_prefix(128, 600)
    order = [300, 129, 64, 7, 1, 2, 65, 256, 513, 599]
    for X in order:
        assert a_of_x(128, X) == direct[X]
    assert len(gon._A_PREFIXES[128]) == 1025


@pytest.mark.parametrize("n", [0, 2, 256])
def test_a_of_x_across_blocks_is_the_direct_sum(monkeypatch, n):
    # A(1024) is built from tables of at most 2^14 terms, 33 values of m1
    # wide, so its k run over three blocks; every A(X) on the way is the
    # loop's float
    monkeypatch.setattr(gon, "_A_PREFIXES", {})
    direct = direct_a_prefix(n, 1025)
    assert a_of_x(n, 1024) == direct[1024]
    assert gon._A_PREFIXES[n][1:] == [direct[X] for X in range(1, 1025)]


def test_fit_constant():
    recs = [shell_class_count(k, 2) for k in range(1, 50)]
    c = fit_constant(recs)
    assert c == max(r.count / r.bound for r in recs)
    assert fit_constant([]) == 0.0


# ---------------------------------------------------------------------------
# bodies and minima


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4),
                max_size=6),
       st.booleans(), st.integers(0, 4), st.integers(-3, 3), st.integers(-3, 3))
def test_complement_accepts_exactly_the_rank_raising_vectors(
        rows, plant, zero_col, a, b):
    # optionally plant a dependent row and a zero column
    if plant and len(rows) >= 3:
        rows[2] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    if zero_col < 4:
        for r in rows:
            r[zero_col] = 0
    W = [[int(i == j) for j in range(4)] for i in range(4)]
    chosen = []
    for c in rows:
        rest = _complement(W, c)
        assert (rest is not None) == (fraction_rank(chosen + [c]) > len(chosen))
        if rest is not None:
            W = rest
            chosen.append(c)
        # W spans the orthogonal complement of the chosen vectors
        assert fraction_rank(W) == len(W) == 4 - len(chosen)
        assert all(sum(x * y for x, y in zip(w, v)) == 0 for w in W for v in chosen)
    assert len(chosen) == fraction_rank(rows)


def test_box_minima_identity_lattice():
    body = Box((1, 2, 3, 4))
    lams = successive_minima(np.eye(4, dtype=int), body)
    assert lams == pytest.approx((1 / 4, 1 / 3, 1 / 2, 1.0))


def test_box_minima_scaled_lattice():
    body = Box((1, 1, 1, 1))
    basis = np.diag([1, 2, 3, 10])
    lams = successive_minima(basis, body)
    assert lams == pytest.approx((1.0, 2.0, 3.0, 10.0))


def test_minima_unimodular_invariance():
    body = Box((2, 3, 1, 5))
    basis = np.diag([1, 1, 2, 1])
    U = np.array([[1, 1, 0, 0], [0, 1, 0, 0], [0, 3, 1, -1], [0, 0, 0, 1]])
    a = successive_minima(basis, body)
    b = successive_minima(basis @ U, body)  # columns span the lattice
    assert a == pytest.approx(b)


def test_cylinder_gauge_and_volume():
    body = CylinderSpec(M=2, R=2)
    assert body.gauge_sq((2, 0, 0, 0)) == Fraction(4, 4)
    assert body.gauge_sq((0, 1, 0, 0)) == Fraction(4, 4)
    assert body.volume() == pytest.approx(
        2 * math.sqrt(4.0) * (4 / 3) * math.pi)
    with pytest.raises(ValueError):
        CylinderSpec(M=2, R=3)


def test_lattice_point_count_box():
    body = Box((2, 2, 2, 2))
    assert lattice_point_count(np.eye(4, dtype=int), body) == 5 ** 4
    assert lattice_point_count(np.diag([1, 1, 1, 5]), body) == 5 ** 3


def test_lattice_point_count_cylinder():
    body = CylinderSpec(M=2, R=2)
    # |x1| <= 2, x2^2+x3^2+x4^2 <= 1: 5 * 7 points
    assert lattice_point_count(np.eye(4, dtype=int), body) == 35


def brute_lattice_count(basis, body, reach):
    # every integer point of the cube |v_i| <= reach with gauge at most 1
    # whose coordinates B^-1 v (Fractions) are integers
    # Gauss-Jordan over the rationals on [B | I]
    M = [[Fraction(int(a)) for a in r] + [Fraction(int(i == j)) for j in range(4)]
         for i, r in enumerate(np.asarray(basis))]
    for c in range(4):
        p = next(r for r in range(c, 4) if M[r][c])
        M[c], M[p] = M[p], M[c]
        M[c] = [x / M[c][c] for x in M[c]]
        for r in range(4):
            if r != c:
                M[r] = [a - M[r][c] * b for a, b in zip(M[r], M[c])]
    Binv = [r[4:] for r in M]
    ax = range(-reach, reach + 1)
    count = 0
    for v in np.stack(np.meshgrid(ax, ax, ax, ax, indexing="ij"),
                      axis=-1).reshape(-1, 4).tolist():
        if body.gauge_sq(v) <= 1 and all(
                sum(a * b for a, b in zip(row, v)).denominator == 1 for row in Binv):
            count += 1
    return count


def random_lattice(rng):
    while True:
        B = rng.integers(-2, 3, size=(4, 4))
        if gon_oracle.exact_rank(B.tolist()) == 4 and np.linalg.cond(B) < 8:
            return B


def test_lattice_point_count_matches_fraction_gauge():
    rng = np.random.default_rng(11)
    for _ in range(12):
        B = random_lattice(rng)
        for body in (Box(tuple(rng.integers(1, 4, size=4).tolist())),
                     CylinderSpec(int(rng.integers(1, 9)), int(2 ** rng.integers(0, 2)))):
            assert lattice_point_count(B, body) == brute_lattice_count(B, body, 4)


def test_lattice_point_count_keeps_the_boundary():
    Z = np.eye(4, dtype=int)
    # |v_i| = h_i on the box faces; v_1^2 = 2M and R^2 s = 2M on the cylinder
    for body in (Box((1, 2, 1, 3)), CylinderSpec(M=2, R=2),
                 CylinderSpec(M=8, R=1), CylinderSpec(M=9, R=2)):
        want = brute_lattice_count(Z, body, 5)
        assert lattice_point_count(Z, body) == want
    assert lattice_point_count(Z, Box((1, 2, 1, 3))) == 3 * 5 * 3 * 7
    assert lattice_point_count(Z, CylinderSpec(M=2, R=2)) == 35
    # 2M = 18: |v_1| <= 4, s <= 4 (r3 sums 1 + 6 + 12 + 8 + 6 = 33)
    assert lattice_point_count(Z, CylinderSpec(M=9, R=2)) == 9 * 33
    assert lattice_point_count(np.diag([2, 1, 1, 1]), CylinderSpec(M=2, R=2)) == 3 * 7


def test_lattice_points_beyond_int64_coord_use_python_integers():
    # lattice {(2^31 m, a, b, c)}: the coefficient box reaches |v_1| = 6 * 2^31,
    # whose square overflows int64, so the points are Python integers
    B = np.array([[2 ** 31, 2 ** 31, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    body = CylinderSpec(M=2 ** 62, R=2 ** 30)
    _, V = _box_points(B, (4, 2, 2, 2), 10 ** 7)
    assert V.dtype == object and np.abs(V).max() > INT64_COORD
    # m^2 <= 2 and a^2 + b^2 + c^2 <= 8: 3 * (1 + 6 + 12 + 8 + 6 + 24 + 24 + 12)
    assert lattice_point_count(B, body) == 3 * 93
    _, V = _box_points(np.eye(4, dtype=np.int64), (2, 2, 2, 2), 10 ** 7)
    assert V.dtype == np.int64


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
                min_size=4, max_size=4))
def test_adjugate_is_the_exact_inverse(rows):
    adj, d = _adjugate(tuple(a for r in rows for a in r))
    if fraction_rank(rows) < 4:
        assert (adj, d) == (None, 0)
        return
    prod = [[sum(a * b for a, b in zip(r, col)) for col in zip(*adj)] for r in rows]
    assert prod == [[d * (i == j) for j in range(4)] for i in range(4)]
    assert abs(d) == abs(round(np.linalg.det(np.array(rows, dtype=float))))


def test_float_singular_basis_is_reduced_first():
    # the float inverse of this unimodular basis is singular, and its
    # coefficient box is about 4e8 wide: its reduced basis enumerates Z^4
    body = Box((1, 1, 1, 1))
    assert _adjugate(tuple(np.ravel(FLOAT_DET_ZERO).tolist()))[1] in (1, -1)
    assert successive_minima(FLOAT_DET_ZERO, body) == (1.0, 1.0, 1.0, 1.0)
    assert lattice_point_count(FLOAT_DET_ZERO, body) == 81
    assert minkowski_sandwich(FLOAT_DET_ZERO, body)[1] == 16.0
    # it reduces to a signed permutation of the unit vectors
    assert (np.abs(np.array(_lll(FLOAT_DET_ZERO))).sum(axis=0) == 1).all()


def test_skewed_basis_fits_the_budget_after_reduction():
    lams = successive_minima(SKEWED, Box((2, 3, 1, 5)))
    assert lams == pytest.approx((0.2, 1 / 3, 0.5, 1.0))


def test_skewed_cylinder_is_charged_for_the_reduced_box():
    # SKEWED spans Z^4, so its reduced basis is a signed permutation of the
    # unit vectors.  The minima region is t * body with t = 1/2, the largest
    # gauge of a unit vector: the box 5 * 3 * 3 * 3 = 135.  The count region
    # is the body's own box 9 * 5 * 5 * 5 = 1125, where the given basis's box
    # held 725,679 points.
    body = CylinderSpec(M=8, R=2)
    gon._successive_minima.cache_clear()
    assert successive_minima(SKEWED, body, budget=10 ** 3) == (0.25, 0.5, 0.5, 0.5)
    assert successive_minima(SKEWED, body, budget=135) == (0.25, 0.5, 0.5, 0.5)
    with pytest.raises(CapacityError):
        successive_minima(SKEWED, body, budget=134)
    # |v_1| <= 4 and v_2^2 + v_3^2 + v_4^2 <= 4 (r3 sums 1 + 6 + 12 + 8 + 6)
    assert lattice_point_count(SKEWED, body, budget=1125) == 9 * 33
    with pytest.raises(CapacityError):
        lattice_point_count(SKEWED, body, budget=1124)


def test_minkowski_sandwich_identity():
    body = Box((1, 1, 1, 1))
    lo, mid, hi = minkowski_sandwich(np.eye(4, dtype=int), body)
    assert mid == pytest.approx(16.0)  # all minima 1, volume 16, covolume 1
    assert lo <= mid <= hi


def test_product_bound_examples():
    assert product_bound_check(np.eye(4, dtype=int), Box((3, 3, 3, 3)))
    assert product_bound_check(np.diag([1, 2, 4, 8]), CylinderSpec(M=8, R=2))


def test_capacity_error():
    body = Box((10 ** 4, 10 ** 4, 10 ** 4, 10 ** 4))
    with pytest.raises(CapacityError):
        lattice_point_count(np.eye(4, dtype=int), body, budget=10 ** 5)


def test_singular_basis_rejected():
    with pytest.raises(ValueError):
        successive_minima(np.zeros((4, 4), dtype=int), Box((1, 1, 1, 1)))


# exact rank 4 (det -1), but its float determinant is 0.0
FLOAT_DET_ZERO = [[10 ** 8 + 1, 10 ** 8, 0, 0], [10 ** 8, 10 ** 8 - 1, 0, 0],
                  [0, 0, 1, 0], [0, 0, 0, 1]]
# its cylinder region box holds 725,679 points, its box region 15.3M
SKEWED = [[1, 1, 0, 0], [0, 2, 1, 0], [0, 0, 1, 3], [1, 0, 0, 2]]
# the lattice {(2^31 m, a, b, c)}, whose points leave the int64 range
BEYOND_INT64 = [[2 ** 31, 2 ** 31, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                [0, 0, 0, 1]]
# columns (2^63 - 1, -2^62, 0, 0) and (2^63 - 1, 2^62, 0, 0): their difference
# (0, 2^63, 0, 0) is in every reduced basis, and outside int64
LEAVES_INT64 = [[2 ** 63 - 1, 2 ** 63 - 1, 0, 0], [-2 ** 62, 2 ** 62, 0, 0],
                [0, 0, 1, 0], [0, 0, 0, 1]]
# exact rank 3 (the last row is an integer combination of the first three),
# but its float determinant is about 5.98e7
FLOAT_DET_LARGE = [[-181602, 287657, 99187, -828522],
                   [-944882, 731176, 507026, 675769],
                   [76286, 635089, -340537, -94641],
                   [2395156, -2253303, -982167, -3589710]]


def test_nonsingularity_is_decided_exactly():
    assert round(np.linalg.det(np.array(FLOAT_DET_ZERO, dtype=float))) == 0
    assert round(np.linalg.det(np.array(FLOAT_DET_LARGE, dtype=float))) != 0
    assert _adjugate(tuple(np.ravel(FLOAT_DET_LARGE).tolist())) == (None, 0)
    body = Box((1, 1, 1, 1))
    # accepted, and its reduced basis (Z^4) fits a budget of 100 points
    assert successive_minima(FLOAT_DET_ZERO, body, budget=100) == (1.0, 1.0, 1.0, 1.0)
    for fn in (successive_minima, lattice_point_count):
        with pytest.raises(ValueError):
            fn(FLOAT_DET_LARGE, body)
        with pytest.raises(ValueError):
            fn(np.zeros((4, 4), dtype=int), body)
        with pytest.raises(ValueError):
            fn(np.eye(3, dtype=int), body)


def test_non_integer_basis_rejected():
    # a float entry is refused, not truncated to a basis of Z^4
    e = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    body = Box((1, 1, 1, 1))
    for basis in ([[1.5, 0, 0, 0]] + e, [[1.0, 0, 0, 0]] + e, np.eye(4),
                  [["1", 0, 0, 0]] + e):
        for fn in (successive_minima, lattice_point_count,
                   minkowski_sandwich, product_bound_check):
            with pytest.raises(ValueError):
                fn(basis, body)


def test_basis_entry_types():
    # Python ints, bools and numpy integer scalars are integral entries;
    # a Fraction, a float, a string or None is not, even when whole
    e = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    for first in (1, True, np.int64(1), np.uint8(1)):
        entries = gon._lattice_basis([[first, 0, 0, 0]] + e)
        assert entries == tuple(a for r in [[1, 0, 0, 0]] + e for a in r)
        assert all(type(a) is int for a in entries)
    for first in (Fraction(1), 1.0, np.float64(1), "1", None, 1 + 0j):
        with pytest.raises(ValueError):
            gon._lattice_basis([[first, 0, 0, 0]] + e)


def test_basis_beyond_int64_rejected():
    # refused with the bound named, not a raw OverflowError from the cast
    e = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    body = Box((1, 1, 1, 1))
    for basis in ([[2 ** 70, 0, 0, 0]] + e, [[2 ** 63, 0, 0, 0]] + e,
                  [[-2 ** 63 - 1, 0, 0, 0]] + e,
                  np.array([[2 ** 63, 0, 0, 0]] + e, dtype=np.uint64)):
        for fn in (successive_minima, lattice_point_count):
            with pytest.raises(ValueError, match="2\\^63"):
                fn(basis, body)
    # the int64 end points themselves are accepted
    assert lattice_point_count([[-2 ** 63, 0, 0, 0]] + e, body) == 27
    assert lattice_point_count([[2 ** 63 - 1, 0, 0, 0]] + e, body) == 27


def gon_results(basis, body):
    return (successive_minima(basis, body), lattice_point_count(basis, body),
            minkowski_sandwich(basis, body)[1], product_bound_check(basis, body))


def random_unimodular(rng):
    # a signed permutation with one column operation, as in the benchmark
    U = np.eye(4, dtype=np.int64)[rng.permutation(4)] * rng.choice([-1, 1], size=4)
    i, j = rng.choice(4, size=2, replace=False)
    U[:, j] += int(rng.integers(-3, 4)) * U[:, i]
    return U


def test_half_box_matches_the_full_box_oracle_on_random_lattices():
    rng = np.random.default_rng(23)
    for _ in range(30):
        B = random_lattice(rng) @ random_unimodular(rng)
        for body in (Box(tuple(rng.integers(1, 5, size=4).tolist())),
                     CylinderSpec(int(rng.integers(1, 17)),
                                  int(2 ** rng.integers(0, 3)))):
            assert gon_results(B, body) == gon_oracle.results(B, body)


@pytest.mark.parametrize("basis, body", [
    (FLOAT_DET_ZERO, Box((1, 1, 1, 1))),
    (SKEWED, CylinderSpec(M=8, R=2)),
    (SKEWED, Box((2, 3, 1, 5))),
    (BEYOND_INT64, CylinderSpec(M=2 ** 62, R=2 ** 30)),
])
def test_half_box_matches_the_full_box_oracle_on_hard_bases(basis, body):
    assert gon_results(basis, body) == gon_oracle.results(basis, body)


@pytest.mark.parametrize("radii", [(0, 0, 0, 0), (1, 0, 2, 0), (0, 0, 0, 3),
                                   (2, 2, 2, 2), (3, 1, 0, 2)])
def test_half_box_origin_and_negation_are_the_box(radii):
    # in "ij" order: the negated half reversed, the origin, the half
    Z = np.eye(4, dtype=np.int64)
    npts = math.prod(2 * r + 1 for r in radii)
    full, _ = gon_oracle.box_points(Z, radii, npts)
    C, V = _box_points(Z, radii, npts)
    assert np.array_equal(np.concatenate([-C[::-1], np.zeros((1, 4), int), C]), full)
    assert np.array_equal(V, C)
    with pytest.raises(CapacityError):
        _box_points(Z, radii, npts - 1)


def test_budget_is_charged_for_the_whole_box(monkeypatch):
    B, body = np.array(SKEWED), Box((1, 1, 1, 1))
    npts = len(gon_oracle.body_region(B, body, 1.0, 10 ** 6)[0])
    assert npts == 244881
    assert len(_body_region(B, body, 1.0, npts)[0]) == npts // 2
    with pytest.raises(CapacityError):
        _body_region(B, body, 1.0, npts - 1)
    want = gon_oracle.lattice_point_count(B, body)
    # the reduced basis spans Z^4: its box is 3^4 points, far below npts
    assert lattice_point_count(B, body, budget=npts - 1) == want
    assert lattice_point_count(B, body, budget=81) == want == 81


def test_one_reduction_per_lattice(monkeypatch):
    calls = []

    def spy(rows):
        calls.append(rows)
        return _lll(rows)

    monkeypatch.setattr(gon, "_lll", spy)
    _reduced.cache_clear()
    gon._successive_minima.cache_clear()
    body = CylinderSpec(M=8, R=2)
    for basis in (SKEWED, np.array(SKEWED)):
        successive_minima(basis, body)
        lattice_point_count(basis, body)
        minkowski_sandwich(basis, body)
        product_bound_check(basis, body)
    assert calls == [list(zip(*SKEWED))]


def fraction_gram_schmidt(rows):
    # reference: mu_ij and |b*_i|^2 of the rows in exact rationals
    star, mu = [], [[Fraction(0)] * len(rows) for _ in rows]
    for i, b in enumerate(rows):
        v = [Fraction(a) for a in b]
        for j in range(i):
            mu[i][j] = (sum(x * y for x, y in zip(b, star[j]))
                        / sum(y * y for y in star[j]))
            v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
        star.append(v)
    return mu, [sum(x * x for x in v) for v in star]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.one_of(st.integers(-3, 3),
                                   st.integers(-10 ** 12, 10 ** 12)),
                         min_size=4, max_size=4), min_size=4, max_size=4))
@example(SKEWED)
@example(FLOAT_DET_ZERO)
@example(BEYOND_INT64)
@example(LEAVES_INT64)
def test_lll_is_a_reduced_basis_of_the_lattice(rows):
    adj, d = _adjugate(tuple(a for r in rows for a in r))
    assume(d != 0)
    out = _lll(rows)
    assert all(type(a) is int for r in out for a in r)
    # the same lattice: out = U rows with U = out adj / d integral and
    # |det out| = |det rows|, so U is unimodular
    assert all(sum(x * y for x, y in zip(r, col)) % d == 0
               for r in out for col in zip(*adj))
    assert abs(_adjugate(tuple(a for r in out for a in r))[1]) == abs(d)
    # size-reduced and Lovasz (delta = 3/4), decided in exact rationals
    mu, norms = fraction_gram_schmidt(out)
    assert all(abs(mu[i][j]) <= Fraction(1, 2) for i in range(4) for j in range(i))
    assert all(norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]
               for k in range(1, 4))


def test_reduced_basis_may_leave_int64():
    # the reduced basis of this int64 lattice holds the entry 2^63, so it
    # stays on Python integers; the count runs on it like any other
    R = _reduced(tuple(a for r in LEAVES_INT64 for a in r))
    assert R.dtype == object and 2 ** 63 in R.ravel().tolist()
    body = Box((1, 1, 1, 1))
    assert lattice_point_count(LEAVES_INT64, body) == 9
    assert gon_oracle.lattice_point_count(LEAVES_INT64, body) == 9


def test_box_is_normalised():
    body = Box([1, 2, 3, 4])
    assert body.h == (1, 2, 3, 4) and type(body.h) is tuple
    assert all(type(x) is int for x in Box(np.array([2, 3, 1, 5])).h)
    assert hash(body) == hash(Box((1, 2, 3, 4)))
    for h in ((1, 2, 3), (1, 2, 3, 4, 5), (0, 1, 1, 1), (1, -2, 1, 1),
              (1.5, 1, 1, 1), ("1", 1, 1, 1)):
        with pytest.raises(ValueError):
            Box(h)


def test_minima_memo_key_is_the_basis_entries():
    body = CylinderSpec(M=8, R=2)
    rows = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 6, 2, -2], [0, 0, 0, 1]]
    a = successive_minima(rows, body)
    assert successive_minima(np.array(rows), body) == a
    assert successive_minima(tuple(map(tuple, rows)), body) == a
    assert successive_minima(np.array(rows, dtype=np.int32), body) == a


def test_minima_memo_keeps_the_budget():
    body = Box((3, 3, 3, 3))
    basis = np.diag([1, 1, 2, 1])
    successive_minima(basis, body)
    with pytest.raises(CapacityError):
        successive_minima(basis, body, budget=100)


def test_one_enumeration_per_lattice():
    gon._successive_minima.cache_clear()
    basis, body = np.diag([1, 2, 4, 8]), CylinderSpec(M=8, R=2)
    lams = successive_minima(basis, body)
    minkowski_sandwich(basis, body)
    assert product_bound_check(basis, body)
    info = gon._successive_minima.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert successive_minima(basis, body) == lams


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 40), st.integers(0, 4))
def test_class_nesting(k, i):
    # C(2R) is contained in C(R), so counts are monotone in R
    a = shell_class_count(k, 2 ** i).count
    b = shell_class_count(k, 2 ** (i + 1)).count
    assert b <= a
