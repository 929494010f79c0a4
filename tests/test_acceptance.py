"""Acceptance suite: one test per headline criterion, one PASS/FAIL line each.

Criterion 10 asserts both moment slopes.  The family moment is
basis-free: it equals the sum over flagged blocks of (dim V_lambda)^2, and
the flagged dimension is exactly inv(n) (n + 1) with
inv(n) = (n + 1 + 3 (-1)^(n/2)) / 4, so the flagged share of the spectrum
oscillates toward 1/4 rather than shrinking.  The plain fourth moment is
only defined once a basis inside each eigenspace is fixed; it is taken in
the pinned product basis documented in ``hecke_sphere.moments``.
"""

import math
import sys

import numpy as np
import pytest

from hecke_sphere import theta
from hecke_sphere.cli import main as cli_main
from hecke_sphere.gon import (
    CylinderSpec, a_of_x, dyadic_class_count, fit_constant,
    minkowski_sandwich, product_bound_check, shell_class_count,
    successive_minima,
)
from hecke_sphere.hecke import (
    decompose, hecke_relations_check, selfadjoint_check, t1_vanishing,
)
from hecke_sphere.moments import (
    growth_fit, moment_sweep, pretrace_residual, sphere_grid,
)
from hecke_sphere.quat import r4_count
from hecke_sphere.theta import (
    modularity_check, petersson_estimate, spectral_coefficient,
    theta_coefficient,
)


def report(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


def test_criterion_01_jacobi_oracle():
    def sigma(k):
        t, d = 0, 1
        while d * d <= k:
            if k % d == 0:
                t += d + (k // d if d * d != k else 0)
            d += 1
        return t

    bad = [k for k in range(1, 2001, 2) if r4_count(k) != 8 * sigma(k)]
    report(1, "jacobi-oracle", not bad, "r4(k) = 8 sigma(k), odd k <= 2000")
    assert not bad


def test_criterion_02_hecke_algebra():
    ok = True
    for n in (2, 4, 6, 8, 10):
        rep = hecke_relations_check(n, primes=(3, 5, 7))
        ok = ok and rep["all_pass"]
        ok = ok and all(selfadjoint_check(n, N) for N in (1, 3, 5, 7, 9, 15))
    report(2, "hecke-algebra", ok,
           "exact products, recursion, commutators, self-adjointness")
    assert ok


def test_criterion_03_t1_odd_vanishing():
    ok = all(t1_vanishing(n) for n in (1, 3, 5, 7))
    report(3, "t1-odd-vanishing", ok, "exact zero matrix, n in {1,3,5,7}")
    assert ok


def test_criterion_04_pretrace():
    worst = 0.0
    ok = True
    for n in range(2, 17, 2):
        dec = decompose(n, primes=(3, 5))
        xs = sphere_grid(100, seed=11)
        ys = sphere_grid(100, seed=12)
        res = pretrace_residual(dec, xs, ys)
        worst = max(worst, res / (n + 1) ** 2)
        ok = ok and res <= 1e-8 * (n + 1) ** 2
    report(4, "pretrace-formula", ok,
           f"worst relative residual {worst:.2e} <= 1e-8")
    assert ok


def test_criterion_05_central_identity():
    points = [(1, 0, 0, 0), (1, 2, 2, 0), (3, 4, 0, 0)]  # norms 1, 9, 25
    pairs = [(p, p) for p in points] + [((1, 2, 2, 0), (1, 0, 0, 0))]
    worst = 0.0
    ok = True
    ks = range(1, 41)
    for n in (2, 4, 6, 8):
        dec = decompose(n, primes=(3, 5))
        for x, y in pairs:
            for k, sv in zip(ks, spectral_coefficient(x, y, ks, dec)):
                tv = theta_coefficient(n, x, y, k).float_value
                err = abs(sv - tv) / (1 + abs(tv))
                worst = max(worst, err)
                ok = ok and err <= 1e-8
    report(5, "central-identity", ok,
           f"worst normalised gap {worst:.2e} <= 1e-8, k <= 40")
    assert ok


def test_criterion_06_modularity():
    gamma = ((1, 0), (4, 1))
    z = 0.5j
    ok = True
    details = []
    for n in (2, 4):
        r = modularity_check(n, gamma, z)
        ok = ok and r.residual <= 1e-6 and r.tail_bound < 1e-8
        details.append(f"n={n}: res {r.residual:.1e}, tail {r.tail_bound:.1e}")
    report(6, "modularity", ok, "; ".join(details))
    assert ok


def test_criterion_07_counting_bounds():
    shell = [shell_class_count(k, 2 ** b)
             for k in range(1, 4097) for b in range(7)]
    dyadic = [dyadic_class_count(2 ** a, 2 ** b)
              for a in range(4, 13) for b in range(7)]
    C = max(fit_constant(shell), fit_constant(dyadic))
    ok = C <= 64
    report(7, "counting-bounds", ok, f"fitted constant {C:.2f} <= 64")
    assert ok


def test_criterion_08_geometry_of_numbers():
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(50):
        B = np.diag(rng.integers(1, 5, size=4))
        for _ in range(5):
            i, j = rng.integers(0, 4, size=2)
            if i != j:
                B[i] += int(rng.integers(-1, 2)) * B[j]
        if rng.integers(0, 2):
            B[[0, 1]] = B[[1, 0]]
        M = int(rng.integers(2, 17))
        R = int(2 ** rng.integers(0, 3))
        body = CylinderSpec(M=M, R=R)
        lams = successive_minima(B, body)
        lo, mid, hi = minkowski_sandwich(B, body)
        ok = ok and lo <= mid * (1 + 1e-9) and mid <= hi * (1 + 1e-9)
        ok = ok and all(a <= b * (1 + 1e-12) for a, b in zip(lams, lams[1:]))
        ok = ok and product_bound_check(B, body)
    report(8, "minkowski-and-product-bound", ok, "50 fixed-seed instances")
    assert ok


def test_criterion_09_growth_a_of_x_and_petersson():
    ok = True
    details = []
    for n in (64, 128, 256):
        xs = list(range(max(n // 8, 2), n + 1, max(n // 64, 1)))
        slope, _, _ = growth_fit(xs, [a_of_x(n, X) for X in xs])
        ok = ok and 2.5 <= slope <= 3.2
        details.append(f"A(X) n={n}: {slope:.2f}")
    ns = list(range(8, 65, 2))
    rhos = [petersson_estimate(n, 10 * n).rho for n in ns]
    rslope, _, _ = growth_fit(ns, rhos)
    ok = ok and rslope <= 1.5
    details.append(f"rho slope {rslope:.2f} <= 1.5")
    report(9, "growth-rates", ok, "; ".join(details))
    assert ok


def test_criterion_10_moment_growth():
    grid = sphere_grid(5000, seed=7)
    ns = list(range(2, 25, 2))
    fam, fourth = {}, {}
    closure_ok = True
    for n in ns:
        dec = decompose(n, primes=(3, 5))
        rep = moment_sweep(dec, grid, seed=7)
        closure_ok = closure_ok and rep.closure_error < 1e-7
        fam[n] = rep.sup_family
        fourth[n] = rep.sup_fourth
    # n = 2 contributes no flagged eigenvalue class at all (its family
    # statistics are exactly zero), so the log fits start at n = 4
    fit_ns = [n for n in ns if fam[n] > 0]
    fam_slope, _, _ = growth_fit(fit_ns, [fam[n] for n in fit_ns])
    fourth_slope, _, _ = growth_fit(fit_ns, [fourth[n] for n in fit_ns])
    fam_ok = 2.0 <= fam_slope <= 3.5
    fourth_ok = 2.0 <= fourth_slope <= 3.5
    ok = closure_ok and fam_ok and fourth_ok
    report(10, "moment-growth", ok,
           f"family slope {fam_slope:.2f} ({'ok' if fam_ok else 'out'}), "
           f"fourth slope {fourth_slope:.2f} ({'ok' if fourth_ok else 'out'}), "
           f"closure {'ok' if closure_ok else 'violated'}")
    assert ok


def test_criterion_11_determinism(tmp_path):
    matrix = [
        ("petersson", "--n", "12", "--cutoff", "120"),
        ("counting", "--cutoff", "64"),
        ("moments", "--n", "4", "--grid", "300", "--seed", "7"),
        ("pretrace-check", "--n", "4", "--pairs", "25"),
        ("theta-identity", "--n", "2", "--cutoff", "5"),
        ("shells", "--k", "10"),
    ]
    ok = True
    for argv in matrix:
        d1, d2 = tmp_path / "run1", tmp_path / "run2"
        for d in (d1, d2):
            # each run computes its Petersson estimates afresh
            theta._petersson_estimate.cache_clear()
            cli_main(list(argv) + ["--out", str(d)])
            ok = ok and theta._petersson_estimate.cache_info().hits == 0
        csvs = sorted(p.name for p in d1.glob("*.csv"))
        ok = ok and csvs == sorted(p.name for p in d2.glob("*.csv"))
        for name in csvs:
            # the leading comment embeds the resolved config, including the
            # differing --out paths; the body below it must match exactly
            b1 = (d1 / name).read_bytes().split(b"\n", 1)[1]
            b2 = (d2 / name).read_bytes().split(b"\n", 1)[1]
            ok = ok and b1 == b2
    report(11, "determinism", ok, "byte-identical CSV bodies on re-run")
    assert ok
