import dataclasses

import numpy as np
import pytest

from hecke_sphere.hecke import DegeneracyError, EigenSpace, decompose
from hecke_sphere.moments import (
    _right_j, growth_fit, moment_sweep, pinned_blocks, pretrace_residual,
    sphere_grid,
)
from hecke_sphere.poly import Poly4, harmonic_basis


def test_grid_deterministic_and_unit():
    a = sphere_grid(100, seed=7)
    b = sphere_grid(100, seed=7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sphere_grid(100, seed=8))
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0)
    assert a.shape == (100, 4)


def test_growth_fit_recovers_power_law():
    ns = [4, 8, 12, 16, 24]
    slope, intercept, resid = growth_fit(ns, [2.0 * n ** 3 for n in ns])
    assert slope == pytest.approx(3.0, abs=1e-9)
    assert intercept == pytest.approx(np.log(2.0), abs=1e-9)
    assert np.abs(resid).max() < 1e-12


def test_growth_fit_flat():
    slope, _, _ = growth_fit([2, 4, 6, 8], [5.0] * 4)
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_growth_fit_needs_four_points():
    with pytest.raises(ValueError):
        growth_fit([2, 4, 6], [1.0, 2.0, 3.0])


@pytest.fixture(scope="module")
def dec6():
    return decompose(6, primes=(3, 5))


def test_sweep_invariants(dec6):
    grid = sphere_grid(500, seed=7)
    rep = moment_sweep(6, dec6, grid, seed=7)
    assert rep.closure_error < 1e-10
    # Cauchy-Schwarz inside each family block: fourth <= family sup
    assert rep.sup_fourth <= rep.sup_family + 1e-9
    # sup over a nonnegative statistic never drops under refinement
    assert rep.sup_individual > 0


def test_sweep_refinement_monotone(dec6):
    grid = sphere_grid(200, seed=3)
    raw = moment_sweep(6, dec6, grid, seed=3, refine_steps=0)
    refined = moment_sweep(6, dec6, grid, seed=3, refine_steps=20)
    assert refined.sup_family >= raw.sup_family - 1e-12
    assert refined.sup_fourth >= raw.sup_fourth - 1e-12


def test_sweep_rejects_mismatched_degree(dec6):
    with pytest.raises(ValueError):
        moment_sweep(4, dec6, sphere_grid(10))
    with pytest.raises(ValueError):
        moment_sweep(6, dec6, np.empty((0, 4)))


def test_pretrace_residual_small(dec6):
    xs = sphere_grid(50, seed=1)
    ys = sphere_grid(50, seed=2)
    assert pretrace_residual(dec6, xs, ys) < 1e-10 * (6 + 1) ** 2
    assert pretrace_residual(dec6, xs, xs) < 1e-10 * (6 + 1) ** 2


def test_closure_target(dec6):
    # sum over ALL eigenfunctions of phi^2 is the constant (n+1)^2
    grid = sphere_grid(64, seed=5)
    rep = moment_sweep(6, dec6, grid, seed=5)
    assert rep.closure_error < 1e-10


@pytest.mark.parametrize("n", (4, 6, 8))
def test_right_j_is_exact_signed_permutation(n):
    # basis[i](x j) = sign[i] * basis[perm[i]] with x j = (-x3, -x4, x1, x2)
    hb = harmonic_basis(n)
    perm, sign = _right_j(hb)
    assert sorted(perm) == list(range(hb.dim))
    for i, p in enumerate(hb.basis):
        image = Poly4(n, {(al[2], al[3], al[0], al[1]): (-1) ** (al[0] + al[1]) * v
                          for al, v in p.coeffs.items()})
        assert image == hb.basis[perm[i]].scale(int(sign[i]))
        assert hb.gram[i] == hb.gram[perm[i]]


@pytest.mark.parametrize("n", (4, 6, 8, 10))
def test_flagged_dimension(n):
    # inv(n) = (n + 1 + 3 (-1)^(n/2)) / 4 flagged lines of W, each (n+1) times
    dec = decompose(n, primes=(3, 5))
    flagged = sum(sp.multiplicity for sp in dec.spaces if sp.t1_flag)
    assert flagged == (n + 1 + 3 * (-1) ** (n // 2)) // 4 * (n + 1)


def _rotated(dec, seed):
    rng = np.random.default_rng(seed)
    spaces = []
    for sp in dec.spaces:
        O, _ = np.linalg.qr(rng.standard_normal((sp.multiplicity,) * 2))
        spaces.append(dataclasses.replace(sp, vectors=sp.vectors @ O))
    return dataclasses.replace(dec, spaces=tuple(spaces))


@pytest.mark.parametrize("n", (6, 8))
def test_pinned_statistics_basis_invariant(n):
    # n = 8 has a flagged block with dim W = 2, split only by left u
    grid = sphere_grid(500, seed=7)
    dec = decompose(n, primes=(3, 5), seed=0)
    ref = moment_sweep(n, dec, grid, seed=7)
    others = [decompose(n, primes=(3, 5), seed=1), _rotated(dec, 1),
              _rotated(dec, 2)]
    for other in others:
        rep = moment_sweep(n, other, grid, seed=7)
        for stat in ("sup_family", "sup_fourth", "sup_individual"):
            assert getattr(rep, stat) == pytest.approx(getattr(ref, stat),
                                                       rel=1e-9)


@pytest.mark.parametrize("n", (4, 6, 8))
def test_pinned_basis_spans_each_block(n):
    dec = decompose(n, primes=(3, 5))
    hb = harmonic_basis(n)
    sqrt_g = np.sqrt(np.array(hb.gram, dtype=float))
    for sp, (vecs, flag) in zip(dec.spaces, pinned_blocks(dec)):
        assert flag == sp.t1_flag
        Q, V = sqrt_g[:, None] * sp.vectors, sqrt_g[:, None] * vecs
        assert np.allclose(V.T @ V, np.eye(sp.multiplicity), atol=1e-10)
        assert np.allclose(V @ V.T, Q @ Q.T, atol=1e-10)


def test_family_sup_is_sum_of_squared_dimensions():
    dec = decompose(8, primes=(3, 5))
    rep = moment_sweep(8, dec, sphere_grid(200, seed=7), seed=7)
    dims = [sp.multiplicity for sp in dec.spaces if sp.t1_flag]
    assert rep.sup_family == sum(d * d for d in dims)


def test_unsplit_block_raises():
    # merging the two flagged blocks at n = 8 gives dim W = 3, which the
    # pinning operators cannot split into lines
    dec = decompose(8, primes=(3, 5))
    flagged = [sp for sp in dec.spaces if sp.t1_flag]
    merged = EigenSpace(lams=flagged[0].lams, t1_flag=1,
                        vectors=np.hstack([sp.vectors for sp in flagged]))
    bad = dataclasses.replace(dec, spaces=(merged,))
    with pytest.raises(DegeneracyError):
        pinned_blocks(bad)
