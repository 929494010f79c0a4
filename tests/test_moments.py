import dataclasses

import numpy as np
import pytest

import dense_oracle
from dense_oracle import _right_j
from hecke_sphere import moments
from hecke_sphere.hecke import (
    DegeneracyError, EigenSpace, decompose, hecke_eigenvalues, unit_classes,
)
from hecke_sphere.moments import (
    ClosureError, eigen_values, growth_fit, moment_sweep, pretrace_residual,
    sphere_grid,
)
from hecke_sphere.poly import harmonic_basis
from hecke_sphere.quat import enumerate_shell
from poly_oracle import Poly4, basis_polys, gram_diagonal


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


def _ascend_one_step(n, R, x, steps):
    """Coordinate ascent scoring the eight moves of one step per call."""
    best = x / np.linalg.norm(x)
    val = float(moments._block_stats(n, R, R.shape[1], best[None, :])[0][0])
    step = 0.05
    for _ in range(steps):
        cands = np.vstack([best + d * step * e
                           for e in np.eye(4) for d in (1.0, -1.0)])
        cands /= np.linalg.norm(cands, axis=1, keepdims=True)
        stat = moments._block_stats(n, R, R.shape[1], cands)[0]
        i = int(np.argmax(stat))
        if stat[i] > val:
            best, val = cands[i], float(stat[i])
        else:
            step *= 0.5
    return val


@pytest.mark.parametrize("n", [4, 6, 8])
def test_ascent_matches_one_step_per_call(n, monkeypatch):
    # scoring three step sizes per call takes the same path, in fewer calls
    R = np.hstack([sp.basis for sp in decompose(n, primes=(3, 5)).spaces
                   if sp.t1_flag])
    calls = []
    stats = moments._block_stats

    def spy(*args):
        calls.append(len(args[3]))
        return stats(*args)

    long_calls = 0
    for seed in range(3):
        x = sphere_grid(1, seed=seed)[0]
        for steps in (0, 1, 2, 3, 20):
            ref = _ascend_one_step(n, R, x, steps)
            monkeypatch.setattr(moments, "_block_stats", spy)
            calls.clear()
            assert moments._ascend(n, R, x, steps) == ref
            monkeypatch.setattr(moments, "_block_stats", stats)
            assert calls[0] == 1 and len(calls) <= 1 + steps
        long_calls += len(calls)  # those of the 20-step ascent
    assert long_calls < 3 * 21


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


def test_closure_loss_raises(dec6):
    # a basis 1% too long puts every closure sum 2% off (n+1)^2
    spaces = tuple(dataclasses.replace(sp, basis=1.01 * sp.basis)
                   for sp in dec6.spaces)
    scaled = dataclasses.replace(dec6, spaces=spaces)
    with pytest.raises(ClosureError, match="closure error 2.01e-02 at n=6"):
        moment_sweep(6, scaled, sphere_grid(64, seed=5), seed=5)


def test_eigen_values_past_int64_weights():
    # (n + 1) C(n, a) 2 outgrows int64 at n = 62; R = I spans all of W, so
    # the closure sums need no decomposition
    F = eigen_values(64, np.eye(65), sphere_grid(200, seed=3))
    closure = np.einsum("jkap,jkap->p", F, F)
    assert np.abs(closure - 65 ** 2).max() <= 1e-8 * 65 ** 2


@pytest.mark.parametrize("n", (4, 6, 8))
def test_right_j_is_exact_signed_permutation(n):
    # basis[i](x j) = sign[i] * basis[perm[i]] with x j = (-x3, -x4, x1, x2)
    hb = harmonic_basis(n)
    perm, sign = _right_j(hb)
    assert sorted(perm) == list(range(hb.dim))
    basis = basis_polys(n)
    for i, p in enumerate(basis):
        image = Poly4(n, {(al[2], al[3], al[0], al[1]): (-1) ** (al[0] + al[1]) * v
                          for al, v in p.coeffs.items()})
        assert image == basis[perm[i]].scale(int(sign[i]))
        assert gram_diagonal(n)[i] == gram_diagonal(n)[perm[i]]


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
        k = sp.basis.shape[1]
        O, _ = np.linalg.qr(rng.standard_normal((k, k)))
        spaces.append(dataclasses.replace(sp, basis=sp.basis @ O))
    return dataclasses.replace(dec, spaces=tuple(spaces))


@pytest.mark.parametrize("n", (6, 8))
def test_pinned_statistics_basis_invariant(n):
    # n = 8 has a flagged block with dim W = 2, split only by left u
    grid = sphere_grid(500, seed=7)
    dec = decompose(n, primes=(3, 5))
    ref = moment_sweep(n, dec, grid, seed=7)
    # every flagged block at n = 6 has dim W = 1: a rotation only flips signs
    others = [_rotated(dec, 1), _rotated(dec, 2)] if n == 6 else []
    for other in others:
        rep = moment_sweep(n, other, grid, seed=7)
        for stat in ("sup_family", "sup_fourth", "sup_individual"):
            assert getattr(rep, stat) == pytest.approx(getattr(ref, stat),
                                                       rel=1e-9)
    if n == 8:
        # a rotation mixes the two u classes of the dim-2 block: refused
        # rather than pinned again
        for seed in (1, 2):
            with pytest.raises(DegeneracyError, match="n=8: a flagged block"):
                moment_sweep(n, _rotated(dec, seed), grid, seed=7)


@pytest.mark.parametrize("n", (4, 6, 8))
def test_pinned_basis_spans_each_block(n):
    dec = decompose(n, primes=(3, 5))
    cls = unit_classes(n)
    for sp in dec.spaces:
        dim = sp.basis.shape[1]
        assert np.allclose(sp.basis.T @ sp.basis, np.eye(dim), atol=1e-10)
        if sp.t1_flag:
            # each vector lies in one even class of the sign of u, and no
            # two vectors of a block share one
            own = [{int(c) for c in cls[np.abs(col) > 1e-12]}
                   for col in sp.basis.T]
            assert all(len(c) == 1 and c <= {0, 2} for c in own)
            assert len(set.union(*own)) == dim


def test_family_sup_is_sum_of_squared_dimensions():
    dec = decompose(8, primes=(3, 5))
    rep = moment_sweep(8, dec, sphere_grid(200, seed=7), seed=7)
    dims = [sp.multiplicity for sp in dec.spaces if sp.t1_flag]
    assert rep.sup_family == sum(d * d for d in dims)


def test_unsplit_block_raises():
    # merging the two flagged blocks at n = 8 gives dim W = 3, two columns
    # of it in one sign class of left u
    dec = decompose(8, primes=(3, 5))
    flagged = [sp for sp in dec.spaces if sp.t1_flag]
    merged = EigenSpace(lams=flagged[0].lams, t1_flag=1,
                        basis=np.hstack([sp.basis for sp in flagged]))
    bad = dataclasses.replace(dec, spaces=(merged,))
    with pytest.raises(DegeneracyError, match="flagged block of dim W = 3"):
        moment_sweep(8, bad, sphere_grid(20, seed=7))


def test_dense_oracle_unsplit_block_raises():
    dec = dense_oracle.decompose(8, primes=(3, 5))
    flagged = [sp for sp in dec.spaces if sp.t1_flag]
    merged = dense_oracle.DenseSpace(
        lams=flagged[0].lams, t1_flag=1,
        vectors=np.hstack([sp.vectors for sp in flagged]))
    with pytest.raises(DegeneracyError):
        dense_oracle.pinned_blocks(dataclasses.replace(dec, spaces=(merged,)))


def _left_mul(m, x):
    """Coordinates of the quaternion product m x, m integral, x float."""
    w1, w2, w3, w4 = m.int_coords
    return np.stack([w1 * x[:, 0] - w2 * x[:, 1] - w3 * x[:, 2] - w4 * x[:, 3],
                     w2 * x[:, 0] + w1 * x[:, 1] - w4 * x[:, 2] + w3 * x[:, 3],
                     w3 * x[:, 0] + w4 * x[:, 1] + w1 * x[:, 2] - w2 * x[:, 3],
                     w4 * x[:, 0] - w3 * x[:, 1] + w2 * x[:, 2] + w1 * x[:, 3]],
                    axis=1)


@pytest.mark.parametrize("n", (4, 6, 8))
def test_eigenfunctions_satisfy_the_shell_sum(n):
    # T_N phi(x) = (1/8) sum_{nr(m)=N} phi(m x / sqrt N) = lambda_N phi(x),
    # summed over the shell itself rather than through S_N
    dec = decompose(n, primes=(3, 5))
    (lam9,) = hecke_eigenvalues(dec, [9])
    xs = sphere_grid(6, seed=3)
    for N in (3, 5, 9):
        images = [_left_mul(m, xs) / np.sqrt(N)
                  for m in enumerate_shell(N, "integral").elements]
        for sp, l9 in zip(dec.spaces, lam9):
            lams = {**sp.lams, 9: l9}
            phi = eigen_values(n, sp.basis, xs)
            Tphi = sum(eigen_values(n, sp.basis, y) for y in images) / 8
            assert np.abs(Tphi - lams[N] * phi).max() < 1e-10 * (n + 1)


def test_eigenfunctions_are_real_parts_fixed_by_right_j():
    # the pinned lines Re g_a and Im g_a have eigenvalues +1 and -1 under
    # x -> x j = (-x3, -x4, x1, x2)
    n = 8
    dec = decompose(n, primes=(3, 5))
    xs = sphere_grid(20, seed=4)
    xj = np.stack([-xs[:, 2], -xs[:, 3], xs[:, 0], xs[:, 1]], axis=1)
    R = np.hstack([sp.basis for sp in dec.spaces])
    F, Fj = eigen_values(n, R, xs), eigen_values(n, R, xj)
    assert np.allclose(Fj[0], F[0], atol=1e-12)
    assert np.allclose(Fj[1], -F[1], atol=1e-12)


@pytest.fixture(scope="module")
def grid7():
    return sphere_grid(5000, seed=7)


@pytest.mark.parametrize("n", (2, 6, 10, 16, 24))
def test_moments_match_dense_oracle(n, grid7):
    rep = moment_sweep(n, decompose(n, primes=(3, 5)), grid7, seed=7)
    ref = dense_oracle.moment_sweep(
        n, dense_oracle.decompose(n, primes=(3, 5)), grid7, seed=7)
    assert rep.sup_family == ref.sup_family
    for stat in ("sup_fourth", "sup_individual"):
        assert getattr(rep, stat) == pytest.approx(getattr(ref, stat),
                                                   rel=1e-9)
    # closure_error is itself relative to (n+1)^2: this is rel 1e-9 on the
    # closure sums
    assert abs(rep.closure_error - ref.closure_error) <= 1e-9


@pytest.mark.parametrize("n", (4, 10))
def test_pretrace_matches_dense_oracle(n):
    xs, ys = sphere_grid(50, seed=1), sphere_grid(50, seed=2)
    dec = decompose(n, primes=(3, 5))
    R = np.hstack([sp.basis for sp in dec.spaces])
    F = eigen_values(n, R, np.vstack([xs, ys]))
    lhs = np.einsum("jkap,jkap->p", F[..., :50], F[..., 50:])
    ref = dense_oracle.pretrace_sum(dense_oracle.decompose(n), xs, ys)
    assert np.allclose(lhs, ref, rtol=0, atol=1e-10 * (n + 1) ** 2)
    assert pretrace_residual(dec, xs, ys) < 1e-10 * (n + 1) ** 2


def test_closure_at_degree_128():
    # the monomial-basis products put this closure 5.5e3 off at n = 128;
    # the factorised evaluator keeps it at roundoff
    F = eigen_values(128, np.eye(129), sphere_grid(500, seed=7))
    closure = np.einsum("jkap,jkap->p", F, F)
    assert np.abs(closure - 129 ** 2).max() < moments.CLOSURE_TOL * 129 ** 2
