import numpy as np
import pytest

from patchep.kl_updates import (
    diag_kl_update,
    iso_kl_update,
    kl_block_loss,
    update_block_precision,
)

from conftest import random_spd

EPS_I = lambda d: 1e-12 * np.eye(d)  # noqa: E731


class TestBlockLoss:
    def test_identity_case(self):
        loss = kl_block_loss(np.eye(2), EPS_I(2), np.eye(2))
        assert abs(loss - 2.0) < 1e-9  # -log det I + tr I

    def test_minimizer_is_inverse_tilted_cov(self, rng):
        cov = random_spd(rng, 3)
        opt = np.linalg.inv(cov)
        loss_opt = kl_block_loss(opt, EPS_I(3), cov)
        for _ in range(20):
            other = random_spd(rng, 3)
            assert kl_block_loss(other, EPS_I(3), cov) >= loss_opt - 1e-9

    def test_gradient_matches_finite_differences(self, rng):
        # oracle: central differences of the loss along coordinate directions
        d = 3
        omega = random_spd(rng, d)
        cav = random_spd(rng, d, 0.5)
        cov = random_spd(rng, d, 0.3)
        grad = cov - np.linalg.inv(omega + cav)
        h = 1e-6
        for i in range(d):
            for j in range(d):
                e = np.zeros((d, d))
                e[i, j] = h
                fd = (kl_block_loss(omega + e, cav, cov)
                      - kl_block_loss(omega - e, cav, cov)) / (2 * h)
                assert abs(fd - grad[i, j]) < 1e-5

    def test_non_pd_sum_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            kl_block_loss(-np.eye(2), EPS_I(2), np.eye(2))


def chol_param_oracle(cov, cav, init):
    """Independent minimizer: Nelder-Mead over the Cholesky factor of the
    precision, which makes positive definiteness unconstrained."""
    from scipy.optimize import minimize

    d = cov.shape[0]
    tril = np.tril_indices(d)

    def loss(x):
        low = np.zeros((d, d))
        low[tril] = x
        total = low @ low.T + cav
        sign, logdet = np.linalg.slogdet(total)
        if sign <= 0:
            return 1e12
        return -logdet + np.trace(total @ cov)

    x0 = np.linalg.cholesky(init)[tril]
    res = minimize(loss, x0, method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000})
    low = np.zeros((d, d))
    low[tril] = res.x
    return low @ low.T


class TestUpdateBlockPrecision:
    def test_unconstrained_optimum(self):
        out = update_block_precision(np.diag([2.0, 2.0]), EPS_I(2), np.eye(2),
                                     max_iters=500, tol=1e-14)
        np.testing.assert_allclose(out, np.diag([0.5, 0.5]), atol=1e-7)

    def test_matches_long_run_oracle(self, rng):
        # interior optimum: Cov_P^{-1} - Omega_cav is SPD by construction
        for _ in range(5):
            inv_opt = random_spd(rng, 2)
            cav = random_spd(rng, 2, 0.1)
            cov = np.linalg.inv(inv_opt + cav)
            init = random_spd(rng, 2)
            got = update_block_precision(cov, cav, init, max_iters=5000, tol=1e-15)
            oracle = chol_param_oracle(cov, cav, init)
            assert np.linalg.norm(got - oracle) < 1e-6
            assert np.linalg.norm(got - inv_opt) < 1e-6

    def test_loss_monotone_and_spd(self, rng):
        for _ in range(10):
            history = []
            out = update_block_precision(random_spd(rng, 4), random_spd(rng, 4, 0.2),
                                         random_spd(rng, 4), loss_history=history)
            np.linalg.cholesky(out)  # SPD or raises
            assert all(b < a + 1e-12 for a, b in zip(history, history[1:]))

    def test_moment_matching_at_fixed_point(self, rng):
        inv_opt = random_spd(rng, 3)
        cav = random_spd(rng, 3, 0.05)
        cov = np.linalg.inv(inv_opt + cav)
        out = update_block_precision(cov, cav, np.eye(3), max_iters=5000, tol=1e-15)
        np.testing.assert_allclose(np.linalg.inv(out + cav), cov, atol=1e-6)


class TestDiagKlUpdate:
    def test_basic_arithmetic(self):
        assert diag_kl_update(0.5, 1.0) == pytest.approx(1.0)

    def test_negative_clamped_to_floor(self):
        assert diag_kl_update(2.0, 1.0) == 1e-8

    def test_vanishing_cavity(self):
        assert diag_kl_update(1.0, 1e-12) == pytest.approx(1.0, rel=1e-9)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            diag_kl_update(0.0, 1.0)


def iso_grid_oracle(d, q):
    """Grid refinement of the scalar isotropic loss; the window shrinks to a
    few grid spacings around the best point at each stage."""
    def loss(p):
        return np.sum(-np.log(p[:, None] + q[None, :])
                      + (p[:, None] + q[None, :]) * d[None, :], axis=1)

    lo, hi = 1e-8, 1e4
    for _ in range(5):
        grid = np.geomspace(lo, hi, 2001)
        best = grid[np.argmin(loss(grid))]
        spacing = (hi / lo) ** (1.0 / 2000)
        lo, hi = best / spacing ** 2, best * spacing ** 2
    return best


class TestIsoKlUpdate:
    def test_single_element_matches_diagonal(self):
        d, q = 0.5, 1.0
        assert iso_kl_update([d], [q]) == pytest.approx(diag_kl_update(d, q), rel=1e-9)
        # clamped branch: iso floors at 1e-8 like the diagonal form
        assert iso_kl_update([2.0], [1.0]) == 1e-8

    def test_symmetric_case(self):
        d, q = 0.25, 1.5
        out = iso_kl_update(np.full(7, d), np.full(7, q))
        assert out == pytest.approx(max(1.0 / d - q, 1e-8), rel=1e-9)

    def test_matches_grid_search_oracle(self, rng):
        for _ in range(5):
            d = rng.uniform(0.2, 3.0, size=10)
            q = rng.uniform(0.05, 2.0, size=10)
            got = iso_kl_update(d, q)
            # the update clamps at the 1e-8 positivity floor by contract
            oracle = max(iso_grid_oracle(d, q), 1e-8)
            assert abs(got - oracle) / oracle < 1e-6

    def test_output_floor(self, rng):
        for _ in range(20):
            d = rng.uniform(0.5, 50.0, size=6)
            q = rng.uniform(0.0, 5.0, size=6)
            assert iso_kl_update(d, q) >= 1e-8

