import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from patchep.gaussians import sym
from patchep.kl_updates import (
    PRECISION_FLOOR,
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

    def test_stack_matches_per_block(self, rng):
        prec = np.stack([random_spd(rng, 3) for _ in range(4)]).reshape(2, 2, 3, 3)
        cav = np.stack([random_spd(rng, 3, 0.2) for _ in range(2)])
        cov = np.stack([random_spd(rng, 3) for _ in range(2)])
        got = kl_block_loss(prec, cav, cov)
        assert got.shape == (2, 2)
        for i in range(2):
            for j in range(2):
                assert got[i, j] == pytest.approx(kl_block_loss(prec[i, j], cav[j], cov[j]), rel=1e-14)

    def test_non_pd_sum_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            kl_block_loss(-np.eye(2), EPS_I(2), np.eye(2))


def chol_param_oracle(cov, cav, init, floor=0.0):
    """Independent minimizer: Nelder-Mead over the Cholesky factor L of
    P - floor * I = L L^T, which makes the constraint P >= floor * I
    unconstrained."""
    from scipy.optimize import minimize

    d = cov.shape[0]
    tril = np.tril_indices(d)

    def loss(x):
        low = np.zeros((d, d))
        low[tril] = x
        total = low @ low.T + floor * np.eye(d) + cav
        sign, logdet = np.linalg.slogdet(total)
        if sign <= 0:
            return 1e12
        return -logdet + np.trace(total @ cov)

    x0 = np.linalg.cholesky(init - floor * np.eye(d))[tril]
    res = minimize(loss, x0, method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000})
    low = np.zeros((d, d))
    low[tril] = res.x
    return low @ low.T + floor * np.eye(d)


def boundary_problem(a, b, w, shift, cav_scale):
    """Tilted covariance C and cavity precision P_cav with
    w^T (C^{-1} - P_cav) w < 0, so that the unconstrained optimum
    P* = C^{-1} - P_cav is not above the floor."""
    d = len(w)
    cov = a @ a.T + shift * np.eye(d)
    w = w / np.linalg.norm(w)
    cav = cav_scale * (b @ b.T + 0.1 * np.eye(d)) + 2.0 * (w @ np.linalg.solve(cov, w)) * np.outer(w, w)
    return cov, cav


class TestUpdateBlockPrecision:
    def test_unconstrained_optimum(self):
        out, ok = update_block_precision(np.diag([2.0, 2.0])[None], EPS_I(2)[None], np.eye(2)[None])
        assert ok.all()
        np.testing.assert_allclose(out[0], np.diag([0.5, 0.5]), atol=1e-7)

    def test_matches_long_run_oracle(self, rng):
        # interior optima: Cov_P^{-1} - Omega_cav is SPD by construction
        inv_opt = np.stack([random_spd(rng, 2) for _ in range(5)])
        cav = np.stack([random_spd(rng, 2, 0.1) for _ in range(5)])
        cov = np.linalg.inv(inv_opt + cav)
        init = np.stack([random_spd(rng, 2) for _ in range(5)])
        got, _ = update_block_precision(cov, cav, init)
        for j in range(5):
            oracle = chol_param_oracle(cov[j], cav[j], init[j])
            assert np.linalg.norm(got[j] - oracle) < 1e-6
            assert np.linalg.norm(got[j] - inv_opt[j]) < 1e-6

    def test_loss_monotone_and_spd(self, rng):
        # the step never raises the loss above that of its start
        cov = np.stack([random_spd(rng, 4) for _ in range(10)])
        cav = np.stack([random_spd(rng, 4, 0.2) for _ in range(10)])
        init = np.stack([random_spd(rng, 4) for _ in range(10)])
        out, ok = update_block_precision(cov, cav, init)
        assert ok.all()
        np.linalg.cholesky(out)  # SPD or raises
        start = kl_block_loss(init, cav, cov)
        assert np.all(kl_block_loss(out, cav, cov) <= start + 1e-12 * np.abs(start))

    def test_moment_matching_at_fixed_point(self, rng):
        inv_opt = random_spd(rng, 3)
        cav = random_spd(rng, 3, 0.05)
        cov = np.linalg.inv(inv_opt + cav)
        out, _ = update_block_precision(cov[None], cav[None], np.eye(3)[None])
        np.testing.assert_allclose(np.linalg.inv(out[0] + cav), cov, atol=1e-6)

    def test_boundary_block_stays_above_floor(self):
        # P* = C^{-1} - P_cav has negative eigenvalues: the solver drives some
        # eigenvalues of P down to the floor, and a damped mix of two such
        # results must still factor (a block just above 0 can round below it)
        cov, cav = [], []
        for seed in range(5):
            r = np.random.default_rng(seed)
            cov.append(random_spd(r, 4, 0.25) + 0.5 * np.eye(4))
            cav.append(random_spd(r, 4, 0.25) + 0.2 * np.eye(4) + 2 * np.linalg.inv(cov[-1]))
        cov, cav = np.stack(cov), np.stack(cav)
        assert np.all(np.linalg.eigvalsh(np.linalg.inv(cov) - cav)[:, 0] < 0)
        outs = [update_block_precision(cov, cav, np.broadcast_to(init, cov.shape))[0]
                for init in (np.eye(4), 3 * np.eye(4))]
        for out in outs:
            assert np.all(np.linalg.eigvalsh(out)[:, 0] >= PRECISION_FLOOR)
        np.linalg.cholesky(0.7 * outs[0] + 0.3 * outs[1])

    def test_reports_rejected_step(self, rng):
        # P* is negative definite, so the constrained optimum is eps I; a
        # start at P = 0, below the floor, has the lower loss and is kept
        cov = random_spd(rng, 3)
        cav = 2.0 * np.linalg.inv(cov)
        out, ok = update_block_precision(np.stack([cov, cov]), np.stack([cav, cav]),
                                         np.stack([np.zeros((3, 3)), np.eye(3)]))
        np.testing.assert_array_equal(ok, [False, True])
        np.testing.assert_array_equal(out[0], 0.0)
        np.testing.assert_allclose(out[1], PRECISION_FLOOR * np.eye(3), rtol=1e-12, atol=1e-20)

    def test_one_by_one_blocks_match_diagonal_update(self, rng):
        d, p_cav = rng.uniform(0.05, 3.0, 20), rng.uniform(0.0, 4.0, 20)
        out, _ = update_block_precision(d[:, None, None], p_cav[:, None, None], np.ones((20, 1, 1)))
        np.testing.assert_allclose(out[:, 0, 0], diag_kl_update(d, p_cav), rtol=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a=hnp.arrays(np.float64, (3, 4, 4), elements=st.floats(-1, 1)),
           b=hnp.arrays(np.float64, (3, 4, 4), elements=st.floats(-1, 1)),
           w=hnp.arrays(np.float64, (3, 4), elements=st.floats(0.1, 1)),
           shift=st.floats(0.05, 1.0), cav_scale=st.floats(1e-3, 10.0))
    def test_kkt_conditions_on_boundary_stacks(self, a, b, w, shift, cav_scale):
        # the gradient G = C - (P + P_cav)^{-1} is the multiplier of the
        # constraint P - eps I >= 0: at the optimum it is PSD and
        # complementary to P - eps I
        eye = np.eye(4)
        cov, cav = map(np.stack, zip(*(boundary_problem(a[j], b[j], w[j], shift, cav_scale)
                                       for j in range(3))))
        out, _ = update_block_precision(cov, cav, np.stack([eye] * 3))
        for j in range(3):
            grad = cov[j] - np.linalg.inv(out[j] + cav[j])
            scale = np.linalg.norm(cov[j])
            assert np.linalg.eigvalsh(grad)[0] >= -1e-10 * scale
            assert np.linalg.norm(grad @ (out[j] - PRECISION_FLOOR * eye)) <= 1e-10 * scale

    def test_boundary_loss_not_above_nelder_mead(self, rng):
        cov, cav = map(np.stack, zip(*(boundary_problem(
            rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 3)), rng.uniform(0.1, 1, 3), 0.2, 0.5)
            for _ in range(5))))
        assert np.all(np.linalg.eigvalsh(np.linalg.inv(cov) - cav)[:, 0] < 0)
        got, _ = update_block_precision(cov, cav, np.stack([np.eye(3)] * 5))
        for j in range(5):
            oracle = chol_param_oracle(cov[j], cav[j], np.eye(3), PRECISION_FLOOR)
            best = kl_block_loss(oracle, cav[j], cov[j])
            assert kl_block_loss(got[j], cav[j], cov[j]) <= best + 1e-12 * abs(best)


def interior_stack(rng, n_blocks, dim):
    """Tilted covariances and cavity precisions whose optimum P* is SPD by
    construction; returns (C, P_cav, P*)."""
    p_opt = np.stack([random_spd(rng, dim) for _ in range(n_blocks)])
    cav = np.stack([random_spd(rng, dim, 0.1) for _ in range(n_blocks)])
    return np.linalg.inv(p_opt + cav), cav, p_opt


class TestBlockKlUpdate:
    """The block KL step on stacks that mix interior and boundary blocks."""

    def test_matches_iterative_solver_on_interior_stacks(self, rng):
        cov, cav, p_opt = interior_stack(rng, 6, 3)
        out, ok = update_block_precision(cov, cav, np.stack([np.eye(3)] * 6))
        assert ok.all()
        for c, q, p in zip(cov, cav, out):
            assert np.linalg.norm(p - chol_param_oracle(c, q, np.eye(3))) < 1e-6
        np.testing.assert_allclose(out, p_opt, rtol=1e-10, atol=1e-10)

    def test_ill_conditioned_interior_block_matched_exactly(self):
        # cond(C) = 1e5: both closed forms match C; a singular second block
        # sends the first one to the eigen form too
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        cov = (q * np.geomspace(1e-5, 1.0, 6)) @ q.T
        cav = 0.1 * np.eye(6)
        rel = lambda p: np.linalg.norm(np.linalg.inv(p + cav) - cov) / np.linalg.norm(cov)  # noqa: E731
        out, ok = update_block_precision(cov[None], cav[None], np.eye(6)[None])
        assert ok[0] and rel(out[0]) < 1e-10
        out, ok = update_block_precision(np.stack([cov, np.zeros((6, 6))]), np.stack([cav, cav]),
                                         np.stack([np.eye(6)] * 2))
        np.testing.assert_array_equal(ok, [True, False])
        assert rel(out[0]) < 1e-10

    def test_mixed_stack_matches_closed_form_and_oracle(self, rng):
        cov, cav, _ = interior_stack(rng, 4, 3)
        for j in (1, 3):
            cov[j], cav[j] = boundary_problem(rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 3)),
                                              rng.uniform(0.1, 1, 3), 0.2, 0.5)
        interior = np.linalg.eigvalsh(np.linalg.inv(cov) - cav)[:, 0] > PRECISION_FLOOR
        np.testing.assert_array_equal(interior, [True, False, True, False])
        out, ok = update_block_precision(cov, cav, np.stack([np.eye(3)] * 4))
        assert ok.all()
        for j in (0, 2):
            np.testing.assert_allclose(out[j], np.linalg.inv(cov[j]) - cav[j], rtol=1e-10, atol=1e-10)
        for j in (1, 3):
            oracle = chol_param_oracle(cov[j], cav[j], np.eye(3), PRECISION_FLOOR)
            assert np.linalg.norm(out[j] - oracle) < 1e-6

    @staticmethod
    def threshold_block(rng, lam_min):
        """(C, P_cav) of a 3x3 block whose P* = C^{-1} - P_cav has the
        smallest eigenvalue lam_min and the others in [0.5, 2]."""
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        p_star = (q * [lam_min, rng.uniform(0.5, 1.0), rng.uniform(1.0, 2.0)]) @ q.T
        cav = random_spd(rng, 3, 0.1)
        return np.linalg.inv(p_star + cav), cav

    def test_interior_blocks_match_eigvalsh_reference(self, rng, monkeypatch):
        # the boundary blocks are the ones whose tilted covariances reach the
        # loss; the stacks mix blocks at eps (1 +- 1e-6) with interior and
        # boundary blocks, so their batched Cholesky raises, and one stack is
        # all interior, so the loss is never evaluated
        import patchep.kl_updates as kl

        seen = []
        monkeypatch.setattr(kl, "kl_block_loss", lambda p, cav, cov: (
            seen.append(cov), kl_block_loss(p, cav, cov))[1])
        cov, cav, _ = interior_stack(rng, 6, 3)
        for j, lam in ((1, 1 + 1e-6), (2, 1 - 1e-6), (4, 1 - 1e-6), (5, 1 + 1e-6)):
            cov[j], cav[j] = self.threshold_block(rng, lam * PRECISION_FLOOR)
        cov[3], cav[3] = boundary_problem(rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 3)),
                                          rng.uniform(0.1, 1, 3), 0.2, 0.5)
        for stack in ([0, 1, 2, 3, 4, 5], [4, 0, 5], [3, 2], [0, 5, 1]):
            c, q = cov[stack], cav[stack]
            p_star = sym(np.linalg.inv(sym(c))) - sym(q)     # as the update forms it
            interior = np.linalg.eigvalsh(p_star)[:, 0] > PRECISION_FLOOR
            np.testing.assert_array_equal(interior, [j in (0, 1, 5) for j in stack])
            seen.clear()
            out, ok = update_block_precision(c, q, np.stack([np.eye(3)] * len(stack)))
            assert ok.all()
            np.testing.assert_array_equal(out[interior], p_star[interior])
            if interior.all():
                assert not seen
            else:
                np.testing.assert_array_equal(seen[0], sym(c[~interior]))

    def test_threshold_block_same_from_either_branch(self, rng):
        # a singular companion block sends the whole stack to the boundary
        # form; at lambda_min(P*) = eps (1 +- 1e-6) it gives P* as well
        for lam in (1 + 1e-6, 1 - 1e-6):
            cov, cav = self.threshold_block(rng, lam * PRECISION_FLOOR)
            p_star = np.linalg.inv(cov) - cav
            alone, ok = update_block_precision(cov[None], cav[None], np.eye(3)[None])
            assert ok[0]
            forced, ok = update_block_precision(np.stack([cov, np.zeros((3, 3))]),
                                                np.stack([cav, cav]), np.stack([np.eye(3)] * 2))
            np.testing.assert_array_equal(ok, [True, False])
            for p in (alone[0], forced[0]):
                assert np.linalg.norm(p - p_star) <= 1e-12 * np.linalg.norm(p_star)

    def test_singular_covariance_flagged(self, rng):
        cov, cav, p_opt = interior_stack(rng, 2, 3)
        cov[1] = 0.0
        init = np.stack([np.eye(3), 2 * np.eye(3)])
        out, ok = update_block_precision(cov, cav, init)
        np.testing.assert_array_equal(ok, [True, False])
        np.testing.assert_array_equal(out[1], init[1])
        np.testing.assert_allclose(out[0], p_opt[0], rtol=1e-8, atol=1e-8)

    def test_indefinite_covariance_flagged(self):
        # C has a negative eigenvalue, yet its eigen-form result eps I has a
        # lower loss than the init: only the positive-definiteness test flags it
        cov = np.stack([np.eye(3), np.diag([3.0, 3.0, -0.5])])
        init = np.stack([np.eye(3)] * 2)
        assert kl_block_loss(PRECISION_FLOOR * np.eye(3), np.eye(3), cov[1]) < kl_block_loss(
            init[1], np.eye(3), cov[1])
        out, ok = update_block_precision(cov, init, init)
        np.testing.assert_array_equal(ok, [True, False])
        np.testing.assert_array_equal(out[1], init[1])


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

    def test_nonpositive_variance_rejected(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="tilted variances must be positive"):
                iso_kl_update(np.array([1.0, bad]), np.ones(2))

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

