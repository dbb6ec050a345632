from collections import Counter
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import sparse

import patchep.ep_gaussian as ep_gaussian
from patchep.ep_gaussian import (
    WARNING_CAUSES,
    EPConfig,
    EPState,
    GaussianFactor,
    _kl_step,
    _near_fixed_point,
    _stack_moments,
    run_ep_gaussian,
    solve_cg,
    tilted_p1_moments,
    update_q_x0,
    update_q_x1,
)
from patchep.ep_poisson import run_ep_poisson
from patchep.gaussians import diag_stack
from patchep.gmm import Adaptation, PatchGMM, adapt, train_em
from patchep.kl_updates import PRECISION_FLOOR
from patchep.operators import (Conv2D, GaussianNoise, Identity, Mask, all_row_quadratic_forms,
                               simulate)
from patchep.partitions import Partition, build_shifted_partitions

from conftest import blocks_of, per_block, pixel_diagonal, random_spd, small_gmm, stack_by_group
from reference import (
    dense_operator,
    dense_reference_moments,
    exact_diagonal_gaussian_posterior,
    sample_prior_image,
)


def pixel_partition(width, height):
    """Partition into single-pixel blocks (r = 1)."""
    return Partition(width, height, 1, (0, 0))


def k1_adapted(rng, dim, scale=1.0):
    base = PatchGMM(np.array([1.0]), rng.standard_normal((1, dim)),
                    random_spd(rng, dim, scale)[None])
    return adapt(base, Adaptation())


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EPConfig(damping=0.0)
        with pytest.raises(ValueError):
            EPConfig(cg_tol=0.0)

    @pytest.mark.parametrize("field", ["stop_tol", "cg_tol"])
    def test_rejects_nan_tolerance(self, field):
        with pytest.raises(ValueError, match="tolerances"):
            EPConfig(**{field: np.nan})

    @pytest.mark.parametrize("field", ["max_iterations", "cg_max_iters", "rbmc_samples"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_counts_below_one(self, field, value):
        # at 0: no M-step weights, division by zero in RBMC, or CG that
        # returns its start vector as "converged"
        with pytest.raises(ValueError, match=field):
            EPConfig(**{field: value})

    def test_structure_resolution(self, rng):
        # the factors are diagonal exactly when H is, whatever its class: 2-D
        # (J, b) rows of factor precisions and joint variances then, 3-D
        # (J, b, b) blocks otherwise
        part = build_shifted_partitions(4, 4, 2)[0]
        adapted = k1_adapted(rng, 4)
        y = rng.standard_normal(16)
        cfg = EPConfig(max_iterations=1)
        for op, ndim in ((Identity(4, 4), 2), (Mask(4, 4, y > 0), 2),
                         (Conv2D(4, 4, np.ones((1, 1))), 2),
                         (Conv2D(4, 4, np.full((3, 3), 1.0 / 9.0)), 3)):
            state = run_ep_gaussian(y, op, 0.1, adapted, part, cfg).state
            for stacks in (state.q0.prec, state.q1.prec, state.joint_covs):
                assert [s.ndim for s in stacks] == [ndim] * len(part.groups)


class TestStackMoments:
    def test_diagonal_branch_matches_inverse(self, rng):
        # random (J, b) rows of diagonal precisions: the per-pixel branch
        # against the batched inverse of their diag_stack blocks
        prec = rng.uniform(0.01, 100.0, (30, 9))
        eta = rng.standard_normal((30, 9))
        mean, var = _stack_moments(prec, eta)
        ref_mean, ref_cov = _stack_moments(diag_stack(prec), eta)
        assert var.shape == (30, 9)
        np.testing.assert_allclose(mean, ref_mean, rtol=1e-14)
        np.testing.assert_allclose(diag_stack(var), ref_cov, rtol=1e-14)


class TestDiagonalRows:
    @pytest.mark.parametrize("model", ["gauss_identity", "gauss_mask", "poisson_identity"])
    def test_result_blocks_and_row_forms_match_the_rows(self, rng, model, monkeypatch):
        # diagonal factors keep (J_g, b) rows through the run and into the
        # result: no full block is made, the result's cov, the M-step's
        # input, is the state's joint rows, which hold its marginal
        # variances, and the Poisson row forms read S_nn from those rows
        calls = Counter()

        def counted(d):
            calls["diag_stack"] += 1
            return diag_stack(d)

        monkeypatch.setattr(ep_gaussian, "diag_stack", counted)
        part = build_shifted_partitions(8, 8, 2)[3]          # shift (1, 1)
        assert len(part.groups) == 9
        prior = small_gmm(rng, 3, 4)
        if model == "poisson_identity":
            op = Identity(8, 8)
            y = rng.poisson(5.0, 64).astype(float)
            res = run_ep_poisson(y, op, adapt(prior, Adaptation(offset=5.0, mean_var=1.0,
                                                                scale=2.0)), part)
        else:
            op = Identity(8, 8) if model == "gauss_identity" else Mask(8, 8, rng.random(64) < 0.7)
            y = op.apply(0.5 + 0.3 * rng.standard_normal(64))
            res = run_ep_gaussian(y, op, 0.05, adapt(prior, Adaptation(offset=0.5)), part)
        assert res.iterations > 1 and calls["diag_stack"] == 0
        rows = res.state.joint_covs
        assert res.cov is rows
        assert [c.shape for c in rows] == [g.pixels.shape for g in part.groups]
        for group, stack in zip(part.groups, rows):
            assert np.array_equal(stack, res.marginal_var[group.pixels])
        assert np.array_equal(all_row_quadratic_forms(op, part, rows),
                              op.diag_gram() * res.marginal_var)


class TestJointCovarianceCheck:
    @pytest.mark.parametrize("op", [Identity(4, 4), Conv2D(4, 4, np.full((3, 3), 1.0 / 9.0))],
                             ids=["rows", "blocks"])
    @pytest.mark.parametrize("fault", ["negative", "nan"])
    def test_step_that_breaks_a_joint_block_raises(self, rng, op, fault):
        # run_ep hands on the joint covariances as EP keeps them, after one
        # fault check: a joint variance that is not positive and finite
        # (rows, diagonal H) or a joint block without a finite Cholesky
        # factor (blocks) raises ValueError, which the pipeline records as a
        # failed expert.  The step sets one block of q_x0 to -2 P1, so that
        # block's joint precision is -P1, negative (definite), or to NaN,
        # which LAPACK's Cholesky passes
        part = build_shifted_partitions(4, 4, 2)[0]
        y = rng.standard_normal(16)

        def step(state, broken):
            if broken:
                state.q0.prec[0][1] = (-2.0 * state.q1.prec[0][1] if fault == "negative"
                                       else np.nan)
            state.sync()
            return None, Counter(), {}

        cfg = EPConfig(max_iterations=1)
        res = ep_gaussian.run_ep(lambda state: step(state, False), op, part, y,
                                 np.full(16, 0.5), cfg)
        assert [c.ndim for c in res.cov] == [2 if op.is_diagonal else 3]
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="positive definite"):
            ep_gaussian.run_ep(lambda state: step(state, True), op, part, y,
                               np.full(16, 0.5), cfg)


class TestUpdateQx0:
    def test_conjugate_single_component_one_undamped_update(self, rng):
        # K=1 prior: after one undamped prior-side update, each joint block
        # equals the exact Gaussian posterior prior x cavity
        part = build_shifted_partitions(4, 4, 2)[0]
        adapted = k1_adapted(rng, 4)
        y = rng.standard_normal(16)
        sigma2 = 0.5
        cfg = EPConfig(damping=1.0)
        state = EPState(
            q0=GaussianFactor.from_moments(part, y, np.full(16, sigma2), diagonal=False),
            q1=GaussianFactor.from_moments(part, y, np.full(16, sigma2), diagonal=False),
            partition=part,
        )
        state.sync()
        update_q_x0(state, adapted, cfg)
        state.sync()
        joint_blocks = per_block(part, state.joint_covs)
        for j, (idx, _) in enumerate(blocks_of(part)):
            prior_prec = np.linalg.inv(adapted.covs[0])
            post_prec = prior_prec + np.eye(4) / sigma2
            post_cov = np.linalg.inv(post_prec)
            post_mean = post_cov @ (prior_prec @ adapted.means[0] + y[idx] / sigma2)
            np.testing.assert_allclose(joint_blocks[j], post_cov, atol=1e-6)
            np.testing.assert_allclose(state.mean[idx], post_mean, atol=1e-6)

    def test_uninformative_prior_leaves_likelihood(self, rng):
        # C ~ 1e12: the prior factor precision collapses and m* ~ m1 = y
        part = build_shifted_partitions(4, 4, 2)[0]
        base = PatchGMM(np.array([1.0]), np.zeros((1, 4)), (1e12 * np.eye(4))[None])
        adapted = adapt(base, Adaptation())
        y = rng.standard_normal(16)
        cfg = EPConfig(damping=1.0)
        state = EPState(
            q0=GaussianFactor.from_moments(part, y, np.full(16, 0.3), diagonal=True),
            q1=GaussianFactor.from_moments(part, y, np.full(16, 0.3), diagonal=True),
            partition=part,
        )
        state.sync()
        update_q_x0(state, adapted, cfg)
        state.sync()
        assert np.all(pixel_diagonal(part, state.q0.prec) < 1e-6)
        np.testing.assert_allclose(state.mean, y, atol=1e-4)

    def test_damping_is_convex_combination_of_natural_params(self, rng):
        # block factors are damped (diagonal ones are set undamped)
        part = build_shifted_partitions(4, 4, 2)[0]
        adapted = k1_adapted(rng, 4)
        y = rng.standard_normal(16)

        def one_update(damping):
            state = EPState(
                q0=GaussianFactor.from_moments(part, y, np.full(16, 0.4), diagonal=False),
                q1=GaussianFactor.from_moments(part, y, np.full(16, 0.4), diagonal=False),
                partition=part,
            )
            state.sync()
            update_q_x0(state, adapted, EPConfig(damping=damping))
            return state.q0

        old = GaussianFactor.from_moments(part, y, np.full(16, 0.4), diagonal=False)
        full = one_update(1.0)
        half = one_update(0.5)
        for p_half, p_full, p_old in zip(half.prec, full.prec, old.prec):
            assert np.any(p_full[:, ~np.eye(4, dtype=bool)] != 0.0)
            np.testing.assert_allclose(p_half, 0.5 * p_full + 0.5 * p_old, rtol=1e-12)
        np.testing.assert_allclose(half.eta, 0.5 * full.eta + 0.5 * old.eta, rtol=1e-10)


def kl_target(stack):
    """Block factor holding one (J, 4, 4) stack: J 2x2 patches side by side,
    precision-mean 0."""
    n_blocks = len(stack)
    part = build_shifted_partitions(2 * n_blocks, 2, 2)[0]
    return GaussianFactor(part, [stack.copy()], np.zeros(4 * n_blocks))


class TestKlStep:
    def mixed_problem(self, rng):
        # four 4x4 blocks with SPD optima p_opt; blocks 1 and 3 then get a
        # cavity more precise than the tilted covariance, so their optimum
        # P* = C^{-1} - P_cav = -2 p_opt is not SPD
        p_opt = np.stack([random_spd(rng, 4) for _ in range(4)])
        cav = np.stack([random_spd(rng, 4, 0.1) for _ in range(4)])
        covs = np.linalg.inv(p_opt + cav)
        cav[[1, 3]] += 3 * p_opt[[1, 3]]
        means = rng.standard_normal((4, 4))
        cav_eta = rng.standard_normal((4, 4))
        return means, covs, cav, cav_eta

    def test_mixed_stack_updates_every_block(self, rng):
        means, covs, cav, cav_eta = self.mixed_problem(rng)
        target = kl_target(np.stack([np.eye(4)] * 4))
        assert _kl_step(target, 0, means, covs, cav, cav_eta, 1.0) == 0
        pixels = target.partition.groups[0].pixels
        for i in (0, 2):
            cov_inv = np.linalg.inv(covs[i])
            np.testing.assert_allclose(target.prec[0][i], cov_inv - cav[i], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(target.eta[pixels[i]], cov_inv @ means[i] - cav_eta[i],
                                       rtol=1e-10, atol=1e-12)
        for i in (1, 3):
            prec = target.prec[0][i]
            assert np.linalg.eigvalsh(prec)[0] >= PRECISION_FLOOR
            np.testing.assert_allclose(target.eta[pixels[i]], (prec + cav[i]) @ means[i] - cav_eta[i],
                                       rtol=1e-12, atol=1e-12)

    def test_rejected_solver_step_is_a_warning(self, rng):
        # boundary blocks 1 and 3 start at P = 0, below the floor, where the
        # loss is lower than at the constrained optimum P = eps I: the solver
        # rejects its step, the blocks keep their old parameters and each
        # counts as a warning
        means, covs, cav, cav_eta = self.mixed_problem(rng)
        start = np.stack([np.eye(4), np.zeros((4, 4)), np.eye(4), np.zeros((4, 4))])
        target = kl_target(start)
        assert _kl_step(target, 0, means, covs, cav, cav_eta, 1.0) == 2
        np.testing.assert_array_equal(target.prec[0][[1, 3]], 0.0)
        np.testing.assert_array_equal(target.eta[target.partition.groups[0].pixels[[1, 3]]], 0.0)
        for i in (0, 2):
            np.testing.assert_allclose(target.prec[0][i], np.linalg.inv(covs[i]) - cav[i],
                                       rtol=1e-12, atol=1e-12)

    def test_singular_tilted_covariance_falls_back_per_block(self, rng):
        # block 2's loss is unbounded below: it is flagged and keeps its old
        # parameters, while the other blocks update
        means, covs, cav, cav_eta = self.mixed_problem(rng)
        covs[2] = 0.0
        target = kl_target(np.stack([np.eye(4)] * 4))
        assert _kl_step(target, 0, means, covs, cav, cav_eta, 1.0) == 1
        np.testing.assert_array_equal(target.prec[0][2], np.eye(4))
        np.testing.assert_array_equal(target.eta[target.partition.groups[0].pixels[2]], 0.0)
        np.testing.assert_allclose(target.prec[0][0], np.linalg.inv(covs[0]) - cav[0],
                                   rtol=1e-8, atol=1e-10)
        for i in (1, 3):
            assert np.linalg.eigvalsh(target.prec[0][i])[0] >= PRECISION_FLOOR

    def test_damping_moves_accepted_blocks_and_keeps_flagged_ones(self, rng):
        # the step writes to the live factor: at damping 0.3 an accepted
        # block moves 30% of the way to its target in natural parameters,
        # and the flagged block 2 keeps its old parameters bit for bit
        means, covs, cav, cav_eta = self.mixed_problem(rng)
        covs[2] = 0.0
        start = np.stack([random_spd(rng, 4) for _ in range(4)])
        old_eta = rng.standard_normal(16)
        full, damped = kl_target(start), kl_target(start)
        full.eta[:] = damped.eta[:] = old_eta
        assert _kl_step(full, 0, means, covs, cav, cav_eta, 1.0) == 1
        assert _kl_step(damped, 0, means, covs, cav, cav_eta, 0.3) == 1
        pixels = damped.partition.groups[0].pixels
        for i in (0, 1, 3):
            np.testing.assert_allclose(damped.prec[0][i], 0.3 * full.prec[0][i] + 0.7 * start[i],
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(damped.eta[pixels[i]],
                                       0.3 * full.eta[pixels[i]] + 0.7 * old_eta[pixels[i]],
                                       rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(damped.prec[0][2], start[2])
        np.testing.assert_array_equal(damped.eta[pixels[2]], old_eta[pixels[2]])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a=hnp.arrays(np.float64, (3, 4, 4), elements=st.floats(-1, 1)),
           c=hnp.arrays(np.float64, (3, 4, 4), elements=st.floats(-1, 1)),
           shift=st.floats(0.05, 1.0), cav_scale=st.floats(1e-3, 10.0))
    def test_floor_and_exact_match_property(self, a, c, shift, cav_scale):
        # random SPD tilted covariances and cavity precisions; the cavity
        # scale makes the stack interior, boundary or mixed
        covs = a @ np.swapaxes(a, 1, 2) + shift * np.eye(4)
        cav = cav_scale * (c @ np.swapaxes(c, 1, 2) + 0.1 * np.eye(4))
        target = kl_target(np.stack([np.eye(4)] * 3))
        _kl_step(target, 0, np.zeros((3, 4)), covs, cav, np.zeros((3, 4)), 1.0)
        for prec, cov, p_cav in zip(target.prec[0], covs, cav):
            # the floor holds up to the rounding of the eigenvalue computation
            assert np.linalg.eigvalsh(prec)[0] >= PRECISION_FLOOR * (1 - 1e-6)
            if np.linalg.eigvalsh(np.linalg.inv(cov) - p_cav)[0] > 1e-6:   # interior
                matched = np.linalg.inv(prec + p_cav)
                assert np.linalg.norm(matched - cov) <= 1e-10 * np.linalg.norm(cov)


class TestTiltedP1:
    def test_identity_exact_diagonal_blocks(self, rng):
        part = build_shifted_partitions(4, 4, 2)[0]
        op = Identity(4, 4)
        sigma2 = 0.7
        y = rng.standard_normal(16)
        # the block path's function, fed diagonal blocks
        q0 = GaussianFactor.from_moments(part, rng.standard_normal(16),
                                         rng.uniform(0.2, 2.0, 16), diagonal=False)
        w = np.full(16, 1.0 / sigma2)
        mean, stacks, _, _, _ = tilted_p1_moments(q0, op, w, op.apply_adjoint(y) / sigma2,
                                                  EPConfig(), np.zeros(16))
        blocks = per_block(part, stacks)
        p0 = pixel_diagonal(part, q0.prec)
        for j, (idx, _) in enumerate(blocks_of(part)):
            expected = np.diag(1.0 / (1.0 / sigma2 + p0[idx]))
            np.testing.assert_allclose(blocks[j], expected, atol=1e-12)
        expected_mean = (q0.eta + y / sigma2) / (p0 + 1.0 / sigma2)
        np.testing.assert_allclose(mean, expected_mean, atol=1e-12)

    def test_vanishing_prior_returns_observation(self, rng):
        part = build_shifted_partitions(4, 4, 2)[0]
        op = Identity(4, 4)
        y = rng.standard_normal(16)
        q0 = GaussianFactor.from_moments(part, np.zeros(16), np.full(16, 1e12), diagonal=False)
        mean, _, _, _, _ = tilted_p1_moments(q0, op, np.full(16, 10.0),
                                             op.apply_adjoint(y) * 10.0,
                                             EPConfig(), np.zeros(16))
        np.testing.assert_allclose(mean, y, atol=1e-6)

    @pytest.mark.parametrize("shift", [0, 4], ids=["aligned", "shifted"])
    def test_cg_mean_matches_dense_solve(self, rng, shift):
        # the shifted partition has truncated boundary blocks in 9 groups
        part = build_shifted_partitions(6, 6, 3)[shift]
        op = Conv2D(6, 6, np.full((3, 3), 1.0 / 9.0))
        sigma2 = 0.25
        y = rng.standard_normal(36)
        blocks = [random_spd(rng, len(idx), 0.5) for idx, _ in blocks_of(part)]
        eta = rng.standard_normal(36)
        q0 = GaussianFactor(part, stack_by_group(part, blocks), eta)
        w = np.full(36, 1.0 / sigma2)
        obs_eta = op.apply_adjoint(y) / sigma2
        mean, _, _, residual, _ = tilted_p1_moments(q0, op, w, obs_eta, EPConfig(),
                                                    np.zeros(36))
        # relative to the whole right-hand side, below every column's stop level
        assert type(residual) is float and 0.0 <= residual < EPConfig().cg_tol
        omega0 = np.zeros((36, 36))
        for j, (idx, _) in enumerate(blocks_of(part)):
            omega0[np.ix_(idx, idx)] = blocks[j]
        expected_mean, _ = dense_reference_moments(op, w, omega0, eta + obs_eta)
        np.testing.assert_allclose(mean, expected_mean, atol=1e-6)

    def test_rbmc_block_covariances_against_dense(self, rng):
        # 16x16 deconvolution, 3x3 blur: RBMC vs dense inversion; the mean
        # relative Frobenius error shrinks with the sample count
        part = build_shifted_partitions(16, 16, 4)[0]
        op = Conv2D(16, 16, np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]]) / 16.0)
        sigma2 = 0.05
        blocks = [random_spd(rng, len(idx), 1.0 / len(idx)) for idx, _ in blocks_of(part)]
        q0 = GaussianFactor(part, stack_by_group(part, blocks),
                            rng.standard_normal(256))
        w = np.full(256, 1.0 / sigma2)
        omega0 = np.zeros((256, 256))
        for j, (idx, _) in enumerate(blocks_of(part)):
            omega0[np.ix_(idx, idx)] = blocks[j]
        _, dense_cov = dense_reference_moments(op, w, omega0, np.zeros(256))

        def mean_rel_error(samples, seed):
            cfg = EPConfig(rbmc_samples=samples, seed=seed)
            _, est, _, _, _ = tilted_p1_moments(q0, op, w, np.zeros(256), cfg, np.zeros(256))
            est = per_block(part, est)
            errs = []
            for j, (idx, _) in enumerate(blocks_of(part)):
                ref = dense_cov[np.ix_(idx, idx)]
                errs.append(np.linalg.norm(est[j] - ref) / np.linalg.norm(ref))
            return float(np.mean(errs))

        # adversarial random-SPD prior precisions; measured over 10 seeds:
        # mean error 0.103 at S=20 and 0.032 at S=200 -> frozen at 0.12 / 0.04.
        # EP's own blocks are not easier when they are strongly coupled: the
        # 8x8 3x3-box K=1 deconvolution of
        # test_deconvolution_block_covariances_match_dense_posterior_k1
        # needs S=200 and S=2000 for these bounds, and at S=20 its errors are
        # 0.35 (shift 0) and 0.29 (shift 5)
        err20 = mean_rel_error(20, 7)
        err200 = mean_rel_error(200, 8)
        assert err20 <= 0.12
        assert err200 <= 0.04
        assert err200 < err20

    def test_probes_repeat_on_every_call(self, rng):
        # common random numbers: the RBMC probes depend on config.seed only
        part = build_shifted_partitions(6, 6, 3)[0]
        op = Conv2D(6, 6, np.full((3, 3), 1.0 / 9.0))
        blocks = [random_spd(rng, len(idx), 0.5) for idx, _ in blocks_of(part)]
        q0 = GaussianFactor(part, stack_by_group(part, blocks), rng.standard_normal(36))
        w = np.full(36, 4.0)

        def covs(seed):
            return tilted_p1_moments(q0, op, w, np.zeros(36), EPConfig(seed=seed), np.zeros(36))[1]

        first, again, other = covs(3), covs(3), covs(4)
        for a, b, c in zip(first, again, other):
            np.testing.assert_array_equal(a, b)
            assert not np.allclose(a, c)

    def test_rbmc_exact_when_gram_is_block_diagonal(self, rng):
        # a mask makes G = H^T W H diagonal, so its off-block part R x
        # vanishes and the RBMC covariances are Q_jj^{-1} whatever the probes
        part = build_shifted_partitions(6, 6, 3)[4]
        op = Mask(6, 6, rng.random(36) < 0.6)
        blocks = [random_spd(rng, len(idx), 0.5) for idx, _ in blocks_of(part)]
        q0 = GaussianFactor(part, stack_by_group(part, blocks), rng.standard_normal(36))
        w = np.full(36, 4.0)
        _, covs, _, _, _ = tilted_p1_moments(q0, op, w, np.zeros(36), EPConfig(), np.zeros(36))
        kept = op.kept.astype(float)
        for j, ((idx, _), cov) in enumerate(zip(blocks_of(part), per_block(part, covs))):
            expected = np.linalg.inv(blocks[j] + np.diag(4.0 * kept[idx]))
            np.testing.assert_allclose(cov, expected, rtol=1e-10)

    @staticmethod
    def rbmc_system(rng):
        """The 16x16 RBMC system Q = H^T H / 0.05 + blockdiag(P0) as CSR,
        with its block-Jacobi preconditioner as a function of an (N, s)
        block."""
        part = build_shifted_partitions(16, 16, 4)[0]
        op = Conv2D(16, 16, np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]]) / 16.0)
        h = dense_operator(op)
        q = h.T @ h / 0.05
        for idx, _ in blocks_of(part):
            q[np.ix_(idx, idx)] += random_spd(rng, len(idx), 1.0 / len(idx))
        jacobi = np.zeros_like(q)
        for idx, _ in blocks_of(part):
            jacobi[np.ix_(idx, idx)] = np.linalg.inv(q[np.ix_(idx, idx)])
        return sparse.csr_matrix(q), sparse.csr_matrix(jacobi).__matmul__

    def test_block_jacobi_cg_matches_plain_cg(self, rng):
        # preconditioning by blockdiag(Q_jj^{-1}) changes the iteration
        # count, not the solution
        q, jacobi = self.rbmc_system(rng)
        rhs = rng.standard_normal((256, 1))
        cfg = EPConfig()
        x, iters, _, info = solve_cg(q.__matmul__, rhs, np.zeros_like(rhs), cfg, np.copy)
        x_pc, iters_pc, _, info_pc = solve_cg(q.__matmul__, rhs, np.zeros_like(rhs), cfg, jacobi)
        assert info == 0 and info_pc == 0
        assert np.linalg.norm(x_pc - x) <= cfg.cg_tol * np.linalg.norm(x)
        assert iters_pc < iters

    def test_lockstep_columns_match_dense_and_single_solves(self, rng):
        # the (N, 1 + rbmc_samples) block of one likelihood update, solved
        # in lockstep, against np.linalg.solve and against one single-column
        # solve per column
        q, jacobi = self.rbmc_system(rng)
        cfg = EPConfig()
        rhs = rng.standard_normal((256, 1 + cfg.rbmc_samples))
        x, iters, residual, info = solve_cg(q.__matmul__, rhs, np.zeros_like(rhs), cfg, jacobi)
        assert x.shape == rhs.shape and info == 0
        expected = np.linalg.solve(q.toarray(), rhs)
        single_iters = []
        for i in range(rhs.shape[1]):
            np.testing.assert_allclose(x[:, i], expected[:, i], atol=1e-6)
            x_i, it, _, info_i = solve_cg(q.__matmul__, rhs[:, [i]], np.zeros((256, 1)), cfg, jacobi)
            assert x_i.shape == (256, 1) and info_i == 0
            np.testing.assert_allclose(x[:, [i]], x_i, rtol=1e-12, atol=1e-15)
            single_iters.append(it)
        assert iters == max(single_iters)
        rel = np.linalg.norm(rhs - q @ x, axis=0) / np.linalg.norm(rhs, axis=0)
        assert np.all(rel <= cfg.cg_tol)
        assert residual == pytest.approx(np.max(np.linalg.norm(rhs - q @ x, axis=0)))

    def test_lockstep_zero_and_solved_columns_stay_put(self, rng):
        # a zero right-hand side gives exact zeros whatever x0 holds, and a
        # column started at its solution is returned bit-equal; neither one
        # counts as unconverged
        q, jacobi = self.rbmc_system(rng)
        rhs = rng.standard_normal((256, 4))
        rhs[:, 1] = 0.0
        x0 = rng.standard_normal((256, 4))
        x0[:, 2] = np.linalg.solve(q.toarray(), rhs[:, 2])
        x, _, _, info = solve_cg(q.__matmul__, rhs, x0, EPConfig(), jacobi)
        assert info == 0 and np.all(np.isfinite(x))
        np.testing.assert_array_equal(x[:, 1], 0.0)
        np.testing.assert_array_equal(x[:, 2], x0[:, 2])
        only_zero, iters, _, info = solve_cg(q.__matmul__, np.zeros((256, 1)), np.zeros((256, 1)),
                                              EPConfig(), jacobi)
        np.testing.assert_array_equal(only_zero, 0.0)
        assert iters == 0 and info == 0

    def test_lockstep_iteration_cap_counts_every_column(self, rng):
        q, jacobi = self.rbmc_system(rng)
        rhs = rng.standard_normal((256, 21))
        _, iters, _, info = solve_cg(q.__matmul__, rhs, np.zeros_like(rhs), EPConfig(cg_max_iters=1),
                                     jacobi)
        assert iters == 1 and info == 21


class TestUpdateQx1:
    def test_cg_cap_counts_as_warnings(self, rng):
        # 6x6 deconvolution: with cg_max_iters=1 the mean solve and all RBMC
        # solves stop unconverged, and each one is reported
        part = build_shifted_partitions(6, 6, 3)[0]
        op = Conv2D(6, 6, np.full((3, 3), 1.0 / 9.0))
        sigma2 = 0.25
        y = rng.standard_normal(36)
        blocks = [random_spd(rng, len(idx), 0.5) for idx, _ in blocks_of(part)]
        eta = rng.standard_normal(36)
        w = np.full(36, 1.0 / sigma2)

        def warnings_with(cfg):
            state = EPState(
                q0=GaussianFactor(part, stack_by_group(part, blocks), eta),
                q1=GaussianFactor.from_moments(part, y, np.full(36, sigma2), diagonal=False),
                partition=part,
            )
            state.sync()
            _, warnings = update_q_x1(state, op, w, op.apply_adjoint(y) / sigma2, cfg)
            return warnings

        assert warnings_with(EPConfig()).total() == 0
        capped = EPConfig(cg_max_iters=1)
        assert warnings_with(capped) == Counter(cg_not_converged=1 + capped.rbmc_samples)
        res = run_ep_gaussian(y, op, sigma2, k1_adapted(rng, 9), part,
                              EPConfig(cg_max_iters=1, max_iterations=1))
        assert res.warnings >= 1 + capped.rbmc_samples
        assert res.warnings_by_cause["cg_not_converged"] >= 1 + capped.rbmc_samples
        assert res.warnings == sum(res.warnings_by_cause.values())

    def test_denoising_shortcut_sets_noise_variance(self, rng):
        part = build_shifted_partitions(4, 4, 2)[0]
        op = Identity(4, 4)
        sigma2 = 0.31
        y = rng.standard_normal(16)
        state = EPState(
            q0=GaussianFactor.from_moments(part, y, np.ones(16), diagonal=True),
            q1=GaussianFactor.from_moments(part, y, np.ones(16), diagonal=True),
            partition=part,
        )
        state.sync()
        w = np.full(16, 1.0 / sigma2)
        update_q_x1(state, op, w, op.apply_adjoint(y) / sigma2, EPConfig())
        p1 = pixel_diagonal(part, state.q1.prec)
        np.testing.assert_allclose(1.0 / p1, np.full(16, sigma2), rtol=1e-12)
        np.testing.assert_allclose(state.q1.eta / p1, y, rtol=1e-10)

    def test_masked_pixel_gets_floor_precision(self, rng):
        kept = np.ones(16, bool)
        kept[[3, 7]] = False
        part = build_shifted_partitions(4, 4, 2)[0]
        op = Mask(4, 4, kept)
        sigma2 = 0.2
        y = rng.standard_normal(16) * kept
        state = EPState(
            q0=GaussianFactor.from_moments(part, y, np.ones(16), diagonal=True),
            q1=GaussianFactor.from_moments(part, y, np.ones(16), diagonal=True),
            partition=part,
        )
        state.sync()
        update_q_x1(state, op, np.full(16, 1.0 / sigma2),
                    op.apply_adjoint(y) / sigma2, EPConfig())
        p1 = pixel_diagonal(part, state.q1.prec)
        assert np.all(p1[~kept] == 1e-8)
        np.testing.assert_allclose(p1[kept], 1.0 / sigma2, rtol=1e-12)
        # masked pixels carry no information: eta = 0 there
        np.testing.assert_array_equal(state.q1.eta[~kept], 0.0)


def desk_scale_gmm(rng, patch_size=2, n_components=3):
    """Small GMM trained on synthetic smooth patches."""
    from patchep.phantoms import extract_patches, make_phantom

    img = make_phantom(32, 32, seed=5)
    patches = extract_patches(img, patch_size, zero_mean=False)
    patches = patches + 0.01 * rng.standard_normal(patches.shape)
    return train_em(patches, n_components, max_iters=40, seed=2)


class TestStopRule:
    """``_near_fixed_point``: the smaller of the step and the contraction
    estimate d = step rho^2 / (1 - rho)^2, with rho^2 = step / prev_step."""

    positive = st.floats(min_value=1e-300, max_value=1e300)
    anything = st.floats(allow_nan=True, allow_infinity=True)

    @staticmethod
    def first_stop(steps, limit):
        prev = np.inf
        for k, step in enumerate(steps, 1):
            if _near_fixed_point(step, prev, limit):
                return k
            prev = step
        return None

    @settings(max_examples=300, deadline=None)
    @given(st.lists(positive, min_size=1, max_size=30), positive)
    def test_never_stops_later_than_the_step_rule(self, steps, limit):
        by_step = next((k for k, s in enumerate(steps, 1) if s < limit), None)
        by_rule = self.first_stop(steps, limit)
        if by_step is not None:
            assert by_rule is not None and by_rule <= by_step

    @pytest.mark.parametrize("start", [3.0, 2e-3, 5e5])
    def test_geometric_steps_stop_at_the_first_small_estimate(self, start):
        # squared steps falling by 0.01 (rho = 0.1): from the second step on
        # d is step * 0.01 / 0.81, so the run stops where that is first below
        # the limit, one step before the step itself is
        limit = 1e-8
        steps = [start * 0.01 ** k for k in range(12)]
        estimate = [np.inf] + [s * 0.01 / 0.81 for s in steps[1:]]
        expected = next(k for k, (s, e) in enumerate(zip(steps, estimate), 1)
                        if min(s, e) < limit)
        by_step = next(k for k, s in enumerate(steps, 1) if s < limit)
        assert self.first_stop(steps, limit) == expected < by_step

    @settings(max_examples=300, deadline=None)
    @given(positive, positive, st.floats(min_value=1.0, max_value=1e10))
    def test_first_zero_and_rising_steps_fall_back_to_the_step(self, step, limit, rise):
        for prev in (np.inf, 0.0, step, step / rise):
            assert _near_fixed_point(step, prev, limit) == (step < limit)

    @settings(max_examples=300, deadline=None)
    @given(anything, anything, positive)
    def test_non_finite_steps_never_stop_and_nothing_warns(self, step, prev, limit):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            near = _near_fixed_point(step, prev, limit)
            assert not near or np.isfinite(step)
            assert not _near_fixed_point(np.nan, prev, limit)
            assert not _near_fixed_point(np.inf, prev, limit)


class TestRunEpGaussian:
    def test_noiseless_limit_returns_observation(self, rng):
        part = build_shifted_partitions(4, 4, 2)[0]
        adapted = k1_adapted(rng, 4)
        y = rng.standard_normal(16)
        res = run_ep_gaussian(y, Identity(4, 4), 1e-12, adapted, part,
                              EPConfig(damping=1.0))
        np.testing.assert_allclose(res.mean, y, atol=1e-5)

    def test_unit_kernel_convolution_matches_identity(self, rng):
        # a 1x1 unit kernel stores H as the identity, so it takes the
        # diagonal path and restores exactly as Identity does
        part = build_shifted_partitions(6, 6, 3)[4]
        adapted = adapt(small_gmm(rng, 2, 9), Adaptation())
        y = rng.standard_normal(36)
        cfg = EPConfig(max_iterations=5)
        conv = run_ep_gaussian(y, Conv2D(6, 6, [[1.0]]), 0.1, adapted, part, cfg)
        ident = run_ep_gaussian(y, Identity(6, 6), 0.1, adapted, part, cfg)
        np.testing.assert_array_equal(conv.mean, ident.mean)
        np.testing.assert_array_equal(conv.marginal_var, ident.marginal_var)
        assert conv.iterations == ident.iterations

    def test_single_pixel_patches_match_grid_oracle(self, rng):
        # r=1 blocks, K=2 scalar GMM: per-pixel posterior against quadrature
        part = pixel_partition(2, 2)
        base = PatchGMM(np.array([0.4, 0.6]), np.array([[-0.5], [1.0]]),
                        np.array([[[0.3]], [[0.5]]]))
        adapted = adapt(base, Adaptation())
        y = np.array([0.2, -0.8, 1.4, 0.5])
        sigma2 = 0.4
        res = run_ep_gaussian(y, Identity(2, 2), sigma2, adapted, part,
                              EPConfig(damping=1.0))
        grid = np.linspace(-8, 8, 200001)
        for n in range(4):
            prior = (0.4 * np.exp(-0.5 * (grid + 0.5) ** 2 / 0.3) / np.sqrt(0.3)
                     + 0.6 * np.exp(-0.5 * (grid - 1.0) ** 2 / 0.5) / np.sqrt(0.5))
            lik = np.exp(-0.5 * (y[n] - grid) ** 2 / sigma2)
            dens = prior * lik
            z = np.trapezoid(dens, grid)
            mean = np.trapezoid(grid * dens, grid) / z
            var = np.trapezoid(grid ** 2 * dens, grid) / z - mean ** 2
            assert abs(res.mean[n] - mean) < 1e-5
            assert abs(res.marginal_var[n] - var) < 1e-5

    def test_exactness_against_block_posterior_oracle(self, rng):
        # strongest oracle: for diagonal H the converged marginals equal the
        # exact patch-wise GMM posterior
        part = build_shifted_partitions(8, 8, 2)[0]
        gmm = desk_scale_gmm(rng)
        adapted = adapt(gmm, Adaptation())
        truth = sample_prior_image(adapted, part, rng)
        sigma2 = 0.02
        y = simulate(Identity(8, 8), truth, GaussianNoise(sigma2), seed=3)
        res = run_ep_gaussian(y, Identity(8, 8), sigma2, adapted, part,
                              EPConfig(max_iterations=30))
        oracle = exact_diagonal_gaussian_posterior(y, Identity(8, 8), sigma2, adapted, part)
        # one update against the exact likelihood factor, one confirming step
        assert res.converged and res.iterations <= 3
        np.testing.assert_allclose(res.mean, oracle.mean, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(res.marginal_var, oracle.marginal_var, rtol=1e-6)

    def test_inpainting_exactness_and_floor(self, rng):
        part = build_shifted_partitions(8, 8, 2)[0]
        gmm = desk_scale_gmm(rng)
        adapted = adapt(gmm, Adaptation())
        truth = sample_prior_image(adapted, part, rng)
        kept = np.random.default_rng(11).random(64) < 0.4
        op = Mask(8, 8, kept)
        sigma2 = 0.04
        y = simulate(op, truth, GaussianNoise(sigma2), seed=4)
        y = y * kept
        res = run_ep_gaussian(y, op, sigma2, adapted, part,
                              EPConfig(max_iterations=40))
        oracle = exact_diagonal_gaussian_posterior(y, op, sigma2, adapted, part)
        # one more update than denoising: masked pixels start from (y, sigma2)
        assert res.iterations <= 3
        np.testing.assert_allclose(res.mean, oracle.mean, rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(res.marginal_var, oracle.marginal_var, rtol=1e-5)

    def test_denoising_converges_fast_undamped(self, rng):
        part = build_shifted_partitions(8, 8, 2)[0]
        adapted = adapt(desk_scale_gmm(rng), Adaptation())
        truth = sample_prior_image(adapted, part, rng)
        y = simulate(Identity(8, 8), truth, GaussianNoise(0.01), seed=5)
        res = run_ep_gaussian(y, Identity(8, 8), 0.01, adapted, part,
                              EPConfig(damping=1.0))
        assert res.converged and res.iterations <= 3

    def test_joint_moment_consistency(self, rng):
        # m* = Sigma* (P0 m0 + P1 m1) holds after synchronization
        part = build_shifted_partitions(6, 6, 3)[0]
        adapted = adapt(desk_scale_gmm(rng, patch_size=3), Adaptation())
        y = rng.standard_normal(36) * 0.3 + 0.5
        res = run_ep_gaussian(y, Identity(6, 6), 0.05, adapted, part, EPConfig())
        state = res.state
        eta = state.q0.eta + state.q1.eta
        prec = pixel_diagonal(part, state.q0.prec) + pixel_diagonal(part, state.q1.prec)
        np.testing.assert_allclose(state.mean, eta / prec, rtol=1e-10)

    @staticmethod
    def k1_deconvolution(rng):
        """An 8x8 3x3-box deconvolution under a K=1 prior at patch 4:
        (adapted prior, operator, sigma2, y, dense posterior on a partition).
        Under each partition the prior is exactly Gaussian with
        block-diagonal precision, each block under its marginal prior."""
        adapted = k1_adapted(rng, 16, scale=0.5)
        op = Conv2D(8, 8, np.full((3, 3), 1.0 / 9.0))
        sigma2 = 0.05
        truth = sample_prior_image(adapted, build_shifted_partitions(8, 8, 4)[0], rng)
        y = simulate(op, truth, GaussianNoise(sigma2), seed=6)

        def posterior(part):
            omega0 = np.zeros((64, 64))
            eta0 = np.zeros(64)
            for idx, local in blocks_of(part):
                prior = adapted.marginal(local)
                prior_prec = np.linalg.inv(prior.covs[0])
                omega0[np.ix_(idx, idx)] = prior_prec
                eta0[idx] = prior_prec @ prior.means[0]
            w = np.full(64, 1.0 / sigma2)
            return dense_reference_moments(op, w, omega0, eta0 + op.apply_adjoint(y) / sigma2)

        return adapted, op, sigma2, y, posterior

    def test_deconvolution_mean_matches_dense_posterior_k1(self, rng):
        # K=1 conjugate deconvolution: the EP mean equals the exact posterior
        # mean regardless of the block covariance approximation.  Shift (1, 1)
        # truncates the boundary blocks: nine blocks in nine groups, each
        # under its marginal prior.
        adapted, op, sigma2, y, posterior = self.k1_deconvolution(rng)
        for part in (build_shifted_partitions(8, 8, 4)[0], build_shifted_partitions(8, 8, 4)[5]):
            res = run_ep_gaussian(y, op, sigma2, adapted, part,
                                  EPConfig(damping=1.0, max_iterations=25, rbmc_samples=30))
            exact_mean, _ = posterior(part)
            np.testing.assert_allclose(res.mean, exact_mean, atol=5e-5)

    @pytest.mark.parametrize("shift", [0, 5])
    def test_deconvolution_block_covariances_match_dense_posterior_k1(self, rng, shift):
        # the joint blocks that the M-step reads, as EP hands them on: under a
        # K=1 prior the prior-side factor is exact, so the likelihood side's
        # RBMC estimate sets them, and their mean relative Frobenius error
        # against the dense posterior's diagonal blocks falls at the Monte
        # Carlo rate, within test_rbmc_block_covariances_against_dense's
        # bounds (0.10 / 0.10 at 200 probes, 0.036 / 0.031 at 2000, shifts
        # 0 / 5)
        adapted, op, sigma2, y, posterior = self.k1_deconvolution(rng)
        part = build_shifted_partitions(8, 8, 4)[shift]
        _, exact_cov = posterior(part)

        def mean_rel_error(samples):
            res = run_ep_gaussian(y, op, sigma2, adapted, part,
                                  EPConfig(damping=1.0, max_iterations=25, rbmc_samples=samples))
            assert res.converged
            errs = [np.linalg.norm(block - exact_cov[np.ix_(idx, idx)])
                    / np.linalg.norm(exact_cov[np.ix_(idx, idx)])
                    for block, (idx, _) in zip(per_block(part, res.cov), blocks_of(part))]
            return float(np.mean(errs))

        assert mean_rel_error(200) <= 0.12
        assert mean_rel_error(2000) <= 0.04

    def test_deblur_converges_with_common_random_numbers(self):
        # 12x12 3x3-box deblur: with the same RBMC probes on every update EP
        # reaches its fixed point; with fresh probes per iteration the RBMC
        # noise kept it from converging within 40 iterations
        from patchep.phantoms import extract_patches, make_phantom

        base = train_em(extract_patches(make_phantom(32, 32, seed=0), 4), 3,
                        max_iters=20, seed=0)
        op = Conv2D(12, 12, np.full((3, 3), 1.0 / 9.0))
        sigma2 = (10 / 255) ** 2
        y = simulate(op, make_phantom(12, 12, seed=0).ravel(), GaussianNoise(sigma2), seed=100)
        theta = Adaptation(offset=float(np.mean(y)), mean_var=float(np.var(y)) - sigma2)
        res = run_ep_gaussian(y, op, sigma2, adapt(base, theta),
                              build_shifted_partitions(12, 12, 4)[0],
                              EPConfig(max_iterations=40))
        assert res.converged and res.warnings == 0

    def test_trace_records_emitted(self, rng):
        # one record per iteration, numbered from 1, in native Python numbers
        part = build_shifted_partitions(4, 4, 2)[0]
        adapted = k1_adapted(rng, 4)
        y = rng.standard_normal(16)
        res = run_ep_gaussian(y, Identity(4, 4), 0.1, adapted, part, EPConfig())
        assert len(res.history) == res.iterations >= 1
        assert [r["iteration"] for r in res.history] == list(range(1, res.iterations + 1))
        assert set(res.history[0]) == {"iteration", "dm2", "dvar2", "cg_iterations", "warnings"}
        assert set(res.history[0]["warnings"]) == set(WARNING_CAUSES)
        assert all(type(r["dm2"]) is float and type(r["cg_iterations"]) is int
                   for r in res.history)

    def test_status_flag_when_not_converged(self, rng):
        part = build_shifted_partitions(4, 4, 2)[0]
        adapted = adapt(small_gmm(rng, 2, 4), Adaptation())
        y = rng.standard_normal(16)
        res = run_ep_gaussian(y, Identity(4, 4), 0.1, adapted, part,
                              EPConfig(max_iterations=1))
        assert res.iterations == 1 and not res.converged

    @pytest.mark.parametrize("y_bad, sigma2", [(np.inf, 0.1), (np.nan, 0.1), (0.0, 0.0),
                                               (0.0, -1.0), (0.0, np.inf), (0.0, np.nan)],
                             ids=["inf_pixel", "nan_pixel", "zero_var", "negative_var",
                                  "inf_var", "nan_var"])
    def test_rejects_nonfinite_input(self, rng, y_bad, sigma2):
        part = build_shifted_partitions(4, 4, 2)[0]
        y = rng.standard_normal(16)
        y[5] += y_bad
        with pytest.raises(ValueError):
            run_ep_gaussian(y, Identity(4, 4), sigma2, k1_adapted(rng, 4), part)


class TestResume:
    """Runs that start from an earlier result's factors (EP-EM rounds)."""

    @staticmethod
    def problem(op):
        from patchep.phantoms import extract_patches, make_phantom

        base = train_em(extract_patches(make_phantom(32, 32, seed=0), 4), 3,
                        max_iters=20, seed=0)
        sigma2 = (10 / 255) ** 2
        y = simulate(op, make_phantom(12, 12, seed=0).ravel(), GaussianNoise(sigma2), seed=100)
        theta = Adaptation(offset=float(np.mean(y)), mean_var=float(np.var(y)) - sigma2)
        return base, sigma2, y, theta

    def test_resumed_converged_run_stops_at_once(self):
        # block path (CG, RBMC, block KL) on a shifted partition: resumed
        # from its own converged result, EP starts at its fixed point and
        # stops within two iterations, having moved less than the stop rule
        # allows; the earlier result is left as it was
        op = Conv2D(12, 12, np.full((3, 3), 1.0 / 9.0))
        base, sigma2, y, theta = self.problem(op)
        part = build_shifted_partitions(12, 12, 4)[5]
        cfg = EPConfig(max_iterations=100, stop_tol=1e-12)
        first = run_ep_gaussian(y, op, sigma2, adapt(base, theta), part, cfg)
        assert first.converged
        kept = first.mean.copy(), [p.copy() for p in first.state.q1.prec]
        again = run_ep_gaussian(y, op, sigma2, adapt(base, theta), part, cfg, init=first)
        assert again.converged and again.iterations <= 2
        assert np.sum((again.mean - first.mean) ** 2) < cfg.stop_tol * 144
        assert np.sum((again.marginal_var - first.marginal_var) ** 2) < cfg.stop_tol * 144
        np.testing.assert_array_equal(first.mean, kept[0])
        for p, p_kept in zip(first.state.q1.prec, kept[1]):
            np.testing.assert_array_equal(p, p_kept)

    def test_resume_at_new_theta_matches_cold_run(self):
        # inpainting at an adaptation moved as by one M-step: the run resumed
        # from the old result reaches the cold run's fixed point in fewer
        # iterations.  Each run stops once a step moves the mean and the
        # variances by less than sqrt(stop_tol * N) in 2-norm, which at a
        # contraction rate of at most 0.9 leaves them within 9 such steps of
        # the fixed point, or earlier, once the contraction estimate of
        # fast-contracting steps puts them within sqrt(stop_tol * N) of it;
        # so the two agree to 20 sqrt(stop_tol * N) either way.
        # Under the 3x3 box blur the cold and the resumed run can settle on
        # different fixed points (0.005 apart in mean on this scene), so the
        # comparison is made with a diagonal H.  Denoising would show no
        # saving: there one undamped prior-side update is the fixed point of
        # either run.  A cold inpainting run first updates its masked pixels
        # against the starting cavity (y, sigma2), and a resumed one does not
        op = Mask(12, 12, np.random.default_rng(11).random(144) < 0.6)
        base, sigma2, y, theta = self.problem(op)
        part = build_shifted_partitions(12, 12, 4)[5]
        cfg = EPConfig(max_iterations=100, stop_tol=1e-12)
        moved = Adaptation(offset=theta.offset + 0.02, mean_var=0.8 * theta.mean_var)
        first = run_ep_gaussian(y, op, sigma2, adapt(base, theta), part, cfg)
        cold = run_ep_gaussian(y, op, sigma2, adapt(base, moved), part, cfg)
        warm = run_ep_gaussian(y, op, sigma2, adapt(base, moved), part, cfg, init=first)
        assert cold.converged and warm.converged
        assert warm.iterations < cold.iterations
        bound = 20 * np.sqrt(cfg.stop_tol * 144)
        assert np.linalg.norm(warm.mean - cold.mean) < bound
        assert np.linalg.norm(warm.marginal_var - cold.marginal_var) < bound
