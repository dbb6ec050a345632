import json
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import patchep.ep_gaussian as ep_gaussian
from patchep.ep_gaussian import (
    WARNING_CAUSES,
    EPConfig,
    EPState,
    GaussianFactor,
    run_ep_gaussian,
    update_q_x0,
)
from patchep.gaussians import BlockDiagonalCov
from patchep.gmm import Adaptation, PatchGMM, adapt, train_em
from patchep.operators import Conv2D, GaussianNoise, Identity, PoissonNoise, simulate
from patchep.partitions import build_shifted_partitions
from patchep.pipeline import (
    MEAN_VAR_BOUNDS,
    ExpertResult,
    FusedPosterior,
    PipelineConfig,
    _at_bound,
    _closed_form_offset,
    _mean_var_slope,
    epem_e_cost,
    epem_m_step,
    estep_statistics,
    fuse_poe,
    run_pipeline,
)

from conftest import blocks_of, diag_stacks, random_spd, small_gmm, stack_by_group
from reference import (
    epem_e_cost_differences_exact,
    epem_e_cost_reference,
    epem_offset_reference,
    sample_prior_image,
)


def make_expert(index, mean, var):
    return ExpertResult(index=index, mean=np.asarray(mean, float),
                        marginal_var=np.asarray(var, float), theta=Adaptation(),
                        iterations=1, outer_rounds=1, converged=True)


class TestFusePoe:
    def test_idempotent_on_identical_experts(self):
        experts = [make_expert(i, [1.0, -2.0], [0.5, 2.0]) for i in range(5)]
        fused = fuse_poe(experts)
        np.testing.assert_allclose(fused.mean, [1.0, -2.0])
        np.testing.assert_allclose(fused.marginal_var, [0.5, 2.0])

    def test_two_expert_arithmetic(self):
        fused = fuse_poe([make_expert(0, [0.0], [1.0]), make_expert(1, [4.0], [3.0])])
        assert fused.marginal_var[0] == pytest.approx(1.5)
        assert fused.mean[0] == pytest.approx(1.0)

    def test_single_expert_unchanged(self):
        fused = fuse_poe([make_expert(0, [0.3, 0.7], [1.0, 2.0])])
        np.testing.assert_array_equal(fused.mean, [0.3, 0.7])
        np.testing.assert_array_equal(fused.marginal_var, [1.0, 2.0])

    def test_precision_is_mean_of_expert_precisions(self, rng):
        experts = [make_expert(i, rng.standard_normal(10),
                               rng.uniform(0.5, 3.0, 10)) for i in range(7)]
        fused = fuse_poe(experts)
        expected = np.mean([1.0 / e.marginal_var for e in experts], axis=0)
        np.testing.assert_allclose(1.0 / fused.marginal_var, expected, rtol=1e-12)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(data=st.data(), n_experts=st.integers(1, 5), n_pixels=st.integers(1, 6))
    def test_order_invariance_and_lone_expert(self, data, n_experts, n_pixels):
        means = data.draw(hnp.arrays(np.float64, (n_experts, n_pixels),
                                     elements=st.floats(-100, 100)))
        variances = data.draw(hnp.arrays(np.float64, (n_experts, n_pixels),
                                         elements=st.floats(1e-3, 1e3)))
        experts = [make_expert(i, m, v) for i, (m, v) in enumerate(zip(means, variances))]
        order = data.draw(st.permutations(range(n_experts)))
        fused = fuse_poe(experts)
        shuffled = fuse_poe([experts[i] for i in order])
        # the two averages add the same terms in another order
        tol = 8 * n_experts * np.finfo(float).eps
        np.testing.assert_allclose(shuffled.marginal_var, fused.marginal_var, rtol=tol)
        np.testing.assert_allclose(shuffled.mean, fused.mean, rtol=tol,
                                   atol=tol * np.max(np.abs(means)))
        # one expert comes back as it is, up to the rounding of 1/(1/v)
        lone = fuse_poe(experts[:1])
        np.testing.assert_allclose(lone.mean, means[0], rtol=4 * np.finfo(float).eps)
        np.testing.assert_allclose(lone.marginal_var, variances[0], rtol=4 * np.finfo(float).eps)

    def test_requires_experts(self):
        with pytest.raises(ValueError):
            fuse_poe([])


def single_pixel_partition_cost_inputs():
    """One 1-pixel block, K=1 base: scalar cost has a hand formula."""
    from patchep.partitions import Partition

    part = Partition(1, 1, 1, (0, 0))
    base = PatchGMM(np.array([1.0]), np.array([[0.0]]), np.array([[[1.0]]]))
    weights = [np.array([[1.0]])]
    mean = np.array([1.3])
    cov = BlockDiagonalCov(part, diag_stacks(part, np.array([0.4])))
    return part, base, weights, mean, cov


class TestEpemCost:
    def test_scalar_hand_formula(self):
        part, base, weights, mean, cov = single_pixel_partition_cost_inputs()
        theta = Adaptation(offset=0.5, mean_var=0.2, scale=1.5)
        var = theta.mean_var + theta.scale ** 2 * 1.0
        expected = -0.5 * (np.log(2 * np.pi * var)
                           + 0.4 / var + (1.3 - 0.5) ** 2 / var)
        got = epem_e_cost(theta, estep_statistics(weights, mean, cov, base, part))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_weight_scaling_shifts_cost_not_argmax(self):
        part, base, weights, mean, cov = single_pixel_partition_cost_inputs()
        stats = estep_statistics(weights, mean, cov, base, part)
        doubled = estep_statistics([2.0 * w for w in weights], mean, cov, base, part)
        for offset in (0.0, 0.5, 1.0):
            theta = Adaptation(offset=offset, mean_var=0.1, scale=1.0)
            a = epem_e_cost(theta, stats)
            b = epem_e_cost(theta, doubled)
            assert b == pytest.approx(2.0 * a, rel=1e-12)

    def test_generating_parameters_maximize_on_grid(self, rng):
        # oracle: coarse grid evaluation around the generating adaptation
        part = build_shifted_partitions(24, 24, 4)[0]
        base = PatchGMM(
            weights=np.array([0.5, 0.5]),
            means=np.stack([np.zeros(16), 0.5 * np.ones(16)]),
            covs=np.stack([np.eye(16) * 0.5, np.eye(16) * 0.2]),
        )
        true_theta = Adaptation(offset=2.0, mean_var=0.3, scale=1.0)
        adapted = adapt(base, true_theta)
        x = sample_prior_image(adapted, part, rng)
        weights = []
        mean = x
        cov = BlockDiagonalCov(part, diag_stacks(part, np.full(part.n_pixels, 1e-4)))
        for j, (idx, _) in enumerate(blocks_of(part)):
            logp = [np.log(adapted.weights[k])
                    - 0.5 * (x[idx] - adapted.means[k]) @ np.linalg.solve(
                        adapted.covs[k], x[idx] - adapted.means[k])
                    - 0.5 * np.linalg.slogdet(adapted.covs[k])[1]
                    for k in range(2)]
            logp = np.array(logp)
            w = np.exp(logp - logp.max())
            weights.append(w / w.sum())
        stats = estep_statistics(stack_by_group(part, weights), mean, cov, base, part)
        best = epem_e_cost(true_theta, stats)
        for offset in [1.0, 1.5, 2.5, 3.0]:
            assert epem_e_cost(Adaptation(offset, 0.3, 1.0), stats) < best
        for mean_var in [0.05, 1.2]:
            assert epem_e_cost(Adaptation(2.0, mean_var, 1.0), stats) < best
        for scale in [0.5, 2.0]:
            assert epem_e_cost(Adaptation(2.0, 0.3, scale), stats) < best


    @staticmethod
    def cost_inputs(rng, base, partition, spread=20.0):
        """Tilted weights, mean (pixels uniform on [0, spread]) and block
        covariances on ``partition``, as EP would hand them to the M-step."""
        k = base.n_components
        weights = [rng.dirichlet(np.ones(k), size=len(g.ids)) for g in partition.groups]
        mean = rng.uniform(0.0, spread, partition.n_pixels)
        cov = BlockDiagonalCov(partition, [np.stack([random_spd(rng, g.local.size, 0.05)
                                                     for _ in g.ids]) for g in partition.groups])
        return weights, mean, cov

    @staticmethod
    def well_conditioned_base(rng, dim):
        return PatchGMM(np.full(3, 1.0 / 3.0), rng.standard_normal((3, dim)) * 0.3,
                        np.stack([random_spd(rng, dim, 0.05) for _ in range(3)]))

    @classmethod
    def small_base(cls, rng, conditioning):
        """A b = 4 base of either kind, small enough for the exact oracle."""
        if conditioning == "well":
            return cls.well_conditioned_base(rng, 4)
        return cls.ill_conditioned_base(rng, 4, 2)

    @staticmethod
    def ill_conditioned_base(rng, dim, n_small):
        """Like the bench prior: every component has ``n_small`` eigenvalues
        at 1e-8, so at scale 1 the adapted covariances, which lift at most
        one of them, have condition number ~1e9 or more."""
        q = np.linalg.qr(rng.standard_normal((5, dim, dim)))[0]
        evals = np.concatenate([np.full(n_small, 1e-8), np.logspace(-4, 1, dim - n_small)])
        return PatchGMM(np.full(5, 0.2), rng.standard_normal((5, dim)) * 0.3,
                        (q * evals) @ np.swapaxes(q, 1, 2))

    @pytest.mark.parametrize("shift_index", [0, 5])
    def test_matches_reference_well_conditioned(self, rng, shift_index):
        # shift (1, 1) truncates the boundary blocks into 9 groups
        part = build_shifted_partitions(16, 16, 4)[shift_index]
        base = self.well_conditioned_base(rng, 16)
        weights, mean, cov = self.cost_inputs(rng, base, part)
        stats = estep_statistics(weights, mean, cov, base, part)
        for theta in (Adaptation(8.0, 2.0, 1.5), Adaptation(12.0, 0.3, 0.7),
                      Adaptation(10.0, 1e-6, 1.0), Adaptation(-3.0, 5.0, 3.0)):
            got = epem_e_cost(theta, stats)
            want = epem_e_cost_reference(theta, weights, mean, cov, base, part)
            assert got == pytest.approx(want, rel=1e-12)

    def test_matches_reference_ill_conditioned(self, rng):
        # the reference factors the adapted covariances (condition ~1e10), so
        # it is itself accurate only to about 1e10 * eps relative
        base = self.ill_conditioned_base(rng, 16, 4)
        assert np.linalg.cond(adapt(base, Adaptation(10.0, 3.0, 1.0)).covs[0]) > 1e9
        for part in (build_shifted_partitions(16, 16, 4)[0], build_shifted_partitions(16, 16, 4)[5]):
            weights, mean, cov = self.cost_inputs(rng, base, part)
            stats = estep_statistics(weights, mean, cov, base, part)
            for theta in (Adaptation(10.0, 3.0, 1.0), Adaptation(10.0, 0.5, 2.0)):
                got = epem_e_cost(theta, stats)
                assert got < -1e9
                want = epem_e_cost_reference(theta, weights, mean, cov, base, part)
                assert got == pytest.approx(want, rel=1e-6)

    def test_mean_var_differences_match_exact_arithmetic(self, rng):
        # the same kind of prior at b = 4: as a function of mean_var the cost
        # is smooth, its differences agree with exact rational arithmetic to
        # a few ulps of the cost itself (a factorization of each adapted
        # covariance misses them by 2e-8 to 9e-8 of the cost, more than
        # the differences themselves)
        base = self.ill_conditioned_base(rng, 4, 2)
        part = build_shifted_partitions(8, 8, 2)[0]
        weights, mean, cov = self.cost_inputs(rng, base, part)
        theta0 = Adaptation(offset=10.0, mean_var=0.5, scale=1.0)
        grid = np.geomspace(0.5, 10.0, 9)
        stats = estep_statistics(weights, mean, cov, base, part)
        cost0 = epem_e_cost(theta0, stats)
        assert np.linalg.cond(adapt(base, theta0).covs[0]) > 1e9
        got = [epem_e_cost(replace(theta0, mean_var=v), stats) - cost0 for v in grid]
        want = epem_e_cost_differences_exact(theta0, grid, weights, mean, cov, base, part)
        assert np.all(np.diff(want) > 0)
        np.testing.assert_allclose(got, want, rtol=0, atol=64 * np.finfo(float).eps * abs(cost0))

    @pytest.mark.parametrize("conditioning", ["well", "ill"])
    @pytest.mark.parametrize("shift_index", [0, 3])
    def test_slope_matches_exact_central_differences(self, rng, conditioning, shift_index):
        # the M-step's slope is the E-cost's derivative in mean_var at the
        # closed-form offset; central differences of the exact-rational cost
        # (step 1e-5 v, truncation ~1e-10) agree to the slope's rounding
        base = self.small_base(rng, conditioning)
        part = build_shifted_partitions(8, 8, 2)[shift_index]
        weights, mean, cov = self.cost_inputs(rng, base, part)
        stats = estep_statistics(weights, mean, cov, base, part)
        for mean_var in (0.05, 0.5, 5.0):
            theta = Adaptation(offset=10.0, mean_var=mean_var, scale=1.0)
            theta = replace(theta, offset=_closed_form_offset(theta, stats))
            offset, slope, _ = _mean_var_slope(theta, stats)
            assert offset == theta.offset
            h = 1e-5 * mean_var
            up, down = epem_e_cost_differences_exact(theta, [mean_var + h, mean_var - h],
                                                     weights, mean, cov, base, part)
            assert slope == pytest.approx((up - down) / (2 * h), rel=1e-7)

    @pytest.mark.parametrize("shift_index", [0, 5])
    def test_offset_matches_reference(self, rng, shift_index):
        part = build_shifted_partitions(16, 16, 4)[shift_index]
        base = self.well_conditioned_base(rng, 16)
        weights, mean, cov = self.cost_inputs(rng, base, part)
        stats = estep_statistics(weights, mean, cov, base, part)
        for theta in (Adaptation(8.0, 2.0, 1.5), Adaptation(0.0, 1e-6, 0.7)):
            want = epem_offset_reference(theta, weights, mean, cov, base, part)
            assert _closed_form_offset(theta, stats) == pytest.approx(want, rel=1e-12)


class TestEpemMStep:
    def test_offset_closed_form_is_weighted_mean(self, rng):
        # K=1, zero-mean unit-cov base, one group of aligned blocks: for any
        # mean_var the offset maximizer is the plain mean over all pixels
        part = build_shifted_partitions(8, 8, 4)[0]
        base = PatchGMM(np.array([1.0]), np.zeros((1, 16)), np.eye(16)[None])
        mean = rng.standard_normal(64) + 2.0
        weights = stack_by_group(part, [np.array([1.0]) for _ in blocks_of(part)])
        cov = BlockDiagonalCov(part, diag_stacks(part, np.full(64, 0.1)))
        theta = epem_m_step(weights, mean, cov, base, part,
                            Adaptation(offset=0.0, mean_var=1e-8, scale=1.0),
                            estimate_scale=False)
        assert theta.offset == pytest.approx(np.mean(mean), rel=1e-6)

    def test_scale_not_estimated_when_fixed(self, rng):
        part = build_shifted_partitions(8, 8, 4)[0]
        base = PatchGMM(np.array([1.0]), np.zeros((1, 16)), np.eye(16)[None])
        mean = rng.standard_normal(64)
        weights = stack_by_group(part, [np.array([1.0]) for _ in blocks_of(part)])
        cov = BlockDiagonalCov(part, diag_stacks(part, np.full(64, 0.1)))
        theta = epem_m_step(weights, mean, cov, base, part,
                            Adaptation(scale=1.0), estimate_scale=False)
        assert theta.scale == 1.0

    def test_cost_non_decreasing_across_m_steps(self, rng):
        part = build_shifted_partitions(12, 12, 4)[0]
        base = PatchGMM(
            weights=np.array([0.4, 0.6]),
            means=np.stack([np.zeros(16), np.ones(16)]),
            covs=np.stack([np.eye(16) * 0.4, np.eye(16) * 0.3]),
        )
        adapted = adapt(base, Adaptation(offset=1.0, mean_var=0.2, scale=1.0))
        x = sample_prior_image(adapted, part, rng)
        weights = stack_by_group(part, [np.full(2, 0.5) for _ in blocks_of(part)])
        cov = BlockDiagonalCov(part, diag_stacks(part, np.full(part.n_pixels, 0.05)))
        theta0 = Adaptation(offset=0.2, mean_var=0.05, scale=1.0)
        stats = estep_statistics(weights, x, cov, base, part)
        cost0 = epem_e_cost(theta0, stats)
        theta1 = epem_m_step(weights, x, cov, base, part, theta0, estimate_scale=True)
        cost1 = epem_e_cost(theta1, stats)
        assert cost1 >= cost0 - 1e-9

    def test_synthetic_recovery_of_offset_and_scale(self, rng):
        # clean observations of a prior draw: EP-EM recovers the generating
        # offset/scale closely (bands widen with noise; tested in acceptance)
        part = build_shifted_partitions(24, 24, 4)[0]
        base = train_em(rng.standard_normal((400, 16)) * 0.5, 2,
                        max_iters=20, seed=1)
        true_theta = Adaptation(offset=3.0, mean_var=0.4, scale=2.0)
        adapted = adapt(base, true_theta)
        x = sample_prior_image(adapted, part, rng)
        y = simulate(Identity(24, 24), x, GaussianNoise(1e-4), seed=2)
        res = run_ep_gaussian(y, Identity(24, 24), 1e-4, adapted, part,
                              EPConfig(damping=1.0))
        theta = epem_m_step(res.weights, res.mean, res.cov, base, part,
                            Adaptation(offset=np.mean(y), mean_var=0.2, scale=1.0),
                            estimate_scale=True)
        assert abs(theta.offset - 3.0) / 3.0 < 0.1
        assert abs(theta.scale - 2.0) / 2.0 < 0.15


class TestProfilePick:
    """The M-step at a fixed scale: the exact (offset, mean_var) maximizer."""

    @pytest.mark.parametrize("conditioning", ["well", "ill"])
    @pytest.mark.parametrize("shift_index", [0, 3])
    def test_interior_pick_maximizes_exact_differences(self, rng, conditioning, shift_index):
        base = TestEpemCost.small_base(rng, conditioning)
        part = build_shifted_partitions(8, 8, 2)[shift_index]
        weights, mean, cov = TestEpemCost.cost_inputs(rng, base, part, spread=3.0)
        theta = epem_m_step(weights, mean, cov, base, part,
                            Adaptation(offset=10.0, mean_var=0.5, scale=1.0), estimate_scale=False)
        assert MEAN_VAR_BOUNDS[0] < theta.mean_var < MEAN_VAR_BOUNDS[1]
        assert _at_bound(theta, False) == []
        # the reference factors the adapted covariances (condition ~1e9 when ill)
        assert theta.offset == pytest.approx(
            epem_offset_reference(theta, weights, mean, cov, base, part),
            rel=1e-12 if conditioning == "well" else 1e-7)
        grid = theta.mean_var * (1.0 + 1e-3 * np.array([-2.0, -1.0, 1.0, 2.0]))
        assert np.all(epem_e_cost_differences_exact(theta, grid, weights, mean, cov, base, part) < 0)

    @pytest.mark.parametrize("spread, bound", [(30.0, 1), (0.0, 0)], ids=["upper", "lower"])
    def test_pick_on_a_bound_is_the_bound_exactly(self, spread, bound):
        # 2x2 blocks whose means spread with variance spread^2 about 2, each
        # block's covariance 1e-3 I under a 0.05 I base: at 900 the slope is
        # still positive at the upper bound, on a flat image it is negative
        # at the lower one; the exact cost falls going inwards from either
        rng = np.random.default_rng(0)
        part = build_shifted_partitions(8, 8, 2)[0]
        base = PatchGMM(np.array([1.0]), np.zeros((1, 4)), (0.05 * np.eye(4))[None])
        mean = 2.0 + np.kron(rng.normal(0.0, spread, (4, 4)), np.ones((2, 2))).ravel()
        weights = stack_by_group(part, [np.array([1.0]) for _ in blocks_of(part)])
        cov = BlockDiagonalCov(part, diag_stacks(part, np.full(64, 1e-3)))
        theta = epem_m_step(weights, mean, cov, base, part,
                            Adaptation(offset=0.0, mean_var=0.5, scale=1.0), estimate_scale=False)
        assert theta.mean_var == MEAN_VAR_BOUNDS[bound]
        assert _at_bound(theta, False) == ["mean_var"]
        inwards = theta.mean_var * (1.0 + (1e-3 if bound == 0 else -1e-3) * np.array([1.0, 2.0]))
        assert np.all(epem_e_cost_differences_exact(theta, inwards, weights, mean, cov, base, part) < 0)

    @pytest.mark.parametrize("shift_index", [0, 3])
    def test_pick_is_stable_under_rounding_level_perturbations(self, rng, shift_index):
        # the E-cost is ~5e8 here, and a 1% move of mean_var near the pick
        # changes it by ~5e-4: a golden-section search comparing cost values
        # picked by rounding and moved 4e-6 and 8e-5 relative under this
        # perturbation; the root of the slope moves with the statistics
        base = TestEpemCost.ill_conditioned_base(rng, 4, 2)
        part = build_shifted_partitions(8, 8, 2)[shift_index]
        weights, mean, cov = TestEpemCost.cost_inputs(rng, base, part, spread=3.0)
        theta0 = Adaptation(offset=10.0, mean_var=0.5, scale=1.0)
        picked = epem_m_step(weights, mean, cov, base, part, theta0, estimate_scale=False)
        assert MEAN_VAR_BOUNDS[0] < picked.mean_var < MEAN_VAR_BOUNDS[1]
        signs = np.random.default_rng(1)

        def nudge(x):
            return x * (1.0 + 1e-14 * signs.choice([-1.0, 1.0], np.shape(x)))

        moved = epem_m_step([nudge(w) for w in weights], nudge(mean),
                            BlockDiagonalCov(part, [s * (1.0 + 1e-14) for s in cov.stacks]),
                            base, part, theta0, estimate_scale=False)
        for got, want in zip(astuple(moved), astuple(picked)):
            assert got == pytest.approx(want, rel=1e-10, abs=0)

    def test_fixed_scale_evaluates_the_cost_once(self, rng, monkeypatch):
        # the pick comes from the slope; the E-cost is evaluated only at the
        # pick, which keeps its finiteness check
        import patchep.pipeline as pipeline

        base = TestEpemCost.small_base(rng, "ill")
        part = build_shifted_partitions(8, 8, 2)[3]
        weights, mean, cov = TestEpemCost.cost_inputs(rng, base, part, spread=3.0)
        calls = []

        def counted(theta, st):
            calls.append(theta)
            return epem_e_cost(theta, st)

        monkeypatch.setattr(pipeline, "epem_e_cost", counted)
        theta = epem_m_step(weights, mean, cov, base, part, Adaptation(10.0, 0.5, 1.0),
                            estimate_scale=False)
        assert calls == [theta]
        bad = BlockDiagonalCov(part, [np.where(np.eye(s.shape[-1], dtype=bool), np.inf, s) for s in cov.stacks])
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not finite"):
            epem_m_step(weights, mean, bad, base, part, Adaptation(10.0, 0.5, 1.0),
                        estimate_scale=False)


def prior_update_with_failures(monkeypatch, failing):
    """One prior-side update on the shift-(1, 1) partition of an 8x8 image
    with 2x2 patches (9 groups; group 4 holds the 9 interior blocks), with
    the tilted kernel raising LinAlgError for the groups in ``failing``.
    Returns the partition, the base GMM, the state (its joint moments from
    the sync before the update) and update_q_x0's (weights, warnings)."""
    rng = np.random.default_rng(3)
    part = build_shifted_partitions(8, 8, 2)[3]
    base = small_gmm(rng, 3, 4)
    y = rng.standard_normal(64)
    state = EPState(q0=GaussianFactor.from_moments(part, y, np.full(64, 0.5), diagonal=False),
                    q1=GaussianFactor.from_moments(part, y, np.full(64, 0.5), diagonal=False),
                    partition=part)
    state.sync()
    real_kernel, calls = ep_gaussian._tilted_moments_stack, iter(range(len(part.groups)))

    def kernel(adapted, cavity_means, cavity_covs):     # one call per group, in order
        if next(calls) in failing:
            raise np.linalg.LinAlgError("forced failure")
        return real_kernel(adapted, cavity_means, cavity_covs)

    monkeypatch.setattr(ep_gaussian, "_tilted_moments_stack", kernel)
    updated = update_q_x0(state, adapt(base, Adaptation(scale=0.5)), EPConfig())
    monkeypatch.undo()
    return part, base, state, updated


class TestFailedTiltedMoments:
    def test_failed_group_has_no_weights_and_is_left_out_of_the_estep(self, monkeypatch):
        part, base, state, (weights, warnings) = prior_update_with_failures(monkeypatch, {4})
        all_weights = prior_update_with_failures(monkeypatch, set())[3][0]
        assert weights[4] is None and warnings["tilted_failed"] == len(part.groups[4].ids) == 9
        # the failed group keeps its initial blocks, precision 1 / 0.5
        np.testing.assert_array_equal(state.q0.prec[4], diag_stacks(part, np.full(64, 2.0))[4])
        for g, (w, w_all) in enumerate(zip(weights, all_weights)):
            if g != 4:
                np.testing.assert_array_equal(w, w_all)
        cov = BlockDiagonalCov(part, state.joint_covs)
        stats = estep_statistics(weights, state.mean, cov, base, part)
        full = estep_statistics(all_weights, state.mean, cov, base, part)
        kept = np.repeat(np.arange(len(part.groups)) != 4, base.n_components)
        for name, value, full_value in zip(stats._fields, stats, full):
            np.testing.assert_array_equal(value, full_value[kept], err_msg=name)

    def test_m_step_keeps_theta_when_every_group_failed(self, monkeypatch):
        part, base, state, (weights, warnings) = prior_update_with_failures(
            monkeypatch, set(range(9)))
        assert weights == [None] * 9 and warnings["tilted_failed"] == 25   # every block
        theta = Adaptation(offset=0.2, mean_var=0.05, scale=1.0)
        cov = BlockDiagonalCov(part, state.joint_covs)
        assert epem_m_step(weights, state.mean, cov, base, part, theta,
                           estimate_scale=False) == theta

    def test_pipeline_raises_when_every_expert_failed(self, monkeypatch):
        def failing_expert(*args, **kwargs):
            raise np.linalg.LinAlgError("forced failure")

        monkeypatch.setattr("patchep.pipeline._run_expert", failing_expert)
        base = PatchGMM(np.array([1.0]), np.full((1, 4), 0.4), (0.05 * np.eye(4))[None])
        cfg = PipelineConfig(patch_size=2, n_experts=2, em_enabled=False)
        with pytest.raises(RuntimeError, match="all experts failed"):
            run_pipeline(np.full(64, 0.4), Identity(8, 8), GaussianNoise(0.01), base, cfg)


class TestPipelineConfig:
    @pytest.mark.parametrize("rounds", [0, -1])
    def test_rejects_outer_rounds_below_one(self, rounds):
        # no round means no EP run, hence no expert result to report
        with pytest.raises(ValueError, match="outer_rounds"):
            PipelineConfig(outer_rounds=rounds)


class TestRunPipeline:
    def test_single_expert_matches_bare_ep(self, rng):
        part0 = build_shifted_partitions(8, 8, 2)[0]
        base = train_em(rng.standard_normal((200, 4)) * 0.3, 2, max_iters=20, seed=0)
        theta = Adaptation(offset=0.5, mean_var=0.01, scale=1.0)
        adapted = adapt(base, theta)
        truth = sample_prior_image(adapted, part0, rng)
        y = simulate(Identity(8, 8), truth, GaussianNoise(0.01), seed=1)
        cfg = PipelineConfig(ep=EPConfig(damping=1.0), patch_size=2, n_experts=1,
                             em_enabled=False, theta_init=theta, seed=3)
        out = run_pipeline(y, Identity(8, 8), GaussianNoise(0.01), base, cfg)
        ep_cfg = EPConfig(damping=1.0, seed=int(np.random.SeedSequence(
            entropy=3, spawn_key=(0,)).generate_state(1)[0]))
        bare = run_ep_gaussian(y, Identity(8, 8), 0.01, adapted, part0, ep_cfg)
        # fusion of one expert is an algebraic identity (up to one rounding)
        np.testing.assert_allclose(out.fused.mean, bare.mean, rtol=1e-14)
        np.testing.assert_allclose(out.fused.marginal_var, bare.marginal_var, rtol=1e-14)

    def test_pixelwise_prior_makes_experts_identical(self, rng):
        # iid per-pixel prior: every partition yields the same posterior, so
        # the fused posterior equals each expert's
        base = PatchGMM(np.array([1.0]), np.full((1, 4), 0.5), (0.04 * np.eye(4))[None])
        y = simulate(Identity(8, 8), np.full(64, 0.5), GaussianNoise(0.02), seed=5)
        cfg = PipelineConfig(ep=EPConfig(damping=1.0), patch_size=2,
                             em_enabled=False, theta_init=Adaptation(), seed=0)
        out = run_pipeline(y, Identity(8, 8), GaussianNoise(0.02), base, cfg)
        assert len(out.experts) == 4
        for expert in out.experts:
            np.testing.assert_allclose(out.fused.mean, expert.mean, atol=1e-10)

    def test_poe_beats_single_expert_on_structured_image(self, rng):
        from patchep.metrics import psnr
        from patchep.phantoms import extract_patches, make_phantom

        img = make_phantom(32, 32, seed=2)
        base = train_em(extract_patches(img, 4, zero_mean=True), 3,
                        max_iters=30, seed=4)
        truth = make_phantom(32, 32, seed=9).ravel()
        sigma2 = (25 / 255) ** 2
        y = simulate(Identity(32, 32), truth, GaussianNoise(sigma2), seed=6)
        cfg = PipelineConfig(ep=EPConfig(damping=1.0), patch_size=4,
                             em_enabled=True, estimate_scale=False, seed=1)
        out = run_pipeline(y, Identity(32, 32), GaussianNoise(sigma2), base, cfg)
        fused_psnr = psnr(truth, out.fused.mean)
        assert fused_psnr > max(psnr(truth, e.mean) for e in out.experts)
        assert fused_psnr > psnr(truth, y) + 2.0

    def test_share_theta_mode(self, rng):
        base = PatchGMM(np.array([1.0]), np.zeros((1, 4)), (0.1 * np.eye(4))[None])
        y = simulate(Identity(8, 8), np.full(64, 1.0), GaussianNoise(0.05), seed=7)
        cfg = PipelineConfig(ep=EPConfig(damping=1.0), patch_size=2, n_experts=3,
                             em_enabled=True, share_theta=True, seed=2)
        out = run_pipeline(y, Identity(8, 8), GaussianNoise(0.05), base, cfg)
        thetas = [e.theta for e in out.experts]
        assert all(t == thetas[0] for t in thetas[1:])
        assert out.experts[0].outer_rounds >= 1
        assert all(e.outer_rounds == 1 for e in out.experts[1:])

    def test_report_structure_and_determinism(self, rng):
        # Gaussian denoising and deblurring and Poisson denoising: two runs
        # give the same report, and the report, EP iteration records
        # included, round-trips through JSON; a Poisson record holds the
        # weight q_u1 got, a Gaussian one has none; a deblurring (block-path)
        # record holds the relative CG residual, a denoising one has none
        base = PatchGMM(np.array([1.0]), np.full((1, 4), 0.4), (0.05 * np.eye(4))[None])
        y = simulate(Identity(8, 8), np.full(64, 0.4), GaussianNoise(0.01), seed=8)
        blur = Conv2D(8, 8, np.full((3, 3), 1.0 / 9.0))
        blurred = simulate(blur, np.full(64, 0.4), GaussianNoise(0.01), seed=8)
        poisson_base = PatchGMM(np.array([1.0]), np.full((1, 4), 5.0), (4.0 * np.eye(4))[None])
        counts = simulate(Identity(8, 8), np.full(64, 5.0), PoissonNoise(), seed=8)
        cfg = PipelineConfig(ep=EPConfig(), patch_size=2, n_experts=2, seed=11)
        for obs, op, noise, prior in ((y, Identity(8, 8), GaussianNoise(0.01), base),
                                      (blurred, blur, GaussianNoise(0.01), base),
                                      (counts, Identity(8, 8), PoissonNoise(), poisson_base)):
            a = run_pipeline(obs, op, noise, prior, cfg)
            b = run_pipeline(obs, op, noise, prior, cfg)
            assert a.report == b.report
            np.testing.assert_array_equal(a.fused.mean, b.fused.mean)
            assert {"n_experts", "experts", "failures", "patch_size", "warnings",
                    "warnings_by_cause"} <= set(a.report)
            assert all(len(r["history"]) == r["iterations"] >= 1
                       for e in a.report["experts"] for r in e["rounds"])
            records = [i for e in a.report["experts"] for r in e["rounds"] for i in r["history"]]
            if isinstance(noise, PoissonNoise):
                assert all(i["damping"] in (1.0, cfg.ep.damping) for i in records)
                assert records[0]["damping"] == 1.0
            else:
                assert not any("damping" in i for i in records)
            if op.is_diagonal:
                assert not any("cg_residual" in i for i in records)
            else:
                assert all(type(i["cg_residual"]) is float
                           and 0.0 <= i["cg_residual"] < cfg.ep.cg_tol for i in records)
            assert json.loads(json.dumps(a.report)) == a.report
            assert "total_s" in a.timings

    def test_ep_warnings_reach_the_report(self, rng):
        # 6x6 deblur: with cg_max_iters=1 every CG solve of every EP
        # iteration stops unconverged (1 + rbmc_samples per iteration), and
        # each EM round adds its EP run's warnings to the expert's count
        base = train_em(rng.standard_normal((200, 9)) * 0.3 + 0.5, 2, max_iters=20, seed=0)
        op = Conv2D(6, 6, np.full((3, 3), 1.0 / 9.0))
        y = simulate(op, np.full(36, 0.5), GaussianNoise(0.01), seed=9)

        def report(ep):
            cfg = PipelineConfig(ep=ep, patch_size=3, n_experts=2, outer_rounds=2,
                                 theta_tol=0.0, seed=4)
            return run_pipeline(y, op, GaussianNoise(0.01), base, cfg).report

        capped = report(EPConfig(cg_max_iters=1, max_iterations=1))
        per_expert = [e["warnings"] for e in capped["experts"]]
        assert [e["outer_rounds"] for e in capped["experts"]] == [2, 2]
        assert all(w >= 2 * (1 + EPConfig().rbmc_samples) for w in per_expert)
        assert capped["warnings"] == sum(per_expert)
        # every warning is a CG cap hit, per expert and in total
        for entry in capped["experts"] + [capped]:
            assert set(entry["warnings_by_cause"]) == set(WARNING_CAUSES)
            assert entry["warnings_by_cause"]["cg_not_converged"] == entry["warnings"]
        # the records of every EP iteration hold the same warnings
        for entry in capped["experts"]:
            for r in entry["rounds"]:
                assert len(r["history"]) == r["iterations"]
            assert entry["warnings_by_cause"] == {
                cause: sum(i["warnings"][cause] for r in entry["rounds"] for i in r["history"])
                for cause in WARNING_CAUSES}
        default = report(EPConfig(max_iterations=1))
        assert default["warnings"] == 0
        assert [e["warnings"] for e in default["experts"]] == [0, 0]
        assert default["warnings_by_cause"] == dict.fromkeys(WARNING_CAUSES, 0)

    @pytest.mark.parametrize("operator, noise", [
        (Identity(8, 8), GaussianNoise(0.01)),
        (Conv2D(8, 8, np.full((3, 3), 1.0 / 9.0)), GaussianNoise(0.01)),
        (Identity(8, 8), PoissonNoise()),
    ], ids=["gauss_denoise", "gauss_deblur", "poisson_denoise"])
    def test_rejects_nonfinite_observation(self, operator, noise):
        # one infinite pixel used to give a non-finite fused mean, "all
        # experts failed" or an uncaught ZeroDivisionError
        base = PatchGMM(np.array([1.0]), np.full((1, 4), 0.4), (0.05 * np.eye(4))[None])
        y = np.ones(64)
        y[10] = np.inf
        cfg = PipelineConfig(patch_size=2, n_experts=1, em_enabled=False)
        with pytest.raises(ValueError, match="finite"):
            run_pipeline(y, operator, noise, base, cfg)

    @pytest.mark.parametrize("make_problem, match", [
        (lambda: (np.full(64, 0.5), PoissonNoise()), "nonnegative integers"),
        (lambda: (np.r_[-1.0, np.ones(63)], PoissonNoise()), "nonnegative integers"),
        (lambda: (np.ones(64), GaussianNoise(np.inf)), "variance"),
        (lambda: (np.ones(63), GaussianNoise(0.01)), "shape"),
        (lambda: (np.ones((8, 8)), GaussianNoise(0.01)), "shape"),
    ], ids=["fractional_counts", "negative_counts", "infinite_variance",
            "short_observation", "square_observation"])
    def test_rejects_malformed_problem_before_any_expert(self, make_problem, match,
                                                         monkeypatch):
        # each used to run every expert into "all experts failed", or to
        # raise an IndexError from default_theta
        def no_expert(*args, **kwargs):
            raise AssertionError("an expert ran on a malformed problem")

        monkeypatch.setattr("patchep.pipeline._run_expert", no_expert)
        base = PatchGMM(np.array([1.0]), np.full((1, 4), 0.4), (0.05 * np.eye(4))[None])
        cfg = PipelineConfig(patch_size=2, n_experts=2, em_enabled=False)
        with pytest.raises(ValueError, match=match):
            y, noise = make_problem()
            run_pipeline(y, Identity(8, 8), noise, base, cfg)


class TestInputChecks:
    def test_nonpositive_variances_nonfinite_cost_and_unknown_noise_rejected(self):
        with pytest.raises(ValueError, match="expert marginal variances must be positive"):
            make_expert(0, np.zeros(2), [1.0, 0.0])
        with pytest.raises(ValueError, match="fused variances must be positive"):
            FusedPosterior(mean=np.zeros(2), marginal_var=np.array([1.0, -1.0]))
        part, base, weights, mean, cov = single_pixel_partition_cost_inputs()
        stats = estep_statistics(weights, mean, cov, base, part)
        with pytest.raises(ValueError, match="the E-cost is not finite"):
            epem_e_cost(Adaptation(), stats._replace(trace=np.array([np.inf])))
        # the expert loop names a noise model it does not know
        base = PatchGMM(np.array([1.0]), np.full((1, 4), 0.4), (0.05 * np.eye(4))[None])
        cfg = PipelineConfig(patch_size=2, n_experts=1, em_enabled=False)
        with pytest.raises(TypeError, match="unknown noise model"):
            run_pipeline(np.ones(64), Identity(8, 8), object(), base, cfg)


class TestVerdictAndRounds:
    def test_failed_and_capped_experts(self, rng, monkeypatch):
        # expert 1 raises inside EP, expert 0 is capped at one EP iteration
        # per round for two EM rounds: the verdict counts one expert that did
        # not converge and one that failed, and expert 0's report lists its
        # rounds with the adaptation each ran under
        import patchep.pipeline as pipeline

        base = PatchGMM(np.array([1.0]), np.full((1, 4), 0.4), (0.05 * np.eye(4))[None])
        y = simulate(Identity(8, 8), np.full(64, 0.4), GaussianNoise(0.01), seed=8)
        theta0 = Adaptation(offset=0.3, mean_var=0.02, scale=1.0)
        real_ep = pipeline.run_ep_gaussian

        def failing_second_expert(y, operator, sigma2, adapted, partition, config, init=None):
            if partition.shift != (0, 0):
                raise np.linalg.LinAlgError("forced failure")
            return real_ep(y, operator, sigma2, adapted, partition, config, init=init)

        monkeypatch.setattr(pipeline, "run_ep_gaussian", failing_second_expert)
        cfg = PipelineConfig(ep=EPConfig(max_iterations=1), patch_size=2, n_experts=2,
                             outer_rounds=2, theta_tol=0.0, theta_init=theta0, seed=4)
        out = run_pipeline(y, Identity(8, 8), GaussianNoise(0.01), base, cfg)
        assert out.report["verdict"] == {"converged": 0, "not_converged": 1, "failed": 1}
        (entry,) = out.report["experts"]
        assert [r["iterations"] for r in entry["rounds"]] == [1, 1]
        assert [r["converged"] for r in entry["rounds"]] == [False, False]
        assert entry["iterations"] == 2 and entry["outer_rounds"] == 2
        assert entry["status"] == "max_iterations"
        assert entry["rounds"][0]["theta"] == {"offset": 0.3, "mean_var": 0.02, "scale": 1.0}
        assert entry["rounds"][1]["theta"] != entry["rounds"][0]["theta"]
        assert entry["theta"] != entry["rounds"][1]["theta"]

    def test_converged_experts_in_verdict(self):
        base = PatchGMM(np.array([1.0]), np.full((1, 4), 0.4), (0.05 * np.eye(4))[None])
        y = simulate(Identity(8, 8), np.full(64, 0.4), GaussianNoise(0.01), seed=8)
        cfg = PipelineConfig(ep=EPConfig(damping=1.0), patch_size=2, n_experts=2, seed=11)
        report = run_pipeline(y, Identity(8, 8), GaussianNoise(0.01), base, cfg).report
        assert report["verdict"] == {"converged": 2, "not_converged": 0, "failed": 0}
        for entry in report["experts"]:
            assert len(entry["rounds"]) == entry["outer_rounds"]
            assert sum(r["iterations"] for r in entry["rounds"]) == entry["iterations"]
            assert all(r["converged"] for r in entry["rounds"])

    @pytest.mark.parametrize("spread, at_bound", [(30.0, ["mean_var"]), (0.3, [])],
                             ids=["outside", "inside"])
    def test_m_step_pick_on_a_search_bound_is_reported(self, spread, at_bound):
        # 2x2 blocks whose means spread with variance spread^2: at 900 the
        # E-cost's mean_var maximum lies far above the M-step's upper bound
        # of 10, so the pick ends on that bound and every EM round says so;
        # at 0.09 it lies inside the bounds and no round reports a bound
        rng = np.random.default_rng(0)
        block_means = rng.normal(0.0, spread, (4, 4))
        truth = np.kron(block_means, np.ones((2, 2))).ravel()
        y = simulate(Identity(8, 8), truth, GaussianNoise(0.01), seed=1)
        base = PatchGMM(np.array([1.0]), np.zeros((1, 4)), (0.05 * np.eye(4))[None])
        cfg = PipelineConfig(ep=EPConfig(damping=1.0), patch_size=2, n_experts=1,
                             outer_rounds=2, theta_tol=0.0, seed=0)
        out = run_pipeline(y, Identity(8, 8), GaussianNoise(0.01), base, cfg)
        (expert,) = out.experts
        assert [r["at_bound"] for r in expert.rounds] == [at_bound, at_bound]
        assert [r["at_bound"] for r in out.report["experts"][0]["rounds"]] == [at_bound] * 2
        if at_bound:
            assert expert.theta.mean_var == 10.0
        else:
            assert 1e-3 < expert.theta.mean_var < 1.0
