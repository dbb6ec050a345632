import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import multivariate_normal, norm

from patchep.gmm import (
    Adaptation,
    PatchGMM,
    adapt,
    marginalize,
    train_em,
)
from patchep.gmm import _lower_triangular_inverse, _tilted_moments_stack

from conftest import random_spd, small_gmm
from reference import _tilted_gmm_block, _tilted_gmm_block_jittered


class TestPatchGMM:
    def test_weight_sum_enforced(self):
        with pytest.raises(ValueError):
            PatchGMM(np.array([0.6, 0.6]), np.zeros((2, 2)),
                     np.stack([np.eye(2)] * 2))

    def test_non_spd_component_rejected(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError):
            PatchGMM(np.array([1.0]), np.zeros((1, 2)), bad[None])

    def test_singular_component_rejected(self):
        # positive semidefinite but singular: no jitter may make it pass
        with pytest.raises(ValueError, match="not positive definite"):
            PatchGMM(np.array([1.0]), np.zeros((1, 3)), np.diag([1.0, 0.0, 1.0])[None])


class TestAdapt:
    def test_identity_adaptation(self, gmm_2d):
        adapted = adapt(gmm_2d, Adaptation())
        np.testing.assert_array_equal(adapted.means, gmm_2d.means)
        np.testing.assert_array_equal(adapted.covs, gmm_2d.covs)

    def test_pure_offset(self):
        base = PatchGMM(np.array([1.0]), np.zeros((1, 3)), random_spd(np.random.default_rng(0), 3)[None])
        adapted = adapt(base, Adaptation(offset=0.7))
        np.testing.assert_allclose(adapted.means[0], 0.7 * np.ones(3))
        np.testing.assert_array_equal(adapted.covs, base.covs)

    def test_mean_var_and_scale_substitution(self):
        base = PatchGMM(np.array([1.0]), np.zeros((1, 2)), np.eye(2)[None])
        s2, alpha = 0.3, 1.5
        adapted = adapt(base, Adaptation(mean_var=s2, scale=alpha))
        expected = np.array([[s2 + alpha ** 2, s2], [s2, s2 + alpha ** 2]])
        np.testing.assert_allclose(adapted.covs[0], expected)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            Adaptation(scale=0.0)


class TestMarginalize:
    def test_full_index_set_unchanged(self, adapted_2d):
        out = marginalize(adapted_2d, np.array([0, 1]))
        np.testing.assert_allclose(out.means, adapted_2d.means)
        np.testing.assert_allclose(out.covs, adapted_2d.covs)
        # the full cell in order is the prior itself; a reordering is not
        assert adapted_2d.marginal(np.arange(2)) is adapted_2d
        swapped = adapted_2d.marginal(np.array([1, 0]))
        assert swapped is not adapted_2d
        np.testing.assert_array_equal(swapped.means, adapted_2d.means[:, ::-1])

    def test_single_component_diagonal(self):
        base = PatchGMM(np.array([1.0]), np.array([[1.0, 2.0]]),
                        np.diag([3.0, 5.0])[None])
        out = marginalize(adapt(base, Adaptation()), np.array([0]))
        assert out.covs[0, 0, 0] == pytest.approx(3.0)
        assert out.means[0, 0] == pytest.approx(1.0)

    def test_empty_subset_rejected(self, adapted_2d):
        with pytest.raises(ValueError):
            marginalize(adapted_2d, np.array([], dtype=int))

    def test_against_numeric_integration(self, rng):
        # oracle: integrate the middle coordinate out of a 3D mixture density
        # on a fine grid and compare with the marginalized parameters
        gmm3 = small_gmm(rng, 2, 3, mean_scale=0.5, cov_scale=0.5)
        adapted = adapt(gmm3, Adaptation(offset=0.1, mean_var=0.02, scale=0.9))
        sub = marginalize(adapted, np.array([0, 2]))

        def full_density(x0, x1, x2):
            pts = np.stack(np.broadcast_arrays(x0, x1, x2), axis=-1)
            total = np.zeros(pts.shape[:-1])
            for k in range(adapted.n_components):
                total += adapted.weights[k] * multivariate_normal.pdf(
                    pts, mean=adapted.means[k], cov=adapted.covs[k])
            return total

        grid1 = np.linspace(-6, 6, 1601)
        for point in rng.standard_normal((5, 2)) * 0.5:
            integrand = full_density(point[0], grid1, point[1])
            marginal_quad = np.trapezoid(integrand, grid1)
            marginal_direct = sum(
                sub.weights[k] * multivariate_normal.pdf(point, mean=sub.means[k], cov=sub.covs[k])
                for k in range(sub.n_components))
            assert abs(marginal_quad - marginal_direct) < 1e-8


def gaussian_product_moments(mu0, c0, m, s):
    """Textbook product-of-Gaussians posterior (oracle for K=1)."""
    prec = np.linalg.inv(c0) + np.linalg.inv(s)
    cov = np.linalg.inv(prec)
    mean = cov @ (np.linalg.solve(c0, mu0) + np.linalg.solve(s, m))
    return mean, cov


def tilted_block(adapted, cavity_mean, cavity_cov):
    """The batched kernel on a one-block stack: (weights, mean, cov)."""
    w, mean, cov = _tilted_moments_stack(adapted, cavity_mean[None], cavity_cov[None])
    return w[0], mean[0], cov[0]


class TestTiltedMoments:
    def test_single_component_matches_product_formula(self, rng):
        base = PatchGMM(np.array([1.0]), rng.standard_normal((1, 3)),
                        random_spd(rng, 3)[None])
        adapted = adapt(base, Adaptation())
        cavity_mean = rng.standard_normal(3)
        cavity_cov = random_spd(rng, 3)
        w, t_mean, t_cov = tilted_block(adapted, cavity_mean, cavity_cov)
        assert w[0] == pytest.approx(1.0)
        mean, cov = gaussian_product_moments(base.means[0], base.covs[0],
                                             cavity_mean, cavity_cov)
        np.testing.assert_allclose(t_mean, mean, atol=1e-10)
        np.testing.assert_allclose(t_cov, cov, atol=1e-10)

    def test_uninformative_cavity_returns_prior_moments(self, adapted_2d):
        _, t_mean, t_cov = tilted_block(adapted_2d, np.zeros(2), 1e12 * np.eye(2))
        w = adapted_2d.weights
        prior_mean = w @ adapted_2d.means
        prior_cov = sum(
            w[k] * (adapted_2d.covs[k] + np.outer(adapted_2d.means[k], adapted_2d.means[k]))
            for k in range(adapted_2d.n_components)) - np.outer(prior_mean, prior_mean)
        np.testing.assert_allclose(t_mean, prior_mean, atol=1e-6)
        np.testing.assert_allclose(t_cov, prior_cov, rtol=1e-6, atol=1e-6)

    def test_1d_two_component_against_quadrature(self):
        # oracle: fine-grid integration of the tilted density in 1D
        base = PatchGMM(np.array([0.5, 0.5]), np.array([[-1.0], [1.0]]),
                        np.ones((2, 1, 1)))
        adapted = adapt(base, Adaptation())
        m, c = 0.5, 1.0
        grid = np.linspace(-12, 12, 400001)
        dens = (0.5 * norm.pdf(grid, -1, 1) + 0.5 * norm.pdf(grid, 1, 1)) * norm.pdf(grid, m, np.sqrt(c))
        z = np.trapezoid(dens, grid)
        mean = np.trapezoid(grid * dens, grid) / z
        var = np.trapezoid(grid ** 2 * dens, grid) / z - mean ** 2
        _, t_mean, t_cov = tilted_block(adapted, np.array([m]), np.array([[c]]))
        assert abs(t_mean[0] - mean) < 1e-8
        assert abs(t_cov[0, 0] - var) < 1e-8

    def test_2d_mixture_against_grid_quadrature(self, rng):
        # oracle: 2D brute-force grid integration of prior x cavity
        gmm = small_gmm(rng, 3, 2, mean_scale=0.8, cov_scale=0.6)
        adapted = adapt(gmm, Adaptation(offset=0.2, mean_var=0.05, scale=0.7))
        cavity_mean = np.array([0.3, -0.2])
        cavity_cov = np.array([[0.5, 0.1], [0.1, 0.4]])
        g = np.linspace(-5, 5, 801)
        xx, yy = np.meshgrid(g, g, indexing="ij")
        pts = np.stack([xx, yy], axis=-1)
        prior = np.zeros_like(xx)
        for k in range(adapted.n_components):
            prior += adapted.weights[k] * multivariate_normal.pdf(
                pts, mean=adapted.means[k], cov=adapted.covs[k])
        dens = prior * multivariate_normal.pdf(pts, mean=cavity_mean, cov=cavity_cov)
        z = np.trapezoid(np.trapezoid(dens, g, axis=1), g)
        ex = np.trapezoid(np.trapezoid(dens * xx, g, axis=1), g) / z
        ey = np.trapezoid(np.trapezoid(dens * yy, g, axis=1), g) / z
        exx = np.trapezoid(np.trapezoid(dens * xx * xx, g, axis=1), g) / z - ex ** 2
        eyy = np.trapezoid(np.trapezoid(dens * yy * yy, g, axis=1), g) / z - ey ** 2
        exy = np.trapezoid(np.trapezoid(dens * xx * yy, g, axis=1), g) / z - ex * ey
        _, t_mean, t_cov = tilted_block(adapted, cavity_mean, cavity_cov)
        np.testing.assert_allclose(t_mean, [ex, ey], rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(t_cov, [[exx, exy], [exy, eyy]], rtol=1e-6, atol=1e-8)

    def test_weight_normalization_random_inputs(self, rng):
        for _ in range(20):
            gmm = small_gmm(rng, 4, 3)
            adapted = adapt(gmm, Adaptation(offset=rng.normal(), mean_var=abs(rng.normal()) * 0.1))
            w, _, t_cov = tilted_block(adapted, rng.standard_normal(3), random_spd(rng, 3))
            assert abs(w.sum() - 1.0) < 1e-12
            # mixture covariance symmetric PSD
            np.testing.assert_allclose(t_cov, t_cov.T)
            assert np.all(np.linalg.eigvalsh(t_cov) > -1e-12)

    def test_block_stack_against_inline_oracle(self, rng):
        # six blocks truncated to the two left columns of a 3x3 patch share
        # one marginalised K=3 prior; each block has its own cavity
        gmm = small_gmm(rng, 3, 9, mean_scale=0.8, cov_scale=0.6)
        local = np.array([0, 1, 3, 4, 6, 7])
        prior = adapt(gmm, Adaptation(offset=0.3, mean_var=0.05, scale=0.8)).marginal(local)
        cav_means = rng.standard_normal((6, 6))
        cav_covs = np.stack([random_spd(rng, 6, 0.1) for _ in range(6)])
        weights, means, covs = _tilted_moments_stack(prior, cav_means, cav_covs)
        assert weights.shape == (6, 3) and means.shape == (6, 6) and covs.shape == (6, 6, 6)
        for j in range(6):
            w_ref, mean_ref, cov_ref = _tilted_gmm_block(prior, cav_means[j], cav_covs[j])
            np.testing.assert_allclose(weights[j], w_ref, rtol=1e-9)
            np.testing.assert_allclose(means[j], mean_ref, rtol=1e-9)
            np.testing.assert_allclose(covs[j], cov_ref, rtol=1e-9)


    @pytest.mark.parametrize("b", [1, 2, 3, 7, 16])
    def test_triangular_inverse_matches_lu_inverse(self, rng, b):
        # Cholesky factors of a (4, 3) stack of SPD matrices
        a = rng.standard_normal((4, 3, b, b))
        chol = np.linalg.cholesky(a @ np.swapaxes(a, -1, -2) + b * np.eye(b))
        inv = _lower_triangular_inverse(chol)
        expected = np.linalg.inv(chol)
        np.testing.assert_allclose(inv, expected, rtol=1e-12, atol=1e-15)
        assert np.all(np.triu(inv, 1) == 0.0)

    def test_jitter_retry_against_inline_oracle(self, rng):
        # coordinate 1 is absent from both the prior and the cavities: S + C_k
        # has a zero row, the plain Cholesky fails and the kernel retries with
        # the 1e-10 * trace/dim jitter on the whole stack.  A cavity mean of
        # 1e-5 on that coordinate puts the jitter into the weights at O(1)
        covs = np.stack([random_spd(rng, 3, 0.2) for _ in range(2)])
        prior = adapt(PatchGMM(np.array([0.4, 0.6]), rng.standard_normal((2, 3)) * 0.5, covs),
                      Adaptation())
        prior.covs[:, 1, :] = prior.covs[:, :, 1] = 0.0
        prior.means[:, 1] = 0.0
        cav_means = rng.standard_normal((3, 3))
        cav_means[:, 1] = 1e-5
        cav_covs = np.stack([random_spd(rng, 3, 0.1) for _ in range(3)])
        cav_covs[:, 1, :] = cav_covs[:, :, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(cav_covs[:, None] + prior.covs[None])
        weights, means, covs_out = _tilted_moments_stack(prior, cav_means, cav_covs)
        for j in range(3):
            w_ref, mean_ref, cov_ref = _tilted_gmm_block_jittered(prior, cav_means[j], cav_covs[j])
            np.testing.assert_allclose(weights[j], w_ref, rtol=1e-9)
            np.testing.assert_allclose(means[j], mean_ref, rtol=1e-9, atol=1e-15)
            np.testing.assert_allclose(covs_out[j], cov_ref, rtol=1e-9, atol=1e-15)

    def test_jitter_only_on_the_failing_block(self, rng):
        # a prior that is singular on coordinate 1: S + C_k is positive
        # definite for the full-rank cavities and singular for block 2, whose
        # cavity is singular there too.  Only block 2 is jittered; the others
        # come out as in a call made on them alone, bit for bit
        covs = np.stack([random_spd(rng, 3, 0.2) for _ in range(2)])
        prior = adapt(PatchGMM(np.array([0.4, 0.6]), rng.standard_normal((2, 3)) * 0.5, covs),
                      Adaptation())
        prior.covs[:, 1, :] = prior.covs[:, :, 1] = 0.0
        prior.means[:, 1] = 0.0
        cav_means = rng.standard_normal((4, 3))
        cav_means[2, 1] = 1e-5
        cav_covs = np.stack([random_spd(rng, 3, 0.1) for _ in range(4)])
        cav_covs[2, 1, :] = cav_covs[2, :, 1] = 0.0
        weights, means, covs_out = _tilted_moments_stack(prior, cav_means, cav_covs)
        ok = [0, 1, 3]
        for got, alone in zip((weights, means, covs_out),
                              _tilted_moments_stack(prior, cav_means[ok], cav_covs[ok])):
            np.testing.assert_array_equal(got[ok], alone)
        w_ref, mean_ref, cov_ref = _tilted_gmm_block_jittered(prior, cav_means[2], cav_covs[2])
        np.testing.assert_allclose(weights[2], w_ref, rtol=1e-9)
        np.testing.assert_allclose(means[2], mean_ref, rtol=1e-9, atol=1e-15)
        np.testing.assert_allclose(covs_out[2], cov_ref, rtol=1e-9, atol=1e-15)


class TestTrainEm:
    def test_single_gaussian_recovers_empirical_moments(self, rng):
        samples = rng.multivariate_normal([1.0, -2.0], [[2.0, 0.5], [0.5, 1.0]], size=4000)
        gmm = train_em(samples, 1, max_iters=10, seed=0)
        np.testing.assert_allclose(gmm.means[0], samples.mean(axis=0), atol=1e-8)
        np.testing.assert_allclose(gmm.covs[0], np.cov(samples.T, bias=True), atol=1e-4)

    def test_two_separated_clusters(self, rng):
        # oracle: construction with known cluster fractions 1/4 and 3/4
        a = rng.standard_normal((250, 2)) * 0.3 + np.array([-8.0, 0.0])
        b = rng.standard_normal((750, 2)) * 0.3 + np.array([8.0, 0.0])
        samples = np.vstack([a, b])
        gmm = train_em(samples, 2, max_iters=50, seed=1)
        weights = np.sort(gmm.weights)
        np.testing.assert_allclose(weights, [0.25, 0.75], atol=0.02)
        centers = gmm.means[np.argsort(gmm.means[:, 0]), 0]
        np.testing.assert_allclose(centers, [-8.0, 8.0], atol=0.2)

    def test_zero_iterations_returns_seeded_init(self, rng):
        samples = rng.standard_normal((50, 3))
        a = train_em(samples, 2, max_iters=0, seed=42)
        b = train_em(samples, 2, max_iters=0, seed=42)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.covs, b.covs)
        np.testing.assert_array_equal(a.weights, [0.5, 0.5])

    def test_loglikelihood_monotone(self, rng):
        samples = rng.standard_normal((300, 4)) + rng.choice([-3, 3], size=(300, 1))

        def loglik(gmm):
            log_pdfs = [np.log(w) + multivariate_normal.logpdf(samples, m, c)
                        for w, m, c in zip(gmm.weights, gmm.means, gmm.covs)]
            return float(np.sum(logsumexp(log_pdfs, axis=0)))

        history = [loglik(train_em(samples, 3, max_iters=k, seed=3)) for k in range(41)]
        diffs = np.diff(history)
        assert np.all(diffs > -1e-9)

    def test_degenerate_data_single_component_fallback(self):
        samples = np.ones((20, 3)) * 2.5
        gmm = train_em(samples, 4, max_iters=10, seed=0)
        assert gmm.n_components == 1
        np.testing.assert_allclose(gmm.means[0], [2.5, 2.5, 2.5])
        assert np.all(np.diag(gmm.covs[0]) > 0)

    def test_invalid_k(self, rng):
        with pytest.raises(ValueError):
            train_em(rng.standard_normal((10, 2)), 0)
        with pytest.raises(ValueError):
            train_em(rng.standard_normal((3, 2)), 5)
