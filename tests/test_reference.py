import numpy as np
import pytest
from scipy.stats import multivariate_normal

from patchep.ep_gaussian import EPConfig, run_ep_gaussian
from patchep.gmm import Adaptation, PatchGMM, adapt, train_em
from patchep.operators import Conv2D, GaussianNoise, Identity, Mask, PoissonNoise, simulate
from patchep.partitions import build_shifted_partitions

from conftest import blocks_of, random_spd, small_gmm
from reference import (
    dense_operator,
    dense_reference_moments,
    exact_diagonal_gaussian_posterior,
    mcmc_poisson_reference,
    naive_full_ep,
    sample_prior_image,
)


class TestExactDiagonalPosterior:
    def test_uninformative_likelihood_returns_prior(self, rng):
        part = build_shifted_partitions(4, 4, 2)[0]
        gmm = small_gmm(rng, 3, 4)
        adapted = adapt(gmm, Adaptation())
        y = rng.standard_normal(16)
        post = exact_diagonal_gaussian_posterior(y, Identity(4, 4), 1e12, adapted, part)
        w = adapted.weights
        prior_mean = w @ adapted.means
        for j, (idx, _) in enumerate(blocks_of(part)):
            np.testing.assert_allclose(post.mean[idx], prior_mean, atol=1e-6)
            np.testing.assert_allclose(post.weights[j], w, atol=1e-6)

    def test_k1_is_conjugate_update(self, rng):
        part = build_shifted_partitions(4, 4, 2)[0]
        base = PatchGMM(np.array([1.0]), rng.standard_normal((1, 4)),
                        random_spd(rng, 4)[None])
        adapted = adapt(base, Adaptation())
        y = rng.standard_normal(16)
        sigma2 = 0.6
        post = exact_diagonal_gaussian_posterior(y, Identity(4, 4), sigma2, adapted, part)
        for j, (idx, _) in enumerate(blocks_of(part)):
            prec = np.linalg.inv(base.covs[0]) + np.eye(4) / sigma2
            cov = np.linalg.inv(prec)
            mean = cov @ (np.linalg.solve(base.covs[0], base.means[0]) + y[idx] / sigma2)
            np.testing.assert_allclose(post.means[j], mean, atol=1e-10)
            np.testing.assert_allclose(post.covs[j], cov, atol=1e-10)

    def test_against_importance_sampling(self, rng):
        # oracle-for-the-oracle: self-normalized importance sampling with the
        # prior mixture as proposal
        part = build_shifted_partitions(2, 2, 2)[0]
        gmm = small_gmm(rng, 3, 4, mean_scale=0.5, cov_scale=0.4)
        adapted = adapt(gmm, Adaptation())
        y = rng.standard_normal(4) * 0.5
        sigma2 = 0.5
        post = exact_diagonal_gaussian_posterior(y, Identity(2, 2), sigma2, adapted, part)

        n = 400_000
        comps = rng.choice(3, size=n, p=adapted.weights)
        chols = np.linalg.cholesky(adapted.covs)
        samples = adapted.means[comps] + np.einsum(
            "nab,nb->na", chols[comps], rng.standard_normal((n, 4)))
        log_w = -0.5 * np.sum((y - samples) ** 2, axis=1) / sigma2
        w = np.exp(log_w - log_w.max())
        w /= w.sum()
        is_mean = w @ samples
        ess = 1.0 / np.sum(w ** 2)
        se = np.sqrt(np.einsum("n,na->a", w, (samples - is_mean) ** 2) / ess)
        assert np.all(np.abs(post.mean - is_mean) < 3.5 * se)

    def test_masked_pixels_keep_prior_marginal(self, rng):
        part = build_shifted_partitions(4, 4, 4)[0]
        gmm = small_gmm(rng, 2, 16, cov_scale=0.5)
        adapted = adapt(gmm, Adaptation())
        kept = np.zeros(16, bool)  # nothing observed
        post = exact_diagonal_gaussian_posterior(
            np.zeros(16), Mask(4, 4, kept), 0.1, adapted, part)
        w = adapted.weights
        prior_mean = w @ adapted.means
        np.testing.assert_allclose(post.mean, prior_mean, atol=1e-10)

    def test_rejects_non_diagonal_operator(self, rng):
        part = build_shifted_partitions(4, 4, 2)[0]
        adapted = adapt(small_gmm(rng, 2, 4), Adaptation())
        with pytest.raises(ValueError):
            exact_diagonal_gaussian_posterior(
                np.zeros(16), Conv2D(4, 4, np.ones((3, 3)) / 9), 0.1, adapted, part)


class TestDenseReference:
    def test_identity_reduction(self):
        op = Identity(3, 3)
        w = np.full(9, 2.0)
        omega0 = np.eye(9)
        rhs = np.arange(9.0)
        mean, cov = dense_reference_moments(op, w, omega0, rhs)
        np.testing.assert_allclose(cov, np.eye(9) / 3.0)
        np.testing.assert_allclose(mean, rhs / 3.0)

    def test_dense_operator_matches_apply(self, rng):
        op = Conv2D(5, 4, rng.standard_normal((3, 3)))
        h = dense_operator(op)
        x = rng.standard_normal(20)
        np.testing.assert_allclose(h @ x, op.apply(x), atol=1e-12)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            dense_operator(Identity(40, 40))


class TestNaiveFullEp:
    def test_k1_conjugate_matches_exact_posterior(self, rng):
        part = build_shifted_partitions(4, 4, 2)[0]
        base = PatchGMM(np.array([1.0]), np.full((1, 4), 0.3),
                        (0.2 * np.eye(4))[None])
        adapted = adapt(base, Adaptation())
        op = Conv2D(4, 4, np.full((3, 3), 1.0 / 9.0))
        sigma2 = 0.1
        truth = sample_prior_image(adapted, part, rng)
        y = simulate(op, truth, GaussianNoise(sigma2), seed=1)
        mean, cov = naive_full_ep(y, op, sigma2, adapted, part,
                                  max_iterations=40, damping=1.0)
        prior_prec = np.linalg.inv(adapted.covs[0])
        omega0 = np.zeros((16, 16))
        eta0 = np.zeros(16)
        for idx, _ in blocks_of(part):
            omega0[np.ix_(idx, idx)] = prior_prec
            eta0[idx] = prior_prec @ adapted.means[0]
        exact_mean, exact_cov = dense_reference_moments(
            op, np.full(16, 1 / sigma2), omega0, eta0 + op.apply_adjoint(y) / sigma2)
        np.testing.assert_allclose(mean, exact_mean, atol=1e-5)
        # the strictly-PD factor constraint stalls the variance match at the
        # boundary (the optimal factor precision is singular), so marginal
        # variances deviate at the tens-of-percent level while means are exact
        np.testing.assert_allclose(np.diag(cov), np.diag(exact_cov), rtol=0.30)

    def test_size_guard(self, rng):
        part = build_shifted_partitions(40, 40, 8)[0]
        adapted = adapt(small_gmm(rng, 1, 64, cov_scale=2.0), Adaptation())
        with pytest.raises(ValueError):
            naive_full_ep(np.zeros(1600), Identity(40, 40), 0.1, adapted, part)


class TestMcmcReference:
    def test_gaussian_swap_matches_exact_posterior(self, rng):
        # validates the chain machinery on a tractable target
        part = build_shifted_partitions(4, 4, 2)[0]
        base = train_em(rng.uniform(1.0, 5.0, (200, 4)), 2, max_iters=20, seed=0)
        adapted = adapt(base, Adaptation())
        truth = sample_prior_image(adapted, part, rng)
        sigma2 = 0.5
        y = simulate(Identity(4, 4), truth, GaussianNoise(sigma2), seed=2)
        exact = exact_diagonal_gaussian_posterior(y, Identity(4, 4), sigma2, adapted, part)
        means, variances, se = mcmc_poisson_reference(
            y, Identity(4, 4), adapted, part, n_samples=120_000, seed=3,
            likelihood="gaussian", sigma2=sigma2)
        assert np.all(np.abs(means - exact.mean) < 4 * se)
        np.testing.assert_allclose(variances, exact.marginal_var, rtol=0.25)

    def test_chain_doubling_shrinks_standard_errors(self, rng):
        part = build_shifted_partitions(4, 4, 2)[0]
        base = train_em(rng.uniform(1.0, 6.0, (200, 4)), 2, max_iters=20, seed=1)
        adapted = adapt(base, Adaptation())
        truth = np.clip(sample_prior_image(adapted, part, rng), 0.2, None)
        y = simulate(Identity(4, 4), truth, PoissonNoise(), seed=4)
        _, _, se_short = mcmc_poisson_reference(y, Identity(4, 4), adapted, part,
                                                n_samples=40_000, seed=5)
        _, _, se_long = mcmc_poisson_reference(y, Identity(4, 4), adapted, part,
                                               n_samples=160_000, seed=5)
        # 4x samples ~ halves the standard error, allow wide stochastic slack
        ratio = np.median(se_long / se_short)
        assert ratio < 0.75
