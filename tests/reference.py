"""Independent ground-truth machinery for validation.

Everything here deliberately avoids the production EP code paths: moments
are computed with dense linear algebra, explicit enumeration, brute-force
quadrature, or MCMC.  These oracles back the test suite; tests import them
as ``from reference import ...``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import gammaln, logsumexp
from scipy.stats import multivariate_normal

from patchep.gmm import AdaptedGMM, PatchGMM
from patchep.operators import DegradationOperator
from patchep.partitions import Partition

from conftest import blocks_of

__all__ = [
    "BlockPosterior",
    "exact_diagonal_gaussian_posterior",
    "dense_operator",
    "dense_reference_moments",
    "sample_prior_image",
    "train_em_reference",
    "epem_e_cost_reference",
    "epem_offset_reference",
    "epem_e_cost_differences_exact",
    "naive_full_ep",
    "mcmc_poisson_reference",
]


@dataclass
class BlockPosterior:
    """Exact per-block mixture posterior (diagonal H, Gaussian noise)."""

    weights: list          # per block, (K,)
    means: list            # per block, (b,)
    covs: list             # per block, (b, b)
    mean: np.ndarray       # global posterior mean
    marginal_var: np.ndarray


def _gaussian_logpdf(x, mean, cov):
    dim = x.size
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise np.linalg.LinAlgError("covariance not positive definite")
    diff = x - mean
    return -0.5 * (dim * np.log(2 * np.pi) + logdet + diff @ np.linalg.solve(cov, diff))


def exact_diagonal_gaussian_posterior(y: np.ndarray, operator: DegradationOperator,
                                      sigma2: float, adapted: AdaptedGMM,
                                      partition: Partition) -> BlockPosterior:
    """Closed-form posterior for diagonal H: per block, a conjugate GMM
    update with the likelihood restricted to the observed pixels."""
    if not operator.is_diagonal:
        raise ValueError("exact posterior requires a diagonal operator")
    y = np.asarray(y, dtype=float)
    diag_h = operator.diag_gram()  # squared diagonal entries of H
    n = partition.n_pixels

    all_w, all_m, all_c = [], [], []
    mean = np.empty(n)
    mvar = np.empty(n)
    for idx, local in blocks_of(partition):
        prior = adapted.marginal(local)
        b = len(idx)
        obs_prec = diag_h[idx] / sigma2
        obs = obs_prec > 0
        eta = np.where(obs, y[idx] / sigma2, 0.0)

        k = prior.n_components
        log_w = np.log(prior.weights).copy()
        means_k = np.empty((k, b))
        covs_k = np.empty((k, b, b))
        for comp in range(k):
            prior_prec = np.linalg.inv(prior.covs[comp])
            post_prec = prior_prec + np.diag(obs_prec)
            cov = np.linalg.inv(post_prec)
            cov = 0.5 * (cov + cov.T)
            means_k[comp] = cov @ (prior_prec @ prior.means[comp] + eta)
            covs_k[comp] = cov
            if np.any(obs):
                sub = np.ix_(obs, obs)
                marg_cov = prior.covs[comp][sub] + sigma2 * np.eye(int(obs.sum()))
                log_w[comp] += _gaussian_logpdf(y[idx][obs], prior.means[comp][obs], marg_cov)
        log_w -= logsumexp(log_w)
        w = np.exp(log_w)
        mix_mean = w @ means_k
        mix_cov = np.einsum("k,kab->ab", w, covs_k)
        mix_cov += np.einsum("k,ka,kb->ab", w, means_k, means_k)
        mix_cov -= np.outer(mix_mean, mix_mean)
        mix_cov = 0.5 * (mix_cov + mix_cov.T)

        all_w.append(w)
        all_m.append(mix_mean)
        all_c.append(mix_cov)
        mean[idx] = mix_mean
        mvar[idx] = np.diag(mix_cov)
    return BlockPosterior(all_w, all_m, all_c, mean, mvar)


def dense_operator(operator: DegradationOperator) -> np.ndarray:
    """Materialize H column by column (N <= 1024 guard)."""
    n = operator.n_pixels
    if n > 1024:
        raise ValueError("dense materialization limited to N <= 1024")
    h = np.empty((n, n))
    eye = np.eye(n)
    for m in range(n):
        h[:, m] = operator.apply(eye[m])
    return h


def dense_reference_moments(operator: DegradationOperator, obs_weights: np.ndarray,
                            omega0: np.ndarray, rhs: np.ndarray):
    """Exact mean and full covariance of N(.; Q^{-1} rhs, Q^{-1}) with
    Q = H^T W H + Omega0, by dense assembly and factorization."""
    h = dense_operator(operator)
    q = h.T @ (np.asarray(obs_weights)[:, None] * h) + np.asarray(omega0)
    cov = np.linalg.inv(q)
    cov = 0.5 * (cov + cov.T)
    return cov @ np.asarray(rhs), cov


def sample_prior_image(adapted: AdaptedGMM, partition: Partition,
                       rng: np.random.Generator) -> np.ndarray:
    """Draw one image from the patch prior (independent blocks)."""
    x = np.empty(partition.n_pixels)
    for idx, local in blocks_of(partition):
        prior = adapted.marginal(local)
        comp = rng.choice(prior.n_components, p=prior.weights)
        chol = np.linalg.cholesky(prior.covs[comp])
        x[idx] = prior.means[comp] + chol @ rng.standard_normal(len(idx))
    return x


def train_em_reference(samples: np.ndarray, gmm: PatchGMM) -> PatchGMM:
    """One plain EM iteration of a Gaussian mixture: responsibilities from
    scipy's log-densities and logsumexp, then the weights, the means and the
    centred weighted scatter, floored by 1e-6 times the mean per-coordinate
    sample variance (at least 1e-10) on the diagonal."""
    n, dim = samples.shape
    floor = max(1e-6 * float(np.mean(np.var(samples, axis=0))), 1e-10)
    log_p = np.stack([np.log(w) + multivariate_normal.logpdf(samples, m, c)
                      for w, m, c in zip(gmm.weights, gmm.means, gmm.covs)], axis=1)
    resp = np.exp(log_p - logsumexp(log_p, axis=1, keepdims=True))
    counts = resp.sum(axis=0)
    means = resp.T @ samples / counts[:, None]
    covs = []
    for r, count, mean in zip(resp.T, counts, means):
        centred = samples - mean
        covs.append((r[:, None] * centred).T @ centred / count + floor * np.eye(dim))
    return PatchGMM(weights=counts / n, means=means, covs=np.array(covs))


def _tilted_gmm_block(prior: AdaptedGMM, cav_mean: np.ndarray, cav_cov: np.ndarray):
    """Inline tilted-GMM moments (independent of the production kernel)."""
    k, b = prior.n_components, cav_mean.size
    log_w = np.empty(k)
    means = np.empty((k, b))
    covs = np.empty((k, b, b))
    cav_prec = np.linalg.inv(cav_cov)
    for comp in range(k):
        log_w[comp] = np.log(prior.weights[comp]) + _gaussian_logpdf(
            cav_mean, prior.means[comp], cav_cov + prior.covs[comp])
        prior_prec = np.linalg.inv(prior.covs[comp])
        cov = np.linalg.inv(prior_prec + cav_prec)
        covs[comp] = 0.5 * (cov + cov.T)
        means[comp] = cov @ (prior_prec @ prior.means[comp] + cav_prec @ cav_mean)
    log_w -= logsumexp(log_w)
    w = np.exp(log_w)
    mean = w @ means
    cov = np.einsum("k,kab->ab", w, covs) + np.einsum("k,ka,kb->ab", w, means, means)
    cov -= np.outer(mean, mean)
    return w, mean, 0.5 * (cov + cov.T)


def _tilted_gmm_block_jittered(prior: AdaptedGMM, cav_mean: np.ndarray,
                               cav_cov: np.ndarray):
    """Inline tilted-GMM moments in the direct form, for a stack whose
    S + C_k needs the 1e-10 * trace/dim jitter: with A_k = S + C_k + jitter
    I, the log weights are log w_k + log N(m; mu_k, A_k), the component
    means mu_k + C_k A_k^{-1}(m - mu_k) and covariances C_k A_k^{-1} S.
    Singular S or C_k are allowed."""
    k, b = prior.n_components, cav_mean.size
    log_w = np.empty(k)
    means = np.empty((k, b))
    covs = np.empty((k, b, b))
    for comp in range(k):
        total = cav_cov + prior.covs[comp]
        total = total + 1e-10 * np.trace(total) / b * np.eye(b)
        log_w[comp] = np.log(prior.weights[comp]) + _gaussian_logpdf(
            cav_mean, prior.means[comp], total)
        means[comp] = prior.means[comp] + prior.covs[comp] @ np.linalg.solve(
            total, cav_mean - prior.means[comp])
        covs[comp] = prior.covs[comp] @ np.linalg.solve(total, cav_cov)
    w = np.exp(log_w - logsumexp(log_w))
    mean = w @ means
    cov = np.einsum("k,kab->ab", w, covs) + np.einsum("k,ka,kb->ab", w, means, means)
    cov -= np.outer(mean, mean)
    return w, mean, 0.5 * (cov + cov.T)


def _adapted_block_terms(theta, weights, mean, cov, base: PatchGMM,
                         partition: Partition):
    """Per group with weights: its local indices, tilted weights (J, K),
    means (J, b) and covariances (J, b, b), one stack of ``cov`` per group,
    and the adapted component covariances (K, b, b) on its local indices."""
    for group, w, s in zip(partition.groups, weights, cov):
        if w is None:
            continue
        idxs = group.local
        sub = base.covs[:, idxs[:, None], idxs[None, :]]
        cc = theta.mean_var * np.ones((idxs.size, idxs.size)) + theta.scale ** 2 * sub
        yield idxs, w, mean[group.pixels], s, cc


def epem_e_cost_reference(theta, weights, mean, cov, base: PatchGMM,
                          partition: Partition) -> float:
    """The EP-EM E-cost with every adapted component covariance factored by
    scipy's ``cho_factor`` at the given adaptation."""
    total = 0.0
    for idxs, w, m, s, cc in _adapted_block_terms(theta, weights, mean, cov, base, partition):
        b = idxs.size
        mu = theta.offset + theta.scale * base.means[:, idxs]
        for comp in range(base.n_components):
            factor = cho_factor(cc[comp], lower=True)
            logdet = 2.0 * np.sum(np.log(np.diag(factor[0])))
            wc = w[:, comp]
            inv = cho_solve(factor, np.eye(b))
            trace = np.einsum("ab,jab->j", inv, s)
            diff = m - mu[comp]
            maha = np.sum(diff * cho_solve(factor, diff.T).T, axis=1)
            total += np.sum(wc * (-0.5 * (logdet + trace + maha + b * np.log(2 * np.pi))))
    return float(total)


def epem_offset_reference(theta, weights, mean, cov, base: PatchGMM,
                          partition: Partition) -> float:
    """The E-cost's maximizer over the offset at fixed variances, with
    C^{-1} 1 solved at each adapted component covariance C."""
    num = 0.0
    den = 0.0
    for idxs, w, m, _, cc in _adapted_block_terms(theta, weights, mean, cov, base, partition):
        ones = np.ones(idxs.size)
        for comp in range(base.n_components):
            w1 = np.linalg.solve(cc[comp], ones)
            shifted = m - theta.scale * base.means[comp, idxs]
            num += np.sum(w[:, comp] * (shifted @ w1))
            den += np.sum(w[:, comp]) * (ones @ w1)
    return num / den


def _exact_inverse_and_det(matrix):
    """Inverse and determinant of a square matrix of Fractions by
    Gauss-Jordan elimination, in exact arithmetic."""
    n = len(matrix)
    rows = [list(row) + [Fraction(int(i == r)) for i in range(n)] for r, row in enumerate(matrix)]
    det = Fraction(1)
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        pivot = rows[c][c]
        det *= pivot
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows], det


def epem_e_cost_differences_exact(theta, mean_vars, weights, mean, cov,
                                  base: PatchGMM, partition: Partition) -> np.ndarray:
    """E-cost(theta with mean_var = v) - E-cost(theta) for each v of
    ``mean_vars``, from the float inputs taken as exact rationals: the trace
    and Mahalanobis terms are rational and summed exactly, and each
    log-determinant difference is the logarithm of an exact determinant
    ratio.  Only the final conversions round.  Meant for small blocks."""
    f = Fraction
    offset, scale2 = f(theta.offset), f(theta.scale) ** 2
    # per (group, component): sum_j w_j, sum_j w_j (S_j + d_j d_j^T), B
    cells = []
    for idxs, w, m, s, _ in _adapted_block_terms(theta, weights, mean, cov, base, partition):
        for comp in range(base.n_components):
            mu = [offset + f(theta.scale) * f(x) for x in base.means[comp, idxs]]
            moment = [[f(0)] * idxs.size for _ in idxs]
            for wj, mj, sj in zip(w[:, comp], m, s):
                d = [f(x) - y for x, y in zip(mj, mu)]
                for a in range(idxs.size):
                    for b in range(idxs.size):
                        moment[a][b] += f(wj) * (f(sj[a, b]) + d[a] * d[b])
            cells.append((sum(map(f, w[:, comp])), moment,
                          [[f(x) for x in row] for row in base.covs[comp][np.ix_(idxs, idxs)]]))

    def inverses(v):
        return [_exact_inverse_and_det([[f(v) + scale2 * x for x in row] for row in cov_b])
                for _, _, cov_b in cells]

    start = inverses(theta.mean_var)
    out = []
    for v in mean_vars:
        logdet = 0.0
        quad = f(0)
        for (weight, moment, _), (inv, det), (inv0, det0) in zip(cells, inverses(v), start):
            logdet += float(weight) * math.log(det / det0)
            quad += sum((inv[a][b] - inv0[a][b]) * moment[b][a]
                        for a in range(len(inv)) for b in range(len(inv)))
        out.append(-0.5 * logdet - 0.5 * float(quad))
    return np.array(out)


def naive_full_ep(y: np.ndarray, operator: DegradationOperator, sigma2: float,
                  adapted: AdaptedGMM, partition: Partition,
                  max_iterations: int = 20, damping: float = 0.7,
                  stop_tol: float = 1e-8):
    """EP with J+1 factors and full N x N covariances (tiny images only).

    The Gaussian likelihood factor is exact and set once; the J patch-prior
    factors are refined sequentially, each against the full-covariance
    cavity.  Each refinement is the exact minimizer of the KL loss over
    N x N factor precisions P >= PRECISION_FLOOR * I, the step the scalable
    algorithm applies to its block stacks, here on one full-image block.
    It stops on the last step alone, not on ``run_ep``'s contraction
    estimate, on purpose: the oracle keeps the simplest stop rule, so a
    fault in the estimate cannot reach the reference it is checked against.
    """
    from patchep.kl_updates import update_block_precision

    n = partition.n_pixels
    if n > 1024:
        raise ValueError("naive EP limited to N <= 1024")
    y = np.asarray(y, dtype=float)
    h = dense_operator(operator)

    lik_prec = h.T @ h / sigma2
    lik_eta = h.T @ y / sigma2

    blocks = blocks_of(partition)
    j_blocks = len(blocks)
    prec = [np.eye(n) / (sigma2 * j_blocks) for _ in range(j_blocks)]
    eta = [y / (sigma2 * j_blocks) for _ in range(j_blocks)]

    def joint():
        q = lik_prec + sum(prec)
        e = lik_eta + sum(eta)
        cov = np.linalg.inv(q)
        return 0.5 * (cov + cov.T), cov @ e

    cov_q, mean_q = joint()
    for _ in range(max_iterations):
        prev_mean = mean_q.copy()
        prev_var = np.diag(cov_q).copy()
        for j, (idx, local) in enumerate(blocks):
            prior = adapted.marginal(local)
            cav_prec = lik_prec + sum(prec[t] for t in range(j_blocks) if t != j)
            cav_eta = lik_eta + sum(eta[t] for t in range(j_blocks) if t != j)
            cav_cov = np.linalg.inv(cav_prec)
            cav_cov = 0.5 * (cav_cov + cav_cov.T)
            cav_mean = cav_cov @ cav_eta

            _, t_mean_j, t_cov_j = _tilted_gmm_block(prior, cav_mean[idx], cav_cov[np.ix_(idx, idx)])
            rest = np.setdiff1d(np.arange(n), idx)
            gain = cav_cov[np.ix_(rest, idx)] @ np.linalg.inv(cav_cov[np.ix_(idx, idx)])
            t_mean = np.empty(n)
            t_mean[idx] = t_mean_j
            t_mean[rest] = cav_mean[rest] + gain @ (t_mean_j - cav_mean[idx])
            t_cov = np.empty((n, n))
            t_cov[np.ix_(idx, idx)] = t_cov_j
            cross = gain @ t_cov_j
            t_cov[np.ix_(rest, idx)] = cross
            t_cov[np.ix_(idx, rest)] = cross.T
            t_cov[np.ix_(rest, rest)] = (cav_cov[np.ix_(rest, rest)]
                                         - gain @ cav_cov[np.ix_(idx, rest)]
                                         + gain @ t_cov_j @ gain.T)
            t_cov = 0.5 * (t_cov + t_cov.T)

            new_prec = update_block_precision(t_cov[None], cav_prec[None], prec[j][None])[0][0]
            new_eta = (new_prec + cav_prec) @ t_mean - cav_eta
            prec[j] = damping * new_prec + (1 - damping) * prec[j]
            eta[j] = damping * new_eta + (1 - damping) * eta[j]
        cov_q, mean_q = joint()
        dm2 = float(np.sum((mean_q - prev_mean) ** 2))
        dv2 = float(np.sum((np.diag(cov_q) - prev_var) ** 2))
        if dm2 < stop_tol * n and dv2 < stop_tol * n:
            break
    return mean_q, cov_q


def _rectified_poisson_loglik(u: np.ndarray, y: np.ndarray) -> np.ndarray:
    """log of the rectified Poisson pmf at counts y with real rates u."""
    out = np.where(y == 0, 0.0, -np.inf).astype(float)
    pos = u > 0
    if np.any(pos):
        up = u[pos]
        yp = y[pos]
        out[pos] = yp * np.log(up) - up - gammaln(yp + 1)
    return out


def mcmc_poisson_reference(y: np.ndarray, operator: DegradationOperator,
                           adapted: AdaptedGMM, partition: Partition,
                           n_samples: int = 1_000_000, burn_in: float = 0.2,
                           seed: int = 0, thin: int = 1,
                           likelihood: str = "poisson", sigma2: float = 1.0):
    """Random-walk Metropolis on the exact rectified-Poisson posterior.

    For diagonal H the posterior factorizes over patches, so per-block
    proposals are accepted independently (a blocked random-walk kernel on
    the joint).  Returns posterior means, variances, and batch-means Monte
    Carlo standard errors of the mean estimates.

    ``likelihood="gaussian"`` swaps in a Gaussian observation term, which
    makes the target tractable and validates the chain machinery against
    :func:`exact_diagonal_gaussian_posterior`.
    """
    if not operator.is_diagonal:
        raise ValueError("the MCMC reference supports diagonal operators only")
    if likelihood not in ("poisson", "gaussian"):
        raise ValueError(f"unknown likelihood {likelihood!r}")
    n = partition.n_pixels
    if n > 256:
        raise ValueError("MCMC reference limited to N <= 256")
    y = np.asarray(y, dtype=float)
    rng = np.random.Generator(np.random.Philox(seed))
    diag_h = np.sqrt(operator.diag_gram())

    # per-group stacked state, priors, and observation slices
    stacks = []
    for group in partition.groups:
        prior = adapted.marginal(group.local)
        chols = np.linalg.cholesky(prior.covs)
        logdets = 2.0 * np.sum(np.log(np.diagonal(chols, axis1=-2, axis2=-1)), axis=-1)
        idx = group.pixels
        stacks.append({
            "ids": group.ids, "means": prior.means, "chol_invs": np.linalg.inv(chols),
            "log_norms": np.log(prior.weights) - 0.5 * (prior.dim * np.log(2 * np.pi) + logdets),
            "idx": idx,
            "x": np.maximum(y[idx] / np.maximum(diag_h[idx], 1e-12), 1.0),
            "scale": 0.5 * np.ones(len(group.ids)),
        })

    def prior_logpdf(stack, x):
        z = np.einsum("kab,jkb->jka", stack["chol_invs"], x[:, None, :] - stack["means"])
        parts = stack["log_norms"] - 0.5 * np.sum(z ** 2, axis=-1)       # (J, K)
        top = np.max(parts, axis=1)
        return top + np.log(np.sum(np.exp(parts - top[:, None]), axis=1))

    def lik_logpdf(stack, x):
        u = diag_h[stack["idx"]] * x
        if likelihood == "gaussian":
            obs = diag_h[stack["idx"]] > 0
            return np.sum(np.where(obs, -0.5 * (y[stack["idx"]] - u) ** 2 / sigma2, 0.0), axis=1)
        return np.sum(_rectified_poisson_loglik(u.ravel(), y[stack["idx"]].ravel())
                      .reshape(u.shape), axis=1)

    for stack in stacks:
        stack["logp"] = prior_logpdf(stack, stack["x"]) + lik_logpdf(stack, stack["x"])

    n_burn = int(burn_in * n_samples)
    kept = 0
    running_sum = np.zeros(n)
    running_sq = np.zeros(n)
    n_batches = 50
    batch_len = max((n_samples - n_burn) // n_batches, 1)
    batch_sums = np.zeros((n_batches + 1, n))
    accept_counts = [np.zeros(len(stack["ids"])) for stack in stacks]

    for step in range(n_samples):
        for gi, stack in enumerate(stacks):
            proposal = stack["x"] + stack["scale"][:, None] * rng.standard_normal(stack["x"].shape)
            logp_new = prior_logpdf(stack, proposal) + lik_logpdf(stack, proposal)
            accept = np.log(rng.random(proposal.shape[0])) < logp_new - stack["logp"]
            stack["x"][accept] = proposal[accept]
            stack["logp"][accept] = logp_new[accept]
            accept_counts[gi] += accept
        if step < n_burn:
            if (step + 1) % 500 == 0:  # adapt proposal scales during burn-in
                for gi, stack in enumerate(stacks):
                    rate = accept_counts[gi] / 500.0
                    stack["scale"] *= np.where(rate < 0.15, 0.7, np.where(rate > 0.4, 1.4, 1.0))
                    accept_counts[gi][:] = 0
            continue
        if (step - n_burn) % thin:
            continue
        kept += 1
        current = np.empty(n)
        for stack in stacks:
            current[stack["idx"].ravel()] = stack["x"].ravel()
        running_sum += current
        running_sq += current ** 2
        batch = min((step - n_burn) // batch_len, n_batches)
        batch_sums[batch] += current

    means = running_sum / kept
    variances = running_sq / kept - means ** 2
    batch_means = batch_sums[:n_batches] / batch_len
    se = np.std(batch_means, axis=0, ddof=1) / np.sqrt(n_batches)
    return means, variances, se
