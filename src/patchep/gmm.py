"""Gaussian mixture patch priors.

A :class:`PatchGMM` models vectorized square patches.  It is typically
trained on zero-mean, unit-scale patches; :class:`AdaptedGMM` rescales it to
the intensity range of a particular image through three shared parameters:
an intensity offset, the prior variance of the (marginalised) patch mean,
and a multiplicative scale.  The adapted component k has

    mean  = offset * 1 + scale * mu_k
    cov   = mean_var * 11^T + scale^2 * C_k

Sub-patch priors for truncated boundary blocks are obtained by marginalising
coordinates, which for a GMM is a plain restriction of means and covariances.

EP's prior-side moment matching needs the moments of the GMM times a
Gaussian cavity on every block of a group; ``_tilted_moments_stack`` computes
them for a whole stack of blocks from one Cholesky factor L of S + C_k per
block and component.  L^{-1} comes from forward substitution, b batched row
steps over the whole stack, not from an LU inverse (substitution is
backward stable, Higham 2002, ch. 8 and 14): on a (J, K, b) = (64, 5, 16)
stack it takes 0.50-0.57 ms against 1.7-2.1 ms for ``np.linalg.inv``, and
4.6-5.3 ms against 8.4-8.5 ms at (16, 5, 64) (median of 30 calls, three
passes, 2-vCPU x86 VM).

Under a diagonal operator (denoising, inpainting, Poisson denoising) the
cavities are diagonal and EP needs only per-pixel tilted variances, so the
kernel takes the cavities as (J, b) variances and returns (J, b) variances,
forming no (b, b) cavity or tilted matrix: on a (J, K, b) = (64, 5, 16)
stack a call takes 1.6 ms (1.9 ms in one of three passes), against 1.8 ms
for the same cavities as (b, b) diagonal matrices through the full-cavity
path (median of 50 calls, three passes, 2-vCPU x86 VM).

The kernel bounds its working set.  Over a whole (64, 5, 16) stack its
four (J, K, b, b) temporaries were 655 KB each, above glibc malloc's mmap
and trim thresholds, so every call mapped fresh pages and handed them back:
about 600 minor page faults per call, 97% of a ``denoise_poisson``
restore's faults.  So the stack goes through in even chunks of at most
max(1, 2560 // (K b)) blocks, about 2,560 matrix rows: two chunks of 32
blocks (327 KB temporaries) at (64, 5, 16), seven of 7 at (49, 5, 64); and
L^{-1} and V overwrite the dead S + C_k and L.  The faults of the kernel in
a ``denoise_poisson`` restore fell from 6,400-6,600 to about 1 (glibc
2.36).  The bound counts rows, not bytes, because the best chunk grows
with b: at (49, 5, 64) a full-cavity call takes 40.5 ms in chunks of 2
blocks (327 KB), 33 ms in chunks of 8 and 39-51 ms in one chunk, and 34
against 47 ms before the chunks (medians of 20 and of 60 calls).  At b = 16
a single chunk is the fastest in a loop of calls (1.4-1.7 against 1.5-1.8
ms), but not inside restores, where it faults: 42.6 against 40.1 ms per
restore, with 3,300 against 330 faults.  The E-step of :func:`train_em`
evaluates its density table over chunks of 1,024 samples, for the same
reason: a bench set-up faults 300-750 times instead of about 3,700.

The EM fit :func:`train_em` takes every L_k^{-T} of its K covariances from
the same forward substitution, stored C-contiguous (a transposed view makes
the (n, d) @ (d, d) products z = (X - mu_k) L_k^{-T} 3-5x slower); its
scatter R^T R, R = (X - m_k) sqrt(r_k), is one exactly symmetric BLAS SYRK
per component.  A K = 5 fit on ``make_phantom(64, 64, 0)`` patches capped
at 50 iterations stops at its fixed point after 16 E-steps at patch 4 and
12 at patch 8, and takes 0.049-0.052 s and 0.17-0.18 s, against
0.15-0.18 s and 0.71-0.74 s for all 50 iterations (median of 5 and of 3
fits, two passes, 2-vCPU x86 VM).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gaussians import cholesky_stack

__all__ = [
    "PatchGMM",
    "Adaptation",
    "AdaptedGMM",
    "adapt",
    "marginalize",
    "train_em",
]

EM_STOP_TOL = 1e-12  # train_em's rounding-level fixed point (see its docstring)
# working-set bounds (see the module docstring): matrix rows per chunk of the
# tilted kernel, and sample rows per chunk of the E-step's density table
_TILTED_CHUNK_ROWS = 2560
_EM_CHUNK_ROWS = 1024


def _jittered_cholesky(matrix: np.ndarray) -> np.ndarray:
    """Cholesky factors of a stack (..., dim, dim) of symmetric matrices
    (only the lower triangles are read), split by :func:`cholesky_stack` when
    the stack fails, so that only a matrix whose plain factorization fails
    gets the one jitter retry, 1e-10 * trace/dim on its diagonal."""
    return cholesky_stack(matrix, lambda single: np.linalg.cholesky(
        single + 1e-10 * np.trace(single) / single.shape[-1] * np.eye(single.shape[-1])))


@dataclass
class PatchGMM:
    """K-component Gaussian mixture over flattened patches of dimension dim."""

    weights: np.ndarray  # (K,)
    means: np.ndarray    # (K, dim)
    covs: np.ndarray     # (K, dim, dim)
    # local index pattern -> read-only (L, L^{-1}), see local_factors
    _local_factors: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.means = np.asarray(self.means, dtype=float)
        self.covs = np.asarray(self.covs, dtype=float)
        k, dim = self.means.shape
        if self.weights.shape != (k,) or self.covs.shape != (k, dim, dim):
            raise ValueError("inconsistent GMM shapes")
        if np.any(self.weights <= 0):
            raise ValueError("mixture weights must be positive")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to one")
        try:
            np.linalg.cholesky(0.5 * (self.covs + np.swapaxes(self.covs, -1, -2)))
        except np.linalg.LinAlgError as exc:
            raise ValueError("component covariance is not positive definite") from exc

    @property
    def n_components(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def local_factors(self, local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The Cholesky factors L (K, b, b) of the component covariances
        restricted to the coordinates ``local`` and their inverses L^{-1},
        computed once per pattern and returned read-only (the prior's arrays
        are not to change after it is built)."""
        key = tuple(local.tolist())
        if key not in self._local_factors:
            chol = np.linalg.cholesky(self.covs[:, local[:, None], local])
            factors = chol, _lower_triangular_inverse(chol)
            for factor in factors:
                factor.flags.writeable = False
            self._local_factors[key] = factors
        return self._local_factors[key]


@dataclass(frozen=True)
class Adaptation:
    """Intensity adaptation of a normalized patch GMM."""

    offset: float = 0.0     # additive intensity offset of every patch
    mean_var: float = 0.0   # prior variance of the shared patch mean, >= 0
    scale: float = 1.0      # multiplicative intensity scale, > 0

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.mean_var < 0:
            raise ValueError("mean_var must be nonnegative")


@dataclass
class AdaptedGMM:
    """A patch GMM with the intensity adaptation materialized."""

    base: PatchGMM
    theta: Adaptation
    means: np.ndarray = field(init=False)
    covs: np.ndarray = field(init=False)
    _marginal_cache: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        t = self.theta
        self.means = t.offset + t.scale * self.base.means
        self.covs = t.mean_var + t.scale ** 2 * self.base.covs   # mean_var 11^T + ...

    @property
    def weights(self) -> np.ndarray:
        return self.base.weights

    @property
    def n_components(self) -> int:
        return self.base.n_components

    @property
    def dim(self) -> int:
        return self.base.dim

    def marginal(self, indices) -> "AdaptedGMM":
        """Cached marginalization onto a coordinate subset; the full cell
        ``range(dim)`` is the prior itself."""
        key = tuple(int(i) for i in indices)
        if key == tuple(range(self.dim)):
            return self
        if key not in self._marginal_cache:
            self._marginal_cache[key] = marginalize(self, np.asarray(key))
        return self._marginal_cache[key]


def adapt(base: PatchGMM, theta: Adaptation) -> AdaptedGMM:
    return AdaptedGMM(base=base, theta=theta)


def marginalize(adapted: AdaptedGMM, indices: np.ndarray) -> AdaptedGMM:
    """Restrict the prior to a sub-patch: weights unchanged, means and
    covariances restricted to the kept coordinates."""
    indices = np.asarray(indices, dtype=int)
    if indices.size == 0:
        raise ValueError("cannot marginalize onto an empty index set")
    if np.any(indices < 0) or np.any(indices >= adapted.dim):
        raise IndexError("marginalization indices out of range")
    sub_base = PatchGMM(
        weights=adapted.base.weights.copy(),
        means=adapted.base.means[:, indices],
        covs=adapted.base.covs[:, indices[:, None], indices[None, :]],
    )
    return AdaptedGMM(base=sub_base, theta=adapted.theta)


def _lower_triangular_inverse(chol: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """L^{-1} for a stack (..., b, b) of lower-triangular L, by forward
    substitution on L X = I: row i of X is (e_i - L[i, :i] X[:i]) / L[i, i],
    one batched step per row.  X is lower triangular, so row i needs only
    its first i + 1 columns.  ``out``, an array of L's shape that is not L,
    receives X (it is zeroed first)."""
    b = chol.shape[-1]
    if out is None:
        inv = np.zeros_like(chol)
    else:
        inv = out
        inv.fill(0.0)
    diag_inv = 1.0 / np.diagonal(chol, axis1=-2, axis2=-1)
    for i in range(b):
        row = -(chol[..., i:i + 1, :i] @ inv[..., :i, :i + 1])[..., 0, :]
        row[..., i] += 1.0
        inv[..., i, :i + 1] = row * diag_inv[..., i:i + 1]
    return inv


def _tilted_moments_stack(adapted: AdaptedGMM, cavity_means: np.ndarray,
                          cavity_covs: np.ndarray):
    """Tilted-GMM moments for a stack of blocks sharing the prior: the
    posterior component weights and the mean and covariance of
    GMM(x) * N(x; m_j, S_j) for every block j.

    cavity_means: (J, b); cavity_covs: (J, b, b), SPD, or (J, b) variances
    of diagonal cavities.  Returns (weights (J, K), means (J, b), covs), with
    covs (J, b, b) for full cavities and the tilted variances (J, b) for
    diagonal ones.

    S + C_k is factored once, L L^T, and every output comes from L: the
    log-determinant from diag(L), the Mahalanobis term from
    z = L^{-1}(m - mu_k), and with V = L^{-1} C_k the component means
    mu_k + V^T z and covariances V^T (L^{-1} S) = C_k (S + C_k)^{-1} S.  The
    product form keeps a component covariance accurate when C_k is much
    larger than S, where C_k - C_k (S + C_k)^{-1} C_k would cancel.  The
    log-weights are shifted by their per-block maximum and normalised as
    exp / sum.

    S and C_k are symmetric and Cholesky reads only the lower triangle, so
    the sum is factored as it is, by :func:`_jittered_cholesky`, which
    jitters only the (block, component) entries whose factorization fails.
    L^{-1} comes from :func:`_lower_triangular_inverse`.

    Full cavities: the sums over components are (J, b, K b) @ (J, K b, b)
    products: with the rows w_k V_k stacked, sum_k w_k V_k^T (L^{-1} S) is
    one matmul per block.  On a (J, K, b) = (64, 5, 16) stack a call took
    2.4 ms against 6.5 ms with the LU inverse and the elementwise sums (best
    of 7, 2-vCPU x86 VM); the outputs agree to 3e-13 relative.

    Diagonal cavities S = diag(s) need only the diagonal of each
    covariance, so no (b, b) output is formed: the component variances are
    s_i sum_r V_ri (L^{-1})_ri, the diagonal of the same product form, and
    the mixture variance is sum_k w_k (var_k + (mean_k - mean)^2).

    Blocks are independent, so the stack goes through
    :func:`_tilted_moments_chunk` in even chunks of at most
    max(1, ``_TILTED_CHUNK_ROWS`` // (K b)) blocks (see the module
    docstring); the outputs do not depend on the chunking.
    """
    m = np.asarray(cavity_means, dtype=float)
    s = np.asarray(cavity_covs, dtype=float)
    n_blocks, b = m.shape
    per_chunk = max(1, _TILTED_CHUNK_ROWS // (adapted.n_components * b))
    n_chunks = max(1, -(-n_blocks // per_chunk))
    edges = [n_blocks * i // n_chunks for i in range(n_chunks + 1)]
    chunks = [_tilted_moments_chunk(adapted, m[lo:hi], s[lo:hi])
              for lo, hi in zip(edges, edges[1:])]
    return tuple(np.concatenate(out) for out in zip(*chunks))


def _tilted_moments_chunk(adapted: AdaptedGMM, m: np.ndarray, s: np.ndarray):
    """:func:`_tilted_moments_stack` on one chunk of blocks.  Three (J, K,
    b, b) buffers at most: L^{-1} overwrites S + C_k, and V = L^{-1} C_k
    overwrites L once z and the log-determinant have been taken."""
    n_blocks, b = m.shape
    diagonal = s.ndim == 2

    mu = adapted.means                                    # (K, b)
    cc = adapted.covs                                     # (K, b, b)
    k = mu.shape[0]
    if diagonal:
        total = np.repeat(cc[None], n_blocks, axis=0)     # (J, K, b, b)
        total.reshape(n_blocks, k, b * b)[..., ::b + 1] += s[:, None, :]
    else:
        total = s[:, None, :, :] + cc[None, :, :, :]
    chol = _jittered_cholesky(total)
    chol_inv = _lower_triangular_inverse(chol, out=total)
    z = (chol_inv @ (m[:, None, :] - mu[None, :, :])[..., None])[..., 0]  # (J, K, b)
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    log_w = np.log(adapted.weights)[None, :] - 0.5 * (
        b * np.log(2 * np.pi) + logdet + np.sum(z ** 2, axis=-1))
    weights = np.exp(log_w - np.max(log_w, axis=1, keepdims=True))
    weights /= np.sum(weights, axis=1, keepdims=True)

    v = np.matmul(chol_inv, cc[None, :, :, :], out=chol)  # V = L^{-1} C_k
    comp_means = mu[None, :, :] + (z[..., None, :] @ v)[..., 0, :]   # (J, K, b)
    means = (weights[:, None, :] @ comp_means)[:, 0, :]
    if diagonal:
        comp_vars = s[:, None, :] * np.einsum("jkrb,jkrb->jkb", v, chol_inv)
        spread = comp_vars + (comp_means - means[:, None, :]) ** 2
        return weights, means, (weights[:, None, :] @ spread)[:, 0, :]
    v *= weights[..., None, None]                         # the rows w_k V_k
    covs = np.swapaxes(v.reshape(n_blocks, k * b, b), 1, 2) @ (
        chol_inv @ s[:, None, :, :]).reshape(n_blocks, k * b, b)
    covs += (np.swapaxes(comp_means, 1, 2) * weights[:, None, :]) @ comp_means
    covs -= means[..., :, None] * means[..., None, :]
    covs = 0.5 * (covs + np.swapaxes(covs, -1, -2))
    return weights, means, covs


def _component_log_densities(samples: np.ndarray, means: np.ndarray,
                             covs: np.ndarray) -> np.ndarray:
    """(K, n) table of log N(x_n; mu_k, C_k), one row per component."""
    n, dim = samples.shape
    chol = _jittered_cholesky(covs)
    chol_inv_t = np.ascontiguousarray(np.swapaxes(_lower_triangular_inverse(chol), -1, -2))
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    table = np.empty((len(means), n))
    rows = min(n, _EM_CHUNK_ROWS)
    diff, z = np.empty((2, rows, dim))
    for start in range(0, n, rows):
        x = samples[start:start + rows]
        d, zc = diff[:len(x)], z[:len(x)]
        for k in range(len(means)):
            np.matmul(np.subtract(x, means[k], out=d), chol_inv_t[k], out=zc)
            table[k, start:start + len(x)] = -0.5 * (
                dim * np.log(2 * np.pi) + logdet[k] + np.einsum("ni,ni->n", zc, zc))
    return table


def train_em(samples: np.ndarray, n_components: int, max_iters: int = 100,
             seed: int = 0) -> PatchGMM:
    """Fit a PatchGMM by expectation-maximization.

    ``max_iters`` caps the iterations.  EM stops earlier, after the first
    iteration whose M-step changes no parameter by more than rounding: the
    largest change of the weights, of the means over sqrt(v) and of the
    covariances over v is at most ``EM_STOP_TOL`` (1e-12), where v is the
    mean per-coordinate sample variance.  The scale is the data's, not each
    array's largest entry, which for the means of a one-component fit to
    centred patches is itself of rounding size.

    The log-likelihood is non-decreasing across iterations; a regularization
    floor, 1e-6 v, keeps every covariance diagonal bounded away from zero.
    Degenerate (constant) data collapses to a single floored component;
    non-finite samples are rejected.  The E-step goes through L_k^{-T} and
    the M-step's scatter through SYRK (see the module docstring), one
    component at a time, so every temporary is (n, dim).
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")
    n, dim = samples.shape
    if n_components <= 0:
        raise ValueError("n_components must be positive")
    if n < n_components:
        raise ValueError("need at least one sample per component")

    spread = float(np.mean(np.var(samples, axis=0)))
    cov_floor = max(1e-6 * spread, 1e-10)
    eye = np.eye(dim)

    if spread == 0.0:  # constant data: EM is degenerate
        return PatchGMM(weights=np.ones(1), means=samples[:1].copy(),
                        covs=cov_floor * eye[None])

    means = samples[np.random.default_rng(seed).choice(n, size=n_components, replace=False)]
    base_cov = np.cov(samples.T).reshape(dim, dim) + cov_floor * eye
    covs = np.repeat(base_cov[None], n_components, axis=0)
    weights = np.full(n_components, 1.0 / n_components)
    scaled = np.empty_like(samples)

    for _ in range(max_iters):
        # (K, n), so the sums over components run along contiguous rows
        log_resp = np.log(weights)[:, None] + _component_log_densities(samples, means, covs)
        log_max = np.max(log_resp, axis=0)
        log_norm = np.log(np.sum(np.exp(log_resp - log_max), axis=0)) + log_max
        resp = np.exp(log_resp - log_norm)

        previous = (weights, means, covs)
        counts = resp.sum(axis=1) + 1e-300
        weights = counts / counts.sum()
        means = (resp @ samples) / counts[:, None]
        covs = np.empty_like(covs)
        for k, root in enumerate(np.sqrt(resp)):
            np.multiply(np.subtract(samples, means[k], out=scaled), root[:, None], out=scaled)
            covs[k] = scaled.T @ scaled / counts[k] + cov_floor * eye
        change = max(np.max(np.abs(new - old)) / unit for new, old, unit in
                     zip((weights, means, covs), previous, (1.0, np.sqrt(spread), spread)))
        if change <= EM_STOP_TOL:
            break

    return PatchGMM(weights=weights, means=means, covs=covs)
