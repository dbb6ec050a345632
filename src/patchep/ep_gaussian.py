"""Expectation propagation for the Gaussian observation model.

The posterior  N(y; Hx, sigma^2 I) * prod_j GMM(x_j)  is approximated by the
product of two Gaussian factors (prior side and likelihood side) whose
covariances share one structure: diagonal for diagonal H, block-diagonal
aligned to the patch partition otherwise.  Each iteration alternates

* prior-side update: per-block tilted GMM moments against the likelihood
  factor as cavity, then a structure-constrained KL precision update and the
  matching mean update;
* likelihood-side update: the tilted precision Q = P0 + H^T W H is
  assembled once per update as a sparse CSR matrix; the tilted mean and the
  perturbation samples of Rao-Blackwellized Monte Carlo (RBMC) are solved by
  conjugate gradients preconditioned with the inverses of the diagonal blocks
  Q_jj (block Jacobi), which the RBMC estimate needs anyway.  Marginal
  covariance blocks are exact for diagonal H and RBMC estimates otherwise;
  then the same KL machinery runs with roles swapped.  When H^T H is
  diagonal the likelihood factor is set directly.  CG solves that stop at
  the iteration cap are counted as warnings.

Factor updates are damped in natural parameters (precision and
precision-mean).  The loop stops when the squared change of the joint mean
and of the joint marginal variances both fall below tol * N.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import cg

from .gaussians import BlockDiagonalCov, DiagonalCov, StructuredGaussian
from .gmm import AdaptedGMM, _tilted_moments_stack
from .kl_updates import PRECISION_FLOOR, BlockKLProblem, update_block_precision
from .operators import DegradationOperator
from .partitions import Partition

__all__ = ["EPConfig", "EPResult", "run_ep_gaussian"]


@dataclass
class EPConfig:
    damping: float = 0.7            # weight on the updated natural parameters
    stop_tol: float = 1e-8          # per-pixel squared-change scale
    max_iterations: int = 50
    cg_tol: float = 1e-8            # relative residual
    cg_max_iters: int = 500
    rbmc_samples: int = 20
    structure: str = "auto"         # "auto" | "diagonal" | "block"
    kl_max_iters: int = 200
    kl_tol: float = 1e-8
    seed: int = 0                   # RBMC sampling stream

    def __post_init__(self):
        if not 0 < self.damping <= 1:
            raise ValueError("damping must lie in (0, 1]")
        if self.stop_tol <= 0 or self.cg_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.structure not in ("auto", "diagonal", "block"):
            raise ValueError(f"unknown structure {self.structure!r}")

    def resolve_structure(self, operator: DegradationOperator) -> str:
        if self.structure != "auto":
            return self.structure
        return "diagonal" if operator.is_diagonal else "block"


class GaussianFactor:
    """One EP factor in natural parameters (precision, precision * mean)."""

    def __init__(self, structure: str, partition: Partition, prec_diag=None,
                 prec_blocks=None, eta=None):
        self.structure = structure
        self.partition = partition
        self.prec_diag = prec_diag
        self.prec_blocks = prec_blocks
        self.eta = eta

    @classmethod
    def from_moments(cls, structure: str, partition: Partition,
                     mean: np.ndarray, variance: np.ndarray) -> "GaussianFactor":
        """Diagonal-moment initialization (variance per pixel)."""
        prec = 1.0 / variance
        eta = prec * mean
        if structure == "diagonal":
            return cls(structure, partition, prec_diag=prec, eta=eta)
        blocks = [np.diag(prec[idx]) for idx in partition.blocks]
        return cls(structure, partition, prec_blocks=blocks, eta=eta)

    def block_precision(self, j: int) -> np.ndarray:
        if self.structure == "diagonal":
            return np.diag(self.prec_diag[self.partition.blocks[j]])
        return self.prec_blocks[j]

    def block_moments(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Mean and covariance of block j of this factor."""
        idx = self.partition.blocks[j]
        if self.structure == "diagonal":
            var = 1.0 / self.prec_diag[idx]
            return self.eta[idx] * var, np.diag(var)
        cov = np.linalg.inv(self.prec_blocks[j])
        cov = 0.5 * (cov + cov.T)
        return cov @ self.eta[idx], cov

    def copy(self) -> "GaussianFactor":
        return GaussianFactor(
            self.structure, self.partition,
            prec_diag=None if self.prec_diag is None else self.prec_diag.copy(),
            prec_blocks=None if self.prec_blocks is None else [b.copy() for b in self.prec_blocks],
            eta=self.eta.copy(),
        )

    def damp_from(self, target: "GaussianFactor", damping: float) -> None:
        """Convex combination in natural-parameter space, in place."""
        eps = damping
        self.eta = eps * target.eta + (1 - eps) * self.eta
        if self.structure == "diagonal":
            self.prec_diag = eps * target.prec_diag + (1 - eps) * self.prec_diag
        else:
            self.prec_blocks = [
                eps * tb + (1 - eps) * sb
                for tb, sb in zip(target.prec_blocks, self.prec_blocks)
            ]

    def to_structured(self) -> StructuredGaussian:
        n = self.partition.n_pixels
        if self.structure == "diagonal":
            var = 1.0 / self.prec_diag
            return StructuredGaussian(self.eta * var, DiagonalCov(var))
        mean = np.empty(n)
        covs = []
        for j, idx in enumerate(self.partition.blocks):
            m, c = self.block_moments(j)
            mean[idx] = m
            covs.append(c)
        return StructuredGaussian(mean, BlockDiagonalCov(self.partition, covs))


@dataclass
class EPState:
    """Live factor pair plus the synchronized joint moments."""

    q0: GaussianFactor
    q1: GaussianFactor
    partition: Partition
    mean: np.ndarray = None
    marginal_var: np.ndarray = None
    joint_blocks: list = None
    iteration: int = 0

    def sync(self) -> None:
        """Joint moments from the factor product: precision adds, the joint
        mean solves (P0 + P1) m = eta0 + eta1 per block."""
        part = self.partition
        eta = self.q0.eta + self.q1.eta
        if self.q0.structure == "diagonal":
            prec = self.q0.prec_diag + self.q1.prec_diag
            self.marginal_var = 1.0 / prec
            self.mean = eta * self.marginal_var
            self.joint_blocks = None
            return
        mean = np.empty(part.n_pixels)
        var = np.empty(part.n_pixels)
        blocks = []
        for j, idx in enumerate(part.blocks):
            prec = self.q0.block_precision(j) + self.q1.block_precision(j)
            cov = np.linalg.inv(prec)
            cov = 0.5 * (cov + cov.T)
            blocks.append(cov)
            mean[idx] = cov @ eta[idx]
            var[idx] = np.diag(cov)
        self.mean = mean
        self.marginal_var = var
        self.joint_blocks = blocks

    def joint_block_cov(self, j: int) -> np.ndarray:
        if self.joint_blocks is not None:
            return self.joint_blocks[j]
        idx = self.partition.blocks[j]
        return np.diag(self.marginal_var[idx])

    def joint_cov(self):
        if self.q0.structure == "diagonal":
            return DiagonalCov(self.marginal_var)
        return BlockDiagonalCov(self.partition,
                                [self.joint_block_cov(j) for j in range(self.partition.n_blocks)])


@dataclass
class EPResult:
    mean: np.ndarray
    marginal_var: np.ndarray
    cov: object
    weights: list                      # per-block tilted GMM weights
    iterations: int
    converged: bool
    status: str
    state: EPState = field(repr=False, default=None)
    u_mean: np.ndarray = None          # Poisson only
    u_var: np.ndarray = None
    warnings: int = 0


def _group_blocks(partition: Partition) -> dict:
    """Group block indices by their local-index pattern; all blocks in one
    group share one (possibly marginalized) patch prior and one size."""
    groups: dict[tuple, list[int]] = {}
    for j, loc in enumerate(partition.local_indices):
        groups.setdefault(tuple(loc.tolist()), []).append(j)
    return groups


def _prior_for_group(adapted: AdaptedGMM, partition: Partition, key: tuple) -> AdaptedGMM:
    if len(key) == adapted.dim and key == tuple(range(adapted.dim)):
        return adapted
    return adapted.marginal(key)


def update_q_x0(state: EPState, adapted: AdaptedGMM, config: EPConfig):
    """Prior-side EP update; returns (per-block weights, warning count)."""
    part = state.partition
    weights: list = [None] * part.n_blocks
    warnings = 0
    target = state.q0.copy()

    for key, block_ids in _group_blocks(part).items():
        prior = _prior_for_group(adapted, part, key)
        cav_means = np.stack([state.q1.block_moments(j)[0] for j in block_ids])
        cav_covs = np.stack([state.q1.block_moments(j)[1] for j in block_ids])
        try:
            w, _, _, t_means, t_covs = _tilted_moments_stack(prior, cav_means, cav_covs)
        except np.linalg.LinAlgError:
            warnings += len(block_ids)
            continue
        for pos, j in enumerate(block_ids):
            idx = part.blocks[j]
            weights[j] = w[pos]
            try:
                if state.q0.structure == "diagonal":
                    d = np.diag(t_covs[pos])
                    if np.any(d <= 0):
                        raise np.linalg.LinAlgError("nonpositive tilted variance")
                    p_cav = state.q1.prec_diag[idx]
                    p_new = np.maximum(1.0 / d - p_cav, PRECISION_FLOOR)
                    target.prec_diag[idx] = p_new
                    target.eta[idx] = (p_new + p_cav) * t_means[pos] - state.q1.eta[idx]
                else:
                    cav_prec = state.q1.block_precision(j)
                    problem = BlockKLProblem(t_covs[pos], cav_prec,
                                             state.q0.prec_blocks[j], structure="full")
                    p_new = update_block_precision(problem, config.kl_max_iters, config.kl_tol)
                    target.prec_blocks[j] = p_new
                    target.eta[idx] = (p_new + cav_prec) @ t_means[pos] - state.q1.eta[idx]
            except np.linalg.LinAlgError:
                warnings += 1  # keep the old block
    state.q0.damp_from(target, config.damping)
    return weights, warnings


def _block_diag(partition: Partition, blocks) -> sparse.csr_matrix:
    """Sparse N x N matrix with blocks[j] at (partition.blocks[j], partition.blocks[j])."""
    n = partition.n_pixels
    rows = np.concatenate([np.repeat(idx, len(idx)) for idx in partition.blocks])
    cols = np.concatenate([np.tile(idx, len(idx)) for idx in partition.blocks])
    vals = np.concatenate([np.ravel(b) for b in blocks])
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def solve_cg(q, rhs: np.ndarray, x0: np.ndarray | None, config: EPConfig,
             preconditioner=None):
    """Conjugate gradients for q x = rhs, with q (and the preconditioner, an
    approximation of q^{-1}) a sparse matrix or linear operator.

    Returns (solution, iterations, residual norm, info) with scipy's info
    flag: nonzero when cg_max_iters ran out before the relative residual
    fell below cg_tol.
    """
    counter = {"n": 0}

    def count(_):
        counter["n"] += 1

    x, info = cg(q, rhs, x0=x0, rtol=config.cg_tol, atol=0.0,
                 maxiter=config.cg_max_iters, M=preconditioner, callback=count)
    residual = float(np.linalg.norm(rhs - q @ x))
    return x, counter["n"], residual, info


def tilted_p1_moments(q0: GaussianFactor, operator: DegradationOperator,
                      obs_weights: np.ndarray, obs_eta: np.ndarray,
                      config: EPConfig, rng: np.random.Generator,
                      warm_start: np.ndarray | None = None):
    """Moments of the likelihood-side tilted distribution.

    The tilted precision is Q = P0 + H^T W H with W = diag(obs_weights) and
    the tilted mean solves Q z = eta0 + obs_eta (obs_eta = H^T W m_obs).
    Marginal covariance blocks are exact for diagonal H; otherwise they are
    RBMC estimates Q_jj^{-1} + Q_jj^{-1} SampleCov((Q x)_j - Q_jj x_j) Q_jj^{-1}
    from exact samples x ~ N(0, Q^{-1}).  Q is assembled as one sparse
    matrix and every solve is preconditioned by blockdiag(Q_jj^{-1}).

    Returns (mean, covariance blocks, CG iterations, number of CG solves
    that did not converge).
    """
    part = q0.partition
    rhs = q0.eta + obs_eta
    if operator.is_diagonal and q0.structure == "diagonal":
        prec = q0.prec_diag + obs_weights * operator.diag_gram()
        mean = rhs / prec
        blocks = [np.diag(1.0 / prec[idx]) for idx in part.blocks]
        return mean, blocks, 0, 0

    p0_blocks = [q0.block_precision(j) for j in range(part.n_blocks)]
    q_blocks = [operator.gram_block(idx, obs_weights) + p0_blocks[j]
                for j, idx in enumerate(part.blocks)]
    block_inv = [0.5 * (inv + inv.T) for inv in map(np.linalg.inv, q_blocks)]
    h = operator.matrix
    q = (_block_diag(part, p0_blocks) + h.T @ sparse.diags(obs_weights) @ h).tocsr()
    jacobi = _block_diag(part, block_inv)

    mean, cg_iters, _, info = solve_cg(q, rhs, warm_start, config, jacobi)
    not_converged = int(info != 0)
    if operator.is_diagonal:
        return mean, block_inv, cg_iters, not_converged

    # RBMC correction from exact zero-mean samples of N(0, Q^{-1}):
    # Q x = H^T W^{1/2} eps1 + L0 eps2 with P0 = L0 L0^T
    n = part.n_pixels
    s = config.rbmc_samples
    chol0 = _block_diag(part, [np.linalg.cholesky(p) for p in p0_blocks])
    sqrt_w = np.sqrt(obs_weights)
    x_samples = np.empty((n, s))
    for t in range(s):
        eps1 = rng.standard_normal(n)
        eps2 = rng.standard_normal(n)
        w_vec = operator.apply_adjoint(sqrt_w * eps1) + chol0 @ eps2
        x_samples[:, t], it, _, info = solve_cg(q, w_vec, None, config, jacobi)
        cg_iters += it
        not_converged += int(info != 0)
    # (Q x)_j - Q_jj x_j for all blocks and samples: one product with the
    # off-block-diagonal part of Q
    coo = q.tocoo()
    off = part.block_of[coo.row] != part.block_of[coo.col]
    q_off = sparse.csr_matrix((coo.data[off], (coo.row[off], coo.col[off])), shape=q.shape)
    v_samples = q_off @ x_samples
    blocks = []
    for j, idx in enumerate(part.blocks):
        v = v_samples[idx]
        sample_cov = v @ v.T / s
        cov = block_inv[j] + block_inv[j] @ sample_cov @ block_inv[j]
        cov = 0.5 * (cov + cov.T)
        evals, evecs = np.linalg.eigh(cov)
        cov = (evecs * np.maximum(evals, 1e-10)) @ evecs.T
        blocks.append(0.5 * (cov + cov.T))
    return mean, blocks, cg_iters, not_converged


def update_q_x1(state: EPState, operator: DegradationOperator,
                obs_weights: np.ndarray, obs_eta: np.ndarray,
                config: EPConfig, rng: np.random.Generator,
                warm_start: np.ndarray | None = None):
    """Likelihood-side EP update; returns (cg iterations, warning count).

    The warning count adds the CG solves that hit cg_max_iters and the
    blocks whose KL update failed (those keep their old precision).
    For diagonal H^T H the factor is set directly to the exact Gaussian
    likelihood term (precision W * diag(H^T H), floored where a pixel is
    unobserved); no damping is applied to that exact assignment.
    """
    part = state.partition
    if operator.is_diagonal:
        prec = np.maximum(obs_weights * operator.diag_gram(), PRECISION_FLOOR)
        if state.q1.structure == "diagonal":
            state.q1.prec_diag = prec
        else:
            state.q1.prec_blocks = [np.diag(prec[idx]) for idx in part.blocks]
        state.q1.eta = obs_eta.copy()
        return 0, 0

    t_mean, t_blocks, cg_iters, warnings = tilted_p1_moments(
        state.q0, operator, obs_weights, obs_eta, config, rng, warm_start)
    target = state.q1.copy()
    for j, idx in enumerate(part.blocks):
        try:
            cav_prec = state.q0.block_precision(j)
            if state.q1.structure == "diagonal":
                d = np.diag(t_blocks[j])
                p_cav = state.q0.prec_diag[idx]
                p_new = np.maximum(1.0 / d - p_cav, PRECISION_FLOOR)
                target.prec_diag[idx] = p_new
                target.eta[idx] = (p_new + p_cav) * t_mean[idx] - state.q0.eta[idx]
            else:
                problem = BlockKLProblem(t_blocks[j], cav_prec,
                                         state.q1.prec_blocks[j], structure="full")
                p_new = update_block_precision(problem, config.kl_max_iters, config.kl_tol)
                target.prec_blocks[j] = p_new
                target.eta[idx] = (p_new + cav_prec) @ t_mean[idx] - state.q0.eta[idx]
        except np.linalg.LinAlgError:
            warnings += 1
    state.q1.damp_from(target, config.damping)
    return cg_iters, warnings


def _write_trace(trace, record: dict) -> None:
    if trace is None:
        return
    if isinstance(trace, list):
        trace.append(record)
    else:
        trace.write(json.dumps(record) + "\n")


def run_ep_gaussian(y: np.ndarray, operator: DegradationOperator, sigma2: float,
                    adapted: AdaptedGMM, partition: Partition,
                    config: EPConfig | None = None, trace=None) -> EPResult:
    """EP for  y = Hx + Gaussian noise  with a GMM patch prior.

    Both factors start at mean y and covariance sigma2 * I.  Iterations stop
    when the squared changes of the joint mean and joint marginal variances
    both drop below stop_tol * N, or at max_iterations.
    """
    config = config or EPConfig()
    y = np.asarray(y, dtype=float)
    n = partition.n_pixels
    if y.shape != (n,):
        raise ValueError("observation length does not match the partition")
    if sigma2 <= 0:
        raise ValueError("noise variance must be positive")

    structure = config.resolve_structure(operator)
    rng = np.random.Generator(np.random.Philox(config.seed))
    init_var = np.full(n, float(sigma2))
    state = EPState(
        q0=GaussianFactor.from_moments(structure, partition, y, init_var),
        q1=GaussianFactor.from_moments(structure, partition, y, init_var),
        partition=partition,
    )
    state.sync()

    obs_weights = np.full(n, 1.0 / sigma2)
    obs_eta = operator.apply_adjoint(y) / sigma2

    weights = None
    warnings = 0
    converged = False
    prev_mean = state.mean.copy()
    prev_var = state.marginal_var.copy()
    warm = None
    for iteration in range(1, config.max_iterations + 1):
        t0 = time.perf_counter()
        weights, w0 = update_q_x0(state, adapted, config)
        state.sync()
        cg_iters, w1 = update_q_x1(state, operator, obs_weights, obs_eta,
                                   config, rng, warm_start=warm)
        state.sync()
        warm = state.mean.copy()
        warnings += w0 + w1
        state.iteration = iteration

        dm2 = float(np.sum((state.mean - prev_mean) ** 2))
        dv2 = float(np.sum((state.marginal_var - prev_var) ** 2))
        _write_trace(trace, {
            "iteration": iteration, "dm2": dm2, "dvar2": dv2,
            "cg_iterations": cg_iters,
            "wall_time_s": time.perf_counter() - t0,
        })
        prev_mean = state.mean.copy()
        prev_var = state.marginal_var.copy()
        if dm2 < config.stop_tol * n and dv2 < config.stop_tol * n:
            converged = True
            break

    return EPResult(
        mean=state.mean.copy(),
        marginal_var=state.marginal_var.copy(),
        cov=state.joint_cov(),
        weights=weights,
        iterations=state.iteration,
        converged=converged,
        status="converged" if converged else "max_iterations",
        state=state,
        warnings=warnings,
    )
