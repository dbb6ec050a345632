"""Expectation propagation for the Gaussian observation model, and the EP
outer loop shared with the Poisson model.

The posterior  N(y; Hx, sigma^2 I) * prod_j GMM(x_j)  is approximated by the
product of two Gaussian factors (prior side and likelihood side) with
block-diagonal precisions aligned to the patch partition.  Each factor keeps
its precision as one ``(J_g, b, b)`` stack per group of
``partition.groups`` and its precision-mean as one N-vector; every block
operation is batched over a group's stack.  The structure is diagonal (zero
off-diagonal entries) exactly when H is diagonal and a full block otherwise.
Diagonal stacks get their moments per pixel, without a batched inverse.  The
KL step (see :mod:`patchep.kl_updates`) is closed-form either way: per pixel
for the diagonal structure, and for full blocks in one batched step over a
group's stack, with the exact constrained minimizer computed block by block
where the unconstrained optimum falls below the precision floor.  Each
iteration alternates

* prior-side update: tilted GMM moments of each group against the
  likelihood factor as cavity, then the KL precision update and the
  matching precision-mean update;
* likelihood-side update: the tilted precision is Q = P0 + G with
  G = H^T W H, and one split of G per update, a sparse CSR matrix plus its
  diagonal blocks on the partition, gives the rest: the diagonal blocks
  Q_jj = P0_j + G_jj and, since P0 is block-diagonal, the off-block part
  (G x)_j - G_jj x_j of Q x.  The tilted mean and the perturbation samples
  of Rao-Blackwellized Monte Carlo (RBMC) are the columns of one lockstep
  conjugate-gradient solve, preconditioned by the inverses of the Q_jj
  (block Jacobi, batched per group), which the RBMC estimate of the
  covariance blocks needs anyway; then the same KL step runs with roles
  swapped.  The RBMC probes are drawn afresh from EPConfig.seed on every
  update, so each iteration sees the same probes (common random numbers) and
  the update is a deterministic map that can reach a fixed point.  When
  H^T H is diagonal the likelihood factor is set directly.

Nothing that goes wrong in an update is silent: each one counts as a warning
under one of ``WARNING_CAUSES`` (a CG column stopped at its iteration cap, a
group whose tilted moments failed, counted per block, a block whose KL step
failed or was rejected, or a Poisson precision escape), and the result
reports the counts by cause.

Factor updates are damped in natural parameters (precision and
precision-mean).  The loop stops when the squared change of the joint mean
and of the joint marginal variances both fall below tol * N.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .gaussians import BlockDiagonalCov, block_diag, diag_stack, diag_stacks, sym
from .gmm import AdaptedGMM, _tilted_moments_stack
from .kl_updates import PRECISION_FLOOR, block_kl_update, diag_kl_update, update_block_precision
from .operators import DegradationOperator
from .partitions import Partition

__all__ = ["EPConfig", "EPResult", "WARNING_CAUSES", "run_ep", "run_ep_gaussian"]

WARNING_CAUSES = ("cg_not_converged", "tilted_failed", "kl_rejected", "poisson_escapes")


@dataclass
class EPConfig:
    damping: float = 0.7            # weight on the updated natural parameters
    stop_tol: float = 1e-8          # per-pixel squared-change scale
    max_iterations: int = 50
    cg_tol: float = 1e-8            # relative residual
    cg_max_iters: int = 500
    rbmc_samples: int = 20
    seed: int = 0                   # RBMC probes, the same on every update

    def __post_init__(self):
        if not 0 < self.damping <= 1:
            raise ValueError("damping must lie in (0, 1]")
        if self.stop_tol <= 0 or self.cg_tol <= 0:
            raise ValueError("tolerances must be positive")
        for name in ("max_iterations", "cg_max_iters", "rbmc_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


def _stack_moments(prec: np.ndarray, eta: np.ndarray, structure: str):
    """Means (J, b) and covariances (J, b, b) of a stack of blocks given in
    natural parameters: precisions (J, b, b) and precision-means (J, b).
    Diagonal stacks are inverted per pixel."""
    if structure == "diagonal":
        var = 1.0 / np.diagonal(prec, axis1=1, axis2=2)
        return var * eta, diag_stack(var)
    cov = sym(np.linalg.inv(prec))
    return (cov @ eta[..., None])[..., 0], cov


class GaussianFactor:
    """One EP factor in natural parameters: ``prec``, a list of (J_g, b, b)
    precision stacks aligned with ``partition.groups``, and ``eta``, the
    precision-mean in pixel order."""

    def __init__(self, structure: str, partition: Partition, prec: list, eta: np.ndarray):
        self.structure = structure
        self.partition = partition
        self.prec = prec
        self.eta = eta

    @classmethod
    def from_moments(cls, structure: str, partition: Partition,
                     mean: np.ndarray, variance: np.ndarray) -> "GaussianFactor":
        """Diagonal-moment initialization (variance per pixel)."""
        prec = 1.0 / variance
        return cls(structure, partition, diag_stacks(partition, prec), prec * mean)

    def copy(self) -> "GaussianFactor":
        return GaussianFactor(self.structure, self.partition,
                              [p.copy() for p in self.prec], self.eta.copy())

    def damp_from(self, target: "GaussianFactor", damping: float) -> None:
        """Convex combination in natural-parameter space, in place."""
        eps = damping
        self.eta = eps * target.eta + (1 - eps) * self.eta
        self.prec = [eps * t + (1 - eps) * p for t, p in zip(target.prec, self.prec)]


@dataclass
class EPState:
    """Live factor pair plus the synchronized joint moments; ``joint_covs``
    holds the joint covariance blocks as stacks aligned with
    ``partition.groups``."""

    q0: GaussianFactor
    q1: GaussianFactor
    partition: Partition
    mean: np.ndarray = None
    marginal_var: np.ndarray = None
    joint_covs: list = None
    iteration: int = 0

    def sync(self) -> None:
        """Joint moments from the factor product: precision adds, the joint
        mean solves (P0 + P1) m = eta0 + eta1 per block."""
        part = self.partition
        eta = self.q0.eta + self.q1.eta
        self.mean = np.empty(part.n_pixels)
        self.marginal_var = np.empty(part.n_pixels)
        self.joint_covs = []
        for group, p0, p1 in zip(part.groups, self.q0.prec, self.q1.prec):
            mean, cov = _stack_moments(p0 + p1, eta[group.pixels], self.q0.structure)
            self.mean[group.pixels] = mean
            self.marginal_var[group.pixels] = np.diagonal(cov, axis1=1, axis2=2)
            self.joint_covs.append(cov)


@dataclass
class EPResult:
    mean: np.ndarray
    marginal_var: np.ndarray
    cov: BlockDiagonalCov
    weights: list                      # tilted GMM weights per group, (J_g, K) or None
    iterations: int
    converged: bool
    status: str
    state: EPState = field(repr=False, default=None)
    u_mean: np.ndarray = None          # Poisson only
    u_var: np.ndarray = None
    warnings_by_cause: dict = field(default_factory=dict)   # cause -> count

    @property
    def warnings(self) -> int:
        """All warnings of the run, the sum over their causes."""
        return sum(self.warnings_by_cause.values())


def _kl_step(target: GaussianFactor, g: int, t_means: np.ndarray, t_covs: np.ndarray,
             cav_prec: np.ndarray, cav_eta: np.ndarray) -> int:
    """Set group g of ``target`` so that its product with the cavity
    (precisions cav_prec, precision-means cav_eta) matches the tilted
    moments.  Returns the warning count: blocks whose update failed or was
    rejected; they keep their old parameters."""
    pixels = target.partition.groups[g].pixels
    stack = target.prec[g]
    if target.structure == "diagonal":
        d = np.diagonal(t_covs, axis1=1, axis2=2)
        p_cav = np.diagonal(cav_prec, axis1=1, axis2=2)
        ok = np.all(d > 0, axis=1)
        p_new = diag_kl_update(d[ok], p_cav[ok])
        stack[ok] = diag_stack(p_new)
        target.eta[pixels[ok]] = (p_new + p_cav[ok]) * t_means[ok] - cav_eta[ok]
        return int(np.sum(~ok))
    try:
        p_star, cov_inv, interior = block_kl_update(t_covs, cav_prec)
    except np.linalg.LinAlgError:
        interior = np.zeros(len(stack), dtype=bool)
    else:
        stack[interior] = p_star[interior]
        target.eta[pixels[interior]] = ((cov_inv[interior] @ t_means[interior, :, None])[..., 0]
                                        - cav_eta[interior])
    warnings = 0
    for i in np.flatnonzero(~interior):
        try:
            p_new, ok = update_block_precision(t_covs[i], cav_prec[i], stack[i])
        except np.linalg.LinAlgError:
            ok = False
        if not ok:
            warnings += 1
            continue
        stack[i] = p_new
        target.eta[pixels[i]] = (p_new + cav_prec[i]) @ t_means[i] - cav_eta[i]
    return warnings


def update_q_x0(state: EPState, adapted: AdaptedGMM, config: EPConfig):
    """Prior-side EP update; returns (tilted weights per group, warning
    counts by cause).  A group whose tilted moments fail gets weights None
    and keeps its old blocks."""
    part = state.partition
    weights = []
    warnings = Counter()
    target = state.q0.copy()
    for g, (group, cav_prec) in enumerate(zip(part.groups, state.q1.prec)):
        cav_eta = state.q1.eta[group.pixels]
        cav_means, cav_covs = _stack_moments(cav_prec, cav_eta, state.q1.structure)
        try:
            w, t_means, t_covs = _tilted_moments_stack(
                adapted.marginal(group.local), cav_means, cav_covs)
        except np.linalg.LinAlgError:
            weights.append(None)
            warnings["tilted_failed"] += len(group.ids)
            continue
        weights.append(w)
        warnings["kl_rejected"] += _kl_step(target, g, t_means, t_covs, cav_prec, cav_eta)
    state.q0.damp_from(target, config.damping)
    return weights, warnings


def solve_cg(q, rhs: np.ndarray, x0: np.ndarray | None, config: EPConfig, preconditioner):
    """Preconditioned conjugate gradients for q x = rhs, in lockstep on the
    columns of an (N, s) rhs.  q, a sparse matrix, is multiplied once per
    iteration by the block of search directions; the preconditioner, an
    approximation of q^{-1}, is a function that maps an (N, s) block to a new
    array.

    Each column keeps its own step sizes and stops by scipy's rule: when its
    recursive residual norm falls below cg_tol * ||rhs_i||, checked before
    each iteration.  A stopped column is frozen; a zero column of rhs gives
    zeros.  Returns (solution (N, s), lockstep iterations, largest true
    residual norm over the columns, number of columns that did not converge
    within cg_max_iters).
    """
    x = np.zeros_like(rhs) if x0 is None else x0.copy()
    tol = config.cg_tol * np.linalg.norm(rhs, axis=0)
    x[:, tol == 0] = 0.0
    r = rhs - q @ x if x.any() else rhs.copy()
    cols = np.flatnonzero((np.linalg.norm(r, axis=0) >= tol) & (tol > 0))
    x_a, r_a, p, rho_prev, iterations = x[:, cols], r[:, cols], None, None, 0
    while cols.size and iterations < config.cg_max_iters:
        z = preconditioner(r_a)
        rho = np.einsum("ij,ij->j", r_a, z)
        p = z if p is None else z + (rho / rho_prev) * p
        qp = q @ p
        alpha = rho / np.einsum("ij,ij->j", p, qp)
        x_a += alpha * p
        r_a -= alpha * qp
        rho_prev = rho
        iterations += 1
        keep = np.linalg.norm(r_a, axis=0) >= tol[cols]
        if not keep.all():                      # freeze the converged columns
            x[:, cols[~keep]] = x_a[:, ~keep]
            cols, x_a, r_a, p, rho_prev = (cols[keep], x_a[:, keep], r_a[:, keep],
                                           p[:, keep], rho[keep])
    x[:, cols] = x_a
    residual = float(np.max(np.linalg.norm(rhs - q @ x, axis=0)))
    return x, iterations, residual, cols.size


def _block_times(partition: Partition, stacks, v: np.ndarray) -> np.ndarray:
    """blockdiag(stacks) @ v for an (N, s) block v, as one batched
    (J_g, b, b) @ (J_g, b, s) product per group."""
    out = np.empty_like(v)
    for group, stack in zip(partition.groups, stacks):
        out[group.pixels] = stack @ v[group.pixels]
    return out


def tilted_p1_moments(q0: GaussianFactor, operator: DegradationOperator,
                      obs_weights: np.ndarray, obs_eta: np.ndarray,
                      config: EPConfig, warm_start: np.ndarray | None = None):
    """Moments of the likelihood-side tilted distribution.

    The tilted precision is Q = P0 + G with G = H^T W H, W = diag(obs_weights),
    and the tilted mean solves Q z = eta0 + obs_eta (obs_eta = H^T W m_obs).
    One ``operator.gram_block`` call splits G into a sparse matrix and its
    diagonal blocks G_jj; as P0 is block-diagonal, everything else follows:
    the diagonal blocks Q_jj = P0_j + G_jj, and the off-block part of Q x,
    (Q x)_j - Q_jj x_j = (G x)_j - G_jj x_j.  The marginal covariance blocks
    are RBMC estimates
    Q_jj^{-1} + Q_jj^{-1} SampleCov((G x)_j - G_jj x_j) Q_jj^{-1}
    from exact samples x ~ N(0, Q^{-1}); they are exact when G is
    block-diagonal.  The probes come from a new Philox(config.seed) stream
    on every call, so repeated calls use the same probes.  The mean
    (warm-started from ``warm_start``) and the rbmc_samples probes are the
    columns of one lockstep :func:`solve_cg` with Q as one sparse CSR matrix,
    preconditioned by blockdiag(Q_jj^{-1}).  The preconditioner, the prior's
    Cholesky factors in the probes and G_jj x_j are batched
    (J_g, b, b) @ (J_g, b, s) products over ``partition.groups``.

    Returns (mean, covariance stacks aligned with partition.groups, CG
    iterations, number of CG columns that did not converge).
    """
    part = q0.partition
    n, s = part.n_pixels, config.rbmc_samples
    gram, gram_blocks = operator.gram_block(part, obs_weights)
    block_inv = [sym(np.linalg.inv(p0 + g_jj)) for p0, g_jj in zip(q0.prec, gram_blocks)]
    q = gram + block_diag(part, q0.prec)

    # exact zero-mean samples of N(0, Q^{-1}) solve Q x = H^T W^{1/2} eps1 +
    # L0 eps2 with P0 = L0 L0^T; eps1 and eps2 of each sample drawn in turn
    eps = np.random.Generator(np.random.Philox(config.seed)).standard_normal((s, 2, n))
    chol0 = [np.linalg.cholesky(p) for p in q0.prec]
    probes = (operator.matrix.T @ (np.sqrt(obs_weights)[:, None] * eps[:, 0].T)
              + _block_times(part, chol0, eps[:, 1].T))
    x0 = None if warm_start is None else np.column_stack([warm_start, np.zeros((n, s))])
    x, cg_iters, _, not_converged = solve_cg(
        q, np.column_stack([q0.eta + obs_eta, probes]), x0, config,
        lambda v: _block_times(part, block_inv, v))
    samples = x[:, 1:]
    v_samples = gram @ samples - _block_times(part, gram_blocks, samples)
    covs = []
    for group, inv in zip(part.groups, block_inv):
        v = v_samples[group.pixels]                                   # (J, b, s)
        cov = sym(inv + inv @ (v @ np.swapaxes(v, 1, 2) / s) @ inv)
        evals, evecs = np.linalg.eigh(cov)
        covs.append(sym((evecs * np.maximum(evals, 1e-10)[:, None, :]) @ np.swapaxes(evecs, 1, 2)))
    return x[:, 0], covs, cg_iters, not_converged


def update_q_x1(state: EPState, operator: DegradationOperator,
                obs_weights: np.ndarray, obs_eta: np.ndarray,
                config: EPConfig, warm_start: np.ndarray | None = None):
    """Likelihood-side EP update; returns (cg iterations, warning counts by
    cause): the CG columns that hit cg_max_iters and the KL step's rejected
    blocks (see :func:`_kl_step`).
    For diagonal H^T H the factor is set directly to the exact Gaussian
    likelihood term (precision W * diag(H^T H), floored where a pixel is
    unobserved); no damping is applied to that exact assignment.
    """
    part = state.partition
    if operator.is_diagonal:
        prec = np.maximum(obs_weights * operator.diag_gram(), PRECISION_FLOOR)
        state.q1.prec = diag_stacks(part, prec)
        state.q1.eta = obs_eta.copy()
        return 0, Counter()

    t_mean, t_covs, cg_iters, not_converged = tilted_p1_moments(
        state.q0, operator, obs_weights, obs_eta, config, warm_start)
    warnings = Counter(cg_not_converged=not_converged)
    target = state.q1.copy()
    for g, group in enumerate(part.groups):
        warnings["kl_rejected"] += _kl_step(target, g, t_mean[group.pixels], t_covs[g],
                                            state.q0.prec[g], state.q0.eta[group.pixels])
    state.q1.damp_from(target, config.damping)
    return cg_iters, warnings


def _write_trace(trace, record: dict) -> None:
    if trace is None:
        return
    if isinstance(trace, list):
        trace.append(record)
    else:
        trace.write(json.dumps(record) + "\n")


def run_ep(step, operator: DegradationOperator, partition: Partition,
           init_mean: np.ndarray, init_var: np.ndarray, config: EPConfig,
           trace=None) -> EPResult:
    """The EP outer loop shared by the Gaussian and the Poisson model.

    Both x-side factors start at (init_mean, init_var).  Each iteration calls
    ``step(state)``, which updates the factors, leaves the state synced
    and returns (per-group tilted weights, warning counts as a mapping from
    names in ``WARNING_CAUSES`` to counts, trace fields).
    Iterations stop when the squared changes of the joint mean and joint
    marginal variances both drop below stop_tol * N, or at max_iterations.
    One trace record per iteration goes to ``trace`` (a list, or a text
    stream that receives JSON lines).
    """
    n = partition.n_pixels
    structure = "diagonal" if operator.is_diagonal else "block"
    state = EPState(
        q0=GaussianFactor.from_moments(structure, partition, init_mean, init_var),
        q1=GaussianFactor.from_moments(structure, partition, init_mean, init_var),
        partition=partition,
    )
    state.sync()

    weights = None
    warnings = dict.fromkeys(WARNING_CAUSES, 0)
    converged = False
    prev_mean = state.mean.copy()
    prev_var = state.marginal_var.copy()
    for iteration in range(1, config.max_iterations + 1):
        t0 = time.perf_counter()
        weights, step_warnings, fields = step(state)
        for cause, count in step_warnings.items():
            warnings[cause] += count
        state.iteration = iteration

        dm2 = float(np.sum((state.mean - prev_mean) ** 2))
        dv2 = float(np.sum((state.marginal_var - prev_var) ** 2))
        _write_trace(trace, {"iteration": iteration, "dm2": dm2, "dvar2": dv2, **fields,
                             "wall_time_s": time.perf_counter() - t0})
        prev_mean = state.mean.copy()
        prev_var = state.marginal_var.copy()
        if dm2 < config.stop_tol * n and dv2 < config.stop_tol * n:
            converged = True
            break

    return EPResult(
        mean=state.mean.copy(),
        marginal_var=state.marginal_var.copy(),
        cov=BlockDiagonalCov(partition, state.joint_covs),
        weights=weights,
        iterations=state.iteration,
        converged=converged,
        status="converged" if converged else "max_iterations",
        state=state,
        warnings_by_cause=warnings,
    )


def run_ep_gaussian(y: np.ndarray, operator: DegradationOperator, sigma2: float,
                    adapted: AdaptedGMM, partition: Partition,
                    config: EPConfig | None = None, trace=None) -> EPResult:
    """EP for  y = Hx + Gaussian noise  with a GMM patch prior.

    Both factors start at mean y and covariance sigma2 * I; one iteration
    updates q_x0, then q_x1 (see :func:`run_ep` for the stopping rule).
    """
    config = config or EPConfig()
    y = np.asarray(y, dtype=float)
    n = partition.n_pixels
    if y.shape != (n,):
        raise ValueError("observation length does not match the partition")
    if sigma2 <= 0:
        raise ValueError("noise variance must be positive")

    obs_weights = np.full(n, 1.0 / sigma2)
    obs_eta = operator.apply_adjoint(y) / sigma2
    warm = None

    def step(state):
        nonlocal warm
        weights, w0 = update_q_x0(state, adapted, config)
        cg_iters, w1 = update_q_x1(state, operator, obs_weights, obs_eta,
                                   config, warm_start=warm)
        state.sync()
        warm = state.mean.copy()
        return weights, w0 + w1, {"cg_iterations": cg_iters}

    return run_ep(step, operator, partition, y, np.full(n, float(sigma2)), config, trace)
