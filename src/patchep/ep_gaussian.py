"""Expectation propagation for the Gaussian observation model, and the EP
outer loop shared with the Poisson model.

The posterior  N(y; Hx, sigma^2 I) * prod_j GMM(x_j)  is approximated by the
product of two Gaussian factors (prior side and likelihood side) with
block-diagonal precisions aligned to the patch partition.  Each factor keeps
its precision as one stack per group of ``partition.groups`` and its
precision-mean as one N-vector; every block operation is batched over a
group's stack.  A stack is (J_g, b) rows of per-pixel precisions exactly
when H is diagonal, and (J_g, b, b) blocks otherwise; the joint moments and
the tilted kernel's cavities and outputs keep that shape.  The KL step (see
:mod:`patchep.kl_updates`) is closed-form either way: per pixel for rows,
and for blocks one batched call of the exact constrained minimizer per
group's stack.  Each iteration alternates

* prior-side update: tilted GMM moments of each group against the
  likelihood factor as cavity, then the KL precision update and the
  matching precision-mean update;
* likelihood-side update: the tilted precision is Q = P0 + G with
  G = H^T W H.  A block-Jacobi split, G = R + blockdiag(G_jj) with R the
  off-block part (CSR) and G_jj the diagonal blocks on the partition, gives
  the rest, since P0 is block-diagonal: Q's diagonal blocks
  Q_jj = P0_j + G_jj, and Q v = R v + blockdiag(Q_jj) v, applied and never
  assembled.  The split's structure does not depend on W, so the operator
  keeps it per partition, and an update computes only its values (see
  :mod:`patchep.operators`).  The tilted mean and the perturbation samples of
  Rao-Blackwellized Monte Carlo (RBMC) are the columns of one lockstep
  conjugate-gradient solve, preconditioned by the inverses of the Q_jj
  (block Jacobi, batched per group); the RBMC estimate of the covariance
  blocks needs those inverses and R x, the off-block part of Q x, anyway.
  Then the same KL step runs with roles swapped.  The RBMC probes are drawn
  afresh from EPConfig.seed on every update, so each iteration sees the
  same probes (common random numbers) and the update is a deterministic map
  that can reach a fixed point.  When H^T H is diagonal the likelihood
  factor is set directly.

Nothing that goes wrong in an update is silent: each one counts as a warning
under one of ``WARNING_CAUSES`` (a CG column stopped at its iteration cap, a
group whose tilted moments failed, counted per block, a block whose KL step
failed or was rejected, or a Poisson precision escape).

Per-pixel (diagonal) factors are set to their KL target undamped; block
factors are damped in natural parameters (precision and precision-mean), and
so is the Poisson model's isotropic q_u1 once its run's mean change rises.
Each group's KL step writes to the live factor.  The loop stops when the
squared change of the joint mean and of the joint marginal variances both
fall below tol * N.  The result keeps one record per iteration in
``EPResult.history``: the two squared changes, the CG iterations and, on the
block path, the CG residual, the iteration's warnings by cause and, for the
Poisson model, the q_u1 variance c1 and weight; the run's warnings are their
sums.

Every CG solve of the tilted mean starts from the last synced joint mean.
A run can resume from an earlier result on the same partition: both factors
start as copies of its factors (the earlier result is left as it was), so
the first CG solve starts from its mean.  EP-EM resumes every round after
the first this way, since an M-step moves the prior only a little.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .gaussians import BlockDiagonalCov, diag_stack, sym
from .gmm import AdaptedGMM, _tilted_moments_stack
from .kl_updates import PRECISION_FLOOR, diag_kl_update, update_block_precision
from .operators import DegradationOperator
from .partitions import Partition

__all__ = ["EPConfig", "EPResult", "WARNING_CAUSES", "run_ep", "run_ep_gaussian"]

WARNING_CAUSES = ("cg_not_converged", "tilted_failed", "kl_rejected", "poisson_escapes")


@dataclass
class EPConfig:
    damping: float = 0.7            # weight on the target of block factors (and q_u1, once damped)
    stop_tol: float = 1e-8          # per-pixel squared-change scale
    max_iterations: int = 50
    cg_tol: float = 1e-8            # relative residual
    cg_max_iters: int = 500
    rbmc_samples: int = 20
    seed: int = 0                   # RBMC probes, the same on every update

    def __post_init__(self):
        if not 0 < self.damping <= 1:
            raise ValueError("damping must lie in (0, 1]")
        if not self.stop_tol > 0 or not self.cg_tol > 0:
            raise ValueError("tolerances must be positive")
        for name in ("max_iterations", "cg_max_iters", "rbmc_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


def _check_observation(y, n: int, poisson: bool = False) -> np.ndarray:
    """y as a finite float (n,) vector, of nonnegative integers under Poisson noise."""
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise ValueError(f"observation shape {y.shape} does not match the image's ({n},)")
    if not np.all(np.isfinite(y)):
        raise ValueError("observations must be finite")
    if poisson and (np.any(y < 0) or np.any(y != np.rint(y))):
        raise ValueError("Poisson observations must be nonnegative integers")
    return y


def _stack_moments(prec: np.ndarray, eta: np.ndarray):
    """Means (J, b) and covariances of a stack of blocks given in natural
    parameters: precisions and precision-means (J, b).  Full precisions
    (J, b, b) give covariances (J, b, b); diagonal ones, (J, b) rows, are
    inverted per pixel and give (J, b) variances."""
    if prec.ndim == 2:
        var = 1.0 / prec
        return var * eta, var
    cov = sym(np.linalg.inv(prec))
    return (cov @ eta[..., None])[..., 0], cov


@dataclass
class GaussianFactor:
    """One EP factor in natural parameters: ``prec``, a list of precision
    stacks aligned with ``partition.groups``, (J_g, b) rows of a diagonal
    factor or (J_g, b, b) full blocks, and ``eta``, the precision-mean in
    pixel order."""

    partition: Partition
    prec: list
    eta: np.ndarray

    @classmethod
    def from_moments(cls, partition: Partition, mean: np.ndarray, variance: np.ndarray,
                     *, diagonal: bool) -> "GaussianFactor":
        """Diagonal-moment initialization (variance per pixel), as rows when
        ``diagonal`` and as full blocks otherwise."""
        prec = 1.0 / variance
        rows = [prec[g.pixels] for g in partition.groups]
        return cls(partition, rows if diagonal else [diag_stack(r) for r in rows], prec * mean)

    def copy(self) -> "GaussianFactor":
        return GaussianFactor(self.partition, [p.copy() for p in self.prec], self.eta.copy())


@dataclass
class EPState:
    """Live factor pair plus the synchronized joint moments; ``joint_covs``
    holds the joint covariance blocks as stacks aligned with
    ``partition.groups``, of the factors' shape: (J_g, b) variances for
    diagonal factors, (J_g, b, b) blocks otherwise."""

    q0: GaussianFactor
    q1: GaussianFactor
    partition: Partition
    mean: np.ndarray = None
    marginal_var: np.ndarray = None
    joint_covs: list = None

    def sync(self) -> None:
        """Joint moments from the factor product: precision adds, the joint
        mean solves (P0 + P1) m = eta0 + eta1 per block."""
        part = self.partition
        eta = self.q0.eta + self.q1.eta
        self.mean, self.marginal_var = np.empty((2, part.n_pixels))
        self.joint_covs = []
        for group, p0, p1 in zip(part.groups, self.q0.prec, self.q1.prec):
            mean, cov = _stack_moments(p0 + p1, eta[group.pixels])
            self.mean[group.pixels] = mean
            self.marginal_var[group.pixels] = cov if cov.ndim == 2 else np.diagonal(
                cov, axis1=1, axis2=2)
            self.joint_covs.append(cov)


@dataclass
class EPResult:
    mean: np.ndarray
    marginal_var: np.ndarray
    cov: BlockDiagonalCov              # joint blocks, (J_g, b, b) for diagonal factors too
    weights: list                      # tilted GMM weights per group, (J_g, K) or None
    converged: bool
    # one record per EP iteration: "iteration", "dm2" and "dvar2" (squared
    # changes of the joint mean and marginal variances), the step's fields
    # ("cg_iterations"; on the block path "cg_residual", the likelihood-side
    # CG residual relative to its right-hand side; Poisson: "c1" and
    # "damping", the weight q_u1 got) and "warnings", that iteration's
    # counts by cause
    history: list
    state: EPState = field(repr=False, default=None)
    u_mean: np.ndarray = None          # Poisson only
    u_factors: object = field(repr=False, default=None)   # Poisson only: PoissonFactors
    warnings_by_cause: dict = field(default_factory=dict)   # cause -> count, summed

    @property
    def iterations(self) -> int:
        return len(self.history)

    @property
    def warnings(self) -> int:
        """All warnings of the run, the sum over their causes."""
        return sum(self.warnings_by_cause.values())


def _kl_step(factor: GaussianFactor, g: int, t_means: np.ndarray, t_covs: np.ndarray,
             cav_prec: np.ndarray, cav_eta: np.ndarray, damping: float) -> int:
    """Move group g of ``factor``, in place, to the target whose product with
    the cavity (precisions cav_prec, precision-means cav_eta) matches the
    tilted moments: means (J, b) and covariances, all stacks of the
    factor's shape, (J, b) rows or (J, b, b) blocks.  Rows are set to the
    target per pixel; a block becomes damping * target + (1 - damping) * old
    in natural parameters.  Returns the warning count: blocks whose update
    failed or was rejected; they keep their old parameters."""
    pixels = factor.partition.groups[g].pixels
    stack = factor.prec[g]
    if stack.ndim == 2:
        ok = np.all(t_covs > 0, axis=1)
        p_new = diag_kl_update(t_covs[ok], cav_prec[ok])
        stack[ok] = p_new
        factor.eta[pixels[ok]] = (p_new + cav_prec[ok]) * t_means[ok] - cav_eta[ok]
        return int(np.sum(~ok))
    p_new, ok = update_block_precision(t_covs, cav_prec, stack)
    eta_new = ((p_new[ok] + cav_prec[ok]) @ t_means[ok, :, None])[..., 0] - cav_eta[ok]
    stack[ok] = damping * p_new[ok] + (1 - damping) * stack[ok]
    factor.eta[pixels[ok]] = damping * eta_new + (1 - damping) * factor.eta[pixels[ok]]
    return int(np.sum(~ok))


def update_q_x0(state: EPState, adapted: AdaptedGMM, config: EPConfig):
    """Prior-side EP update; returns (tilted weights per group, warning
    counts by cause).  A group whose tilted moments fail gets weights None
    and keeps its old blocks.  The cavity goes to the tilted kernel in the
    factors' shape, (J, b) variances of diagonal factors or (J, b, b)
    blocks, and the tilted covariances come back in the same shape.  Each
    group's KL step updates q_x0 in place (see :func:`_kl_step`)."""
    part = state.partition
    weights = []
    warnings = Counter()
    for g, (group, cav_prec) in enumerate(zip(part.groups, state.q1.prec)):
        cav_eta = state.q1.eta[group.pixels]
        cav_means, cav_covs = _stack_moments(cav_prec, cav_eta)
        try:
            w, t_means, t_covs = _tilted_moments_stack(
                adapted.marginal(group.local), cav_means, cav_covs)
        except np.linalg.LinAlgError:
            weights.append(None)
            warnings["tilted_failed"] += len(group.ids)
            continue
        weights.append(w)
        warnings["kl_rejected"] += _kl_step(state.q0, g, t_means, t_covs, cav_prec, cav_eta,
                                            config.damping)
    return weights, warnings


def solve_cg(q, rhs: np.ndarray, x0: np.ndarray, config: EPConfig, preconditioner):
    """Preconditioned conjugate gradients for Q x = rhs from the start x0, in
    lockstep on the columns of an (N, s) rhs.  q, the product with Q, and
    the preconditioner, the product with an approximation of Q^{-1}, are
    functions that map an (N, s) block to a new array; q is applied once
    per iteration to the block of search directions.

    Each column keeps its own step sizes and stops by scipy's rule: when its
    recursive residual norm falls below cg_tol * ||rhs_i||, checked before
    each iteration.  A stopped column is frozen; a zero column of rhs gives
    zeros.  Returns (solution (N, s), lockstep iterations, largest true
    residual norm over the columns, number of columns that did not converge
    within cg_max_iters).
    """
    x = x0.copy()
    tol = config.cg_tol * np.linalg.norm(rhs, axis=0)
    x[:, tol == 0] = 0.0
    r = rhs - q(x) if x.any() else rhs.copy()
    cols = np.flatnonzero((np.linalg.norm(r, axis=0) >= tol) & (tol > 0))
    x_a, r_a, p, rho_prev, iterations = x[:, cols], r[:, cols], None, None, 0
    while cols.size and iterations < config.cg_max_iters:
        z = preconditioner(r_a)
        rho = np.einsum("ij,ij->j", r_a, z)
        p = z if p is None else z + (rho / rho_prev) * p
        qp = q(p)
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
    residual = float(np.max(np.linalg.norm(rhs - q(x), axis=0)))
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
                      config: EPConfig, warm_start: np.ndarray):
    """Moments of the likelihood-side tilted distribution.

    The tilted precision is Q = P0 + G with G = H^T W H, W = diag(obs_weights),
    and the tilted mean solves Q z = eta0 + obs_eta (obs_eta = H^T W m_obs).
    One ``operator.gram_block`` call gives G's values split as
    G = R + blockdiag(G_jj), R its off-block part, on a structure cached per
    partition; as P0 is block-diagonal, Q = R + blockdiag(Q_jj) with
    Q_jj = P0_j + G_jj.  The marginal covariance blocks are RBMC estimates
    Q_jj^{-1} + Q_jj^{-1} SampleCov((R x)_j) Q_jj^{-1}
    from exact samples x ~ N(0, Q^{-1}); they are exact when R = 0, and
    positive definite up to rounding (an SPD term plus a PSD one).  The
    probes come from a new Philox(config.seed) stream on every call, so
    repeated calls use the same probes.  The mean (started from
    ``warm_start``) and the rbmc_samples probes (started from zero) are the
    columns of one lockstep :func:`solve_cg` of Q v = R v + blockdiag(Q_jj) v,
    preconditioned by blockdiag(Q_jj^{-1}).  All block products are batched
    (J_g, b, b) @ (J_g, b, s) products over ``partition.groups``.

    Returns (mean, covariance stacks aligned with partition.groups, CG
    iterations, CG residual, number of CG columns that did not converge);
    the residual is the largest column's true residual norm over the norm
    of the whole (N, 1 + rbmc_samples) right-hand side.
    """
    part = q0.partition
    n, s = part.n_pixels, config.rbmc_samples
    off_block, gram_blocks = operator.gram_block(part, obs_weights)
    q_blocks = [p0 + g_jj for p0, g_jj in zip(q0.prec, gram_blocks)]
    block_inv = [sym(np.linalg.inv(q_jj)) for q_jj in q_blocks]

    # exact zero-mean samples of N(0, Q^{-1}) solve Q x = H^T W^{1/2} eps1 +
    # L0 eps2 with P0 = L0 L0^T; eps1 and eps2 of each sample drawn in turn
    eps = np.random.Generator(np.random.Philox(config.seed)).standard_normal((s, 2, n))
    chol0 = [np.linalg.cholesky(p) for p in q0.prec]
    probes = (operator.matrix.T @ (np.sqrt(obs_weights)[:, None] * eps[:, 0].T)
              + _block_times(part, chol0, eps[:, 1].T))
    rhs = np.column_stack([q0.eta + obs_eta, probes])
    x, cg_iters, residual, not_converged = solve_cg(
        lambda v: off_block @ v + _block_times(part, q_blocks, v), rhs,
        np.column_stack([warm_start, np.zeros((n, s))]), config,
        lambda v: _block_times(part, block_inv, v))
    rhs_norm = float(np.linalg.norm(rhs))
    v_samples = off_block @ x[:, 1:]
    covs = []
    for group, inv in zip(part.groups, block_inv):
        v = v_samples[group.pixels]                                   # (J, b, s)
        covs.append(sym(inv + inv @ (v @ np.swapaxes(v, 1, 2) / s) @ inv))
    return (x[:, 0], covs, cg_iters, residual / rhs_norm if rhs_norm > 0 else residual,
            not_converged)


def update_q_x1(state: EPState, operator: DegradationOperator,
                obs_weights: np.ndarray, obs_eta: np.ndarray, config: EPConfig):
    """Likelihood-side EP update; returns (fields of the iteration record,
    warning counts by cause): the fields are ``cg_iterations`` and, on the
    block path, ``cg_residual`` (see :func:`tilted_p1_moments`); the
    warnings are the CG columns that hit cg_max_iters and the KL step's
    rejected blocks (see :func:`_kl_step`).  The CG solve of the tilted mean
    starts from the joint mean of the last ``state.sync``.
    For diagonal H^T H the factor is set directly to the exact Gaussian
    likelihood term (precision W * diag(H^T H), floored where a pixel is
    unobserved); no damping is applied to that exact assignment.
    """
    part = state.partition
    if operator.is_diagonal:
        prec = np.maximum(obs_weights * operator.diag_gram(), PRECISION_FLOOR)
        state.q1.prec = [prec[g.pixels] for g in part.groups]
        state.q1.eta = obs_eta.copy()
        return {"cg_iterations": 0}, Counter()

    t_mean, t_covs, cg_iters, cg_residual, not_converged = tilted_p1_moments(
        state.q0, operator, obs_weights, obs_eta, config, state.mean)
    warnings = Counter(cg_not_converged=not_converged)
    for g, group in enumerate(part.groups):
        warnings["kl_rejected"] += _kl_step(state.q1, g, t_mean[group.pixels], t_covs[g],
                                            state.q0.prec[g], state.q0.eta[group.pixels],
                                            config.damping)
    return {"cg_iterations": cg_iters, "cg_residual": cg_residual}, warnings


def run_ep(step, operator: DegradationOperator, partition: Partition,
           init_mean: np.ndarray, init_var: np.ndarray, config: EPConfig,
           init_state: EPState | None = None) -> EPResult:
    """The EP outer loop shared by the Gaussian and the Poisson model.

    Both x-side factors start at (init_mean, init_var), or at copies of the
    factors of ``init_state`` when one is given.  Each iteration calls
    ``step(state)``, which updates the factors, leaves the state synced
    and returns (per-group tilted weights, a Counter of warnings by names in
    ``WARNING_CAUSES``, further fields of the iteration's record).
    Iterations stop when the squared changes of the joint mean and joint
    marginal variances both drop below stop_tol * N, or at max_iterations.
    The result's ``history`` holds one record per iteration, of native
    Python numbers, and its warnings by cause are the sums over the records.
    """
    n = partition.n_pixels
    if init_state is None:
        init = GaussianFactor.from_moments(partition, init_mean, init_var,
                                           diagonal=operator.is_diagonal)
        init_state = EPState(q0=init, q1=init, partition=partition)
    state = EPState(q0=init_state.q0.copy(), q1=init_state.q1.copy(), partition=partition)
    state.sync()

    weights = None
    history = []
    converged = False
    for iteration in range(1, config.max_iterations + 1):
        prev_mean, prev_var = state.mean, state.marginal_var   # sync makes new arrays
        weights, step_warnings, fields = step(state)
        dm2 = float(np.sum((state.mean - prev_mean) ** 2))
        dv2 = float(np.sum((state.marginal_var - prev_var) ** 2))
        warnings = {cause: int(step_warnings[cause]) for cause in WARNING_CAUSES}
        history.append({"iteration": iteration, "dm2": dm2, "dvar2": dv2, **fields,
                        "warnings": warnings})
        if dm2 < config.stop_tol * n and dv2 < config.stop_tol * n:
            converged = True
            break

    return EPResult(
        mean=state.mean.copy(),
        marginal_var=state.marginal_var.copy(),
        cov=BlockDiagonalCov(partition, [diag_stack(c) if c.ndim == 2 else c
                                         for c in state.joint_covs]),
        weights=weights,
        converged=converged,
        history=history,
        state=state,
        warnings_by_cause={cause: sum(r["warnings"][cause] for r in history)
                           for cause in WARNING_CAUSES},
    )


def run_ep_gaussian(y: np.ndarray, operator: DegradationOperator, sigma2: float,
                    adapted: AdaptedGMM, partition: Partition,
                    config: EPConfig | None = None,
                    init: EPResult | None = None) -> EPResult:
    """EP for  y = Hx + Gaussian noise  with a GMM patch prior.

    Both factors start at mean y and covariance sigma2 * I, or resume from
    the factors of ``init``, a result on the same partition.  One iteration
    updates q_x0, then q_x1 (see :func:`run_ep` for the stopping rule).
    """
    config = config or EPConfig()
    n = partition.n_pixels
    y = _check_observation(y, n)
    if not 0 < sigma2 < np.inf:
        raise ValueError("noise variance must be positive and finite")

    obs_weights = np.full(n, 1.0 / sigma2)
    obs_eta = operator.apply_adjoint(y) / sigma2

    def step(state):
        weights, w0 = update_q_x0(state, adapted, config)
        cg_fields, w1 = update_q_x1(state, operator, obs_weights, obs_eta, config)
        state.sync()
        return weights, w0 + w1, cg_fields

    return run_ep(step, operator, partition, y, np.full(n, float(sigma2)), config,
                  None if init is None else init.state)
