"""Product-of-experts fusion over shifted partitions and EP-EM estimation
of the prior adaptation parameters.

One expert = one EP run (Gaussian or Poisson model) under one shifted patch
partition.  Experts are fused per pixel through their marginal moments: the
fused precision is the arithmetic mean of expert precisions and the fused
mean the matching precision-weighted average.

Each expert may alternate EP with a variational M-step that re-estimates the
prior adaptation (offset, patch-mean variance, scale) from sufficient
statistics of the EP moments, so the E-cost and its slope are scalar
arithmetic.  At a fixed scale the M-step is exact: the offset has a closed
form at each patch-mean variance, and the variance is the root of the slope
of that profile, or a bound where the slope points outward; picks on a bound
are reported.  A requested scale is found by golden-section search,
alternating with that profile.  An M-step moves the adaptation only a
little, so every EM round after the first resumes EP from the factors of the
round before (a warm-started E-step, Neal & Hinton 1998) instead of
restarting from the observation.

The report of a run nests run -> expert -> EM round -> EP iteration, the
last level being each EP run's ``EPResult.history``.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import asdict, astuple, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .ep_gaussian import WARNING_CAUSES, EPConfig, EPResult, _check_observation, run_ep_gaussian
from .ep_poisson import run_ep_poisson
from .gmm import Adaptation, PatchGMM, adapt
from .operators import DegradationOperator, GaussianNoise, PoissonNoise
from .partitions import Partition, build_shifted_partitions

__all__ = [
    "ExpertResult",
    "FusedPosterior",
    "PipelineConfig",
    "PipelineResult",
    "fuse_poe",
    "estep_statistics",
    "epem_e_cost",
    "epem_m_step",
    "run_pipeline",
]


@dataclass
class ExpertResult:
    index: int
    mean: np.ndarray
    marginal_var: np.ndarray
    theta: Adaptation
    iterations: int
    outer_rounds: int
    converged: bool
    # EP warnings by cause (see ep_gaussian.WARNING_CAUSES), summed over EM rounds
    warnings_by_cause: dict = field(default_factory=dict)
    # one record per EM round: its EP iterations, convergence and per-iteration
    # history (see EPResult.history), the adaptation it ran under and the
    # parameters the M-step after it left on a bound
    rounds: list = field(default_factory=list)

    def __post_init__(self):
        if np.any(self.marginal_var <= 0):
            raise ValueError("expert marginal variances must be positive")

    @property
    def warnings(self) -> int:
        """All EP warnings of the expert, the sum over their causes."""
        return sum(self.warnings_by_cause.values())


@dataclass
class FusedPosterior:
    mean: np.ndarray
    marginal_var: np.ndarray

    def __post_init__(self):
        if np.any(self.marginal_var <= 0):
            raise ValueError("fused variances must be positive")


def fuse_poe(experts: list) -> FusedPosterior:
    """Product-of-experts fusion of per-pixel marginals: the fused precision
    is the mean expert precision, the fused mean its precision-weighted
    average (the 1/r exponents cancel into plain averages)."""
    if not experts:
        raise ValueError("at least one expert is required")
    prec = np.mean([1.0 / e.marginal_var for e in experts], axis=0)
    mean = np.mean([e.mean / e.marginal_var for e in experts], axis=0) / prec
    return FusedPosterior(mean=mean, marginal_var=1.0 / prec)


class EStepStatistics(NamedTuple):
    """Sufficient statistics of the E-cost, one entry per (group, component):
    B and mu are the base covariance and mean on the group's local indices,
    g = B^{-1} 1, and sums run over blocks j (weights w_j, moments m_j, S_j)."""
    size: np.ndarray          # b, the block size
    weight: np.ndarray        # sum w_j
    ones: np.ndarray          # c = 1^T B^{-1} 1
    ones_mu: np.ndarray       # 1^T B^{-1} mu
    mu_mu: np.ndarray         # mu^T B^{-1} mu
    logdet: np.ndarray        # log det B
    trace: np.ndarray         # sum w_j tr(B^{-1} S_j)
    ones_s_ones: np.ndarray   # sum w_j g^T S_j g
    m_m: np.ndarray           # sum w_j m_j^T B^{-1} m_j
    ones_m: np.ndarray        # sum w_j g^T m_j
    ones_m_sq: np.ndarray     # sum w_j (g^T m_j)^2
    mu_m: np.ndarray          # sum w_j mu^T B^{-1} m_j


def estep_statistics(weights, mean: np.ndarray, cov: list,
                     base: PatchGMM, partition: Partition) -> EStepStatistics:
    """The E-cost's sufficient statistics from the EP moments, through one
    Cholesky factor L per (group, component) of the base covariance B and
    its inverse, which the base prior computes once per local pattern
    (:meth:`PatchGMM.local_factors`).  ``cov`` holds the joint covariance
    stacks as EP keeps them (``EPResult.cov``): (J_g, b) variances of
    diagonal factors, whose weighted sum D_k = sum_j w_jk S_j is diagonal,
    so L^{-1} D_k L^{-T} is a scaled product, or (J_g, b, b) blocks.
    Groups without weights (failed tilted moments) are left out; one must
    have weights."""
    cells = []
    for group, w, s in zip(partition.groups, weights, cov):
        if w is None:
            continue
        chol, chol_inv = base.local_factors(group.local)              # (K, b, b) each
        z_one = chol_inv.sum(axis=2)                                  # L^{-1} 1
        z_mu = (chol_inv @ base.means[:, group.local, None])[..., 0]  # L^{-1} mu
        z_m = np.einsum("kab,jb->jka", chol_inv, mean[group.pixels])  # L^{-1} m_j
        d = np.einsum("jk,j...->k...", w, s)                         # D_k = sum_j w_jk S_j
        l_d = chol_inv * d[:, None, :] if d.ndim == 2 else chol_inv @ d
        z_s = l_d @ np.swapaxes(chol_inv, 1, 2)                       # L^{-1} D_k L^{-T}
        g_m = np.einsum("ka,jka->jk", z_one, z_m)
        cells.append([
            np.full(len(z_one), float(group.local.size)), w.sum(axis=0), np.sum(z_one * z_one, axis=1),
            np.sum(z_one * z_mu, axis=1), np.sum(z_mu * z_mu, axis=1),
            2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1),
            np.trace(z_s, axis1=1, axis2=2), np.einsum("ka,kab,kb->k", z_one, z_s, z_one),
            np.einsum("jk,jka,jka->k", w, z_m, z_m), np.sum(w * g_m, axis=0),
            np.sum(w * g_m ** 2, axis=0), np.einsum("jk,jka,ka->k", w, z_m, z_mu)])
    return EStepStatistics(*map(np.concatenate, zip(*cells)))


def _projected_spread(offset: float, scale: float, st: EStepStatistics):
    """g^T mu_theta = offset c + a 1^T B^{-1} mu (mu_theta = offset 1 + a mu),
    and R = sum w g^T (S + (m - mu_theta)(m - mu_theta)^T) g, the statistic
    through which the E-cost depends on mean_var."""
    shift = offset * st.ones + scale * st.ones_mu
    return shift, st.ones_s_ones + (st.ones_m_sq - 2.0 * shift * st.ones_m + st.weight * shift * shift)


def epem_e_cost(theta: Adaptation, st: EStepStatistics) -> float:
    """Expected log prior under the EP moments as a function of the adaptation
    (the variational EM surrogate), from the statistics of
    :func:`estep_statistics`.  For C = v 11^T + a^2 B
    (v = mean_var, a = scale), Sherman-Morrison and the determinant lemma give
    C^{-1} = B^{-1}/a^2 - beta g g^T, beta = v / (a^2 (a^2 + v c)), and log det
    C = b log a^2 + log det B + log1p(v c / a^2).  The large sum w tr(B^{-1} S)
    / a^2 is free of v and the offset, so the M-step's slope in v holds
    only the small terms.  Raises ValueError when the cost is not finite."""
    offset, a, v, a2 = theta.offset, theta.scale, theta.mean_var, theta.scale ** 2
    beta = v / (a2 * (a2 + v * st.ones))
    shift, spread = _projected_spread(offset, a, st)
    # (m - mu_theta)^T B^{-1} (m - mu_theta)
    maha = (st.m_m - 2.0 * (offset * st.ones_m + a * st.mu_m)
            + st.weight * (offset * (shift + a * st.ones_mu) + a2 * st.mu_mu))
    logdet = st.size * np.log(2 * np.pi * a2) + st.logdet + np.log1p(v * st.ones / a2)
    total = -0.5 * float(np.sum(st.weight * logdet + (st.trace + maha) / a2 - beta * spread))
    if not np.isfinite(total):
        raise ValueError("the E-cost is not finite")
    return total


def _closed_form_offset(theta: Adaptation, st: EStepStatistics) -> float:
    """Exact maximizer of the E-cost over the offset at fixed variances,
    from C^{-1} 1 = g / (a^2 + v c)."""
    denom = theta.scale ** 2 + theta.mean_var * st.ones
    return float(np.sum((st.ones_m - theta.scale * st.weight * st.ones_mu) / denom)
                 / np.sum(st.weight * st.ones / denom))


GOLDEN_TOL = 1e-5
MEAN_VAR_BOUNDS = (1e-8, 10.0)
SCALE_BOUNDS = (1e-3, 1e3)
NEWTON_TOL = 1e-12


def _golden_min(f, a: float, b: float) -> float:
    """Golden-section search for a minimizer of f on [a, b], to GOLDEN_TOL
    relative."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if abs(b - a) < GOLDEN_TOL * (1.0 + abs(a) + abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return float(0.5 * (a + b))


def _mean_var_slope(theta: Adaptation, st: EStepStatistics):
    """The E-cost profiled over the offset, at v = theta.mean_var: the
    maximizing offset o*(v), the slope s(v) and the derivative of s at fixed
    offset.  With d = a^2 + v c and R of :func:`_projected_spread` at o*,
    s(v) = 1/2 sum (R - w c d) / d^2 is the partial derivative of the E-cost
    in v, which by the envelope theorem is the derivative of the profile.  It
    holds neither the trace nor log det B, the large terms that do not
    depend on v."""
    offset = _closed_form_offset(theta, st)
    a, v = theta.scale, theta.mean_var
    d = a * a + v * st.ones
    _, r = _projected_spread(offset, a, st)
    slope = 0.5 * float(np.sum((r - st.weight * st.ones * d) / d ** 2))
    curvature = 0.5 * float(np.sum(st.ones * (st.weight * st.ones * d - 2.0 * r) / d ** 3))
    return offset, slope, curvature


def _profile_pick(theta: Adaptation, st: EStepStatistics) -> Adaptation:
    """The exact maximizer of the E-cost over (offset, mean_var) at
    theta's scale, mean_var within MEAN_VAR_BOUNDS.  The pick is a bound
    exactly when the slope there points outward.  Otherwise it is the root of
    the slope, bracketed in t = log mean_var and found from theta.mean_var by
    Newton steps on v^2 s(v) (nearly linear in v once v c >> a^2; fixed-offset
    derivative), bisecting the bracket whenever a step leaves it, to
    |dt| <= NEWTON_TOL (1 + |t|)."""
    for v, outward in ((MEAN_VAR_BOUNDS[1], 1.0), (MEAN_VAR_BOUNDS[0], -1.0)):
        offset, slope, _ = _mean_var_slope(replace(theta, mean_var=v), st)
        if outward * slope >= 0:
            return replace(theta, offset=offset, mean_var=v)
    lo, hi = map(math.log, MEAN_VAR_BOUNDS)
    t = min(max(math.log(max(theta.mean_var, MEAN_VAR_BOUNDS[0])), lo), hi)
    for _ in range(200):
        v = math.exp(t)
        _, slope, curvature = _mean_var_slope(replace(theta, mean_var=v), st)
        if slope > 0:
            lo = t
        elif slope < 0:
            hi = t
        else:
            break
        gain = 2.0 * slope + v * curvature      # d(v^2 s)/dv over v
        target = v - v * slope / gain if gain < 0 else 0.0
        new = math.log(target) if target > 0 else -math.inf
        if not lo <= new <= hi:
            new = 0.5 * (lo + hi)
        done = abs(new - t) <= NEWTON_TOL * (1.0 + abs(t))
        t = new
        if done:
            break
    theta = replace(theta, mean_var=math.exp(t))
    return replace(theta, offset=_closed_form_offset(theta, st))


def _rel_change(new: Adaptation, old: Adaptation) -> float:
    """Largest relative change of the three adaptation parameters."""
    return max(abs(a - b) / max(abs(b), 1e-8) for a, b in zip(astuple(new), astuple(old)))


def _at_bound(theta: Adaptation, estimate_scale: bool) -> list:
    """The M-step's parameters that ended on a bound, beyond which the
    E-cost's maximum may lie: mean_var exactly on one of MEAN_VAR_BOUNDS,
    the scale within the golden-section tolerance of SCALE_BOUNDS."""
    bounds = np.asarray(SCALE_BOUNDS)
    near = np.abs(theta.scale - bounds) <= GOLDEN_TOL * (1.0 + bounds + theta.scale)
    return ((["mean_var"] if theta.mean_var in MEAN_VAR_BOUNDS else [])
            + (["scale"] if estimate_scale and np.any(near) else []))


def epem_m_step(weights, mean, cov, base: PatchGMM, partition: Partition,
                theta_prev: Adaptation, *, estimate_scale: bool) -> Adaptation:
    """Maximization of the E-cost of the EP moments (``cov`` as in
    :func:`estep_statistics`, rows or blocks).  At a fixed scale it is the
    exact (offset, mean_var) maximizer of :func:`_profile_pick`, one pass.  With
    ``estimate_scale`` a golden-section search for the scale within
    SCALE_BOUNDS alternates with that pick until all three parameters change
    by less than 1e-4 relative, or for 20 rounds.  The E-cost is evaluated
    at the pick, which raises ValueError when it is not finite."""
    if all(w is None for w in weights):
        return theta_prev
    stats = estep_statistics(weights, mean, cov, base, partition)
    theta = _profile_pick(theta_prev, stats)
    for _ in range(20 if estimate_scale else 0):
        prev = theta
        scale = _golden_min(lambda a: -epem_e_cost(replace(prev, scale=a), stats), *SCALE_BOUNDS)
        theta = _profile_pick(replace(theta, scale=scale), stats)
        if _rel_change(theta, prev) < 1e-4:
            break
    epem_e_cost(theta, stats)
    return theta


@dataclass
class PipelineConfig:
    ep: EPConfig = field(default_factory=EPConfig)
    patch_size: int = 8
    n_experts: int | None = None      # None = all patch_size**2 partitions
    em_enabled: bool = True
    estimate_scale: bool = False      # keep the scale fixed unless requested
    outer_rounds: int = 10
    theta_tol: float = 1e-3
    share_theta: bool = False         # expert 0 estimates, others reuse
    theta_init: Adaptation | None = None
    seed: int = 0

    def __post_init__(self):
        if self.outer_rounds < 1:
            raise ValueError("outer_rounds must be >= 1")


@dataclass
class PipelineResult:
    fused: FusedPosterior
    experts: list
    report: dict
    timings: dict


def default_theta(y: np.ndarray, operator: DegradationOperator,
                  noise) -> Adaptation:
    """Data-driven starting point: offset at the observed mean intensity,
    patch-mean variance from the spread of local means, unit scale."""
    observed = operator.diag_gram() > 0
    vals = np.asarray(y)[observed] if np.any(observed) else np.asarray(y)
    offset = float(np.mean(vals))
    spread = float(np.var(vals))
    if isinstance(noise, GaussianNoise):
        spread = max(spread - noise.variance, 1e-4)
    elif isinstance(noise, PoissonNoise):
        spread = max(spread - offset, 1e-4)  # Poisson noise variance ~ mean
    return Adaptation(offset=offset, mean_var=max(spread, 1e-4), scale=1.0)


def _run_expert(index: int, y, operator, noise, base, partition, config,
                theta: Adaptation, em_enabled: bool):
    ep_config = replace(config.ep, seed=int(np.random.SeedSequence(
        entropy=config.seed, spawn_key=(index,)).generate_state(1)[0]))
    warnings = Counter(dict.fromkeys(WARNING_CAUSES, 0))
    rounds = []
    result: EPResult | None = None
    for _ in range(config.outer_rounds):
        adapted = adapt(base, theta)
        if isinstance(noise, GaussianNoise):
            result = run_ep_gaussian(y, operator, noise.variance, adapted,
                                     partition, ep_config, init=result)
        elif isinstance(noise, PoissonNoise):
            result = run_ep_poisson(y, operator, adapted, partition, ep_config, init=result)
        else:
            raise TypeError(f"unknown noise model {noise!r}")
        warnings.update(result.warnings_by_cause)
        rounds.append({"iterations": result.iterations, "converged": result.converged,
                       "theta": asdict(theta), "at_bound": [], "history": result.history})
        if not em_enabled:
            break
        new_theta = epem_m_step(result.weights, result.mean, result.cov, base,
                                partition, theta, estimate_scale=config.estimate_scale)
        rounds[-1]["at_bound"] = _at_bound(new_theta, config.estimate_scale)
        rel = _rel_change(new_theta, theta)
        theta = new_theta
        if rel < config.theta_tol:
            break
    return ExpertResult(
        index=index,
        mean=result.mean,
        marginal_var=result.marginal_var,
        theta=theta,
        iterations=sum(r["iterations"] for r in rounds),
        outer_rounds=len(rounds),
        converged=result.converged,
        warnings_by_cause=dict(warnings),
        rounds=rounds,
    )


def run_pipeline(y: np.ndarray, operator: DegradationOperator, noise,
                 base: PatchGMM, config: PipelineConfig | None = None) -> PipelineResult:
    """Full restoration: one EP(-EM) expert per shifted partition, fused by
    the product-of-experts rule.  Experts run in index order with
    per-expert seeds, so results are reproducible.

    The report nests run -> expert -> EM round -> EP iteration.  The run has
    a ``verdict`` (experts whose last EP run converged, did not converge, or
    failed), the failures and the EP warnings of all experts, as a total and
    by cause (see ``ep_gaussian.WARNING_CAUSES``).  Each expert has its
    adaptation, a ``status`` from its last EP run and its warnings summed
    over its rounds.  Each EM round has its EP iterations, convergence and
    adaptation, the M-step picks that ended on a bound, and its
    ``history`` (see ``EPResult.history``).  The report holds only native
    Python values, so it round-trips through JSON.  ``timings`` holds every
    expert's wall time, a failed expert's included, and their sum
    ``total_s``."""
    config = config or PipelineConfig()
    y = _check_observation(y, operator.n_pixels, poisson=isinstance(noise, PoissonNoise))
    partitions = build_shifted_partitions(operator.width, operator.height,
                                          config.patch_size, config.n_experts)

    theta0 = config.theta_init or default_theta(y, operator, noise)
    experts, failures, timings = [], [], {}
    shared_theta = None
    for i, partition in enumerate(partitions):
        em = config.em_enabled and (not config.share_theta or i == 0)
        theta = shared_theta if (config.share_theta and shared_theta is not None) else theta0
        start = time.perf_counter()
        try:
            expert = _run_expert(i, y, operator, noise, base, partition,
                                 config, theta, em)
        except (np.linalg.LinAlgError, ValueError) as exc:
            failures.append({"expert": i, "error": str(exc)})
            continue
        finally:
            timings[f"expert_{i}_s"] = time.perf_counter() - start
        experts.append(expert)
        if config.share_theta and i == 0:
            shared_theta = expert.theta

    if not experts:
        raise RuntimeError("all experts failed")
    fused = fuse_poe(experts)

    report = {
        "n_experts": len(experts),
        "patch_size": config.patch_size,
        "experts": [
            {
                "index": e.index,
                "theta": asdict(e.theta),
                "iterations": e.iterations,
                "outer_rounds": e.outer_rounds,
                "status": "converged" if e.converged else "max_iterations",
                "warnings": e.warnings,
                "warnings_by_cause": dict(e.warnings_by_cause),
                "rounds": e.rounds,
            }
            for e in experts
        ],
        "warnings": sum(e.warnings for e in experts),
        "warnings_by_cause": {cause: sum(e.warnings_by_cause[cause] for e in experts)
                              for cause in WARNING_CAUSES},
        "failures": failures,
        "verdict": {"converged": sum(e.converged for e in experts),
                    "not_converged": sum(not e.converged for e in experts),
                    "failed": len(failures)},
    }
    timings["total_s"] = float(sum(timings.values()))
    return PipelineResult(fused=fused, experts=experts, report=report, timings=timings)
