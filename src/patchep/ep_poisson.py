"""Expectation propagation for the Poisson observation model.

The Poisson likelihood is extended to real rates by the rectified transform
(counts are forced to zero for nonpositive rates) and decoupled from the
linear operator through the auxiliary variable u = Hx.  The augmented
posterior is approximated with four Gaussian factors:

* q_u0 (diagonal) for the count likelihood, refined by the diagonal KL
  step of :mod:`patchep.kl_updates` from per-pixel 1D tilted moments: a
  two-piece truncated-Gaussian closed form when the count is zero,
  mode-centered 48-node Gauss-Legendre quadrature otherwise (nodes by
  Newton's method on the Legendre recurrence, see :func:`_gauss_legendre`;
  48 nodes is the floor, see :func:`_tilted_positive_counts`).  The
  quadrature maps every pixel's nodes onto one fixed unit grid, so its
  three weighted sums are a single matrix product with a fixed (48, 3)
  basis; pixels are processed in chunks of 512.  Each chunk costs ~30
  numpy calls, which dominated at 256 pixels; at 1024 the (1024, 48)
  buffers (390 KB) went back to the system after every call and were
  faulted in again, 1,600-1,800 minor page faults per ``denoise_poisson``
  restore against 370-760 at 512, which ran 5-8% faster than either (glibc
  2.36 malloc, 2-vCPU x86 VM);
* q_x1 / q_x0 for the x side, reusing the Gaussian-model machinery with the
  noise term replaced by the current diagonal q_u0;
* q_u1 (isotropic) for the coupling, fitted by the Newton isotropic KL
  update from quadratic forms of the x-side joint covariance.

One iteration of the EP loop of :func:`patchep.ep_gaussian.run_ep` runs
q_u0, q_x1, q_x0, a sync of the x-side joint, then q_u1.  So q_u1 reads the
joint after q_x0: an iteration is a map of the current factors, with no
one-iteration lag, and the stop rule (x-side joint moments) sees its step.
q_u1 is set to its target until the joint-mean change dm2 first exceeds the
previous iteration's, then damped by ``EPConfig.damping`` for the rest of
the run (Minka 2001; Vehtari et al. 2020); every run, resumed or not, starts
undamped.  Each iteration's record adds c1, the q_u1 variance, and
``damping``, the weight q_u1 got, and counts the q_u0 escapes as warnings
of cause ``poisson_escapes``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, log_ndtr

from .ep_gaussian import (EPConfig, EPResult, EPState, _check_observation, run_ep,
                          update_q_x0, update_q_x1)
from .gmm import AdaptedGMM
from .kl_updates import diag_kl_update, iso_kl_update
from .operators import DegradationOperator, all_row_quadratic_forms
from .partitions import Partition

__all__ = ["rectified_poisson_tilted_batch", "run_ep_poisson"]

_GL_POINTS = 48
_SPAN_STD = 10.0


def _gauss_legendre(n: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1]: Newton's
    method on P_n from the guesses cos(pi (i - 1/4) / (n + 1/2)), with P_n
    from the three-term recurrence (j + 1) P_{j+1} = (2j + 1) x P_j - j P_{j-1}
    and P_n' = n (P_{n-1} - x P_n) / (1 - x^2); the weights are
    2 / ((1 - x^2) P_n'(x)^2) at the final nodes.  1 - x^2 is formed as
    (1 - x)(1 + x), exact near the ends.  No eigenvalue solve, so importing
    the module calls no LAPACK routine."""
    def legendre(x):
        p_prev, p = np.ones_like(x), x
        for j in range(1, n):
            p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
        return p, n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))

    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = legendre(x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-16:
            break
    _, dp = legendre(x)
    return x, 2.0 / ((1.0 - x) * (1.0 + x) * dp ** 2)


# Gauss-Legendre nodes on [0, 1] (t = (x + 1) / 2, weights w / 2) and the
# basis w * [1, t, t^2]: one contraction gives the zeroth to second moments
# on the unit interval
_UNIT_NODES, _GL_WEIGHTS = _gauss_legendre(_GL_POINTS)
_UNIT_NODES = 0.5 * (_UNIT_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS
_GL_BASIS = _GL_WEIGHTS[:, None] * np.stack(
    [np.ones(_GL_POINTS), _UNIT_NODES, _UNIT_NODES ** 2], axis=1)
# pixels per quadrature chunk (see the module docstring): each (chunk, 48)
# float64 buffer is ~200 KB
_CHUNK = 512


def _truncated_normal_moments(mu, sigma2, lower: bool):
    """Mean and variance of N(mu, sigma2) truncated to u > 0 (lower=True)
    or u <= 0 (lower=False), plus the log truncation probability.

    Hazards are evaluated through log_ndtr; deep-tail cases switch to the
    asymptotic expansion to avoid catastrophic cancellation.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.sqrt(sigma2)
    if lower:
        alpha = (0.0 - mu) / sigma          # standardized cut, keep u > alpha
        log_mass = log_ndtr(-alpha)
        log_phi = -0.5 * alpha ** 2 - 0.5 * np.log(2 * np.pi)
        lam = np.exp(log_phi - log_mass)    # phi(alpha) / (1 - Phi(alpha))
        deep = alpha > 25.0
        mean = np.where(deep, 0.0 + sigma * (1.0 / np.maximum(alpha, 1e-12)
                                             - 1.0 / np.maximum(alpha, 1e-12) ** 3),
                        mu + sigma * lam)
        var = np.where(deep, sigma2 / np.maximum(alpha, 1e-12) ** 2,
                       sigma2 * (1.0 + alpha * lam - lam ** 2))
        return mean, np.maximum(var, 0.0), log_mass
    # upper truncation u <= 0: mirror of the lower case for -u
    m_mean, m_var, log_mass = _truncated_normal_moments(-mu, sigma2, lower=True)
    return -m_mean, m_var, log_mass


def _tilted_zero_counts(mu1: np.ndarray, c1: float):
    """Closed-form moments of [e^{-u} 1(u>0) + 1(u<=0)] N(u; mu1, c1):
    a two-component mixture of truncated Gaussians.  The positive piece is
    exp(c1/2 - mu1) N(u; mu1 - c1, c1) restricted to u > 0."""
    mean_a, var_a, log_mass_a = _truncated_normal_moments(mu1 - c1, c1, lower=True)
    log_wa = 0.5 * c1 - mu1 + log_mass_a
    mean_b, var_b, log_wb = _truncated_normal_moments(mu1, c1, lower=False)

    log_z = np.logaddexp(log_wa, log_wb)
    wa = np.exp(log_wa - log_z)
    wb = np.exp(log_wb - log_z)
    mean = wa * mean_a + wb * mean_b
    second = wa * (var_a + mean_a ** 2) + wb * (var_b + mean_b ** 2)
    return log_z, mean, np.maximum(second - mean ** 2, 0.0)


def _tilted_positive_counts(y: np.ndarray, mu1: np.ndarray, c1: float):
    """48-node Gauss-Legendre quadrature of u^y e^{-u} / y! * N(u; mu1, c1)
    on u > 0, centered at the integrand's log-mode with span +-10 effective
    std.  Fewer nodes do not suffice: 32 leave 3e-7 relative error in the
    moments and 24 leave 5e-4.

    Each pixel's nodes are u = lo + span * t on the fixed unit grid t, so
    the three weighted sums are one (P, 48) @ (48, 3) product with the
    fixed basis w * [1, t, t^2]; the moments follow in the unit-interval
    basis, mean = lo + span E[t] and var = span^2 (E[t^2] - E[t]^2).  The
    integrand is built in place in two (P, 48) buffers.
    """
    y = np.asarray(y, dtype=float)
    mu1 = np.asarray(mu1, dtype=float)
    # stationary point of g(u) = y log u - u - (u - mu1)^2 / (2 c1):
    # the positive root of u^2 + (c1 - mu1) u - y c1 = 0
    half_b = 0.5 * (c1 - mu1)
    mode = -half_b + np.sqrt(half_b ** 2 + y * c1)
    for _ in range(2):  # Newton polish of g'(u) = 0
        grad = y / mode - 1.0 - (mode - mu1) / c1
        hess = -y / mode ** 2 - 1.0 / c1
        mode = np.maximum(mode - grad / hess, 1e-300)
    std_eff = 1.0 / np.sqrt(y / mode ** 2 + 1.0 / c1)

    lo = np.maximum(mode - _SPAN_STD * std_eff, 1e-300)
    span = mode + _SPAN_STD * std_eff - lo
    g_max = y * np.log(mode) - mode - (mode - mu1) ** 2 / (2.0 * c1)

    u = np.multiply(span[:, None], _UNIT_NODES)
    u += lo[:, None]
    f = np.log(u)
    f *= y[:, None]
    f -= u
    u -= mu1[:, None]
    np.square(u, out=u)
    u /= 2.0 * c1
    f -= u
    f -= g_max[:, None]
    np.exp(f, out=f)
    m0, m1, m2 = (f @ _GL_BASIS).T

    z0 = m0 * span
    bad = ~np.isfinite(z0) | (z0 < 1e-300)
    safe_m0 = np.where(bad, 1.0, m0)
    e1 = m1 / safe_m0
    mean = np.where(bad, mu1, lo + span * e1)
    var = np.where(bad, c1, span ** 2 * (m2 / safe_m0 - e1 ** 2))
    log_z = np.where(
        bad, -np.inf,
        np.log(np.where(bad, 1.0, z0)) + g_max - gammaln(y + 1) - 0.5 * np.log(2 * np.pi * c1))
    return log_z, mean, np.maximum(var, 0.0), int(np.sum(bad))


def rectified_poisson_tilted_batch(y: np.ndarray, mu1: np.ndarray, c1: float):
    """Normalizing constant, mean and variance of the 1D tilted densities
    rectified-Poisson(y_n; u) * N(u; mu1_n, c1) for arrays of counts y and
    cavity means mu1 with one cavity variance c1 > 0.

    Returns (log Z, mean, variance, quadrature-failure count).  Positive
    counts go through the quadrature _CHUNK pixels at a time."""
    y = np.asarray(y)
    mu1 = np.asarray(mu1, dtype=float)
    log_z, mean, var = np.empty((3, y.size))
    n_bad = 0

    zero = y == 0
    if np.any(zero):
        log_z[zero], mean[zero], var[zero] = _tilted_zero_counts(mu1[zero], c1)
    pos_idx = np.flatnonzero(~zero)
    for start in range(0, pos_idx.size, _CHUNK):
        sel = pos_idx[start:start + _CHUNK]
        lz, m, v, bad = _tilted_positive_counts(y[sel], mu1[sel], c1)
        log_z[sel], mean[sel], var[sel] = lz, m, v
        n_bad += bad
    return log_z, mean, var, n_bad


@dataclass
class PoissonFactors:
    """u-side factor pair: q_u0 diagonal, q_u1 isotropic (natural params)."""

    prec_u0: np.ndarray
    eta_u0: np.ndarray
    prec_u1: float
    eta_u1: np.ndarray

    def u0_moments(self):
        c0 = 1.0 / self.prec_u0
        return self.eta_u0 * c0, c0

    def u1_moments(self):
        c1 = 1.0 / self.prec_u1
        return self.eta_u1 * c1, c1

    def copy(self) -> "PoissonFactors":
        return PoissonFactors(self.prec_u0.copy(), self.eta_u0.copy(), self.prec_u1,
                              self.eta_u1.copy())


def update_q_u0(factors: PoissonFactors, y: np.ndarray):
    """Count-likelihood update: the diagonal KL step on the 1D tilted
    moments, then the matching precision-mean, set undamped like every
    per-pixel factor.  Returns the number of escapes: pixels whose
    quadrature failed or whose tilted variance exceeds the cavity variance
    c1 beyond rounding.

    The rectified-Poisson likelihood is log-concave in u, so by
    Brascamp-Lieb the tilted variance is at most c1 in exact arithmetic, and
    the unconstrained precision 1/t_var - 1/c1 is nonnegative.  Far above zero
    a zero count only shifts the cavity, and t_var equals c1 up to rounding;
    the KL step floors such pixels at PRECISION_FLOOR without counting them.
    """
    mu1, c1 = factors.u1_moments()
    _, t_mean, t_var, n_bad = rectified_poisson_tilted_batch(y, mu1, c1)

    escapes = int(np.sum(t_var > c1 * (1.0 + 1e-12))) + n_bad
    factors.prec_u0 = diag_kl_update(t_var, 1.0 / c1)
    factors.eta_u0 = t_mean * (factors.prec_u0 + 1.0 / c1) - factors.eta_u1
    return escapes


def update_q_u1(factors: PoissonFactors, state: EPState,
                operator: DegradationOperator, weight: float):
    """Coupling update: per-pixel products of q_u0 with the Gaussian image
    of the x-side joint, then the isotropic Newton fit of the q_u1 precision.
    q_u1 moves to weight * target + (1 - weight) * old in natural parameters.

    The Gaussian image of pixel n must exclude that pixel's own count
    information (its precision enters the x-side joint through the
    likelihood factor); a Sherman-Morrison step recovers the leave-one-out
    quantities from s_n = h_n Sigma* h_n^T and t_n = h_n m* at O(1) each.
    Without this correction the count information is double-counted and
    Q(u) drifts away from H Q(x) even under the identity operator.
    """
    s = all_row_quadratic_forms(operator, state.partition, state.joint_covs)
    t = operator.apply(state.mean)
    mu0, c0 = factors.u0_moments()

    valid = s > 0
    s_safe = np.where(valid, s, 1.0)
    denom = 1.0 - factors.prec_u0 * s_safe
    loo_ok = valid & (denom > 1e-6)
    # fall back to the uncorrected values where the block approximation
    # leaves no removable contribution
    s_loo = np.where(loo_ok, s_safe / np.where(loo_ok, denom, 1.0), s_safe)
    t_loo = np.where(loo_ok,
                     (t - factors.prec_u0 * s_safe * mu0) / np.where(loo_ok, denom, 1.0),
                     t)

    t_var = np.where(valid, 1.0 / (factors.prec_u0 + 1.0 / s_loo), c0)
    t_mean = np.where(valid, t_var * (factors.eta_u0 + t_loo / s_loo), mu0)

    prec_new = iso_kl_update(t_var[valid], factors.prec_u0[valid],
                             init_precision=factors.prec_u1)
    eta_new = (prec_new + factors.prec_u0) * t_mean - factors.eta_u0

    factors.prec_u1 = weight * prec_new + (1 - weight) * factors.prec_u1
    factors.eta_u1 = weight * eta_new + (1 - weight) * factors.eta_u1


def run_ep_poisson(y: np.ndarray, operator: DegradationOperator,
                   adapted: AdaptedGMM, partition: Partition,
                   config: EPConfig | None = None,
                   init: EPResult | None = None) -> EPResult:
    """Data-augmented EP for  y ~ Poisson(Hx)  with a GMM patch prior.

    All means start at y + 1 and all per-pixel variances at y + 1 (the
    isotropic q_u1 uses their mean), unless the run resumes from ``init``, a
    Poisson result on the same partition: then all four factors start from
    its factors and the first CG solve from its mean.  The result carries
    its u-side factors as ``u_factors`` and the mean of their product as
    ``u_mean``.  The update order is q_u0, q_x1, q_x0, sync, q_u1, so q_u1
    reads the joint after q_x0 (no lag, see the module docstring); it gets
    weight 1 up to the first iteration whose dm2 exceeds the previous one's,
    and ``config.damping`` from there on.  The escapes of the q_u0 update
    count as EP warnings of cause ``poisson_escapes``; each iteration's
    record also holds ``c1``, the q_u1 variance after the iteration, and
    ``damping``, the weight q_u1 got.
    """
    config = config or EPConfig()
    y = _check_observation(y, partition.n_pixels, poisson=True)
    if np.any(operator.matrix.data < 0):
        raise ValueError("Poisson models require a nonnegative H")

    init_mean = init_var = y + 1.0
    if init is None:
        c1 = float(np.mean(init_var))
        factors = PoissonFactors(1.0 / init_var, init_mean / init_var, 1.0 / c1, init_mean / c1)
    else:
        factors = init.u_factors.copy()
    weight, last_dm2 = 1.0, np.inf          # q_u1's weight, the last iteration's dm2

    def step(state):
        nonlocal weight, last_dm2
        prev_mean = state.mean
        escapes = update_q_u0(factors, y)

        mu0, _ = factors.u0_moments()
        obs_weights = factors.prec_u0
        obs_eta = operator.apply_adjoint(obs_weights * mu0)
        cg_fields, w1 = update_q_x1(state, operator, obs_weights, obs_eta, config)
        weights, w0 = update_q_x0(state, adapted, config)
        state.sync()

        dm2 = float(np.sum((state.mean - prev_mean) ** 2))
        if dm2 > last_dm2:                  # one-way: damped for the rest of the run
            weight = config.damping
        last_dm2 = dm2
        update_q_u1(factors, state, operator, weight)
        w0["poisson_escapes"] += escapes
        return weights, w0 + w1, {**cg_fields, "c1": float(1.0 / factors.prec_u1),
                                  "damping": weight}

    result = run_ep(step, operator, partition, init_mean, init_var, config,
                    None if init is None else init.state)
    result.u_mean = (factors.eta_u0 + factors.eta_u1) / (factors.prec_u0 + factors.prec_u1)
    result.u_factors = factors
    return result
