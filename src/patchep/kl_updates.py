"""KL-minimizing factor updates under covariance structure constraints.

Matching the moments of a Gaussian approximation against a tilted
distribution, subject to positive definiteness and a structure constraint on
the factor precision, reduces per block to minimizing

    -log det(P + P_cav) + <P + P_cav, C>

over factor precisions P >= PRECISION_FLOOR * I, where C is the tilted
covariance block and P_cav the cavity precision block.  The loss is convex
and its unconstrained minimizer is P* = C^{-1} - P_cav.

* Full blocks: :func:`block_kl_update` computes P* for a whole stack of
  blocks at once.  Where lambda_min(P*) > PRECISION_FLOOR (an *interior*
  block) P* is the exact answer and the factor matches C exactly.  Only the
  remaining *boundary* blocks need :func:`update_block_precision`, gradient
  descent with Barzilai-Borwein steps and backtracking that keeps every
  iterate at or above the floor.
* Diagonal factors: :func:`diag_kl_update`, the same closed form per pixel,
  clipped at the floor.
* Isotropic factors: :func:`iso_kl_update`, Newton steps on one scalar.
"""

from __future__ import annotations

import numpy as np

from .gaussians import sym

__all__ = [
    "kl_block_loss",
    "update_block_precision",
    "block_kl_update",
    "diag_kl_update",
    "iso_kl_update",
]

PRECISION_FLOOR = 1e-8


def _chol_or_none(a: np.ndarray):
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None


def kl_block_loss(precision: np.ndarray, cavity_precision: np.ndarray,
                  tilted_cov: np.ndarray) -> float:
    """-log det(P + P_cav) + trace((P + P_cav) C); the variable part of the
    block KL divergence at the matched mean."""
    total = sym(np.asarray(precision) + np.asarray(cavity_precision))
    chol = _chol_or_none(total)
    if chol is None:
        raise np.linalg.LinAlgError("precision sum is not positive definite")
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return float(-logdet + np.trace(total @ tilted_cov))


def update_block_precision(tilted_cov: np.ndarray, cavity_precision: np.ndarray,
                           init_precision: np.ndarray, max_iters: int = 200,
                           tol: float = 1e-8,
                           loss_history: list | None = None) -> tuple[np.ndarray, bool]:
    """Minimize the block KL loss over precisions P >= PRECISION_FLOOR * I,
    starting at init_precision (the symmetric parts of all three matrices
    are used).

    Gradient steps P <- P - lam * (C - (P + P_cav)^{-1}).  The step is
    seeded by the Barzilai-Borwein rule (lam = <dP, dG>/<dG, dG>, 1 on the
    first step) and halved until the loss strictly decreases and
    P - PRECISION_FLOOR * I stays positive definite.  If 50 halvings fail the
    previous iterate is returned.

    Returns (P, hit_cap): hit_cap is True when the solver stopped at
    max_iters rather than at the relative loss change tol.
    """
    cov = sym(np.asarray(tilted_cov, dtype=float))
    cav = sym(np.asarray(cavity_precision, dtype=float))
    omega = sym(np.asarray(init_precision, dtype=float))
    floor = PRECISION_FLOOR * np.eye(len(omega))

    loss = kl_block_loss(omega, cav, cov)
    if loss_history is not None:
        loss_history.append(loss)
    prev_omega = None
    prev_grad = None
    for _ in range(max_iters):
        grad = cov - np.linalg.inv(sym(omega + cav))
        if prev_grad is None:
            lam = 1.0
        else:
            d_omega = omega - prev_omega
            d_grad = grad - prev_grad
            denom = float(np.sum(d_grad * d_grad))
            lam = float(np.sum(d_omega * d_grad)) / denom if denom > 0 else 1.0
            if lam <= 0:  # a nonpositive step would not descend
                lam = 1.0
        accepted = None
        for _halving in range(50):
            candidate = sym(omega - lam * grad)
            if _chol_or_none(candidate - floor) is not None:
                try:
                    cand_loss = kl_block_loss(candidate, cav, cov)
                except np.linalg.LinAlgError:
                    cand_loss = np.inf
                if cand_loss < loss:
                    accepted = (candidate, cand_loss)
                    break
            lam *= 0.5
        if accepted is None:
            return omega, False
        prev_omega, prev_grad = omega, grad
        omega, new_loss = accepted
        if loss_history is not None:
            loss_history.append(new_loss)
        if abs(loss - new_loss) < tol * abs(loss):
            return omega, False
        loss = new_loss
    return omega, True


def block_kl_update(tilted_covs: np.ndarray, cavity_precisions: np.ndarray):
    """Closed-form full-block update of a (J, b, b) stack.

    Returns (P*, C^{-1}, interior): the unconstrained minimizers
    P* = sym(C^{-1}) - P_cav, the inverses sym(C^{-1}) they were formed
    from, and the mask of interior blocks, lambda_min(P*) > PRECISION_FLOOR.
    On interior blocks P* is the exact minimizer and P* + P_cav = C^{-1};
    boundary blocks need :func:`update_block_precision`.  Raises
    LinAlgError if a tilted covariance is singular.
    """
    cov_inv = sym(np.linalg.inv(tilted_covs))
    p_star = cov_inv - sym(np.asarray(cavity_precisions, dtype=float))
    interior = np.linalg.eigvalsh(p_star)[:, 0] > PRECISION_FLOOR
    return p_star, cov_inv, interior


def diag_kl_update(tilted_vars, cavity_precisions):
    """Closed-form diagonal update, elementwise: 1/d - p_cav, floored at
    PRECISION_FLOOR where the unconstrained minimizer is not above it."""
    d = np.asarray(tilted_vars, dtype=float)
    if np.any(d <= 0):
        raise ValueError("tilted variances must be positive")
    return np.maximum(1.0 / d - cavity_precisions, PRECISION_FLOOR)


def iso_kl_update(tilted_vars: np.ndarray, cavity_precisions: np.ndarray,
                  init_precision: float = 1.0) -> float:
    """Newton-Raphson fit of the single precision of an isotropic factor.

    Minimizes sum_n -log(p + p_n) + (p + p_n) d_n over p, clamping each
    iterate at 1e-8 so the covariance stays positive definite.
    """
    d = np.asarray(tilted_vars, dtype=float)
    q = np.asarray(cavity_precisions, dtype=float)
    if np.any(d <= 0):
        raise ValueError("tilted variances must be positive")
    p = max(float(init_precision), PRECISION_FLOOR)
    for _ in range(100):
        inv = 1.0 / (p + q)
        step = (np.sum(inv) - np.sum(d)) / np.sum(inv ** 2)
        new_p = max(p + step, PRECISION_FLOOR)
        if abs(new_p - p) / p < 1e-10:
            return new_p
        p = new_p
    return p

