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
  block) P* is the exact answer and the factor matches C exactly.  The
  remaining *boundary* blocks go to :func:`update_block_precision`, the
  exact constrained minimizer from one Cholesky factor and one symmetric
  eigendecomposition.
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


def kl_block_loss(precision: np.ndarray, cavity_precision: np.ndarray,
                  tilted_cov: np.ndarray) -> float:
    """-log det(P + P_cav) + trace((P + P_cav) C); the variable part of the
    block KL divergence at the matched mean."""
    total = sym(np.asarray(precision) + np.asarray(cavity_precision))
    logdet = 2.0 * np.sum(np.log(np.diag(np.linalg.cholesky(total))))
    return float(-logdet + np.trace(total @ tilted_cov))


def update_block_precision(tilted_cov: np.ndarray, cavity_precision: np.ndarray,
                           init_precision: np.ndarray) -> tuple[np.ndarray, bool]:
    """Exact minimizer of the block KL loss over P >= eps I with
    eps = PRECISION_FLOOR (the symmetric parts of all three matrices are
    used).

    With X = P + P_cav the constraint reads X >= B = P_cav + eps I.  Factor
    B = L L^T and write X = L Y L^T: the loss becomes, up to a constant,
    -log det Y + <Y, M> over Y >= I, with M = L^T C L = U diag(mu) U^T.  For
    fixed eigenvalues of Y, <Y, M> is smallest when Y shares the eigenvectors
    of M with its eigenvalues in the opposite order (von Neumann's trace
    inequality), so Y = U diag(y) U^T and each y_i minimizes
    -log y + mu_i y over y >= 1: y_i = max(1/mu_i, 1).  Back in P,

        P = eps I + (L U) diag(max(1/mu - 1, 0)) (L U)^T.

    The KKT conditions hold: the gradient G = C - X^{-1} equals
    L^{-T} U diag(max(mu - 1, 0)) U^T L^{-1} >= 0, and G (P - eps I) = 0
    because no index has both mu_i > 1 and 1/mu_i > 1.  When every
    mu_i < 1 the result is C^{-1} - P_cav; for 1x1 blocks it is
    :func:`diag_kl_update`.

    Returns (P, True), or (init_precision, False) when the loss of P is
    above that of init_precision by more than rounding (1e-12 relative),
    which the caller counts as a warning.  Raises LinAlgError unless C,
    P_cav + eps I and init_precision + P_cav are positive definite.
    """
    cov = sym(np.asarray(tilted_cov, dtype=float))
    cav = sym(np.asarray(cavity_precision, dtype=float))
    init = sym(np.asarray(init_precision, dtype=float))
    eye = np.eye(len(cav))
    init_loss = kl_block_loss(init, cav, cov)
    low = np.linalg.cholesky(cav + PRECISION_FLOOR * eye)
    mu, u = np.linalg.eigh(sym(low.T @ cov @ low))
    if mu[0] <= 0:
        raise np.linalg.LinAlgError("tilted covariance is not positive definite")
    lu = low @ u
    precision = sym(PRECISION_FLOOR * eye + (lu * np.maximum(1.0 / mu - 1.0, 0.0)) @ lu.T)
    if kl_block_loss(precision, cav, cov) > init_loss + 1e-12 * abs(init_loss):
        return init, False
    return precision, True


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

