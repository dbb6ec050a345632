"""Restoration quality and uncertainty-calibration metrics.

PSNR against a reference, and central credible intervals from the
(Gaussian) fused posterior marginals with their pixel-wise coverage maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

__all__ = [
    "psnr",
    "CoverageReport",
    "coverage",
]


def psnr(reference: np.ndarray, estimate: np.ndarray) -> float:
    """10 log10(max(reference)^2 / MSE); +inf when the estimate is exact."""
    reference = np.asarray(reference, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if reference.shape != estimate.shape:
        raise ValueError("reference and estimate must have equal length")
    peak = float(np.max(reference))
    if peak == 0.0:
        raise ValueError("reference must not be all zero")
    mse = float(np.mean((reference - estimate) ** 2))
    if mse == 0.0:
        return np.inf
    return 10.0 * np.log10(peak ** 2 / mse)


@dataclass
class CoverageReport:
    level: float
    outside_map: np.ndarray   # 1 where the ground truth falls outside
    fraction_inside: float

    def __post_init__(self):
        expected = 1.0 - float(np.mean(self.outside_map))
        if abs(expected - self.fraction_inside) > 1e-12:
            raise ValueError("fraction must complement the binary map")


def coverage(reference: np.ndarray, mean: np.ndarray, variances: np.ndarray,
             level: float = 0.95) -> CoverageReport:
    """Central credible-interval coverage: the interval is mean +- z * std
    with z the standard-normal quantile at (1 + level)/2."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    reference = np.asarray(reference, dtype=float)
    mean = np.asarray(mean, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if np.any(variances <= 0):
        raise ValueError("variances must be positive")
    z = ndtri(0.5 * (1.0 + level))
    half_width = z * np.sqrt(variances)
    outside = (np.abs(reference - mean) > half_width).astype(np.uint8)
    return CoverageReport(level=level, outside_map=outside,
                          fraction_inside=1.0 - float(np.mean(outside)))

