"""Patch-based expectation propagation for image restoration.

Approximate MMSE estimates and pixel-wise posterior variances for denoising,
inpainting and deconvolution under Gaussian or Poisson noise, using Gaussian
mixture patch priors, structured-covariance EP, and product-of-experts
fusion over shifted patch partitions.
"""

from .gaussians import BlockDiagonalCov, marginal_variances
from .gmm import (
    Adaptation,
    AdaptedGMM,
    PatchGMM,
    adapt,
    load_gmm,
    marginalize,
    save_gmm,
    train_em,
)
from .imageio import Image, read_float_raster, read_pgm, write_float_raster, write_pgm
from .operators import Conv2D, GaussianNoise, Identity, Mask, PoissonNoise, simulate
from .partitions import Partition, build_shifted_partitions

__all__ = [
    "Adaptation",
    "AdaptedGMM",
    "BlockDiagonalCov",
    "Conv2D",
    "GaussianNoise",
    "Identity",
    "Image",
    "Mask",
    "Partition",
    "PatchGMM",
    "PoissonNoise",
    "adapt",
    "build_shifted_partitions",
    "load_gmm",
    "marginal_variances",
    "marginalize",
    "read_float_raster",
    "read_pgm",
    "save_gmm",
    "simulate",
    "train_em",
    "write_float_raster",
    "write_pgm",
]

__version__ = "0.1.0"
