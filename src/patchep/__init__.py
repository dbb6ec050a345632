"""Patch-based expectation propagation for image restoration.

Approximate MMSE estimates and pixel-wise posterior variances for denoising,
inpainting and deconvolution under Gaussian or Poisson noise, using Gaussian
mixture patch priors, structured-covariance EP, and product-of-experts
fusion over shifted patch partitions.

Everything works on numpy arrays in row-major pixel order.  Train a patch
prior, blur and corrupt a synthetic scene, and restore it:

>>> import numpy as np
>>> from patchep import (Conv2D, GaussianNoise, PipelineConfig, run_pipeline,
...                      simulate, train_em)
>>> from patchep.metrics import psnr
>>> from patchep.phantoms import extract_patches, make_phantom
>>> prior = train_em(extract_patches(make_phantom(16, 16, seed=0), 4), 2, max_iters=10)
>>> blur = Conv2D(8, 8, np.full((3, 3), 1 / 9))
>>> truth = make_phantom(8, 8, seed=1).ravel()
>>> noise = GaussianNoise((10 / 255) ** 2)
>>> y = simulate(blur, truth, noise, seed=2)
>>> out = run_pipeline(y, blur, noise, prior,
...                    PipelineConfig(patch_size=4, n_experts=1, em_enabled=False))
>>> out.fused.mean.shape, out.report["experts"][0]["status"]
((64,), 'converged')
>>> bool(psnr(truth, out.fused.mean) > psnr(truth, y))
True
>>> std = np.sqrt(out.fused.marginal_var)  # per-pixel posterior std
>>> bool(np.all(std > 0))
True
"""

from .ep_gaussian import EPConfig
from .gmm import Adaptation, AdaptedGMM, PatchGMM, adapt, marginalize, train_em
from .operators import Conv2D, GaussianNoise, Identity, Mask, PoissonNoise, simulate
from .partitions import Partition, build_shifted_partitions
from .pipeline import PipelineConfig, run_pipeline

__all__ = [
    "Adaptation",
    "AdaptedGMM",
    "Conv2D",
    "EPConfig",
    "GaussianNoise",
    "Identity",
    "Mask",
    "Partition",
    "PatchGMM",
    "PipelineConfig",
    "PoissonNoise",
    "adapt",
    "build_shifted_partitions",
    "marginalize",
    "run_pipeline",
    "simulate",
    "train_em",
]

__version__ = "0.1.0"
