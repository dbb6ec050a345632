"""Deterministic synthetic test images.

Piecewise-smooth scenes (gradient background, a disk, a rectangle, a
sinusoidal texture patch) in [0, 1], used by the demos and the test suite
where a natural-image stand-in is needed.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import gaussian_filter

__all__ = ["make_phantom", "extract_patches"]


def make_phantom(width: int, height: int, seed: int = 0) -> np.ndarray:
    """A structured grayscale scene, shape (height, width), intensities in [0, 1]."""
    rng = np.random.Generator(np.random.Philox(seed))
    yy, xx = np.mgrid[0:height, 0:width].astype(float)
    xs, ys = xx / max(width - 1, 1), yy / max(height - 1, 1)

    img = 0.25 + 0.35 * xs + 0.15 * ys

    cx, cy, rad = 0.32 * width, 0.38 * height, 0.22 * min(width, height)
    disk = (xx - cx) ** 2 + (yy - cy) ** 2 <= rad ** 2
    img[disk] = 0.85

    r0, r1 = int(0.58 * height), int(0.88 * height)
    c0, c1 = int(0.55 * width), int(0.92 * width)
    img[r0:r1, c0:c1] = 0.15

    tex_rows = slice(int(0.08 * height), int(0.30 * height))
    tex_cols = slice(int(0.60 * width), int(0.95 * width))
    img[tex_rows, tex_cols] = 0.5 + 0.2 * np.sin(2 * np.pi * xx[tex_rows, tex_cols] / 6.0)

    bumps = gaussian_filter(rng.standard_normal((height, width)), sigma=3.0)
    img = img + 0.05 * bumps / max(np.abs(bumps).max(), 1e-12)
    return np.clip(img, 0.0, 1.0)


def extract_patches(image: np.ndarray, patch_size: int, stride: int = 1,
                    zero_mean: bool = True) -> np.ndarray:
    """All patches of a 2D image as rows, optionally mean-subtracted
    (the usual normalization for training patch priors)."""
    windows = sliding_window_view(image, (patch_size, patch_size))[::stride, ::stride]
    patches = windows.reshape(-1, patch_size * patch_size)
    if zero_mean:
        return patches - patches.mean(axis=1, keepdims=True)
    return patches.copy()  # the reshape is a view of image when patch_size is 1
