"""Degradation operators and noise simulators.

The linear degradation ``H`` is one of: identity (denoising), a 0/1 pixel
mask (inpainting), or circular 2D convolution (deconvolution).  Every
operator holds ``H`` as a CSR ``matrix`` built once at construction; it is
the only representation of ``H``.  ``apply`` and ``apply_adjoint`` are
products with it, ``is_diagonal`` reads its sparsity pattern, ``gram_block``
splits G = ``H^T W H`` on a partition into its off-block part R (CSR) and
its diagonal blocks G_jj, and the quadratic forms ``h_n S h_n^T`` of a
block-diagonal covariance S are the diagonal of the sparse product
``H S H^T``, or ``diag(H^T H) * S_nn`` when H is diagonal.

Noise simulation uses a counter-based (Philox) generator so runs are
reproducible regardless of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .partitions import Partition

__all__ = [
    "Identity",
    "Mask",
    "Conv2D",
    "GaussianNoise",
    "PoissonNoise",
    "simulate",
    "all_row_quadratic_forms",
]


class DegradationOperator:
    """Common interface: ``apply``, ``apply_adjoint``, H as a CSR ``matrix``
    (set by each operator), and ``gram_block``, the split of ``H^T W H``
    into its off-block part and its diagonal blocks on a partition."""

    width: int
    height: int
    matrix: sparse.csr_matrix

    @property
    def n_pixels(self) -> int:
        return self.width * self.height

    @cached_property
    def is_diagonal(self) -> bool:
        """True when every stored nonzero of ``matrix`` lies on the diagonal."""
        coo = self.matrix.tocoo()
        return bool(np.all(coo.row == coo.col))

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply_adjoint(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @cached_property
    def _diag_gram(self) -> np.ndarray:
        return np.asarray(self.matrix.multiply(self.matrix).sum(axis=0)).ravel()

    def diag_gram(self) -> np.ndarray:
        """Diagonal of H^T H."""
        return self._diag_gram.copy()

    def _check_len(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_pixels,):
            raise ValueError(f"expected a length-{self.n_pixels} vector")
        return x

    def gram_block(self, partition: Partition, weights: np.ndarray):
        """G = H^T W H, W = diag(weights), split as R + blockdiag(G_jj) on
        ``partition``: R, the off-block part, as CSR, and the diagonal blocks
        G_jj, one (J_g, b, b) stack per group of ``partition.groups``.  One
        mask picks G's in-block entries: they fill the stacks by one scatter
        through ``partition.stack_layout`` and are dropped from R."""
        h = self.matrix
        gram = (h.T @ sparse.diags(weights) @ h).tocsr()
        block, pos, row_slot, spans = partition.stack_layout
        counts, cols = np.diff(gram.indptr), gram.indices
        in_block = np.repeat(block, counts) == block[cols]
        flat = np.zeros(spans[-1])
        flat[(np.repeat(row_slot, counts) + pos[cols])[in_block]] = gram.data[in_block]
        gram.data[in_block] = 0.0
        gram.eliminate_zeros()
        return gram, [flat[start:stop].reshape(group.pixels.shape + group.pixels.shape[1:])
                      for group, start, stop in zip(partition.groups, spans, spans[1:])]


@dataclass
class Identity(DegradationOperator):
    width: int
    height: int

    def __post_init__(self):
        self.matrix = sparse.identity(self.n_pixels, format="csr")

    def apply(self, x):
        return self._check_len(x).copy()

    apply_adjoint = apply


@dataclass
class Mask(DegradationOperator):
    """Diagonal 0/1 operator; ``kept[n]`` is True where pixel n is observed."""

    width: int
    height: int
    kept: np.ndarray

    def __post_init__(self):
        kept = np.asarray(self.kept)
        if kept.shape != (self.n_pixels,):
            raise ValueError("kept must have one entry per pixel")
        self.kept = kept.astype(bool)
        self.matrix = sparse.diags(self.kept.astype(float), format="csr")
        self.matrix.eliminate_zeros()

    def apply(self, x):
        return self._check_len(x) * self.kept

    apply_adjoint = apply


@dataclass
class Conv2D(DegradationOperator):
    """Circular 2D convolution with a centered k x k kernel.

    (Hx)[i, j] = sum_{a,b} kernel[a, b] * x[(i - a + c) % height, (j - b + c) % width]
    with c = k // 2.  H is assembled once, vectorized, as a CSR ``matrix``
    with at most k^2 nonzeros per row, and ``apply`` and ``apply_adjoint`` are
    one sparse matrix-vector product each: O(k^2 N) work, which for small
    kernels costs less than an FFT of the image.
    """

    width: int
    height: int
    kernel: np.ndarray

    def __post_init__(self):
        kernel = np.asarray(self.kernel, dtype=float)
        k = kernel.shape[0]
        if kernel.ndim != 2 or kernel.shape != (k, k):
            raise ValueError("kernel must be square")
        if not np.all(np.isfinite(kernel)):
            raise ValueError("kernel entries must be finite")
        if k > min(self.width, self.height):
            raise ValueError("kernel larger than the image")
        self.kernel = kernel
        # kernel offsets (a - c, b - c), one per row of da and db
        aa, bb = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
        da = aa.reshape(-1, 1) - k // 2
        db = bb.reshape(-1, 1) - k // 2
        n = self.n_pixels
        ii, jj = np.divmod(np.arange(n), self.width)
        cols = ((ii - da) % self.height) * self.width + (jj - db) % self.width
        rows = np.broadcast_to(np.arange(n), cols.shape)
        vals = np.broadcast_to(kernel.reshape(-1, 1), cols.shape)
        self.matrix = sparse.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n))
        self.matrix.eliminate_zeros()

    def apply(self, x):
        return self.matrix @ self._check_len(x)

    def apply_adjoint(self, v):
        return self.matrix.T @ self._check_len(v)


@dataclass(frozen=True)
class GaussianNoise:
    variance: float

    def __post_init__(self):
        if not 0 < self.variance < np.inf:
            raise ValueError("noise variance must be positive and finite")


@dataclass(frozen=True)
class PoissonNoise:
    pass


def simulate(operator: DegradationOperator, x: np.ndarray, noise, seed: int) -> np.ndarray:
    """Draw one observation y from the degradation model."""
    rng = np.random.Generator(np.random.Philox(seed))
    hx = operator.apply(x)
    if isinstance(noise, GaussianNoise):
        return hx + np.sqrt(noise.variance) * rng.standard_normal(hx.size)
    if isinstance(noise, PoissonNoise):
        if np.any(hx < 0):
            raise ValueError("Poisson noise requires nonnegative rates (Hx >= 0)")
        return rng.poisson(hx).astype(float)
    raise TypeError(f"unknown noise model: {noise!r}")


def all_row_quadratic_forms(operator: DegradationOperator, partition: Partition,
                            stacks) -> np.ndarray:
    """h_n S h_n^T for every row n of H: the diagonal of H S H^T, with S the
    block-diagonal matrix of ``stacks`` (one per group of ``partition``).
    A diagonal H reads only S_nn, so there the forms are diag(H^T H) * S_nn
    for any blocks, and the stacks may be (J_g, b) rows of S_nn, the shape
    of diagonal EP factors, or (J_g, b, b) blocks."""
    if operator.is_diagonal:
        s_nn = np.empty(partition.n_pixels)
        for group, stack in zip(partition.groups, stacks):
            s_nn[group.pixels] = stack if stack.ndim == 2 else np.diagonal(stack, axis1=1, axis2=2)
        return operator.diag_gram() * s_nn
    h = operator.matrix
    s = _block_diag(partition, stacks)
    return np.asarray((h @ s).multiply(h).sum(axis=1)).ravel()


def _block_diag(partition: Partition, stacks) -> sparse.csr_matrix:
    """Sparse N x N matrix with stacks[g][i] at the pixels of block
    partition.groups[g].ids[i]."""
    rows, cols, vals = [], [], []
    for group, stack in zip(partition.groups, stacks):
        b = group.pixels.shape[1]
        rows.append(np.repeat(group.pixels, b, axis=1).ravel())
        cols.append(np.tile(group.pixels, (1, b)).ravel())
        vals.append(np.ravel(stack))
    n = partition.n_pixels
    return sparse.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(n, n))
