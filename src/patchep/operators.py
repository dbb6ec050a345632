"""Degradation operators and noise simulators.

The linear degradation ``H`` is one of: identity (denoising), a 0/1 pixel
mask (inpainting), or circular 2D convolution (deconvolution).  Every
operator holds ``H`` as a CSR ``matrix`` built once at construction; it is
the only representation of ``H``.  ``apply`` and ``apply_adjoint`` are
products with it, and ``is_diagonal`` reads its sparsity pattern.

The structure of G = ``H^T W H`` does not depend on the weights w, so each
operator builds once a sparse map M from w to G's stored values,
M[(a, b), n] = H_na H_nb with one row per structural nonzero (a, b) of
``H^T H``, and once per partition the places of G's entries in its split.
``gram_block`` then splits G on a partition into its off-block part R (CSR)
and its diagonal blocks G_jj with one product M w and one scatter: no
sparse product, mask or ``eliminate_zeros`` runs per call.  M holds
sum_n nnz(h_n)^2 entries, 81 per pixel for a 3x3 kernel: 4.4 MB at 64^2 and
17.6 MB at 128^2 (values, column indices and row pointers), built in 0.04
and 0.19 s on a 2-vCPU x86 VM.  The quadratic forms ``h_n S h_n^T`` of a
block-diagonal covariance S come from the same map, as M^T applied to S's
entries at G's in-block places, or as ``diag(H^T H) * S_nn`` when H is
diagonal.

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

    @cached_property
    def _gram_pattern(self):
        """(M, a, b): the CSR map M from weights w to the stored values of
        G = H^T W H in CSR order, M[(a, b), n] = H_na H_nb, and the rows a
        and columns b of those values.  Each stored entry of H's row n
        pairs with every entry of that row, itself included, for all rows
        at once; M's rows list n in ascending order."""
        h, n = self.matrix, self.n_pixels
        counts = np.diff(h.indptr)
        rows = np.repeat(np.arange(n), counts)              # row of each stored entry
        reps = counts[rows]
        first = np.repeat(np.arange(h.nnz), reps)          # entry (n, a) of each pair ...
        second = (h.indptr[rows[first]] + np.arange(first.size)
                  - np.repeat(np.cumsum(reps) - reps, reps))   # ... with entry (n, b)
        keys, row_of_pair = np.unique(h.indices[first].astype(np.int64) * n + h.indices[second],
                                      return_inverse=True)
        gram_map = sparse.csr_matrix((h.data[first] * h.data[second], (row_of_pair, rows[first])),
                                     shape=(keys.size, n))
        return (gram_map, *np.divmod(keys, n))

    @cached_property
    def _gram_splits(self) -> dict:
        return {}

    def _gram_split(self, partition: Partition):
        """Where G's stored values go when G is split on ``partition``, built
        once per partition: (slots, spans, indices, indptr).  ``slots`` maps
        each value, in the CSR order of ``_gram_pattern``, into a buffer
        that holds every group's (J_g, b, b) stack in turn (the flat layout
        of ``partition.stack_layout``, whose group ``spans`` it keeps) and
        then R's values; ``indices`` and ``indptr`` are R's CSR structure."""
        if partition not in self._gram_splits:
            _, a, b = self._gram_pattern
            block, pos, row_slot, spans = partition.stack_layout
            off = block[a] != block[b]
            slots = np.where(off, spans[-1] + np.cumsum(off) - 1, row_slot[a] + pos[b])
            off_block = sparse.csr_matrix(
                (np.zeros(np.count_nonzero(off)), b[off],
                 np.searchsorted(a[off], np.arange(self.n_pixels + 1))),
                shape=(self.n_pixels, self.n_pixels))
            self._gram_splits[partition] = slots, spans, off_block.indices, off_block.indptr
        return self._gram_splits[partition]

    def gram_block(self, partition: Partition, weights: np.ndarray):
        """G = H^T W H, W = diag(weights), split as R + blockdiag(G_jj) on
        ``partition``: R, the off-block part, as CSR, and the diagonal blocks
        G_jj, one (J_g, b, b) stack per group of ``partition.groups``.  G's
        stored values are M w (see the module docstring); one scatter puts
        them into a fresh buffer that holds the stacks and then R's values,
        and R keeps G's off-block structure, so it may store zeros.  Every
        returned array is new."""
        slots, spans, indices, indptr = self._gram_split(partition)
        buffer = np.zeros(spans[-1] + indices.size)
        buffer[slots] = self._gram_pattern[0] @ weights
        off_block = sparse.csr_matrix((buffer[spans[-1]:], indices.copy(), indptr.copy()),
                                      shape=(self.n_pixels, self.n_pixels))
        return off_block, [buffer[start:stop].reshape(group.pixels.shape + group.pixels.shape[1:])
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
    Form n sums H_na S_ab H_nb over G = H^T H's structural nonzeros (a, b),
    and S_ab is zero off the blocks, so the forms are M^T s with M the map of
    ``_gram_pattern`` and s S's entries at G's places: the stacks' flat
    buffer read through the split's slots, zero at the off-block ones.  A
    diagonal H reads only S_nn, so there the forms are diag(H^T H) * S_nn
    for any blocks, and the stacks may be (J_g, b) rows of S_nn, the shape
    of diagonal EP factors, or (J_g, b, b) blocks."""
    if operator.is_diagonal:
        s_nn = np.empty(partition.n_pixels)
        for group, stack in zip(partition.groups, stacks):
            s_nn[group.pixels] = stack if stack.ndim == 2 else np.diagonal(stack, axis1=1, axis2=2)
        return operator.diag_gram() * s_nn
    slots, _, indices, _ = operator._gram_split(partition)
    buffer = np.concatenate([np.ravel(stack) for stack in stacks] + [np.zeros(indices.size)])
    return operator._gram_pattern[0].T @ buffer[slots]
