"""Degradation operators and noise simulators.

The linear degradation ``H`` is one of: identity (denoising), a 0/1 pixel
mask (inpainting), or circular 2D convolution (deconvolution).  Every
operator holds ``H`` as a CSR ``matrix`` built once at construction and
exposes forward/adjoint application plus sparse row and column access, so
that the quadratic forms ``h_n S h_n^T`` touch only the kernel's nonzeros
and the covariance blocks they intersect.

Noise simulation uses a counter-based (Philox) generator so runs are
reproducible regardless of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .gaussians import BlockDiagonalCov, Covariance, DiagonalCov, IsotropicCov, marginal_variances

__all__ = [
    "Identity",
    "Mask",
    "Conv2D",
    "GaussianNoise",
    "PoissonNoise",
    "simulate",
    "row_quadratic_form",
    "row_dot",
    "all_row_quadratic_forms",
]


class DegradationOperator:
    """Common interface: ``apply``, ``apply_adjoint``, H as a CSR ``matrix``
    (set by each operator), sparse ``row``/``column``, and a dense
    ``gram_block`` of ``H^T W H`` restricted to a pixel subset."""

    width: int
    height: int
    matrix: sparse.csr_matrix

    @property
    def n_pixels(self) -> int:
        return self.width * self.height

    @property
    def is_diagonal(self) -> bool:
        raise NotImplementedError

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply_adjoint(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @cached_property
    def _columns(self) -> sparse.csc_matrix:
        return self.matrix.tocsc()

    @staticmethod
    def _slice(m, k: int, n: int, what: str) -> tuple[np.ndarray, np.ndarray]:
        if not 0 <= k < n:
            raise IndexError(f"{what} index out of range")
        sl = slice(m.indptr[k], m.indptr[k + 1])
        return m.indices[sl].copy(), m.data[sl].copy()

    def row(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Nonzero (indices, weights) of row n of H."""
        return self._slice(self.matrix, n, self.n_pixels, "row")

    def column(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Nonzero (indices, weights) of column m of H."""
        return self._slice(self._columns, m, self.n_pixels, "column")

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

    def gram_block(self, indices: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        """Dense (H^T W H)[indices, indices] with diagonal W (default identity)."""
        indices = np.asarray(indices)
        cols = self._columns[:, indices]
        rows, local = np.unique(cols.indices, return_inverse=True)
        a = np.zeros((rows.size, indices.size))
        a[local, np.repeat(np.arange(indices.size), np.diff(cols.indptr))] = cols.data
        w_diag = np.ones(rows.size) if weights is None else np.asarray(weights, dtype=float)[rows]
        return a.T @ (w_diag[:, None] * a)


@dataclass
class Identity(DegradationOperator):
    width: int
    height: int

    def __post_init__(self):
        self.matrix = sparse.identity(self.n_pixels, format="csr")

    @property
    def is_diagonal(self) -> bool:
        return True

    def apply(self, x):
        return self._check_len(x).copy()

    def apply_adjoint(self, v):
        return self._check_len(v).copy()


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

    @property
    def is_diagonal(self) -> bool:
        return True

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
        # offsets (da, db) = (a - c, b - c) paired with kernel weights
        aa, bb = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
        self._offsets = np.stack([aa.ravel() - k // 2, bb.ravel() - k // 2], axis=1)
        self._weights = kernel.ravel()
        n = self.n_pixels
        ii, jj = np.divmod(np.arange(n), self.width)
        cols = (((ii - self._offsets[:, :1]) % self.height) * self.width
                + (jj - self._offsets[:, 1:]) % self.width)
        rows = np.broadcast_to(np.arange(n), cols.shape)
        vals = np.broadcast_to(self._weights[:, None], cols.shape)
        self.matrix = sparse.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n))
        self.matrix.eliminate_zeros()

    @property
    def is_diagonal(self) -> bool:
        return False

    def apply(self, x):
        return self.matrix @ self._check_len(x)

    def apply_adjoint(self, v):
        return self.matrix.T @ self._check_len(v)


@dataclass(frozen=True)
class GaussianNoise:
    variance: float

    def __post_init__(self):
        if not self.variance > 0:
            raise ValueError("noise variance must be positive")


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


def row_dot(operator: DegradationOperator, n: int, vector: np.ndarray) -> float:
    """h_n . vector using only the row's nonzeros."""
    ms, ws = operator.row(n)
    return float(np.dot(ws, np.asarray(vector)[ms]))


def row_quadratic_form(operator: DegradationOperator, n: int, cov: Covariance) -> float:
    """h_n S h_n^T for a structured covariance S."""
    ms, ws = operator.row(n)
    if ms.size == 0:
        return 0.0
    if isinstance(cov, DiagonalCov):
        return float(np.sum(ws ** 2 * cov.variances[ms]))
    if isinstance(cov, IsotropicCov):
        return float(cov.variance * np.sum(ws ** 2))
    if isinstance(cov, BlockDiagonalCov):
        part = cov.partition
        blocks = part.block_of[ms]
        pos = part.pos_of[ms]
        total = 0.0
        for j in np.unique(blocks):
            sel = blocks == j
            sub = cov.blocks[j][np.ix_(pos[sel], pos[sel])]
            w = ws[sel]
            total += float(w @ sub @ w)
        return total
    raise TypeError(f"unknown covariance structure: {type(cov)!r}")


def all_row_quadratic_forms(operator: DegradationOperator, cov: Covariance) -> np.ndarray:
    """Vector of h_n S h_n^T for every row n (vectorized over pixels)."""
    n_pix = operator.n_pixels
    if isinstance(operator, Identity):
        return marginal_variances(cov)
    if isinstance(operator, Mask):
        return operator.kept * marginal_variances(cov)
    if not isinstance(operator, Conv2D):
        return np.array([row_quadratic_form(operator, n, cov) for n in range(n_pix)])

    offsets = operator._offsets
    weights = operator._weights
    # m(n, o): pixel hit by kernel offset o in row n, for all n at once
    idx = np.empty((offsets.shape[0], n_pix), dtype=np.int64)
    base = np.arange(n_pix)
    ii, jj = divmod(base, operator.width)
    for t, (da, db) in enumerate(offsets):
        idx[t] = ((ii - da) % operator.height) * operator.width + (jj - db) % operator.width

    if isinstance(cov, (DiagonalCov, IsotropicCov)):
        v = marginal_variances(cov)
        out = np.zeros(n_pix)
        for t, w in enumerate(weights):
            out += w * w * v[idx[t]]
        return out
    if isinstance(cov, BlockDiagonalCov):
        part = cov.partition
        rmax = max(len(b) for b in part.blocks)
        padded = np.zeros((part.n_blocks, rmax, rmax))
        for j, block in enumerate(cov.blocks):
            padded[j, : block.shape[0], : block.shape[1]] = block
        out = np.zeros(n_pix)
        for t1, w1 in enumerate(weights):
            if w1 == 0.0:
                continue
            b1 = part.block_of[idx[t1]]
            p1 = part.pos_of[idx[t1]]
            for t2, w2 in enumerate(weights):
                if w2 == 0.0:
                    continue
                same = b1 == part.block_of[idx[t2]]
                vals = padded[b1, p1, part.pos_of[idx[t2]]]
                out += (w1 * w2) * np.where(same, vals, 0.0)
        return out
    raise TypeError(f"unknown covariance structure: {type(cov)!r}")
