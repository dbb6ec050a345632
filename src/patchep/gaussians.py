"""Block-diagonal matrices aligned to a patch partition, stored as stacks.

Every structured Gaussian in patchep has a block-diagonal precision and
covariance with one block per patch of a
:class:`~patchep.partitions.Partition`.  Blocks of one
:attr:`~patchep.partitions.Partition.groups` entry share their size, so a
block-diagonal matrix is stored as a list of ``(J_g, b, b)`` arrays, one per
group and in the order of ``partition.groups``; all block arithmetic is
batched numpy over these stacks, and no N x N matrix is assembled here.  A
diagonal matrix is ``(J_g, b)`` rows of its diagonal, told apart by shape;
:func:`diag_stack` makes full blocks of them.  EP's joint covariance is
handed on in that same shape, rows or blocks, and is never converted.
:func:`cholesky_stack` factors a stack by one batched call and splits it
only when that call fails.
"""

from __future__ import annotations

import numpy as np

__all__ = ["cholesky_stack", "diag_stack", "sym"]


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix or of every matrix in a stack."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def cholesky_stack(matrix: np.ndarray, on_failure) -> np.ndarray:
    """Cholesky factors of a stack (..., b, b) of symmetric matrices (only
    the lower triangles are read), by one batched call.  Only when that call
    raises is the stack factored entry by entry along its leading axis, down
    to single matrices; a single matrix that has no factor gets
    ``on_failure(matrix)`` in its place, an array of its shape (or raises)."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        if matrix.ndim > 2:
            return np.stack([cholesky_stack(entry, on_failure) for entry in matrix])
        return on_failure(matrix)


def diag_stack(d: np.ndarray) -> np.ndarray:
    """(J, b) values -> (J, b, b) stack with the values on the diagonals."""
    b = d.shape[-1]
    out = np.zeros(d.shape + (b,))
    out[..., np.arange(b), np.arange(b)] = d
    return out
