"""Block-diagonal matrices aligned to a patch partition, stored as stacks.

Every structured Gaussian in patchep has a block-diagonal precision and
covariance with one block per patch of a
:class:`~patchep.partitions.Partition`.  Blocks of one
:attr:`~patchep.partitions.Partition.groups` entry share their size, so a
block-diagonal matrix is stored as a list of ``(J_g, b, b)`` arrays, one per
group and in the order of ``partition.groups``; all block arithmetic is
batched numpy over these stacks, and no N x N matrix is assembled here.  A
diagonal matrix is ``(J_g, b)`` rows of its diagonal, told apart by shape;
:func:`diag_stack` makes full blocks of them.  :class:`BlockDiagonalCov`
checks that every block is symmetric positive definite, by one batched
Cholesky factorization per group.  :func:`cholesky_stack` factors a stack
by one batched call and splits it only when that call fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partitions import Partition

__all__ = ["BlockDiagonalCov", "cholesky_stack", "diag_stack", "sym"]


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


@dataclass(frozen=True)
class BlockDiagonalCov:
    """Symmetric positive-definite covariance blocks, one (J_g, b, b) stack
    per group of the partition."""

    partition: Partition
    stacks: list

    def __post_init__(self):
        groups = self.partition.groups
        if len(self.stacks) != len(groups):
            raise ValueError("one covariance stack per partition group required")
        checked = []
        for group, stack in zip(groups, self.stacks):
            stack = np.asarray(stack, dtype=float)
            if stack.shape != (len(group.ids),) + (group.pixels.shape[1],) * 2:
                raise ValueError("covariance stack shape does not match the partition")
            if not np.allclose(stack, np.swapaxes(stack, -1, -2), rtol=1e-10, atol=1e-12):
                raise ValueError("covariance blocks must be symmetric")
            try:
                np.linalg.cholesky(stack)
            except np.linalg.LinAlgError as exc:
                raise ValueError("covariance blocks must be positive definite") from exc
            checked.append(stack)
        object.__setattr__(self, "stacks", checked)
