"""Shifted patch partitions of an image grid.

An image of ``width x height`` pixels is covered by non-overlapping square
patches of side ``patch_size``.  Shifting the tiling origin by one pixel in
each direction yields ``patch_size**2`` distinct partitions; shifted tilings
have truncated blocks along the image boundary.  A partition is fixed by its
grid, patch size and shift, and its blocks follow from cell arithmetic:
with shift (dx, dy), pixel (r, c) sits in cell
(floor((r - dy) / p) + [dy > 0], floor((c - dx) / p) + [dx > 0]), block id
``cell_row * n_cell_cols + cell_col``, at local index
((r - dy) mod p) * p + ((c - dx) mod p) of the canonical p x p cell.
Global vectors always stay in row-major image order.  Blocks with the same
local-index pattern form one :class:`BlockGroup`; block matrices are stored
and processed as one stack per group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = ["BlockGroup", "Partition", "build_shifted_partitions"]


class BlockGroup(NamedTuple):
    """Blocks of a partition that share one local-index pattern, hence one
    size and one (possibly marginalised) patch prior."""

    local: np.ndarray   # (b,) row-major positions inside the canonical patch cell
    ids: np.ndarray     # (J_g,) block ids (row-major cell numbers), ascending
    pixels: np.ndarray  # (J_g, b) row-major pixel indices; pixels[i, k] sits at local[k]


def _axis_runs(length: int, patch_size: int, shift: int):
    """Cells along one axis in runs of one local range: a leading truncated
    cell (shift > 0), the full cells, a trailing truncated cell.  Each run
    is (cell indices, local range, image coordinates of shape (cells, local))."""
    lead = int(shift > 0)
    n_full, tail = divmod(length - shift, patch_size)
    runs = []
    for first, n_cells, lo, hi in ((0, lead, patch_size - shift, patch_size),
                                   (lead, n_full, 0, patch_size),
                                   (lead + n_full, int(tail > 0), 0, tail)):
        if n_cells:
            cells, local = np.arange(first, first + n_cells), np.arange(lo, hi)
            origins = shift + (cells - lead) * patch_size
            runs.append((cells, local, origins[:, None] + local))
    return runs


@dataclass(frozen=True)
class Partition:
    """One non-overlapping tiling of the pixel grid by ``patch_size`` cells
    whose origin is shifted by ``shift = (dx, dy)``.

    Blocks are numbered row-major over cells, and a block's pixels are
    listed row-major together with their positions in the canonical
    ``patch_size x patch_size`` cell (see the module docstring).  Interior
    blocks hold ``patch_size**2`` pixels; boundary blocks of shifted
    partitions may hold fewer.
    """

    width: int
    height: int
    patch_size: int
    shift: tuple[int, int]

    def __post_init__(self):
        if not all(0 <= d < self.patch_size and d <= n
                   for d, n in zip(self.shift, (self.width, self.height))):
            raise ValueError(f"shift must lie in [0, patch_size) and inside the image, "
                             f"got {self.shift}")

    @property
    def n_pixels(self) -> int:
        return self.width * self.height

    @cached_property
    def groups(self) -> list[BlockGroup]:
        """One group per (row run, column run) pair of cells, in order of
        each group's first block id."""
        dx, dy = self.shift
        col_runs = _axis_runs(self.width, self.patch_size, dx)
        n_cols = sum(len(cells) for cells, _, _ in col_runs)
        groups = []
        for rcells, rlocal, rows in _axis_runs(self.height, self.patch_size, dy):
            for ccells, clocal, cols in col_runs:
                ids = (rcells[:, None] * n_cols + ccells).ravel()
                pixels = rows[:, None, :, None] * self.width + cols[None, :, None, :]
                groups.append(BlockGroup((rlocal[:, None] * self.patch_size + clocal).ravel(),
                                         ids, pixels.reshape(len(ids), -1)))
        return groups

    @cached_property
    def stack_layout(self):
        """Per-pixel block id, position in the block and offset of the
        pixel's row in one flat buffer holding every group's (J_g, b, b)
        stack in turn, and the groups' spans of that buffer."""
        block, pos, row_slot = (np.empty(self.n_pixels, dtype=np.intp) for _ in range(3))
        spans = [0]
        for group in self.groups:
            n_blocks, b = group.pixels.shape
            block[group.pixels], pos[group.pixels] = group.ids[:, None], np.arange(b)
            row_slot[group.pixels] = spans[-1] + b * np.arange(n_blocks * b).reshape(n_blocks, b)
            spans.append(spans[-1] + n_blocks * b * b)
        return block, pos, row_slot, spans


def build_shifted_partitions(width: int, height: int, patch_size: int,
                             n: int | None = None) -> list[Partition]:
    """The first ``n`` (default: all ``patch_size**2``) one-pixel-shifted
    tilings of the grid, shifts ordered row by row ((0, 0), (1, 0), ...);
    ``n`` must lie in ``1..patch_size**2``.

    The (0, 0) shift tiles from the top-left corner; every other shift carries
    truncated blocks along the boundary.
    """
    if patch_size < 2:
        raise ValueError("patch_size must be >= 2")
    if width < patch_size or height < patch_size:
        raise ValueError("image dimensions must be >= patch_size")
    if n is not None and not 1 <= n <= patch_size ** 2:
        raise ValueError(f"n must lie in 1..{patch_size ** 2}, got {n}")
    shifts = [(dx, dy) for dy in range(patch_size) for dx in range(patch_size)]
    return [Partition(width, height, patch_size, shift) for shift in shifts[:n]]
