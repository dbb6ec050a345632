"""Shifted patch partitions of an image grid.

An image of ``width x height`` pixels is covered by non-overlapping square
patches of side ``patch_size``.  Shifting the tiling origin by one pixel in
each direction yields ``patch_size**2`` distinct partitions; shifted tilings
have truncated blocks along the image boundary.  Global vectors always stay
in row-major image order, blocks are realized through index lists.  Blocks
with the same local-index pattern form one :class:`BlockGroup`; block
matrices are stored and processed as one stack per group.
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

    local: np.ndarray   # (b,) positions inside the canonical patch cell
    ids: np.ndarray     # (J_g,) block ids, ascending
    pixels: np.ndarray  # (J_g, b) pixel indices; pixels[i] == blocks[ids[i]]


def _axis_cells(length: int, patch_size: int, shift: int) -> list[tuple[int, int]]:
    """Cells (start, origin) along one axis; origin may be negative for the
    leading truncated cell so that local coordinates stay in [0, patch_size)."""
    cells = []
    if shift > 0:
        cells.append((0, shift - patch_size))
    start = shift
    while start < length:
        cells.append((start, start))
        start += patch_size
    return cells


@dataclass(frozen=True)
class Partition:
    """One non-overlapping tiling of the pixel grid.

    ``blocks[j]`` holds the row-major pixel indices of patch j, and
    ``local_indices[j]`` the corresponding positions inside the canonical
    ``patch_size x patch_size`` cell (row-major in [0, patch_size**2)).
    Interior blocks have exactly ``patch_size**2`` indices; boundary blocks
    of shifted partitions may have fewer.
    """

    width: int
    height: int
    patch_size: int
    shift: tuple[int, int]
    blocks: list[np.ndarray]
    local_indices: list[np.ndarray]

    def __post_init__(self):
        n = self.width * self.height
        block_of = np.full(n, -1, dtype=np.int64)
        for j, idx in enumerate(self.blocks):
            if np.any(block_of[idx] >= 0):
                raise ValueError("partition blocks overlap")
            block_of[idx] = j
        if np.any(block_of < 0):
            raise ValueError("partition blocks do not cover the image")

    @property
    def n_pixels(self) -> int:
        return self.width * self.height

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @cached_property
    def groups(self) -> list[BlockGroup]:
        """Blocks grouped by local-index pattern, in order of each group's
        first block."""
        by_pattern: dict[tuple, list[int]] = {}
        for j, loc in enumerate(self.local_indices):
            by_pattern.setdefault(tuple(loc.tolist()), []).append(j)
        return [BlockGroup(np.array(pattern), np.array(ids),
                           np.stack([self.blocks[j] for j in ids]))
                for pattern, ids in by_pattern.items()]

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


def _build_partition(width: int, height: int, patch_size: int,
                     shift: tuple[int, int]) -> Partition:
    dx, dy = shift
    col_cells = _axis_cells(width, patch_size, dx)
    row_cells = _axis_cells(height, patch_size, dy)
    blocks = []
    locals_ = []
    for rstart, rorigin in row_cells:
        rows = np.arange(rstart, min(rorigin + patch_size, height))
        for cstart, corigin in col_cells:
            cols = np.arange(cstart, min(corigin + patch_size, width))
            rr, cc = np.meshgrid(rows, cols, indexing="ij")
            blocks.append((rr * width + cc).ravel())
            locals_.append(((rr - rorigin) * patch_size + (cc - corigin)).ravel())
    return Partition(width, height, patch_size, shift, blocks, locals_)


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
    return [_build_partition(width, height, patch_size, shift) for shift in shifts[:n]]
