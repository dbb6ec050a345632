import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchep.partitions import Partition, build_shifted_partitions


def cell_arithmetic(partition):
    """Per pixel, the block id and the local index from the tiling formula:
    pixel (r, c) sits in cell (floor((r - dy) / p) + [dy > 0],
    floor((c - dx) / p) + [dx > 0]) at local ((r - dy) mod p) * p + ((c - dx) mod p);
    blocks are numbered row-major over cells."""
    p, (dx, dy) = partition.patch_size, partition.shift
    r, c = np.divmod(np.arange(partition.n_pixels), partition.width)
    cell_r = (r - dy) // p + (dy > 0)
    cell_c = (c - dx) // p + (dx > 0)
    block = cell_r * (cell_c.max() + 1) + cell_c
    return block, ((r - dy) % p) * p + (c - dx) % p


def assert_groups_match_cell_arithmetic(partition):
    """Every block of the arithmetic is one row of exactly one group: its
    pixels ascending, its local pattern the group's; groups hold distinct
    patterns, ascending ids, and come in order of their first id."""
    block, local = cell_arithmetic(partition)
    groups = partition.groups
    ids = np.concatenate([g.ids for g in groups])
    np.testing.assert_array_equal(np.sort(ids), np.arange(block.max() + 1))
    assert [g.ids[0] for g in groups] == sorted(g.ids[0] for g in groups)
    patterns = [tuple(g.local.tolist()) for g in groups]
    assert len(set(patterns)) == len(patterns)
    for g in groups:
        assert np.all(np.diff(g.ids) > 0)
        assert g.pixels.shape == (len(g.ids), len(g.local))
        for j, pixels in zip(g.ids, g.pixels):
            np.testing.assert_array_equal(pixels, np.flatnonzero(block == j))
            np.testing.assert_array_equal(local[pixels], g.local)


class TestBuildShiftedPartitions:
    def test_exact_tiling_single_block(self):
        parts = build_shifted_partitions(8, 8, 8)
        p0 = parts[0]
        assert p0.shift == (0, 0)
        (group,) = p0.groups
        np.testing.assert_array_equal(group.ids, [0])
        np.testing.assert_array_equal(group.pixels, [np.arange(64)])
        np.testing.assert_array_equal(group.local, np.arange(64))

    def test_partition_count_equals_patch_dim(self):
        # one partition per one-pixel shift in both directions
        parts = build_shifted_partitions(8, 8, 8)
        assert len(parts) == 64
        shifts = {p.shift for p in parts}
        assert shifts == {(dx, dy) for dx in range(8) for dy in range(8)}

    def test_truncated_blocks_9x9(self):
        # 9x9, patch 8, shift (0,0): cells [0,8)+[8,9) per axis -> 64, 8, 8, 1
        parts = build_shifted_partitions(9, 9, 8)
        sizes = sorted(g.pixels.shape[1] for g in parts[0].groups for _ in g.ids)
        assert sizes == [1, 8, 8, 64]

    def test_rejects_small_images(self):
        with pytest.raises(ValueError):
            build_shifted_partitions(4, 8, 8)
        with pytest.raises(ValueError):
            build_shifted_partitions(8, 8, 1)

    @pytest.mark.parametrize("n", [-1, 0, 17])
    def test_rejects_partition_count_outside_range(self, n):
        # 4x4 patches give 16 shifts; n must pick 1..16 of them
        with pytest.raises(ValueError):
            build_shifted_partitions(8, 8, 4, n)

    def test_partition_count_at_range_ends(self):
        assert len(build_shifted_partitions(8, 8, 4, 1)) == 1
        assert len(build_shifted_partitions(8, 8, 4, 16)) == 16
        assert len(build_shifted_partitions(8, 8, 4, None)) == 16

    def test_blocks_disjoint_and_cover(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            w = int(rng.integers(4, 13))
            h = int(rng.integers(4, 13))
            p = int(rng.integers(2, min(w, h) + 1))
            for part in build_shifted_partitions(w, h, p):
                seen = np.concatenate([g.pixels.ravel() for g in part.groups])
                assert seen.size == w * h
                np.testing.assert_array_equal(np.sort(seen), np.arange(w * h))

    def test_interior_blocks_full_and_local_indices_consistent(self):
        for part in build_shifted_partitions(10, 10, 3):
            for g in part.groups:
                assert g.pixels.shape[1] == len(g.local)
                assert np.all(g.local >= 0) and np.all(g.local < 9)
                assert len(np.unique(g.local)) == len(g.local)
            assert any(len(g.local) == 9 for g in part.groups)

    def test_shifted_partition_local_indices_match_cell_position(self):
        # shift (2,0) on width 8: leading cell [0,2) holds the last 2 columns
        # of a conceptual patch starting at column -1 (origin 2-4=-2 for p=4)
        parts = build_shifted_partitions(8, 8, 4)
        part = next(p for p in parts if p.shift == (2, 0))
        lead = next(g for g in part.groups
                    if any(np.all(b % 8 < 2) and np.all(b // 8 < 4) for b in g.pixels))
        cols_local = lead.local % 4
        assert set(cols_local.tolist()) == {2, 3}

    def test_first_n_equal_prefix_of_all(self):
        full = build_shifted_partitions(10, 7, 4)
        assert [p.shift for p in full] == [(dx, dy) for dy in range(4) for dx in range(4)]
        for n in (1, 5, 16):
            first = build_shifted_partitions(10, 7, 4, n)
            assert len(first) == n
            for part, ref in zip(first, full):
                assert part == ref
                assert len(part.groups) == len(ref.groups)
                for g, rg in zip(part.groups, ref.groups):
                    for a, b in zip(g, rg):
                        np.testing.assert_array_equal(a, b)


class TestGroups:
    def test_groups_cover_blocks_by_local_pattern(self):
        # 10x7 with 4x4 patches: every shift truncates blocks differently
        for part in build_shifted_partitions(10, 7, 4):
            groups = part.groups
            assert_groups_match_cell_arithmetic(part)
            assert part.groups is groups  # computed once


class TestPartition:
    @pytest.mark.parametrize("shift", [(-1, 0), (0, -1), (4, 0), (0, 4)])
    def test_rejects_shift_outside_patch(self, shift):
        with pytest.raises(ValueError):
            Partition(8, 8, 4, shift)

    def test_rejects_shift_past_a_narrow_grid(self):
        # a grid narrower than the patch bounds the shift by its width too
        assert_groups_match_cell_arithmetic(Partition(3, 8, 4, (3, 0)))
        with pytest.raises(ValueError):
            Partition(2, 8, 4, (3, 0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(patch_size=st.integers(1, 5), extra_w=st.integers(0, 7), extra_h=st.integers(0, 7))
def test_every_shifted_partition_covers_each_pixel_once(patch_size, extra_w, extra_h):
    width, height = patch_size + extra_w, patch_size + extra_h
    n = width * height
    for dy in range(patch_size):
        for dx in range(patch_size):
            part = Partition(width, height, patch_size, (dx, dy))
            grouped = np.concatenate([g.pixels.ravel() for g in part.groups])
            assert np.all(np.bincount(grouped, minlength=n) == 1)
            assert_groups_match_cell_arithmetic(part)
