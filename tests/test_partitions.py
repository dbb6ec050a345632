import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchep.partitions import build_shifted_partitions


class TestBuildShiftedPartitions:
    def test_exact_tiling_single_block(self):
        parts = build_shifted_partitions(8, 8, 8)
        p0 = parts[0]
        assert p0.shift == (0, 0)
        assert p0.n_blocks == 1
        assert len(p0.blocks[0]) == 64
        np.testing.assert_array_equal(np.sort(p0.blocks[0]), np.arange(64))

    def test_partition_count_equals_patch_dim(self):
        # one partition per one-pixel shift in both directions
        parts = build_shifted_partitions(8, 8, 8)
        assert len(parts) == 64
        shifts = {p.shift for p in parts}
        assert shifts == {(dx, dy) for dx in range(8) for dy in range(8)}

    def test_truncated_blocks_9x9(self):
        # 9x9, patch 8, shift (0,0): cells [0,8)+[8,9) per axis -> 64, 8, 8, 1
        parts = build_shifted_partitions(9, 9, 8)
        sizes = sorted(len(b) for b in parts[0].blocks)
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
                seen = np.concatenate(part.blocks)
                assert seen.size == w * h
                np.testing.assert_array_equal(np.sort(seen), np.arange(w * h))

    def test_interior_blocks_full_and_local_indices_consistent(self):
        for part in build_shifted_partitions(10, 10, 3):
            for idx, loc in zip(part.blocks, part.local_indices):
                assert len(idx) == len(loc)
                assert np.all(loc >= 0) and np.all(loc < 9)
                assert len(np.unique(loc)) == len(loc)
            full = [b for b in part.blocks if len(b) == 9]
            assert len(full) >= 1

    def test_shifted_partition_local_indices_match_cell_position(self):
        # shift (2,0) on width 8: leading cell [0,2) holds the last 2 columns
        # of a conceptual patch starting at column -1 (origin 2-4=-2 for p=4)
        parts = build_shifted_partitions(8, 8, 4)
        part = next(p for p in parts if p.shift == (2, 0))
        lead = next(
            (b, l) for b, l in zip(part.blocks, part.local_indices)
            if np.all(b % 8 < 2) and np.all(b // 8 < 4)
        )
        cols_local = lead[1] % 4
        assert set(cols_local.tolist()) == {2, 3}

    def test_first_n_equal_prefix_of_all(self):
        full = build_shifted_partitions(10, 7, 4)
        assert [p.shift for p in full] == [(dx, dy) for dy in range(4) for dx in range(4)]
        for n in (1, 5, 16):
            first = build_shifted_partitions(10, 7, 4, n)
            assert len(first) == n
            for part, ref in zip(first, full):
                assert part.shift == ref.shift
                assert len(part.blocks) == len(ref.blocks)
                for b, rb, loc, rloc in zip(part.blocks, ref.blocks,
                                            part.local_indices, ref.local_indices):
                    np.testing.assert_array_equal(b, rb)
                    np.testing.assert_array_equal(loc, rloc)


class TestGroups:
    def test_groups_cover_blocks_by_local_pattern(self):
        # 10x7 with 4x4 patches: every shift truncates blocks differently
        for part in build_shifted_partitions(10, 7, 4):
            groups = part.groups
            ids = np.concatenate([g.ids for g in groups])
            np.testing.assert_array_equal(np.sort(ids), np.arange(part.n_blocks))
            assert [g.ids[0] for g in groups] == sorted(g.ids[0] for g in groups)
            patterns = [tuple(g.local.tolist()) for g in groups]
            assert len(set(patterns)) == len(patterns)
            for g in groups:
                assert g.pixels.shape == (len(g.ids), len(g.local))
                for i, j in enumerate(g.ids):
                    np.testing.assert_array_equal(g.pixels[i], part.blocks[j])
                    np.testing.assert_array_equal(part.local_indices[j], g.local)
            assert part.groups is groups  # computed once


@settings(max_examples=40, deadline=None, derandomize=True)
@given(patch_size=st.integers(2, 5), extra_w=st.integers(0, 7), extra_h=st.integers(0, 7))
def test_every_shifted_partition_covers_each_pixel_once(patch_size, extra_w, extra_h):
    width, height = patch_size + extra_w, patch_size + extra_h
    n = width * height
    for part in build_shifted_partitions(width, height, patch_size):
        assert np.all(np.bincount(np.concatenate(part.blocks), minlength=n) == 1)
        grouped = np.concatenate([g.pixels.ravel() for g in part.groups])
        assert np.all(np.bincount(grouped, minlength=n) == 1)
