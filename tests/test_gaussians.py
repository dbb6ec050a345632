import numpy as np
import pytest

from patchep.gaussians import cholesky_stack
from patchep.partitions import build_shifted_partitions

from conftest import blocks_of, diag_stacks, pixel_diagonal, random_spd, stack_by_group


class TestMarginalVariances:
    """Diagonals read back from the stacks through ``group.pixels`` land in
    pixel order, the layout EP's joint marginal variances rely on."""

    def test_isotropic(self):
        part = build_shifted_partitions(3, 3, 2)[3]
        np.testing.assert_array_equal(pixel_diagonal(part, diag_stacks(part, np.full(9, 2.0))),
                                      np.full(9, 2.0))

    def test_diagonal(self):
        part = build_shifted_partitions(3, 3, 2)[3]
        np.testing.assert_array_equal(pixel_diagonal(part, diag_stacks(part, np.arange(1.0, 10.0) ** 2)),
                                      np.arange(1, 10) ** 2)

    def test_block_diagonal_reads_diagonals(self):
        # shift (1,0) on a 3x2 grid yields one 2-pixel and one 4-pixel block
        parts = build_shifted_partitions(3, 2, 2)
        part = next(p for p in parts if p.shift == (1, 0))
        two = np.array([[2.0, 1.0], [1.0, 2.0]])
        blocks = [two if len(b) == 2 else np.eye(len(b)) for b, _ in blocks_of(part)]
        out = pixel_diagonal(part, stack_by_group(part, blocks))
        small = next(b for b, _ in blocks_of(part) if len(b) == 2)
        np.testing.assert_array_equal(out[small], [2.0, 2.0])

    def test_block_diagonal_scatters_to_pixel_order(self):
        parts = build_shifted_partitions(4, 4, 2)
        part = next(p for p in parts if p.shift == (1, 1))
        blocks = []
        for j, (idx, _) in enumerate(blocks_of(part)):
            b = len(idx)
            blocks.append(np.diag(np.full(b, float(j + 1))))
        out = pixel_diagonal(part, stack_by_group(part, blocks))
        for j, (idx, _) in enumerate(blocks_of(part)):
            np.testing.assert_array_equal(out[idx], np.full(len(idx), float(j + 1)))


class TestCholeskyStack:
    def test_batched_unless_a_matrix_fails(self, rng):
        good = np.stack([[random_spd(rng, 3) for _ in range(2)] for _ in range(3)])   # (3, 2, 3, 3)
        failed = []
        np.testing.assert_array_equal(cholesky_stack(good, failed.append), np.linalg.cholesky(good))
        assert not failed
        bad = good.copy()
        bad[1, 0] = -np.eye(3)
        out = cholesky_stack(bad, lambda m: (failed.append(m.copy()), np.full_like(m, np.nan))[1])
        assert len(failed) == 1
        np.testing.assert_array_equal(failed[0], -np.eye(3))
        assert np.isnan(out[1, 0]).all()
        keep = np.ones((3, 2), dtype=bool)
        keep[1, 0] = False
        np.testing.assert_allclose(out[keep], np.linalg.cholesky(good)[keep], rtol=1e-15)
