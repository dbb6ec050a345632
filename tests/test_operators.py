import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import sparse

from patchep.operators import (
    Conv2D,
    GaussianNoise,
    Identity,
    Mask,
    PoissonNoise,
    all_row_quadratic_forms,
    simulate,
)
from patchep.partitions import build_shifted_partitions

from conftest import blocks_of, diag_stacks, per_block, random_spd, stack_by_group


def conv_dense_from_formula(width, height, kernel):
    """H of Conv2D entry by entry from its docstring formula (oracle helper)."""
    k = kernel.shape[0]
    c = k // 2
    h = np.zeros((width * height, width * height))
    for i in range(height):
        for j in range(width):
            for a in range(k):
                for b in range(k):
                    h[i * width + j, ((i - a + c) % height) * width + (j - b + c) % width] += kernel[a, b]
    return h


def assert_gram_split(part, off_block, stacks, expected):
    """gram_block's split against a dense G = expected: R stores no entry
    inside a block, each stack holds G's diagonal blocks, and R +
    blockdiag(stacks) = G."""
    block_of = np.empty(part.n_pixels, dtype=int)
    total = off_block.toarray()
    for j, ((idx, _), block) in enumerate(zip(blocks_of(part), per_block(part, stacks))):
        block_of[idx] = j
        np.testing.assert_allclose(block, expected[np.ix_(idx, idx)], atol=1e-12)
        total[np.ix_(idx, idx)] += block
    rows, cols = off_block.nonzero()
    assert not np.any(block_of[rows] == block_of[cols])
    np.testing.assert_allclose(total, expected, atol=1e-12)


def dense_matrix(op):
    """Column-by-column materialization through apply (oracle helper)."""
    n = op.n_pixels
    h = np.empty((n, n))
    eye = np.eye(n)
    for m in range(n):
        h[:, m] = op.apply(eye[m])
    return h


@st.composite
def operators_and_vectors(draw):
    """An Identity, Mask or Conv2D operator on a small grid, with two
    vectors x and y of matching length."""
    width, height = draw(st.integers(3, 7)), draw(st.integers(3, 7))
    n = width * height
    kind = draw(st.sampled_from(["identity", "mask", "conv"]))
    if kind == "identity":
        op = Identity(width, height)
    elif kind == "mask":
        op = Mask(width, height, draw(hnp.arrays(np.bool_, n)))
    else:
        k = draw(st.sampled_from([1, 3]))
        op = Conv2D(width, height, draw(hnp.arrays(np.float64, (k, k),
                                                   elements=st.floats(-2, 2))))
    vec = hnp.arrays(np.float64, n, elements=st.floats(-10, 10))
    return op, draw(vec), draw(vec)


class TestApplyAdjoint:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=operators_and_vectors())
    def test_adjoint_inner_product_property(self, case):
        # <Hx, y> = <x, H^T y> up to rounding of the two sums
        op, x, y = case
        lhs = float(op.apply(x) @ y)
        rhs = float(x @ op.apply_adjoint(y))
        scale = float(np.abs(x) @ (abs(op.matrix).T @ np.abs(y)))
        assert abs(lhs - rhs) <= 1e-13 * scale

    def test_identity_apply(self):
        op = Identity(4, 3)
        x = np.arange(12.0)
        np.testing.assert_array_equal(op.apply(x), x)
        np.testing.assert_array_equal(op.apply_adjoint(x), x)

    def test_mask_all_ones_is_identity(self):
        op = Mask(4, 3, np.ones(12, bool))
        x = np.arange(12.0)
        np.testing.assert_array_equal(op.apply(x), x)

    def test_conv_1x1_unit_kernel_is_identity(self):
        op = Conv2D(5, 4, np.array([[1.0]]))
        x = np.random.default_rng(0).standard_normal(20)
        np.testing.assert_allclose(op.apply(x), x)
        np.testing.assert_allclose(op.apply_adjoint(x), x)

    def test_adjoint_identity_all_variants(self):
        rng = np.random.default_rng(42)
        kept = rng.random(30) < 0.6
        ops = [
            Identity(6, 5),
            Mask(6, 5, kept),
            Conv2D(6, 5, rng.standard_normal((3, 3))),
            Conv2D(6, 5, rng.standard_normal((5, 5))),
        ]
        for op in ops:
            for _ in range(5):
                x = rng.standard_normal(30)
                v = rng.standard_normal(30)
                lhs = np.dot(op.apply(x), v)
                rhs = np.dot(x, op.apply_adjoint(v))
                assert abs(lhs - rhs) < 1e-10

    def test_conv_matches_dense_rows_and_columns(self):
        rng = np.random.default_rng(1)
        op = Conv2D(6, 6, rng.standard_normal((3, 3)))
        h = dense_matrix(op)
        for n in [0, 5, 17, 35]:
            np.testing.assert_allclose(op.matrix[[n]].toarray()[0], h[n], atol=1e-14)
            np.testing.assert_allclose(op.matrix[:, [n]].toarray()[:, 0], h[:, n], atol=1e-14)

    def test_sparse_conv_matches_docstring_formula(self):
        # non-symmetric kernel on a non-square image, so a transposed or
        # flipped kernel and swapped width/height would all show
        rng = np.random.default_rng(12)
        kernel = rng.standard_normal((3, 3))
        op = Conv2D(7, 5, kernel)
        h = conv_dense_from_formula(7, 5, kernel)
        np.testing.assert_allclose(op.matrix.toarray(), h, rtol=0, atol=1e-15)
        w = rng.uniform(0.5, 2.0, 35)
        part = build_shifted_partitions(7, 5, 3)[4]
        off_block, stacks = op.gram_block(part, w)
        assert_gram_split(part, off_block, stacks, h.T @ np.diag(w) @ h)
        np.testing.assert_allclose(op.diag_gram(), np.diag(h.T @ h), rtol=1e-12)
        for _ in range(5):
            x = rng.standard_normal(35)
            v = rng.standard_normal(35)
            np.testing.assert_allclose(op.apply(x), h @ x, atol=1e-12)
            np.testing.assert_allclose(op.apply_adjoint(v), h.T @ v, atol=1e-12)
            assert abs(op.apply(x) @ v - x @ op.apply_adjoint(v)) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Identity(4, 4).apply(np.zeros(15))


class TestInputChecks:
    def test_malformed_mask_kernel_and_noise_rejected(self):
        with pytest.raises(ValueError, match="one entry per pixel"):
            Mask(4, 4, np.ones(15, dtype=bool))
        for kernel in (np.ones((2, 3)), np.ones(3)):
            with pytest.raises(ValueError, match="kernel must be square"):
                Conv2D(4, 4, kernel)
        nan_kernel = np.full((3, 3), 1.0 / 9.0)
        nan_kernel[1, 2] = np.nan
        with pytest.raises(ValueError, match="kernel entries must be finite"):
            Conv2D(4, 4, nan_kernel)
        with pytest.raises(ValueError, match="kernel larger than the image"):
            Conv2D(6, 4, np.full((5, 5), 1.0 / 25.0))
        with pytest.raises(TypeError, match="unknown noise model"):
            simulate(Identity(4, 4), np.ones(16), object(), seed=0)


class TestRowForms:
    def test_identity_diagonal(self):
        op = Identity(3, 2)
        part = build_shifted_partitions(3, 2, 2)[1]
        v = diag_stacks(part, np.arange(1.0, 7.0) ** 2)
        np.testing.assert_array_equal(all_row_quadratic_forms(op, part, v), np.arange(1.0, 7.0) ** 2)

    def test_masked_row_is_zero(self):
        op = Mask(3, 2, np.array([True, False, True, True, True, False]))
        part = build_shifted_partitions(3, 2, 2)[1]
        v = diag_stacks(part, np.ones(6))
        np.testing.assert_array_equal(all_row_quadratic_forms(op, part, v), [1, 0, 1, 1, 1, 0])

    def test_conv_vs_dense_oracle(self):
        # 3x3 uniform kernel on a 6x6 image against the dense H matrix
        op = Conv2D(6, 6, np.full((3, 3), 1.0 / 9.0))
        h = dense_matrix(op)
        rng = np.random.default_rng(3)
        part = build_shifted_partitions(6, 6, 3)[4]
        blocks = [random_spd(rng, len(b)) for b, _ in blocks_of(part)]
        cov = stack_by_group(part, blocks)
        sigma = np.zeros((36, 36))
        for j, (idx, _) in enumerate(blocks_of(part)):
            sigma[np.ix_(idx, idx)] = blocks[j]
        batch = all_row_quadratic_forms(op, part, cov)
        np.testing.assert_allclose(batch, [h[n] @ sigma @ h[n] for n in range(36)],
                                   rtol=1e-12, atol=1e-12)

    def test_conv_vs_dense_oracle_on_every_shift(self):
        # a non-symmetric kernel on a non-square grid, whose shifted
        # partitions have truncated blocks in up to 9 groups
        rng = np.random.default_rng(9)
        op = Conv2D(7, 5, rng.standard_normal((3, 3)))
        h = dense_matrix(op)
        for part in build_shifted_partitions(7, 5, 3):
            blocks = [random_spd(rng, len(b)) for b, _ in blocks_of(part)]
            sigma = np.zeros((35, 35))
            for j, (idx, _) in enumerate(blocks_of(part)):
                sigma[np.ix_(idx, idx)] = blocks[j]
            np.testing.assert_allclose(all_row_quadratic_forms(op, part, stack_by_group(part, blocks)),
                                       [h[n] @ sigma @ h[n] for n in range(35)],
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("op", [Identity(6, 6),
                                    Mask(6, 6, np.random.default_rng(4).random(36) < 0.6)],
                             ids=["identity", "mask"])
    def test_diagonal_operator_on_full_blocks_vs_dense_oracle(self, op):
        # a diagonal H reads only the diagonal of S, whatever its blocks hold
        h = dense_matrix(op)
        rng = np.random.default_rng(7)
        part = build_shifted_partitions(6, 6, 3)[4]
        blocks = [random_spd(rng, len(b)) for b, _ in blocks_of(part)]
        sigma = np.zeros((36, 36))
        for j, (idx, _) in enumerate(blocks_of(part)):
            sigma[np.ix_(idx, idx)] = blocks[j]
        np.testing.assert_allclose(all_row_quadratic_forms(op, part, stack_by_group(part, blocks)),
                                   [h[n] @ sigma @ h[n] for n in range(36)], rtol=1e-12)

    def test_all_row_forms_isotropic_and_diagonal(self):
        rng = np.random.default_rng(8)
        op = Conv2D(5, 5, rng.standard_normal((3, 3)))
        h = dense_matrix(op)
        part = build_shifted_partitions(5, 5, 3)[4]
        variances = rng.uniform(0.5, 2.0, 25)
        diag = diag_stacks(part, variances)
        np.testing.assert_allclose(
            all_row_quadratic_forms(op, part, diag),
            [h[n] @ np.diag(variances) @ h[n] for n in range(25)], rtol=1e-12)
        iso = diag_stacks(part, np.full(25, 1.7))
        np.testing.assert_allclose(
            all_row_quadratic_forms(op, part, iso),
            [1.7 * h[n] @ h[n] for n in range(25)], rtol=1e-12)

    def test_gram_block_matches_dense(self):
        # G = H^T W H split into its off-block part and its diagonal blocks
        # on a shifted partition, whose truncated boundary blocks fall into
        # 9 groups; the mask leaves pixels unobserved, so some blocks have
        # zero rows, and its G is diagonal, so its off-block part is empty
        rng = np.random.default_rng(5)
        part = build_shifted_partitions(6, 6, 3)[4]
        w = rng.uniform(0.5, 2.0, 36)
        for op in (Conv2D(6, 6, rng.standard_normal((3, 3))), Mask(6, 6, rng.random(36) < 0.6)):
            h = dense_matrix(op)
            expected = h.T @ np.diag(w) @ h
            off_block, stacks = op.gram_block(part, w)
            assert off_block.format == "csr" and len(stacks) == len(part.groups) == 9
            for group, stack in zip(part.groups, stacks):
                assert stack.shape == (len(group.ids),) + (group.pixels.shape[1],) * 2
            assert_gram_split(part, off_block, stacks, expected)
            assert (off_block.nnz == 0) == isinstance(op, Mask)

    def test_diag_gram(self):
        rng = np.random.default_rng(6)
        op = Conv2D(5, 5, rng.standard_normal((3, 3)))
        h = dense_matrix(op)
        np.testing.assert_allclose(op.diag_gram(), np.diag(h.T @ h), rtol=1e-12)
        kept = rng.random(25) < 0.5
        np.testing.assert_array_equal(Mask(5, 5, kept).diag_gram(), kept.astype(float))


def pattern_operators():
    """A Conv2D with a non-symmetric kernel, a Mask with unobserved pixels
    and the Identity, all on a 6x6 grid."""
    rng = np.random.default_rng(11)
    return [Conv2D(6, 6, rng.standard_normal((3, 3))), Mask(6, 6, rng.random(36) < 0.6),
            Identity(6, 6)]


class TestGramPattern:
    """gram_block's values from the cached map M on every shift of a grid."""

    @pytest.mark.parametrize("op", pattern_operators(), ids=["conv", "mask", "identity"])
    def test_every_shift_matches_dense_and_triple_product(self, op):
        rng = np.random.default_rng(12)
        h = dense_matrix(op)
        for part in build_shifted_partitions(6, 6, 3):
            w = rng.uniform(0.5, 2.0, 36)
            off_block, stacks = op.gram_block(part, w)
            for group, stack in zip(part.groups, stacks):
                assert stack.shape == (len(group.ids),) + (group.pixels.shape[1],) * 2
            assert_gram_split(part, off_block, stacks, h.T @ np.diag(w) @ h)
            # the same G as scipy's sparse triple product, to rounding
            triple = (op.matrix.T @ sparse.diags(w) @ op.matrix).toarray()
            total = off_block.toarray()
            for (idx, _), block in zip(blocks_of(part), per_block(part, stacks)):
                total[np.ix_(idx, idx)] += block
            np.testing.assert_allclose(total, triple, rtol=0, atol=1e-14 * np.abs(triple).max())

    @pytest.mark.parametrize("op", pattern_operators(), ids=["conv", "mask", "identity"])
    def test_later_call_leaves_earlier_results_unchanged(self, op):
        rng = np.random.default_rng(13)
        part = build_shifted_partitions(6, 6, 3)[5]
        off_block, stacks = op.gram_block(part, rng.uniform(0.5, 2.0, 36))
        kept = (off_block.data.copy(), off_block.indices.copy(), off_block.indptr.copy(),
                [s.copy() for s in stacks])
        off_2, stacks_2 = op.gram_block(part, rng.uniform(0.5, 2.0, 36))
        off_2.data[:] = -1.0
        off_2.indices[:] = 0
        for s in stacks_2:
            s[...] = -1.0
        np.testing.assert_array_equal(off_block.data, kept[0])
        np.testing.assert_array_equal(off_block.indices, kept[1])
        np.testing.assert_array_equal(off_block.indptr, kept[2])
        for s, s_kept in zip(stacks, kept[3]):
            np.testing.assert_array_equal(s, s_kept)
        # and neither call's writes reach the cache: a third call is exact
        w = rng.uniform(0.5, 2.0, 36)
        h = dense_matrix(op)
        assert_gram_split(part, *op.gram_block(part, w), h.T @ np.diag(w) @ h)


class TestSimulate:
    def test_tiny_gaussian_noise_reproduces_input(self):
        x = np.linspace(0, 1, 16)
        y = simulate(Identity(4, 4), x, GaussianNoise(1e-18), seed=0)
        np.testing.assert_allclose(y, x, atol=1e-8)

    def test_poisson_zero_rate_gives_zero(self):
        y = simulate(Identity(4, 4), np.zeros(16), PoissonNoise(), seed=1)
        np.testing.assert_array_equal(y, np.zeros(16))

    def test_poisson_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            simulate(Identity(2, 2), np.array([1.0, -0.5, 0.0, 2.0]), PoissonNoise(), seed=0)

    def test_poisson_law_of_large_numbers(self):
        # constant rate 30 over 10^4 pixels: sample mean within 3 sigma
        n = 10_000
        x = np.full(n, 30.0)
        y = simulate(Identity(100, 100), x, PoissonNoise(), seed=7)
        se = np.sqrt(30.0 / n)
        assert abs(y.mean() - 30.0) < 3 * se

    def test_deterministic_given_seed(self):
        x = np.linspace(0, 5, 25)
        a = simulate(Conv2D(5, 5, np.full((3, 3), 1 / 9)), x, GaussianNoise(0.1), seed=11)
        b = simulate(Conv2D(5, 5, np.full((3, 3), 1 / 9)), x, GaussianNoise(0.1), seed=11)
        np.testing.assert_array_equal(a, b)
