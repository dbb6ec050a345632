import numpy as np
import pytest

from patchep.gaussians import diag_stack
from patchep.gmm import Adaptation, PatchGMM, adapt


def random_spd(rng, dim, scale=1.0):
    a = rng.standard_normal((dim, dim))
    return scale * (a @ a.T + dim * np.eye(dim))


def stack_by_group(partition, per_block):
    """Per-block list of arrays -> one stack per group of partition.groups."""
    return [np.stack([per_block[j] for j in group.ids]) for group in partition.groups]


def per_block(partition, stacks):
    """Stacks aligned with partition.groups -> list of blocks by block id."""
    out = [None] * sum(len(group.ids) for group in partition.groups)
    for group, stack in zip(partition.groups, stacks):
        for j, block in zip(group.ids, stack):
            out[j] = block
    return out


def blocks_of(partition):
    """(pixel indices, local-index pattern) of every block, by block id."""
    groups = partition.groups
    return list(zip(per_block(partition, [g.pixels for g in groups]),
                    per_block(partition, [np.broadcast_to(g.local, g.pixels.shape)
                                          for g in groups])))


def diag_rows(partition, values):
    """(J_g, b) rows of the diagonal matrix diag(values), values in pixel
    order: the shape of EP's diagonal factors and joint variances."""
    values = np.asarray(values, dtype=float)
    return [values[g.pixels] for g in partition.groups]


def diag_stacks(partition, values):
    """(J_g, b, b) stacks of the diagonal matrix diag(values), values in
    pixel order."""
    return [diag_stack(rows) for rows in diag_rows(partition, values)]


def pixel_diagonal(partition, stacks):
    """Diagonal of a block-diagonal matrix given as stacks, (J_g, b, b)
    blocks or (J_g, b) rows of the diagonal, in pixel order."""
    out = np.empty(partition.n_pixels)
    for group, stack in zip(partition.groups, stacks):
        out[group.pixels] = stack if stack.ndim == 2 else np.diagonal(stack, axis1=1, axis2=2)
    return out


def small_gmm(rng, n_components, dim, mean_scale=1.0, cov_scale=0.2):
    weights = rng.uniform(0.5, 1.5, size=n_components)
    weights /= weights.sum()
    means = mean_scale * rng.standard_normal((n_components, dim))
    covs = np.stack([random_spd(rng, dim, cov_scale / dim) for _ in range(n_components)])
    return PatchGMM(weights=weights, means=means, covs=covs)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def gmm_2d(rng):
    return small_gmm(rng, 3, 2)


@pytest.fixture
def adapted_2d(gmm_2d):
    return adapt(gmm_2d, Adaptation(offset=0.3, mean_var=0.05, scale=0.8))
