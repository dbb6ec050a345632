import numpy as np
import pytest

from patchep.phantoms import extract_patches, make_phantom


def windows_by_loop(image, patch_size, stride):
    h, w = image.shape
    return np.array([image[i:i + patch_size, j:j + patch_size].ravel()
                     for i in range(0, h - patch_size + 1, stride)
                     for j in range(0, w - patch_size + 1, stride)])


@pytest.mark.parametrize("width, height, patch_size, stride",
                         [(16, 16, 4, 1), (17, 11, 4, 3), (9, 9, 9, 1), (12, 10, 1, 2)])
@pytest.mark.parametrize("zero_mean", [True, False])
def test_extract_patches_equals_window_loop(width, height, patch_size, stride, zero_mean):
    image = make_phantom(width, height, seed=2)
    expected = windows_by_loop(image, patch_size, stride)
    if zero_mean:
        expected = expected - expected.mean(axis=1, keepdims=True)
    patches = extract_patches(image, patch_size, stride, zero_mean)
    np.testing.assert_array_equal(patches, expected)
    assert patches.flags.writeable and not np.shares_memory(patches, image)
