import doctest

import patchep


def test_package_docstring_example_runs():
    result = doctest.testmod(patchep)
    assert result.attempted >= 1
    assert result.failed == 0
