import doctest
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import patchep


def test_package_docstring_example_runs():
    result = doctest.testmod(patchep)
    assert result.attempted >= 1
    assert result.failed == 0


def test_every_exported_name_resolves():
    # the package's __all__ and each module's: a deleted name cannot stay
    # exported
    modules = [patchep] + [importlib.import_module("patchep." + m.name)
                           for m in pkgutil.iter_modules(patchep.__path__)]
    assert len(modules) > 1
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert getattr(module, name, None) is not None, f"{module.__name__}.{name}"


def test_modules_load_neither_scipy_optimize_nor_scipy_linalg():
    # each costs import time and resident memory on every run; the tests
    # themselves import scipy.stats, so the check runs in a fresh interpreter
    script = (
        "import importlib, pkgutil, sys\n"
        "import patchep\n"
        "for m in pkgutil.iter_modules(patchep.__path__):\n"
        "    importlib.import_module('patchep.' + m.name)\n"
        "print(sorted(n for n in sys.modules if n.split('.')[:2] in "
        "(['scipy', 'optimize'], ['scipy', 'linalg'])))\n"
    )
    src = str(Path(patchep.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


def test_chunk_sizes_are_multiples_of_the_blas_row_block():
    # OpenBLAS rounds the rows of a product's last, partial row block
    # differently (4 rows on x86-64 Haswell kernels), so a quadrature or
    # E-step chunk leaves the outputs' bits unchanged only at a multiple of
    # the row block; 16 covers the row blocks of the common x86-64 and ARM
    # kernels, and restores amplify prior-side rounding
    from patchep import ep_poisson, gmm

    assert ep_poisson._CHUNK % 16 == 0
    assert gmm._EM_CHUNK_ROWS % 16 == 0
