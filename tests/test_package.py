import doctest
import os
import subprocess
import sys
from pathlib import Path

import patchep


def test_package_docstring_example_runs():
    result = doctest.testmod(patchep)
    assert result.attempted >= 1
    assert result.failed == 0


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
