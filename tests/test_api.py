"""Public API: every exported name exists where it is exported from."""
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import dcgm

# the command-line driver exports nothing but its entry point
LIBRARY = sorted(m.name for m in pkgutil.iter_modules(dcgm.__path__) if m.name != "cli")


@pytest.mark.parametrize("name", LIBRARY)
def test_all_names_exist(name):
    module = importlib.import_module(f"dcgm.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing


def test_import_loads_no_scipy_solver_module():
    # importing scipy.sparse.linalg alone adds about 10 MB of resident
    # memory; the package solves with its own numpy Krylov driver and factor
    heavy = ("scipy.sparse.linalg", "scipy.linalg", "scipy.sparse.csgraph")
    code = ("import sys, dcgm, dcgm.cli; "
            f"print(','.join(m for m in {heavy!r} if m in sys.modules))")
    src = str(Path(dcgm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == ""
