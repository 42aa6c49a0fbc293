"""Public API: every exported name exists where it is exported from."""
import importlib
import pkgutil

import pytest

import dcgm

# the command-line driver exports nothing but its entry point
LIBRARY = sorted(m.name for m in pkgutil.iter_modules(dcgm.__path__) if m.name != "cli")


@pytest.mark.parametrize("name", LIBRARY)
def test_all_names_exist(name):
    module = importlib.import_module(f"dcgm.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing
