"""Every public export list names only what its module defines.

A name deleted from a module but left in its ``__all__`` breaks nothing
except ``from <module> import *``, so this checks both directly.
"""

import importlib
import pkgutil

import pytest

import repro


def _modules_with_export_lists():
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith("__main__")
    ]
    return [n for n in names if hasattr(importlib.import_module(n), "__all__")]


@pytest.mark.parametrize("name", _modules_with_export_lists())
def test_export_list_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
