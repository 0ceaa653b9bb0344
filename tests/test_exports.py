"""Every ``__all__`` entry of every octhls module names something that module defines."""

import importlib
import inspect
import pkgutil

import pytest

import octhls

MODULES = [octhls.__name__] + [
    f"{octhls.__name__}.{m.name}" for m in pkgutil.iter_modules(octhls.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    # a stale entry left behind by a deletion breaks ``from ... import *``
    # and every tool that looks the names up one by one
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    for attr in exported:
        assert attr in vars(mod), f"{name}.__all__ lists {attr!r}, which is not defined"
        obj = vars(mod)[attr]
        if mod is not octhls and (inspect.isfunction(obj) or inspect.isclass(obj)):
            assert obj.__module__ == name, f"{name}.__all__ re-exports {attr!r}"
