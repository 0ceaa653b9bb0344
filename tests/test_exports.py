"""Every ``__all__`` entry of every octhls module names something that module defines, and
every name a module imports is read there."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

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


#: imports kept for their readers elsewhere: spectra.c_d is constants.c_d, as the README says
_REEXPORTS = {"octhls.spectra": {"c_d"}}


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_read(name):
    # an import that its module never reads, nor lists in __all__, is left behind by a
    # deletion or a move
    tree = ast.parse(Path(importlib.util.find_spec(name).origin).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read.update(getattr(importlib.import_module(name), "__all__", ()))
    unread = imported - read - _REEXPORTS.get(name, set())
    assert not unread, f"{name} imports {sorted(unread)} and never reads them"
