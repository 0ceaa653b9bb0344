"""README drift: the module table names only what the modules define, and the flag
table lists exactly the flags each subcommand reads."""

import dataclasses
import importlib
import inspect
import pathlib
import re

import pytest

from octhls import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _module_table():
    """(module name, contents cell) for each row of README's module table."""
    section = README.read_text(encoding="utf-8").split("## What is inside", 1)[1]
    rows = re.findall(r"^\| `(octhls\.\w+)` \| (.*) \|$", section.split("\n## ", 1)[0], re.M)
    assert rows, "module table not found"
    return rows


def _spans(contents):
    return re.findall(r"`([^`]*)`", contents)


def _resolve(mod, dotted):
    """The object a dotted name in mod's row names, or None for a dataclass field: the
    head is an attribute of mod or an octhls module, each later part an attribute or a field."""
    head, *rest = dotted.split(".")
    obj = getattr(mod, head) if hasattr(mod, head) else importlib.import_module(f"octhls.{head}")
    for part in rest:
        if dataclasses.is_dataclass(obj) and part in {f.name for f in dataclasses.fields(obj)}:
            return None
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("module, contents", _module_table())
def test_module_table_names_exist(module, contents):
    # a backticked span that starts with a dotted identifier names something that
    # exists (a call such as `gegenbauer3(n, x)` names gegenbauer3, and
    # `spectra.margin_table` names margin_table in octhls.spectra)
    mod = importlib.import_module(module)
    names = [m.group() for span in _spans(contents) if (m := re.match(r"[A-Za-z_][\w.]*", span))]
    missing = []
    for name in names:
        try:
            _resolve(mod, name)
        except (AttributeError, ModuleNotFoundError):
            missing.append(name)
    assert not missing, f"{module} has no {missing}"


@pytest.mark.parametrize("module, contents", _module_table())
def test_module_table_calls_list_the_parameters(module, contents):
    # a call written with plain ASCII names, such as `margin_table(alpha, jmax)`, is a
    # signature: the names are the function's parameters in order
    mod = importlib.import_module(module)
    ident = r"[A-Za-z_][A-Za-z0-9_]*"
    calls = [m.groups() for span in _spans(contents)
             if (m := re.fullmatch(rf"({ident}(?:\.{ident})*)\(({ident}(?:, {ident})*)\)", span))]
    wrong = [
        (call, params) for call, params in calls
        if params.split(", ") != list(inspect.signature(_resolve(mod, call)).parameters)
    ]
    assert not wrong, f"{module}: {wrong}"


def test_flag_table_matches_commands():
    # each row's backticked --flags, in order, are the flags build_parser registers
    # for that subcommand besides --format and --out
    section = README.read_text(encoding="utf-8").split("| subcommand | flags |", 1)[1]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", section.split("\n\n", 1)[0], re.M)
    table = {name: tuple(re.findall(r"`(--[\w-]+)`", flags)) for name, flags in rows}
    assert table == {name: flags for name, (_, flags) in cli._COMMANDS.items()}
