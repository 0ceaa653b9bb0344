"""README drift: the module table names only what the modules define, and the flag
table lists exactly the flags each subcommand reads."""

import importlib
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


@pytest.mark.parametrize("module, contents", _module_table())
def test_module_table_names_exist(module, contents):
    # a backticked span that starts with an identifier names an attribute
    # (a call such as `gegenbauer3(n, x)` names gegenbauer3)
    mod = importlib.import_module(module)
    spans = re.findall(r"`([^`]*)`", contents)
    names = [m.group() for span in spans if (m := re.match(r"[A-Za-z_]\w*", span))]
    missing = [n for n in names if not hasattr(mod, n)]
    assert not missing, f"{module} has no {missing}"


def test_flag_table_matches_commands():
    # each row's backticked --flags, in order, are the flags build_parser registers
    # for that subcommand besides --format and --out
    section = README.read_text(encoding="utf-8").split("| subcommand | flags |", 1)[1]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", section.split("\n\n", 1)[0], re.M)
    table = {name: tuple(re.findall(r"`(--[\w-]+)`", flags)) for name, flags in rows}
    assert table == {name: flags for name, (_, flags) in cli._COMMANDS.items()}
