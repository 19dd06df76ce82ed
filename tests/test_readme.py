"""The README against the program: every ``fcontact`` command in its ``sh``
blocks parses and names a catalog key, every ``python`` block runs, its
check table is ``cli.CHECKS``, every block budget it states is
``nullity._BLOCK_ENTRIES``, and its paragraph on the flags of ``check``
names exactly the parser's flags."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from fcontact import catalog_get
from fcontact.cli import CHECKS, _parser
from fcontact.nullity import _BLOCK_ENTRIES
from fcontact.tolerances import FIT_TOL

README = Path(__file__).resolve().parent.parent / "README.md"
COMMANDS = [
    line.strip()
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    for line in block.splitlines()
    if line.strip().startswith("fcontact ")
]
PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def test_readme_has_commands():
    assert len(COMMANDS) >= 5


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_parses(command):
    args = _parser().parse_args(shlex.split(command)[1:])
    if hasattr(args, "manifold_key"):
        assert catalog_get(args.manifold_key).key == args.manifold_key


def test_readme_has_python_blocks():
    assert len(PYTHON_BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(PYTHON_BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_check_table_is_the_check_table():
    table = re.search(r"^\| check \| gates exit \| tolerance \|\n\|(?: --- \|)+\n((?:\|.*\n)+)", README.read_text(), re.M)
    assert table, "no check table in the README"
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in table[1].splitlines()]
    assert rows == [
        [f"`{row.name}`", "yes" if row.gating else "no (diagnostic)", "fit" if row.tolerance == FIT_TOL else "identity"]
        for row in CHECKS
    ]


def test_readme_block_budget_is_the_codes():
    stated = [2 ** int(n) for n in re.findall(r"\b2\^(\d+)", README.read_text())]
    assert stated and all(n == _BLOCK_ENTRIES for n in stated), stated


def test_readme_flag_list_is_the_parsers():
    paragraph = re.search(r"^Flags of `check`.*?(?=\n\n)", README.read_text(), re.M | re.S)
    assert paragraph, "no paragraph on the flags of check in the README"
    check = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)).choices["check"]
    flags = {o for action in check._actions for o in action.option_strings} - {"-h", "--help"}
    assert set(re.findall(r"`(--[a-z-]+)", paragraph[0])) == flags
