"""The README against the program: every ``fcontact`` command in its ``sh``
blocks parses and names a catalog key, and its check table is ``cli.CHECKS``."""

import re
import shlex
from pathlib import Path

import pytest

from fcontact import catalog_get
from fcontact.cli import CHECKS, _parser

README = Path(__file__).resolve().parent.parent / "README.md"
COMMANDS = [
    line.strip()
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    for line in block.splitlines()
    if line.strip().startswith("fcontact ")
]


def test_readme_has_commands():
    assert len(COMMANDS) >= 5


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_parses(command):
    args = _parser().parse_args(shlex.split(command)[1:])
    if hasattr(args, "manifold_key"):
        assert catalog_get(args.manifold_key).key == args.manifold_key


def test_readme_check_table_is_the_check_table():
    table = re.search(r"^\| check \| gates exit \| tolerance \|\n\|(?: --- \|)+\n((?:\|.*\n)+)", README.read_text(), re.M)
    assert table, "no check table in the README"
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in table[1].splitlines()]
    assert rows == [
        [f"`{row.name}`", "yes" if row.gating else "no (diagnostic)", "fit" if row.fit_tol else "identity"]
        for row in CHECKS
    ]
