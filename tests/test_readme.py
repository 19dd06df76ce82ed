"""Every ``fcontact`` command in the README's ``sh`` blocks parses and names a catalog key."""

import re
import shlex
from pathlib import Path

import pytest

from fcontact import catalog_get
from fcontact.cli import _parser

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
