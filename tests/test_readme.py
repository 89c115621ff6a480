"""The README's ``cxfilter`` commands parse against the current CLI."""

import re
import shlex
from pathlib import Path

import pytest

from cxfilter.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands() -> list:
    """Every ``cxfilter ...`` line of the README's sh blocks, continuations joined."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        joined = re.sub(r"\\\n\s*", " ", block)
        commands += [
            shlex.split(line, comments=True)
            for line in joined.splitlines()
            if line.startswith("cxfilter ")
        ]
    return commands


def test_readme_lists_every_subcommand():
    assert {argv[1] for argv in _readme_commands()} == {
        "simulate", "separate", "eval", "sweep",
    }


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[1])
def test_readme_command_parses(argv):
    args = build_parser().parse_args(argv[1:])
    assert args.command == argv[1]
