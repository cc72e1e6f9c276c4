"""Every ``tsalign`` command shown in the README must parse with today's parser.

The commands are taken from the README's fenced shell blocks, with
backslash continuations joined; they are parsed only, never run, so a
README that names a deleted subcommand or flag fails here.
"""

import re
import shlex
from pathlib import Path

import pytest

from tsalign.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[str]:
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```(?:bash|sh|shell)\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.strip().startswith("tsalign "):
                commands.append(line.strip())
    return commands


def test_readme_shows_commands():
    assert len(readme_commands()) >= 5


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_parses(command):
    argv = shlex.split(command, comments=True)[1:]
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README command does not parse: {command}")
