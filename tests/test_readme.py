"""Every ``tsalign`` command shown in the README must parse with today's parser,
and every Python example must run.

The commands are taken from the README's fenced shell blocks, with
backslash continuations joined; they are parsed only, never run, so a
README that names a deleted subcommand or flag fails here.  The fenced
``python`` blocks are executed, each in a fresh namespace.
"""

import re
import shlex
from pathlib import Path

import pytest

from tsalign.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks(languages: str) -> list[str]:
    """The bodies of the README's fenced blocks tagged with one of ``languages``
    (a regex alternation)."""
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```(?:{languages})\n(.*?)^```", text, re.M | re.S)


def readme_commands() -> list[str]:
    commands = []
    for block in readme_blocks("bash|sh|shell"):
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


def test_readme_shows_python():
    assert readme_blocks("python")


@pytest.mark.parametrize("block", readme_blocks("python"), ids=lambda block: block.splitlines()[0])
def test_readme_python_runs(block, capsys):
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out
