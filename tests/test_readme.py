"""The README's CLI examples: every `catbij ...` line of its CLI block runs
with exit 0, and a comment that gives the output is the output."""

import pathlib
import shlex

import pytest

from catbij.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# the comments that spell out what the line prints, lines joined by two spaces
LITERAL = {"(•(••))  ((••)•)", '{"n": 3, "rows": [2, 1]}', "9"}


def cli_lines():
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("catbij ")]


def test_the_cli_block_is_found():
    lines = cli_lines()
    assert len(lines) >= 10
    comments = {line.partition("#")[2].strip() for line in lines}
    assert LITERAL <= comments


@pytest.mark.parametrize("line", cli_lines())
def test_readme_cli_line(line, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # render --out writes here
    command, _, comment = line.partition("#")
    assert main(shlex.split(command)[1:]) == 0
    out = capsys.readouterr().out
    if comment.strip() in LITERAL:
        assert "  ".join(out.splitlines()) == comment.strip()
