"""The README's examples: every `catbij ...` line of its CLI block runs with
exit 0, and a comment that gives the output is the output; the Python block
of its library tour runs statement by statement, and a comment that starts
with a Python literal gives the value of its expression."""

import ast
import io
import pathlib
import re
import shlex
import tokenize

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


# a quoted string, a parenthesized tuple, a bool or an int, ending the
# comment or followed by a space, a colon or a comma
LEADING_LITERAL = re.compile(r"('[^']*'|\([^()]*\)|True|False|\d+)(?=[\s:,]|$)")


def tour_statements():
    """(statement, the literal its last line's comment starts with, or None)
    for the statements of the library tour's Python block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    comments = {
        tok.start[0]: tok.string.lstrip("# ")
        for tok in tokenize.generate_tokens(io.StringIO(block).readline)
        if tok.type == tokenize.COMMENT
    }
    for stmt in ast.parse(block).body:
        match = LEADING_LITERAL.match(comments.get(stmt.end_lineno, ""))
        yield stmt, match and ast.literal_eval(match.group(1))


def test_the_library_tour_runs_and_gives_its_commented_values():
    namespace = {}
    compared = []
    for stmt, want in tour_statements():
        if isinstance(stmt, ast.Expr):
            got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            if want is not None:
                assert got == want, ast.unparse(stmt)
                compared.append(want)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert compared == [
        "URUURURR", (2, 1, 1), (3, 4, 1, 2), (3, 4, 1, 2), True, True, True, 9, True
    ]
