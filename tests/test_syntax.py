"""The code parses as Python 3.10, the oldest version pyproject.toml allows.

Best effort: ast.parse with feature_version=(3, 10) refuses syntax that is
new in 3.11, such as `except*`, but not a call into a newer library API.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


def test_the_sources_are_found():
    names = {p.name for p in SOURCES}
    assert {"cli.py", "test_syntax.py", "run.py"} <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_3_11_syntax_is_refused():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
