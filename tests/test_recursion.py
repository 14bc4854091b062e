"""Recursion in the library is confined to a bounded allow-list.

Every walk over a tree is a loop, so input of any depth is walked.  The
functions that still call themselves recurse only as deep as a bound that
is enforced where input enters, or that the size of the enumeration fixes.
"""

import ast
from pathlib import Path

import catbij

BOUNDED = {
    "core._runs",  # one level per size whose table is not kept, fewer than n
    "verify._gap_insertion",  # one level per size, n <= 9 by --n-max
}


def self_calls(tree, prefix):
    """Qualified names of the functions under tree that call themselves by name."""
    found = set()
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + child.name
            if any(
                isinstance(c, ast.Call) and isinstance(c.func, ast.Name) and c.func.id == child.name
                for c in ast.walk(child)
            ):
                found.add(name)
            found |= self_calls(child, name + ".")
        elif isinstance(child, ast.ClassDef):
            found |= self_calls(child, prefix + child.name + ".")
        else:
            found |= self_calls(child, prefix)
    return found


def test_only_bounded_functions_recurse():
    found = set()
    for path in sorted(Path(catbij.__file__).parent.glob("*.py")):
        found |= self_calls(ast.parse(path.read_text()), path.stem + ".")
    assert found == BOUNDED
