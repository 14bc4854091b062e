"""The two classical bijections through Dyck paths.

tree <-> path: label internal nodes L and leaves D, read the stretched
drawing right to left jumping to the top of each descending segment, and draw
the path backwards from (n, n).  Algebraically that reading collapses to a
postfix code: a leaf contributes U, an internal node contributes its children's
codes followed by R, and the path is the code minus its leading U.

path <-> staircase partition: fill the part of the n x n square above the
path; column x of the square gets n - h cells where h is the height of the
(x+1)-th right-step.
"""

from .core import (
    LEAF,
    BinaryTree,
    DyckPath,
    InvariantError,
    Node,
    YoungDiagram,
    is_leaf,
)


def _postfix(t: BinaryTree) -> str:
    out = []
    stack = [(t, False)]
    while stack:
        node, done = stack.pop()
        if is_leaf(node):
            out.append("U")
        elif done:
            out.append("R")
        else:
            stack.append((node, True))
            stack.append((node.right, False))
            stack.append((node.left, False))
    return "".join(out)


def tree_to_dyck(t: BinaryTree) -> DyckPath:
    return DyckPath(_postfix(t)[1:])


def dyck_to_tree(p: DyckPath) -> BinaryTree:
    stack = []
    for c in "U" + p.steps:
        if c == "U":
            stack.append(LEAF)
        else:
            right = stack.pop()
            left = stack.pop()
            stack.append(Node(left, right))
    assert len(stack) == 1
    return stack[0]


def dyck_to_young(p: DyckPath) -> YoungDiagram:
    n = p.semilength
    heights = []
    h = 0
    for c in p.steps:
        if c == "U":
            h += 1
        else:
            heights.append(h)
    cols = [n - h for h in heights]
    rows = []
    for j in range(1, n + 1):
        r = sum(1 for c in cols if c >= j)
        if r == 0:
            break
        rows.append(r)
    return YoungDiagram(tuple(rows), n)


def _columns_to_dyck(cols, n: int) -> DyckPath:
    """The path under columns of these lengths, longest first, in the n x n square."""
    parts = []
    prev = n
    for c in range(n):
        h = cols[c] if c < len(cols) else 0
        parts.append("U" * (prev - h) + "R")
        prev = h
    if prev != 0:
        raise InvariantError(f"columns {tuple(cols)} do not close a path in ambient {n}")
    return DyckPath("".join(parts))


def young_to_dyck(y: YoungDiagram) -> DyckPath:
    return _columns_to_dyck(y.conjugate(), y.n)
