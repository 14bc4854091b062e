"""The two classical bijections through Dyck paths, and the one tree builder.

tree <-> path: label internal nodes L and leaves D, read the stretched
drawing right to left jumping to the top of each descending segment, and draw
the path backwards from (n, n).  Algebraically that reading collapses to a
postfix code: a leaf contributes U, an internal node contributes its children's
codes followed by R, and the path is the code minus its leading U: leaf k
is followed by ends[k] R's, one per node whose span ends there (_ends).
_tree_from_ends runs that code as a stack machine; it builds every tree that
comes from another family (paths, diagrams, column profiles, permutations,
Tamari covers).

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
    node_spans,
)


def _ends(spans, n: int) -> list:
    """Per leaf 0..n of a size-n tree, the number of its node_spans ending there."""
    ends = [0] * (n + 1)
    for _, _, j in spans:
        ends[j] += 1
    return ends


def _from_ends(ends) -> DyckPath:
    """The path whose postfix code has ends[k] R's after the U of leaf k."""
    return DyckPath("".join(["U" + "R" * e for e in ends])[1:])


def _tree_from_ends(ends) -> BinaryTree:
    """The tree whose postfix code has ends[k] R's after the U of leaf k: a
    stack machine in which each R joins the top two trees into a Node."""
    stack = []
    for e in ends:
        right = LEAF  # leaf k, then the Node each of its R's closes
        while e:
            right = Node(stack.pop(), right)
            e -= 1
        stack.append(right)
    assert len(stack) == 1
    return stack[0]


def tree_to_dyck(t: BinaryTree) -> DyckPath:
    return _from_ends(_ends(node_spans(t), t.size))


def dyck_to_tree(p: DyckPath) -> BinaryTree:
    return _tree_from_ends(map(len, p.steps.split("U")))


def dyck_to_young(p: DyckPath) -> YoungDiagram:
    """Row j of the diagram holds the columns of at least j cells, those of
    the right-steps below height n - j + 1: the right-steps before the
    (n - j + 1)-th up-step.  One walk of the path, bottom row first."""
    rows = []
    rights = 0
    for c in p.steps:
        if c == "U":
            if rights:
                rows.append(rights)
        else:
            rights += 1
    return YoungDiagram(tuple(reversed(rows)), p.semilength)


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
