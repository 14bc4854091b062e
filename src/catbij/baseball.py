"""213-avoiding permutations <-> trees by the minimum split.

With y the prefix before the smallest entry and x the suffix after it, the
tree is Node(tree(x), tree(y)); x hangs off the left root axis, y at the far
end of the ceiling.  Read backwards, tree_to_perm is
perm(Node(X, Y)) = (perm(Y) + size(X) + 1) ++ (1,) ++ (perm(X) + 1).
Unrolled, the node whose left subtree ends at leaf m has its preorder rank
at position n - 1 - m; perm_to_tree reads the leaf ends (dyck._ends) off p
and builds the tree from them.

The paper's construction, the wire diagram, is kept as trace_wires, and
verify checks tree_to_perm against it.  A ball over a descending edge is a
baseball (the torsion class) and passes its two wires straight through;
every other ball is a crossball and swaps them.  Wires enter on the
upper-right boundary, labeled 1..n top to bottom, exit on the upper-left,
and make a U-turn one line below the bottom row; the exit labels, top to
bottom, are the permutation.
"""

from .core import (
    BinaryTree,
    InvariantError,
    is_213_avoiding,
    node_spans,
    size,
)
from .dyck import _tree_from_ends
from .torsion import all_balls, tree_to_torsion


BASEBALL = "baseball"
CROSSBALL = "crossball"


def classify_balls(t: BinaryTree) -> dict:
    """Kind of every ball of the triangle; the torsion class are the baseballs."""
    n = size(t)
    base = tree_to_torsion(t).torsion
    return {ball: BASEBALL if ball in base else CROSSBALL for ball in all_balls(n)}


def tree_to_perm(t: BinaryTree) -> tuple:
    """The 213-avoiding permutation of t, by the minimum split."""
    n = size(t)
    perm = [0] * n
    for rank, (_, m, _) in enumerate(node_spans(t), 1):
        perm[n - 1 - m] = rank
    perm = tuple(perm)
    if not is_213_avoiding(perm):
        raise InvariantError(f"the minimum split produced a 213 pattern: {perm}")
    return perm


def trace_wires(t: BinaryTree) -> tuple:
    """Trace all wires through the grid and read the left boundary."""
    n = size(t)
    base = {(x.a, x.b) for x in tree_to_torsion(t).torsion}
    out = [0] * n
    for w in range(1, n + 1):
        if w <= n - 1:
            a, b, port = w, n - 1, "NE"
        else:
            a, b, port = n - 1, n - 1, "SE"  # via the bottom-right U-turn
        while True:
            straight = (a, b) in base
            exit_nw = straight == (port == "NE")
            if exit_nw:
                if a >= 2:
                    a, b, port = a - 1, b, "SE"
                else:
                    slot = n - b
                    break
            else:
                if b - 1 >= a:
                    a, b, port = a, b - 1, "NE"
                elif a >= 2:
                    a, b, port = a - 1, a - 1, "SE"  # U-turn under the bottom row
                else:
                    slot = n
                    break
        out[slot - 1] = w
    return tuple(out)


def perm_to_tree(p) -> BinaryTree:
    """Inverse of tree_to_perm.  Read backwards, entry k of p is the node
    whose left subtree ends at leaf k, and its span ends at leaf l, the index
    of the next smaller entry (n if none); those ends build the tree."""
    p = tuple(p)
    if not is_213_avoiding(p):
        raise InvariantError(f"{p!r} contains a 213 pattern")
    ends = [0] * (len(p) + 1)
    waiting = []  # entries still looking for a later, smaller one; increasing
    for k, v in enumerate(reversed(p)):
        while waiting and waiting[-1] > v:
            waiting.pop()
            ends[k] += 1
        waiting.append(v)
    ends[-1] += len(waiting)
    return _tree_from_ends(ends)
