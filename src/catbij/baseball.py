"""213-avoiding permutations <-> trees via the wire diagram.

The ball triangle of a size-n tree doubles as a routing grid.  A ball sitting
immediately above a descending edge is a baseball and passes its two wires
straight through (upper stays upper); every other ball is a crossball and
swaps them.  Wires enter on the upper-right boundary, labeled 1..n top to
bottom, and exit on the upper-left; one line below the bottom row each wire
makes a U-turn at a virtual ball.  Reading the exit labels top to bottom
yields the permutation.

The permutation-to-tree direction cuts at the minimum: with y the prefix
before the smallest entry and x the suffix after it, the tree is
Node(tree(x), tree(y)); x hangs off the left root axis, y at the far end of
the ceiling.
"""

from .core import (
    LEAF,
    BinaryTree,
    InvariantError,
    Node,
    NotAPermutationError,
    is_213_avoiding,
    is_permutation,
    size,
)
from .torsion import all_balls, tree_to_torsion


BASEBALL = "baseball"
CROSSBALL = "crossball"


def classify_balls(t: BinaryTree) -> dict:
    """Kind of every ball of the triangle, from the drawing geometry.

    The descending line of a node spanning leaves i..j runs along row n - j
    from column i to column j; the ball [a, b] has its lower-left side on the
    unit segment (n - b, a-1) -> (n - b, a), so it is a baseball exactly when
    a descending segment covers that piece.
    """
    from .core import leaf_spans

    n = size(t)
    desc = set()
    for (i, j, kind) in leaf_spans(t):
        if kind == "left":
            desc.update((n - j, y) for y in range(i, j))
    kinds = {}
    for ball in all_balls(n):
        on_desc = (n - ball.b, ball.a - 1) in desc
        kinds[ball] = BASEBALL if on_desc else CROSSBALL
    return kinds


def tree_to_perm(t: BinaryTree) -> tuple:
    """Trace all wires through the grid and read the left boundary."""
    n = size(t)
    if n == 0:
        return ()
    if n == 1:
        return (1,)  # no balls; the single wire goes straight across
    kinds = classify_balls(t)
    base = {(x.a, x.b) for x, k in kinds.items() if k == BASEBALL}
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
    perm = tuple(out)
    if not is_213_avoiding(perm):
        raise InvariantError(f"wire tracing produced a 213 pattern: {perm}")
    return perm


def perm_to_tree(p) -> BinaryTree:
    p = tuple(p)
    if not is_permutation(p):
        raise NotAPermutationError(f"{p!r} is not a permutation of 1..{len(p)}")
    if not is_213_avoiding(p):
        raise InvariantError(f"{p!r} contains a 213 pattern")
    return _build(p)


def _build(p):
    if not p:
        return LEAF
    m = p.index(min(p))
    return Node(_build(p[m + 1 :]), _build(p[:m]))


def torsion_to_perm(objs, n: int) -> tuple:
    from .torsion import torsion_to_tree

    return tree_to_perm(torsion_to_tree(objs, n))


def perm_to_torsion(p) -> frozenset:
    return tree_to_torsion(perm_to_tree(p)).torsion
