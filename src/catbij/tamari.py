"""The Tamari lattice on size-n trees.

Covering moves one step up by a single right rotation, rewriting some
(uv)w into u(vw); the left comb sits at the bottom and the right comb at the
top.  The order is not graded for n >= 3, so maximal chains are counted by
path enumeration over the Hasse diagram, never by rank.
"""

from dataclasses import dataclass

from .core import BinaryTree, InvariantError, Node, enumerate_trees, is_leaf, size


def covers_of(t: BinaryTree) -> list:
    """Trees one right rotation above t, in rotation-site order."""
    out = []
    if is_leaf(t):
        return out
    x, y = t.left, t.right
    if x.size:
        out.append(Node(x.left, Node(x.right, y)))
        out.extend(Node(c, y) for c in covers_of(x))
    if y.size:
        out.extend(Node(x, c) for c in covers_of(y))
    return out


@dataclass(frozen=True)
class TamariPoset:
    nodes: tuple
    covers: frozenset  # (lower, upper) tree pairs

    @property
    def n(self) -> int:
        return size(self.nodes[0])

    def bottom(self):
        uppers = {u for (_, u) in self.covers}
        roots = [t for t in self.nodes if t not in uppers]
        if len(roots) != 1:
            raise InvariantError(f"{len(roots)} minimal elements; expected 1")
        return roots[0]

    def top(self):
        lowers = {l for (l, _) in self.covers}
        tops = [t for t in self.nodes if t not in lowers]
        if len(tops) != 1:
            raise InvariantError(f"{len(tops)} maximal elements; expected 1")
        return tops[0]


def _trees(n: int) -> tuple:
    if n < 1:
        raise InvariantError("the Tamari lattice needs n >= 1")
    return enumerate_trees(n)


def _cover_indices(nodes):
    """Per tree of nodes, in order, the indices in nodes of its covers.

    nodes holds every tree of one size, so each cover tree is equal to one of
    them; it is replaced by that index and dropped.
    """
    idx = {t: i for i, t in enumerate(nodes)}
    for t in nodes:
        yield [idx[u] for u in covers_of(t)]


def build_lattice(n: int) -> TamariPoset:
    nodes = _trees(n)
    covers = frozenset(
        (t, nodes[j]) for t, up in zip(nodes, _cover_indices(nodes)) for j in up
    )
    return TamariPoset(nodes, covers)


def _leq_matrix(p: TamariPoset):
    idx = {t: i for i, t in enumerate(p.nodes)}
    m = len(p.nodes)
    up = [[] for _ in range(m)]
    for (l, u) in p.covers:
        up[idx[l]].append(idx[u])
    leq = [0] * m  # bit j set in leq[i] iff nodes[i] <= nodes[j]
    done = [False] * m

    def fill(i):
        if done[i]:
            return
        mask = 1 << i
        for j in up[i]:
            fill(j)
            mask |= leq[j]
        leq[i] = mask
        done[i] = True

    for i in range(m):
        fill(i)
    return idx, leq


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_lattice(p: TamariPoset) -> bool:
    """Every pair of nodes has a unique join and a unique meet.

    The nodes are renumbered along a linear extension read off the order
    itself: an element strictly below another has strictly more elements above
    it.  In that numbering the least of a set of common upper bounds, if it has
    one, is its lowest-numbered member, and the greatest of a set of common
    lower bounds its highest-numbered one, so each bound needs one check.
    """
    _, leq = _leq_matrix(p)
    m = len(leq)
    order = sorted(range(m), key=lambda i: -leq[i].bit_count())
    pos = [0] * m
    for k, i in enumerate(order):
        pos[i] = k
    up = [sum(1 << pos[j] for j in _bits(leq[i])) for i in order]
    down = [0] * m
    for k, mask in enumerate(up):
        for j in _bits(mask):
            down[j] |= 1 << k
    for i in range(m):
        for j in range(i + 1, m):
            above = up[i] & up[j]
            below = down[i] & down[j]
            if not (above and below):
                return False
            if up[(above & -above).bit_length() - 1] & above != above:
                return False
            if down[below.bit_length() - 1] & below != below:
                return False
    return True


def count_maximal_chains(n: int) -> int:
    """Bottom-to-top paths in the Hasse diagram, exact.

    In canonical order every cover of a tree comes before the tree itself (a
    right rotation moves a node from the left subtree at its site to the
    right), so one pass from the top, the right comb at index 0, counts the
    paths up from each tree.  The bottom, the left comb, comes last.
    """
    paths = []
    for up in _cover_indices(_trees(n)):
        paths.append(sum(paths[j] for j in up) if up else 1)
    return paths[-1]


def verify_order_reversing(n: int) -> bool:
    """Each cover strictly shrinks the torsion class."""
    from .torsion import tree_to_torsion

    nodes = enumerate_trees(n)
    tors = [tree_to_torsion(t).torsion for t in nodes]
    return all(
        tors[j] < low for low, up in zip(tors, _cover_indices(nodes)) for j in up
    )
