"""The Tamari lattice on size-n trees.

Covering moves one step up by a single right rotation, (uv)w -> u(vw); the
left comb is the bottom and the right comb the top.  On the Dyck path a
rotation moves one R (Bergeron, Preville-Ratelle): at the node spanning
leaves i..j whose left child spans i..m, m > i, the R that closes the left
child moves from after leaf m to after leaf j (covers_of).  The
whole-lattice routines name each tree by its index in enumerate_trees(n)
and build or walk no tree: each size's cover indices are joined from the
smaller sizes' by the root split (_cover_indices), and hasse names them
for `catbij lattice` and the DOT renderer.  The order is not graded for
n >= 3, so maximal chains are counted by path enumeration over the Hasse
diagram, never by rank.
"""

from itertools import accumulate

from .core import (
    BinaryTree,
    InvariantError,
    _Record,
    _set,
    _size,
    _tables,
    catalan,
    enumerate_parens,
    enumerate_trees,
    node_spans,
    size,
)
from .dyck import _ends, _tree_from_ends
from .torsion import _torsion_masks


def covers_of(t: BinaryTree) -> list:
    """Trees one right rotation above t, in rotation-site order (preorder)."""
    spans = node_spans(t)
    ends = _ends(spans, t.size)
    ups = []
    for i, m, j in spans:
        if m > i:
            ends[m] -= 1
            ends[j] += 1
            ups.append(_tree_from_ends(ends))
            ends[m] += 1
            ends[j] -= 1
    return ups


class TamariPoset(_Record):
    __slots__ = __match_args__ = ("nodes", "covers")

    def __init__(self, nodes: tuple, covers: frozenset):  # covers: (lower, upper) tree pairs
        _set(self, "nodes", nodes)
        _set(self, "covers", covers)

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


def _lattice_size(n: int) -> int:
    if n < 1:
        raise InvariantError("the Tamari lattice needs n >= 1")
    return n


def _cover_indices(n: int):
    """Per tree of enumerate_trees(n), in order, the indices of its covers,
    in rotation-site order as covers_of gives them; n is not checked.

    Node(l, r) is covered by Node(l', r) and Node(l, r') for each cover l'
    of l and r' of r, and, when l = Node(a, b), by the root rotation
    Node(a, Node(b, r)), which comes first.  With l of index il among the
    size-i trees and r of index ir among the size-k trees, Node(l, r) is
    tree off[m][i] + il C(k) + ir of size m = i + k + 1, where off[m][i]
    counts the size-m trees whose left subtree is smaller than i; with
    |a| = p and |b| = q, the root rotation is off[m][p] + ia C(s) +
    off[s][q] + ib C(k) + ir, where s = q + k + 1.  So every cover comes
    before its tree: the right comb is first, the left comb last.  The
    tuples of the sizes below n are kept as core._tables keeps trees; those
    of size n are streamed.
    """
    cat = [catalan(m) for m in range(n + 1)]
    off = [[*accumulate((cat[p] * cat[m - 1 - p] for p in range(m)), initial=0)]
           for m in range(n + 1)]

    def rows(table, m):
        yield from table[m - 1]  # Node(leaf, r) is tree ir, with the covers of r
        for i in range(1, m):
            k = m - 1 - i
            rights, ck = table[k], cat[k]
            lefts = iter(table[i])
            base = here = off[m][i]  # Node(l, r) is base + ck il + ir = here + ir
            for p in range(i):
                q = i - 1 - p
                s = q + k + 1
                for ia in range(cat[p]):
                    # Node(a, Node(b, r)) is rot + ib ck + ir
                    rot = off[m][p] + ia * cat[s] + off[s][q]
                    for _ in range(cat[q]):
                        ls = [base + c * ck for c in next(lefts)]
                        for ir, rs in enumerate(rights):
                            yield (rot + ir, *[c + ir for c in ls], *[here + c for c in rs])
                        rot += ck
                        here += ck

    table = _tables(n - 1, (), rows)
    return rows(table, n) if n else iter(table[0])


def build_lattice(n: int) -> TamariPoset:
    nodes = enumerate_trees(_lattice_size(n))
    covers = frozenset(
        (t, nodes[j]) for t, up in zip(nodes, _cover_indices(n)) for j in up
    )
    return TamariPoset(nodes, covers)


def hasse(n: int) -> tuple:
    """The paren strings of enumerate_trees(n), in order, and the covers as
    sorted (lower, upper) pairs of them; no tree is built."""
    names = list(enumerate_parens(_lattice_size(n)))
    covers = sorted((names[i], names[j]) for i, up in enumerate(_cover_indices(n)) for j in up)
    return names, covers


def _leq_matrix(p: TamariPoset) -> tuple:
    """(order, down): the node indices in a Kahn topological order of the
    covers, and the down-set of order[k] as a mask whose bit h stands for
    order[h], so it fits in k + 1 bits.  InvariantError when a cover names a
    non-node or the covers have a cycle (a self-loop included)."""
    idx = {t: i for i, t in enumerate(p.nodes)}
    nexts = [[] for _ in p.nodes]
    below = [0] * len(p.nodes)  # covers into each node not yet ordered
    for (l, u) in p.covers:
        if l not in idx or u not in idx:
            raise InvariantError("a cover names a tree that is not a node")
        nexts[idx[l]].append(idx[u])
        below[idx[u]] += 1
    order = [i for i, k in enumerate(below) if not k]
    for i in order:  # grows as the loop runs
        for j in nexts[i]:
            below[j] -= 1
            if not below[j]:
                order.append(j)
    if len(order) < len(p.nodes):
        raise InvariantError("the covers have a cycle")
    down = [0] * len(order)  # by node index until the end
    for k, i in enumerate(order):  # every cover into i is already in down[i]
        d = down[i] = down[i] | 1 << k
        for j in nexts[i]:
            down[j] |= d
    return order, [down[i] for i in order]


def is_lattice(p: TamariPoset) -> bool:
    """One node lies above all, and every pair of nodes has a meet.

    A finite poset with a top in which every pair has a meet is a lattice
    (Stanley, EC1, Prop. 3.3.1), so joins need no check.  The top can only
    be the last node of a topological order.  i and j have a meet k exactly
    when the elements below both are the elements below k, so each pair is
    one set lookup.
    """
    down = _leq_matrix(p)[1]
    if down and down[-1] != (1 << len(down)) - 1:
        return False
    downs = set(down)
    return all(downs.issuperset(map(d.__and__, down[:k])) for k, d in enumerate(down))


def count_maximal_chains(n: int) -> int:
    """Bottom-to-top paths in the Hasse diagram, exact.

    Every cover of a tree comes before the tree (_cover_indices), so one
    pass from the top, the right comb at index 0, counts the paths up from
    each tree.  The bottom, the left comb, comes last.
    """
    paths = []
    for up in _cover_indices(_lattice_size(n)):
        paths.append(sum(map(paths.__getitem__, up)) or 1)
    return paths[-1]


def verify_order_reversing(n: int) -> bool:
    """Each cover strictly shrinks the torsion class: its mask is a proper
    subset of the mask below it."""
    tors = [t for t, _ in _torsion_masks(_size(n))]
    return all(
        tors[j] | low == low != tors[j]
        for low, up in zip(tors, _cover_indices(n))
        for j in up
    )
