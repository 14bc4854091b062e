"""The Tamari lattice on size-n trees.

Covering moves one step up by a single right rotation, (uv)w -> u(vw); the
left comb is the bottom and the right comb the top.  On the Dyck path a
rotation moves one R (Bergeron, Preville-Ratelle): at the node spanning
leaves i..j whose left child spans i..m, m > i, the R that closes the left
child moves from after leaf m to after leaf j (ends[m] -= 1, ends[j] += 1 in
the counts of dyck._ends).  The order is not graded for n >= 3, so maximal
chains are counted by path enumeration over the Hasse diagram, never by rank.
"""

from typing import NamedTuple

from .core import BinaryTree, InvariantError, _Record, _set, enumerate_trees, node_spans, size
from .dyck import _ends, _from_ends, dyck_to_tree
from .torsion import _engine, _tree_masks


def _rotations(t: BinaryTree):
    """The ends of t, and the ends of each tree one right rotation above t,
    in rotation-site order (preorder)."""
    spans = node_spans(t)
    ends = _ends(spans, t.size)
    ups = []
    for i, m, j in spans:
        if m > i:
            ends[m] -= 1
            ends[j] += 1
            ups.append(tuple(ends))
            ends[m] += 1
            ends[j] -= 1
    return tuple(ends), ups


def covers_of(t: BinaryTree) -> list:
    """Trees one right rotation above t, in rotation-site order."""
    return [dyck_to_tree(_from_ends(e)) for e in _rotations(t)[1]]


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


def _trees(n: int) -> tuple:
    if n < 1:
        raise InvariantError("the Tamari lattice needs n >= 1")
    return enumerate_trees(n)


def _cover_indices(nodes):
    """Per tree of nodes = enumerate_trees(n), in order, the indices of its
    covers.  In that order every cover of a tree comes before the tree (see
    count_maximal_chains), so one pass keys each tree by its ends and finds
    its covers' moved ends among those already keyed; no tree is built.
    """
    idx = {}
    for k, t in enumerate(nodes):
        ends, ups = _rotations(t)
        yield [idx[e] for e in ups]
        idx[ends] = k


def build_lattice(n: int) -> TamariPoset:
    nodes = _trees(n)
    covers = frozenset(
        (t, nodes[j]) for t, up in zip(nodes, _cover_indices(nodes)) for j in up
    )
    return TamariPoset(nodes, covers)


class _Closure(NamedTuple):
    up: list  # bit j set in up[i] iff nodes[i] <= nodes[j]
    down: list  # bit j set in down[i] iff nodes[j] <= nodes[i]


def _leq_matrix(p: TamariPoset) -> _Closure:
    """Up- and down-sets as masks, filled along a Kahn topological order of
    the covers; InvariantError when a cover names a non-node or the covers
    have a cycle (a self-loop included)."""
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
    up = [1 << i for i in range(len(p.nodes))]
    down = up[:]
    for i in reversed(order):
        for j in nexts[i]:
            up[i] |= up[j]
    for i in order:
        for j in nexts[i]:
            down[j] |= down[i]
    return _Closure(up, down)


def is_lattice(p: TamariPoset) -> bool:
    """Every pair of nodes has a join and a meet.

    i and j have a join k exactly when the elements above both are the
    elements above k, and a meet k exactly when the elements below both are
    the elements below k; so each pair is two set lookups.
    """
    up, down = _leq_matrix(p)
    ups, downs = set(up), set(down)
    for i, (ui, di) in enumerate(zip(up, down)):
        for uj, dj in zip(up[i + 1 :], down[i + 1 :]):
            if ui & uj not in ups or di & dj not in downs:
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
    """Each cover strictly shrinks the torsion class: its mask is a proper
    subset of the mask below it."""
    nodes = enumerate_trees(n)
    e = _engine(n)
    tors = [_tree_masks(t, e)[0] for t in nodes]
    return all(
        tors[j] | low == low != tors[j]
        for low, up in zip(tors, _cover_indices(nodes))
        for j in up
    )
