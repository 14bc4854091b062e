"""The tree <-> Young diagram bijection via shelves.

A shelf is a maximal descending branch of the stretched drawing other than
the ceiling (the rightmost root-to-leaf descent).  Each internal node that is
a left child and spans leaves i..j of a size-n tree owns one shelf: row n - j,
columns i..j, length j - i.  Boxes are stacked above every shelf repeatedly
until they hit the ceiling or a shelf above, so the cells over a single shelf
form a rectangle and each occupied column of the tilted frame is one run
anchored at row 1.  Pushing every row of cells flush left kills the gaps and
leaves an ordinary staircase partition.

Production goes through the Dyck path instead of the shelves: bookshelf(t)
is dyck_to_young(tree_to_dyck(t)), and every tree is rebuilt by
dyck_to_tree.  Pushing the gaps out sorts the column heights, so the columns
of bookshelf(t), longest first, are column_profile(t) sorted; a profile
therefore rebuilds its tree through the path those columns bound.  The shelf
construction (shelves, column_profile, bookshelf_gapped, push_gaps) stays
public: verify checks push_gaps(bookshelf_gapped(t)) against bookshelf(t),
and the torsion module's gapped frames against bookshelf_gapped.  The paper's
gap-insertion inverse, a backtracking search over tight rows
(rows[t-1] + t == n), is kept in verify as an oracle for inverse_bookshelf.
"""

from .core import (
    BinaryTree,
    GappedYoungDiagram,
    InvariantError,
    TreeCoordinate,
    YoungDiagram,
    _Record,
    _set,
    node_spans,
    size,
)
from .dyck import _columns_to_dyck, dyck_to_tree, dyck_to_young, tree_to_dyck, young_to_dyck


class Shelf(_Record):
    """A maximal descending branch segment, excluding the ceiling."""

    __slots__ = __match_args__ = ("start", "end")

    def __init__(self, start: TreeCoordinate, end: TreeCoordinate):
        if start.x != end.x or end.y <= start.y:
            raise InvariantError(f"degenerate shelf {start} .. {end}")
        _set(self, "start", start)
        _set(self, "end", end)

    @property
    def row(self) -> int:
        return self.start.x

    @property
    def length(self) -> int:
        return self.end.y - self.start.y


def shelves(t: BinaryTree) -> list:
    """All shelves of t, top to bottom.  At most one shelf per row."""
    n = size(t)
    out = [  # an internal left child spanning i..m
        Shelf(TreeCoordinate(n - m, i), TreeCoordinate(n - m, m))
        for i, m, _ in node_spans(t)
        if m > i
    ]
    return sorted(out, key=lambda s: s.row)


def column_profile(t: BinaryTree) -> list:
    """Stacked cell height over each of the n tilted columns."""
    n = size(t)
    heights = [0] * n
    for s in shelves(t):
        for c in range(s.start.y, s.end.y):
            heights[c] = max(heights[c], s.row)
    return heights


def _gapped_from_heights(heights, n: int) -> GappedYoungDiagram:
    """Column c holds the cells of rows 1 .. heights[c]."""
    cells = frozenset(
        (row, c) for c, h in enumerate(heights) for row in range(1, h + 1)
    )
    return GappedYoungDiagram(cells, n)


def bookshelf_gapped(t: BinaryTree) -> GappedYoungDiagram:
    return _gapped_from_heights(column_profile(t), size(t))


def push_gaps(g: GappedYoungDiagram) -> YoungDiagram:
    """Left-justify every row of cells.  YoungDiagram rejects a result that
    is not a partition."""
    rows = [0] * g.n
    for (row, _) in g.boxes:
        rows[row - 1] += 1
    while rows and rows[-1] == 0:
        rows.pop()
    return YoungDiagram(tuple(rows), g.n)


def bookshelf(t: BinaryTree) -> YoungDiagram:
    return dyck_to_young(tree_to_dyck(t))


def min_tree_size(y: YoungDiagram) -> int:
    """Leaf count of the smallest tree fitting y, by the closed formula.

    k is the multiplicity of the tallest column and equals the last row
    length; the empty diagram degenerates to a single leaf.
    """
    if not y.rows:
        return 1
    lam1 = y.rows[0]
    mult_rows = sum(1 for r in y.rows if r == lam1)
    tallest = len(y.rows)
    mult_cols = y.rows[-1]
    return max(tallest + mult_cols + 1, lam1 + mult_rows + 1)


def tree_from_profile(profile) -> BinaryTree:
    """The tree whose bookshelf columns are the sorted profile."""
    return dyck_to_tree(_columns_to_dyck(sorted(profile, reverse=True), len(profile)))


def inverse_bookshelf(y: YoungDiagram, n: int) -> BinaryTree:
    """The unique size-n tree with bookshelf(t) == y, by the Dyck route.

    Rebuilding y in ambient n raises InvariantError when n is too small.
    """
    return dyck_to_tree(young_to_dyck(YoungDiagram(y.rows, n)))
