"""The tree <-> Young diagram bijection via shelves.

A shelf is a maximal descending branch of the stretched drawing other than
the ceiling (the rightmost root-to-leaf descent).  Each internal node that is
a left child and spans leaves i..j of a size-n tree owns one shelf: row n - j,
columns i..j, length j - i.  Boxes are stacked above every shelf repeatedly
until they hit the ceiling or a shelf above, so the cells over a single shelf
form a rectangle and each occupied column of the tilted frame is one run
anchored at row 1.  Pushing every row of cells flush left kills the gaps and
leaves an ordinary staircase partition.

bookshelf and inverse_bookshelf read that partition off the leaf ends and
back (dyck._ends, dyck._tree_from_ends); column_profile reads the stacked
heights off node_spans.
"""

from itertools import accumulate
from operator import sub

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
from .dyck import _columns_to_dyck, _ends, _tree_from_ends, dyck_to_tree


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
    """Stacked cell height over each of the n tilted columns: the row of the
    lowest shelf over the column.  The shelf of a left child i..m lies on row
    n - m over columns i..m-1; spans nest or are disjoint, and a nested one
    comes later in preorder and lies lower, so the last write wins."""
    n = size(t)
    heights = [0] * n
    for i, m, _ in node_spans(t):
        if m > i:
            heights[i:m] = [n - m] * (m - i)
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
    """Rows, longest first: the nonzero running sums of ends[1:n], reversed
    (on the path, the R's before each U)."""
    n = t.size
    rows = [r for r in accumulate(_ends(node_spans(t), n)[1:n]) if r]
    rows.reverse()
    return YoungDiagram(rows, n)


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
    """The tree whose bookshelf columns are the sorted profile: pushing the
    gaps out sorts the column heights, so the tree is rebuilt through the
    path those columns bound."""
    return dyck_to_tree(_columns_to_dyck(sorted(profile, reverse=True), len(profile)))


def inverse_bookshelf(y: YoungDiagram, n: int) -> BinaryTree:
    """The unique size-n tree with bookshelf(t) == y: bookshelf's running
    sums, padded to n + 1 with zeros in front and n behind, differenced.

    Rebuilding y in ambient n raises InvariantError when n is too small.
    """
    rows = YoungDiagram(y.rows, n).rows
    sums = [0] * (n - len(rows)) + [*reversed(rows), n]
    return _tree_from_ends(map(sub, sums, [0, *sums]))
