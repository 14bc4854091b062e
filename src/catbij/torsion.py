"""Ball structures, Hom tests, torsion classes and their tree bijection.

For a tree, a left child spanning leaves i..j contributes the torsion balls
[i+1, j] .. [j, j], a right child spanning i..j the free balls
[i, i] .. [i, j-1], with the spans read off node_spans; balls over neither
edge kind belong to neither class.  Back from a class, its column heights
(_heights) are the tree's column_profile, and the tree, the gapped frame
and the rectangle split are read off them.

Every map works on the ball masks of the per-ambient _Engine and converts
once, at the public boundary; the README's paragraph on `verify` suites
describes the engine's tables and memos.  A ball enters a mask by one read
of a per-ball list at its Interval._i (_to_mask): ball_bit holds its bit,
ball_quot its quotient closure.  torsion_generate and complete_torsion_hu
OR the ball_quot entries of their seed, so the pass that reads the seed
builds the quotient-closed key of their memos.
"""

from functools import lru_cache
from itertools import compress

from .bookshelf import _gapped_from_heights, tree_from_profile
from .core import (
    BinaryTree,
    GappedYoungDiagram,
    Interval,
    InvariantError,
    TorsionPair,
    _KEEP,
    _Record,
    _splits,
    _tables,
    catalan,
    node_spans,
    size,
)


@lru_cache(maxsize=None)
def all_balls(n: int) -> frozenset:
    """Every ball of the ambient-n triangle; (n-1)n/2 of them."""
    if n < 0:
        raise InvariantError("ambient must be >= 0")
    return frozenset(Interval(a, b) for a in range(1, n) for b in range(a, n))


def hom_nonzero(x: Interval, y: Interval, n: int) -> bool:
    x.check_ambient(n)
    y.check_ambient(n)
    return x.a <= y.a <= x.b <= y.b


def perp_right(objs, n: int) -> frozenset:
    """Balls receiving no nonzero Hom from any member of objs."""
    return torsion_generate(objs, n).free


def perp_left(objs, n: int) -> frozenset:
    """Balls sending no nonzero Hom to any member of objs."""
    e = _engine(n)
    return _class_set(e.full & ~_union(_to_mask(objs, n, e.ball_bit), e.hom_to), e)


# ---------------------------------------------------------------------------
# Bitmask engine
# ---------------------------------------------------------------------------

class _Engine(_Record):
    """Per-ambient tables.  Bit i of a mask stands for balls[i], the balls in
    sorted order, so ball [a, b] is bit row[a] + b, with
    row[a] = (a - 1) n - a (a + 1) / 2 for a = 0..n: ball column d + 1 starts
    at bit row[d] + n, and from there on the columns have the layout of
    ambient n - d, labels lowered by d.  ending[b] holds the balls [a, b].

    ball_bit and ball_quot are lists indexed by Interval._i, the ball's
    place in b-major order: ball_bit holds the ball's bit, ball_quot its
    quotient closure, the balls [a', b] with a <= a' <= b.  Their length,
    n(n - 1)/2, is the ambient check of _to_mask.  hom_from, hom_to and
    quot are byte tables for _union.  The memos are kept while kept is
    true; otherwise they are None, and a throwaway {} stands in at each
    call.  sets maps a mask to the frozenset of its balls, one per class.
    pairs and closures are keyed by a seed's quotient closure (n! keys, 720
    at ambient 6): pairs holds its TorsionPair, made of the sets, and
    closures its closure under both of complete_torsion_hu's rules.  splits
    maps a class mask to its RectangleSplit, one per class (catalan(n)
    keys, 132 at ambient 6)."""

    __slots__ = __match_args__ = (
        "balls", "row", "ending", "full", "ball_bit", "ball_quot",
        "hom_from", "hom_to", "quot", "ext", "kept", "sets", "pairs", "closures", "splits",
    )

    __init__ = _Record._fields


@lru_cache(maxsize=None)
def _engine(n: int) -> _Engine:
    balls = tuple(sorted(all_balls(n)))
    m = len(balls)
    row = [(a - 1) * n - a * (a + 1) // 2 for a in range(n + 1)]  # column a holds n - a
    ending = [sum(1 << (row[a] + b) for a in range(1, b + 1)) for b in range(n)]
    hom_from = [0] * m
    hom_to = [0] * m
    for i, x in enumerate(balls):
        for j, y in enumerate(balls):
            if x.a <= y.a <= x.b <= y.b:
                hom_from[i] |= 1 << j
                hom_to[j] |= 1 << i
    # quotient closure: everything reachable by repeated lower-right steps;
    # ball_bit and ball_quot hold each ball's bit and closure at its _i
    quot, ball_bit, ball_quot = [0] * m, [0] * m, [0] * m
    for i, x in enumerate(balls):
        for a in range(x.a, x.b + 1):
            quot[i] |= 1 << (row[a] + x.b)
        ball_bit[x._i], ball_quot[x._i] = 1 << i, quot[i]
    # extension table: (i, j, top, bottom) with bottom == -1 for the virtual
    # ball one line below the bottom row
    ext = []
    for i, x in enumerate(balls):
        for j, y in enumerate(balls):
            if x.a < y.a and x.b < y.b and y.a <= x.b + 1:
                top = row[x.a] + y.b
                bottom = row[y.a] + x.b if y.a <= x.b else -1
                ext.append((1 << i | 1 << j, 1 << top, bottom))
    # the memos (module docstring): at most 2 catalan(n) class sets of up to
    # n(n - 1)/2 balls, and catalan(n) splits of no more balls, kept while
    # that many ball references fit _KEEP
    kept = catalan(n) * n * (n - 1) <= _KEEP
    return _Engine(
        balls, row, ending, (1 << m) - 1, ball_bit, ball_quot,
        _byte_tables(hom_from), _byte_tables(hom_to), _byte_tables(quot), tuple(ext),
        kept, *(({}, {}, {}, {}) if kept else (None,) * 4),
    )


def _byte_tables(values):
    """Entry v of table k is the OR of values[8k + j] over the set bits j of
    v: one table per 8 bits of a mask, for _union."""
    tables = []
    for k in range(0, len(values), 8):
        t = [0]
        for x in values[k:k + 8]:
            t += [v | x for v in t]  # entries with the new bit follow those without
        tables.append(t)
    return tuple(tables)


def _to_mask(objs, n, table):
    """The OR of table[x._i] over the balls x of objs, table being one of
    the engine's per-ball lists; AmbientMismatchError for the first ball
    outside ambient n, whose index is past the table's end."""
    mask, x = 0, None
    try:
        for x in objs:
            mask |= table[x._i]
    except IndexError:
        if x is not None:  # None: objs itself raised, before its first ball
            x.check_ambient(n)  # raises, with the ball in its message
        raise
    return mask


def _to_set(mask, balls):
    """The engine's own Interval objects for the set bits of mask."""
    # the binary digits, least significant first, select from balls
    return frozenset(compress(balls, map("1".__eq__, bin(mask)[:1:-1])))


def _class_set(mask, e):
    """_to_set(mask, e.balls), made once per mask while e.sets is kept."""
    sets = e.sets if e.kept else {}
    got = sets.get(mask)
    if got is None:  # setdefault: of two racing threads, both get the first
        got = sets.setdefault(mask, _to_set(mask, e.balls))
    return got


def _union(mask, tables):
    """OR of the values behind the set bits of mask, read a byte at a time
    from _byte_tables."""
    hit = 0
    for t in tables:
        hit |= t[mask & 255]
        mask >>= 8
    return hit


def _generate_mask(seed_mask, e):
    free = e.full & ~_union(seed_mask, e.hom_from)
    return e.full & ~_union(free, e.hom_to), free


def _is_pair(tors, free, e) -> bool:
    """Whether two masks are a torsion pair: what generation gives back from
    the torsion class, so the free class is its perp and it is perp of that."""
    return _generate_mask(tors, e) == (tors, free)


def torsion_generate(seed, n: int) -> TorsionPair:
    """Smallest torsion pair whose torsion class contains the seed."""
    e = _engine(n)
    # a quotient [a', b] of [a, b] with nonzero Hom to [c, d] has
    # a <= a' <= c <= b <= d, so [a, b] has it too: a seed and its quotient
    # closure have one perp, and the closure keys e.pairs
    closed = _to_mask(seed, n, e.ball_quot)
    pairs = e.pairs if e.kept else {}
    got = pairs.get(closed)
    if got is None:
        tors, free = _generate_mask(closed, e)
        got = pairs.setdefault(closed, TorsionPair(_class_set(tors, e), _class_set(free, e), n))
    return got


def is_torsion_class(objs, n: int) -> bool:
    e = _engine(n)
    mask = _to_mask(objs, n, e.ball_bit)
    return _generate_mask(mask, e)[0] == mask


def _extend(closed, ext):
    """closed with the top of every rectangle ext finds in it."""
    grown = closed
    for pair, top, bottom in ext:
        if grown & pair == pair and not grown & top:
            if bottom < 0 or grown >> bottom & 1:
                grown |= top
    return grown


def _complete_mask(key, e):
    """The closure under both rules of the quotient-closed mask key: quot
    holds each ball's transitive lower-right closure, so the closure depends
    on key alone, and e.closures holds it once per key."""
    closed = key
    memo = e.closures if e.kept else {}
    got = memo.get(key)
    if got is None:
        while (grown := _extend(closed, e.ext)) != closed:  # a pass adding no top ends it
            closed = _union(grown, e.quot)
        got = memo.setdefault(key, closed)
    return got


def complete_torsion_hu(seed, n: int) -> frozenset:
    """Close a seed under lower-right propagation and rectangle extensions.

    Lower-right of [a, b] is [a+1, b].  Two members [a, b] and [c, d] with
    a < c and b < d span a rectangle whose bottom corner [c, b] must already
    be a member, or be the virtual ball one line below the bottom row
    (c == b + 1); rectangles dipping two or more lines below are rejected.
    A valid rectangle contributes its top corner [a, d].
    """
    e = _engine(n)
    return _class_set(_complete_mask(_to_mask(seed, n, e.ball_quot), e), e)


# ---------------------------------------------------------------------------
# Trees <-> torsion classes
# ---------------------------------------------------------------------------

def _tree_masks(t: BinaryTree, e: _Engine):
    """The (tors, free) masks of tree t in e, the engine of its size."""
    row, ending, n = e.row, e.ending, t.size
    tors = free = 0
    for i, m, j in node_spans(t):
        low = row[i] + n  # the left child spans i..m: balls [a, m], a > i
        tors |= ending[m] >> low << low
        # the right child spans m+1..j: balls [m+1, b], b < j, consecutive bits
        free |= ((1 << (j - m - 1)) - 1) << (row[m] + n)
    return tors, free


def tree_to_torsion(t: BinaryTree) -> TorsionPair:
    n = size(t)
    e = _engine(n)
    tors, free = _tree_masks(t, e)
    return TorsionPair(_class_set(tors, e), _class_set(free, e), n)


def _heights(mask, n: int) -> list:
    """Cells over each tilted column: column a - 1 has height n - b, where
    [a, b] is the lowest member of ball column a (0 for an empty column),
    the lowest set bit of the column's n - a bits."""
    heights = [0] * n
    for a in range(1, n):
        low = mask & -mask & (1 << (n - a)) - 1  # [a, a + k] is bit k
        if low:
            heights[a - 1] = n - a + 1 - low.bit_length()
        mask >>= n - a
    return heights


def _class_mask(objs, n: int, e: _Engine):
    """The mask of a torsion class; InvariantError for any other set."""
    mask = _to_mask(objs, n, e.ball_bit)
    if _generate_mask(mask, e)[0] != mask:
        raise InvariantError("input set is not a torsion class")
    return mask


def torsion_to_tree(objs, n: int) -> BinaryTree:
    """The unique size-n tree whose descending edges carry exactly objs.

    The class's column heights are the tree's column_profile, and the tree
    is rebuilt from them through the Dyck path.
    """
    return tree_from_profile(_heights(_class_mask(objs, n, _engine(n)), n))


def _torsion_masks(n: int):
    """(tors, free) of tree_to_torsion(t) for each t of enumerate_trees(n),
    in order, as masks with ball [a, b] at bit (a - 1) * n + (b - 1): the
    bits in order are the balls in sorted order.  n is not checked.

    A tree of size s whose left subtree has size i holds [a, i], a <= i, in
    its torsion class and [i + 1, b], b < s, in its free class, and its right
    subtree's balls with labels raised by i + 1, a shift of (i + 1)(n + 1)
    bits.  One int packs tors | free << n * n, and a raised torsion bit stays
    below n * n, so a tree is left | top[i] | right << shift.
    """
    free_at = n * n

    def rows(table, s):
        top = [
            sum(1 << (a - 1) * n + i - 1 for a in range(1, i + 1))
            | sum(1 << i * n + b - 1 for b in range(i + 1, s)) << free_at
            for i in range(s)
        ]
        for i, l, rights in _splits(table, s):
            head, shift = l | top[i], (i + 1) * (n + 1)
            for r in rights:
                yield head | r << shift

    low = (1 << free_at) - 1
    for p in _tables(n, 0, rows)[n]:
        yield p & low, p >> free_at


def enumerate_torsion(n: int) -> list:
    """All torsion pairs of the ambient-n triangle, in tree-canonical order."""
    at = [None] * (n * n)  # the engine's balls, at their _torsion_masks bits
    for x in _engine(n).balls:
        at[(x.a - 1) * n + x.b - 1] = x
    return [TorsionPair(_to_set(t, at), _to_set(f, at), n) for t, f in _torsion_masks(n)]


def torsion_to_gapped_young(objs, n: int) -> GappedYoungDiagram:
    """Boxes on the lowest member of each ascending column and every ball
    above it; ball [a, b] occupies the tilted cell (n - b, a - 1)."""
    return _gapped_from_heights(_heights(_class_mask(objs, n, _engine(n)), n), n)


# ---------------------------------------------------------------------------
# Recursive rectangle decomposition
# ---------------------------------------------------------------------------

class RectangleSplit(_Record):
    """One step of the recursive rectangle decomposition.

    skipped counts leading ball columns with no member.  The rectangle spans
    columns skipped+1 .. skipped+width, reaching from the simple ball at its
    bottom corner up to the apex column.  left keeps its original labels;
    right is relabeled to its own smaller triangle.
    """

    __slots__ = __match_args__ = ("skipped", "width", "rectangle", "left", "right")

    def __init__(
        self, skipped: int, width: int, rectangle: frozenset, left: frozenset, right: frozenset
    ):
        self._fields(skipped, width, rectangle, left, right)


def decompose_rectangle(objs, n: int) -> RectangleSplit:
    """Split a torsion class around the largest apex rectangle whose bottom
    corner is a member simple ball."""
    e = _engine(n)
    return _split(_class_mask(objs, n, e), n, e)


def _split(mask, n, e):
    """The RectangleSplit of the class mask, made once per class while
    e.splits is kept."""
    splits = e.splits if e.kept else {}
    got = splits.get(mask)
    if got is None:
        got = splits.setdefault(mask, _make_split(mask, n, e))
    return got


def _make_split(mask, n, e):
    if not mask:
        return RectangleSplit(0, 0, frozenset(), frozenset(), frozenset())
    heights = _heights(mask, n)
    row = e.row
    s = next(c for c, h in enumerate(heights) if h)
    fits = [
        k
        for k in range(1, n - s)
        if mask >> (row[s + k] + s + k) & 1 and min(heights[s : s + k]) >= n - s - k
    ]
    k = max(fits, key=lambda k: k * (n - s - k))  # the first with the most boxes
    d = s + k
    rect = 0
    for a in range(s + 1, d + 1):  # ball column a from [a, d] up
        rect |= ((1 << (n - d)) - 1) << (row[a] + d)
    cut = row[d] + n  # ball [d + 1, d + 1]
    left = mask & ~rect & ((1 << cut) - 1)
    return RectangleSplit(
        s, k, _to_set(rect, e.balls), _to_set(left, e.balls),
        _to_set(mask >> cut, _engine(n - d).balls),
    )


def recompose_rectangle(split: RectangleSplit, n: int) -> frozenset:
    """Inverse of decompose_rectangle, through the column heights of the
    pieces; InvariantError when decompose_rectangle does not give the split
    back from the class they rebuild."""
    e = _engine(n)
    shift = split.skipped + split.width
    if not 0 <= shift <= n:
        raise InvariantError("split is not a rectangle decomposition")
    right = _to_mask(split.right, n - shift, _engine(n - shift).ball_bit)
    pieces = _to_mask(split.left | split.rectangle, n, e.ball_bit) | right << (e.row[shift] + n)
    mask = _tree_masks(tree_from_profile(_heights(pieces, n)), e)[0]  # a class: a tree's
    if _split(mask, n, e) != split:
        raise InvariantError("split is not a rectangle decomposition")
    return _class_set(mask, e)
