"""Catalan object families: types, validators, enumerators, coordinates.

Every family here is counted by the Catalan numbers.  Full binary trees are
the pivot object; the other families (Dyck paths, staircase Young diagrams,
gapped Young diagrams, torsion pairs on interval balls, 213-avoiding
permutations) are converted through them by the sibling modules.

Trees follow the README's drawing and coordinates; every bijection out of a
tree reads its family off one walk, node_spans, made once per tree and kept
on it.  Trees are immutable and share subtrees freely.

Text enumerations are runs (_runs) of UTF-8 bytes, the one spelling: the
CLI writes them, and enumerate_parens and enumerate_dyck decode them.  The
same code joins the tuples of enumerate_young and enumerate_perms213.

The value types here and Shelf, RectangleSplit and TamariPoset are _Records:
slotted fields named by __match_args__, set by an __init__ that makes the
type's checks.  The base behaves as a frozen dataclass: equality and hash
on the field tuple within one class, the Name(field=value, ...) repr,
FrozenInstanceError on assignment, copy and pickle through __init__, and
(_Ordered) ordering for TreeCoordinate and Interval.  They are not
dataclasses, whose import and methods took 18 of the 24 ms of CLI start.
"""

from math import comb
from operator import attrgetter, ge, gt, le, lt

from .errors import AmbientMismatchError, FrozenInstanceError, InvariantError, NotAPermutationError

_set = object.__setattr__  # a record's __init__ sets its fields past __setattr__


class _Record:
    """An immutable value whose fields are its class's __match_args__."""

    __slots__ = ()

    def __init_subclass__(cls):
        names = cls.__match_args__
        if len(names) > 1:
            cls._key = attrgetter(*names)  # the field tuple
        else:
            cls._key = staticmethod(lambda self: tuple(getattr(self, f) for f in names))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__, not setattr
        return self.__class__, self._key(self)

    def _fields(self, *values):
        """Set the fields, in __match_args__ order, to values."""
        for name, value in zip(self.__match_args__, values):
            _set(self, name, value)


def _compare(op):
    def method(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return op(self._key(self), self._key(other))

    return method


class _Ordered(_Record):
    """A record ordered by its field tuple within its class."""

    __slots__ = __match_args__ = ()
    __lt__, __le__, __gt__, __ge__ = map(_compare, (lt, le, gt, ge))


# ---------------------------------------------------------------------------
# Binary trees
# ---------------------------------------------------------------------------

class Leaf(_Record):
    __slots__ = __match_args__ = ()
    size = 0  # a class attribute, not a field

    def __repr__(self):
        return "Leaf"


class Node(_Record):
    """An internal node.  Immutable; its size is stored at construction,
    and its spans and hash are computed on first use and then kept.

    Equality is structural; it and the hash read the kept spans
    (node_spans), made by a loop, so any depth works.  Both are lazy because
    most subtrees are never walked or hashed on their own (enumeration shares
    them), while verify and the lattice compare, hash and map each of their
    trees many times.
    """

    __slots__ = ("left", "right", "size", "_hash", "_spans")
    __match_args__ = ("left", "right")

    def __init__(self, left: "BinaryTree", right: "BinaryTree"):
        # the slot setters bypass __setattr__, which refuses every assignment
        _set_left(self, left)
        _set_right(self, right)
        _set_size(self, left.size + right.size + 1)

    def __repr__(self):
        return f"Node({self.left!r}, {self.right!r})"

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Node:
            return NotImplemented
        return self.size == other.size and node_spans(self) == node_spans(other)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(node_spans(self))
            _set_hash(self, h)
            return h


_set_left = Node.left.__set__
_set_right = Node.right.__set__
_set_size = Node.size.__set__
_set_hash = Node._hash.__set__
_set_spans = Node._spans.__set__

BinaryTree = Leaf | Node

LEAF = Leaf()


def is_leaf(t: BinaryTree) -> bool:
    return isinstance(t, Leaf)


def size(t: BinaryTree) -> int:
    """Number of internal nodes; a tree of size n has n + 1 leaves."""
    return t.size


def to_paren(t: BinaryTree) -> str:
    """Magma notation: a bullet per leaf, (XY) per internal node.

    One stack pass, so a tree of any depth serializes.
    """
    parts = []
    todo = [(t, 0)]  # a subtree and the number of ")" right after it
    while todo:
        x, closes = todo.pop()
        while x.size:
            parts.append("(")
            todo.append((x.right, closes + 1))
            x, closes = x.left, 0
        parts.append("•" + ")" * closes)
    return "".join(parts)


def from_paren(text: str) -> BinaryTree:
    """Parse magma notation.  Whitespace is ignored; '.' and '*' also mean leaf."""
    open_nodes = []  # the children read so far of each unclosed "("
    out = None
    for c in text:
        if c.isspace():
            continue
        if out is not None:
            raise InvariantError("trailing characters after parenthesization")
        if open_nodes and len(open_nodes[-1]) == 2:
            if c != ")":
                raise InvariantError("unbalanced parenthesization")
            node = Node(*open_nodes.pop())
        elif c == "(":
            open_nodes.append([])
            continue
        elif c in ("•", ".", "*"):
            node = LEAF
        else:
            raise InvariantError(f"unexpected character {c!r} in parenthesization")
        if open_nodes:
            open_nodes[-1].append(node)
        else:
            out = node
    if out is None:
        if open_nodes and len(open_nodes[-1]) == 2:
            raise InvariantError("unbalanced parenthesization")
        raise InvariantError("unexpected end of parenthesization")
    return out


def left_comb(n: int) -> BinaryTree:
    t: BinaryTree = LEAF
    for _ in range(n):
        t = Node(t, LEAF)
    return t


def right_comb(n: int) -> BinaryTree:
    t: BinaryTree = LEAF
    for _ in range(n):
        t = Node(LEAF, t)
    return t


def node_spans(t: BinaryTree) -> tuple:
    """(i, m, j) for every internal node of t, in preorder: the node spans
    leaves i..j (numbered 0..size(t) left to right) and its children span
    i..m and m+1..j.  One explicit-stack pass, so any depth is walked.

    The tuple is kept on t, its root, so each tree is walked once.  Two
    threads that walk it at once each set an equal tuple, and either stays.
    """
    try:
        return t._spans
    except AttributeError:  # a Node not yet walked, or the Leaf
        if not t.size:
            return ()
    out = []
    todo = [(t, 0)]  # a subtree and its first leaf
    while todo:
        x, i = todo.pop()
        while x.size:
            m = i + x.left.size
            out.append((i, m, i + x.size))
            if x.right.size:
                todo.append((x.right, m + 1))
            x = x.left
    spans = tuple(out)
    _set_spans(t, spans)
    return spans


def node_coordinates(t: BinaryTree) -> dict:
    """Coordinates of the stretched drawing, keyed by node path.

    Paths are strings over {'L','R'} from the root ('' is the root).  The root
    is (0, 0); a descent toward the left child raises the first coordinate, a
    descent to the right raises the second, and leaf edges are stretched so
    that every leaf lands on level n + 1 (level of (x, y) is x + y + 1).
    """
    n = size(t)
    paths = {(0, n): ""}  # a span not yet placed, and its node's path
    coords = {}
    for i, m, j in node_spans(t):
        path = paths.pop((i, j))
        coords[path] = TreeCoordinate(n - j, i)
        paths[i, m] = path + "L"
        paths[m + 1, j] = path + "R"
    for (i, _), path in paths.items():  # the leaves are left, spanning i..i
        coords[path] = TreeCoordinate(n - i, i)
    return coords


class TreeCoordinate(_Ordered):
    __slots__ = __match_args__ = ("x", "y")

    def __init__(self, x: int, y: int):
        if x < 0 or y < 0:
            raise InvariantError(f"negative tree coordinate ({x}, {y})")
        _set(self, "x", x)
        _set(self, "y", y)

    @property
    def level(self) -> int:
        return self.x + self.y + 1


# ---------------------------------------------------------------------------
# Catalan numbers and enumerators
# ---------------------------------------------------------------------------

def catalan(n: int) -> int:
    """The n-th Catalan number, binom(2n, n) / (n + 1), exact."""
    if n < 0:
        raise InvariantError("catalan is defined for n >= 0")
    return comb(2 * n, n) // (n + 1)


def _size(n: int) -> int:
    if n < 0:
        raise InvariantError(f"size must be >= 0, got {n}")
    return n


def _splits(table, n: int):
    """(i, left, rights) for size n, from table[m] = the objects of size m:
    split sizes (i, n-1-i) with i ascending, then the left part varying
    slowest.  Joining each left with each of its rights is canonical order."""
    for i in range(n):
        rights = table[n - 1 - i]
        for l in table[i]:
            yield i, l, rights


_KEEP = 1 << 15  # objects; a larger table is not kept (_entry, torsion._engine)


class _Rejoined:
    """A table entry too large to keep: each read joins it again, as
    rows(*args), from the smaller sizes.  The text enumerators read its
    root splits instead (_runs)."""

    def __init__(self, rows, *args):
        self.rows, self.args = rows, args

    def __iter__(self):
        return iter(self.rows(*self.args))


def _entry(count: int, rows, *args):
    """The table entry of what rows(*args) yields, for a size whose table
    holds count objects: a tuple up to _KEEP objects, else _Rejoined.  The
    sizes just below the top are the largest tables and the fewest times
    read, so they are the ones re-joined."""
    return tuple(rows(*args)) if count <= _KEEP else _Rejoined(rows, *args)


def _tables(n: int, leaf, rows) -> list:
    """table[m] for 0 <= m <= n: (leaf,) for m = 0, else the _entry of the
    catalan(m) objects that rows(table, m) joins from the smaller sizes."""
    table = [(leaf,)]
    for m in range(1, n + 1):
        table.append(_entry(catalan(m), rows, table, m))
    return table


_TREES = {0: (LEAF,)}  # _TREES[m] is enumerate_trees(m), built once


def enumerate_trees(n: int) -> tuple:
    """All full binary trees with n internal nodes, canonical order.

    Canonical order: split sizes (i, n-1-i) with i ascending, then the left
    subtree varying slowest.  Each size is built by a loop over the stored
    smaller sizes, so subtrees are shared between entries and calls, and is
    stored by one setdefault: threads that build a size at once all get the
    tuple stored first.
    """
    _size(n)
    for m in range(len(_TREES), n + 1):
        _TREES.setdefault(m, tuple(Node(l, r) for _, l, rights in _splits(_TREES, m) for r in rights))
    return _TREES[n]


# A spelling (open, first, after, close) writes a sequence of ints v1, v2,
# ..., vk as open + first(v1) + after(v2) + ... + after(vk) + close.  The
# pieces are all UTF-8 bytes or all tuples.

def _one(v):
    return (v,)


_TUPLES = ((), _one, _one, ())


def _runs(head, entry, tail):
    """Runs (head, middles, tail), in order, of the objects head + x + tail
    for each x of a table entry: those of a run are head + m + tail for each
    m of middles, a kept entry.

    An entry too large to keep, _Rejoined(_joined, splits), is not joined:
    for each split (p, lefts, rights, s) its objects are p + l + r + s, so
    if rights holds one object r the lefts are the middles, between
    head + p and r + s + tail; else each l of lefts heads a run of the
    rights.
    """
    if not isinstance(entry, _Rejoined):
        yield head, entry, tail
        return
    (splits,) = entry.args
    for prefix, lefts, rights, suffix in splits:
        if isinstance(rights, tuple) and len(rights) == 1:
            runs = ((head + prefix, lefts, rights[0] + suffix + tail),)
        else:
            runs = ((head + prefix + l, rights, suffix + tail) for l in lefts)
        for h, middles, t in runs:
            if isinstance(middles, _Rejoined):
                yield from _runs(h, middles, t)
            else:
                yield h, middles, t


def _joined(splits):
    """p + l + r + s for each split (p, lefts, rights, s), each l of lefts
    and each r of rights: a text table entry, one join per object."""
    return (p + l + r + s for p, lefts, rights, s in splits for l in lefts for r in rights)


def _lines(runs):
    """The objects head + m + tail of runs, in order."""
    return (head + m + tail for head, middles, tail in runs for m in middles)


def _parens(n: int, quote: bytes):
    """Runs (see _runs) of to_paren of every tree of enumerate_trees(n), in
    the same order and in UTF-8, each between two quotes."""
    open_, leaf, close = b"(", "•".encode(), b")"
    table = [(leaf,)]
    for m in range(1, n + 1):  # size n is never kept
        splits = [(open_, table[i], table[m - 1 - i], close) for i in range(m)]
        table.append(_entry(catalan(m), _joined, splits) if m < n else _Rejoined(_joined, splits))
    return _runs(quote, table[n], quote)


def enumerate_parens(n: int):
    """to_paren of every tree of enumerate_trees(n), in the same order: the
    UTF-8 lines of the CLI's paren route, decoded, so no tree is built or
    walked."""
    return map(bytes.decode, _lines(_parens(_size(n), b"")))


def _dyck_words(n: int, quote: bytes):
    """Runs (see _runs) of the Dyck words of semilength n, lexicographic
    with U before R, in bytes, each between two quotes.

    Meet in the middle: a word is a ballot prefix of n steps, ending at some
    height h, then n steps that fall from h to 0 without going below it.
    Prefixes are listed in lexicographic order, and each is a run of the
    falls from its height in lexicographic order; no table holds more than
    binom(n, n // 2) words.
    """
    up, right = b"U", b"R"
    heads = [(quote, 0)]  # the ballot prefixes of length m and their heights
    falls = [[quote]]  # falls[h]: the words of length m falling from h to 0
    for _ in range(n):
        heads = [(w + s, h + d) for w, h in heads for s, d in ((up, 1), (right, -1)) if h + d >= 0]
        ups = falls[1:] + [[], []]  # ups[h] = falls[h + 1]
        downs = [[]] + falls  # downs[h] = falls[h - 1]
        falls = [[up + w for w in u] + [right + w for w in d] for u, d in zip(ups, downs)]
    return ((w, falls[h], b"") for w, h in heads)


def enumerate_dyck(n: int) -> list:
    """All Dyck words of semilength n, lexicographic with U before R."""
    return list(map(bytes.decode, _lines(_dyck_words(_size(n), b""))))


def _young_rows(n: int, spell):
    """Runs (see _runs) of the staircase partitions for ambient n in
    lexicographic order, each spelled by spell.

    rest[c] spells, as after-pieces ending in close, every way to go on
    below the rows so far when the next row is at most c: no more rows
    first, then the next row ascending.  The tables are built from the last
    row up to the third; each choice of the first two rows is a run.
    """
    start, first, after, close = spell
    empty, one = start[:0], (close,)
    rest = []
    for i in range(n - 1, 1, -1):  # i rows so far; row i is at most n - 1 - i
        level = [[close]]
        for c in range(1, n - i):
            level.append(level[-1] + [after(c) + s for s in rest[min(c, n - 2 - i)]])
        rest = level
    yield start, one, empty
    for a in range(1, n):
        head = start + first(a)
        yield head, one, empty
        for b in range(1, min(a, n - 2) + 1):
            yield head + after(b), rest[min(b, n - 3)], empty


def enumerate_young(n: int) -> list:
    """All staircase partitions for ambient n, in lexicographic order.

    Rows are weakly decreasing with rows[i] + i + 1 <= n.
    """
    return list(_lines(_young_rows(_size(n), _TUPLES)))


def _perms213(n: int, spell):
    """Runs (see _runs) of the 213-avoiding permutations of 1..n in
    lexicographic order, each spelled by spell.

    First-element split: a permutation that starts with k avoids 213 iff
    every value above k comes before every value below k and both blocks
    avoid 213.  So p = k ++ (B + k) ++ C, with B a 213-avoider of length
    n - k and C one of length k - 1.  Taking k ascending, then B, then C,
    each in lexicographic order, is lexicographic order.  table[s][shift]
    spells the 213-avoiders of length s with every value raised by shift, as
    after-pieces; B is read from table[n - k][k] and C from table[k - 1][0],
    so no value is shifted per object.  At n = 12 lengths 10 and 11 are
    not kept (_entry), and no permutation of those lengths is made (_runs).
    """
    start, first, after, close = spell
    after = [after(v) for v in range(n + 1)]
    empty = start[:0]  # b"" or ()
    table = [((empty,),) * (n + 1)]  # table[0][shift]: the empty permutation

    def splits(s, shift):
        return [(after[k + shift], table[s - k][shift + k], table[k - 1][shift], empty)
                for k in range(1, s + 1)]

    for s in range(1, n):
        count = catalan(s) * (n - s + 1)  # every shift of length s
        table.append([_entry(count, _joined, splits(s, shift)) for shift in range(n - s + 1)])
    top = [(first(k), table[n - k][k], table[k - 1][0], empty) for k in range(1, n + 1)]
    return _runs(start, _Rejoined(_joined, top) if n else table[0][0], close)


def enumerate_perms213(n: int) -> list:
    """All 213-avoiding permutations of 1..n in lexicographic order."""
    return list(_lines(_perms213(_size(n), _TUPLES)))


def _is_int(v) -> bool:
    # bool is a subclass of int, and JSON true and false load as bool
    return isinstance(v, int) and not isinstance(v, bool)


def is_permutation(p) -> bool:
    return sorted(p) == list(range(1, len(p) + 1))


def is_213_avoiding(p) -> bool:
    """True iff no i < j < k has p[j] < p[i] < p[k]; raises
    NotAPermutationError when p is not a permutation of 1..len(p).

    One pass: p avoids 213 exactly when a stack fed 1..n in order can pop p
    from last to first (Knuth, TAOCP 2.2.1: the stack outputs are the
    312-avoiders, and reversal turns 312 into 213).
    """
    if not is_permutation(p):
        raise NotAPermutationError(f"{tuple(p)!r} is not a permutation of 1..{len(p)}")
    stack = []
    fed = 0
    for v in reversed(p):
        while fed < v:
            fed += 1
            stack.append(fed)
        if stack.pop() != v:
            return False
    return True


# ---------------------------------------------------------------------------
# Dyck paths
# ---------------------------------------------------------------------------

class DyckPath(_Record):
    """A staircase walk of n up-steps (U) and n right-steps (R), never below
    the diagonal, stored from (0, 0)."""

    __slots__ = __match_args__ = ("steps",)

    def __init__(self, steps: str):
        ups = downs = 0
        for c in steps:
            if c == "U":
                ups += 1
            elif c == "R":
                downs += 1
                if downs > ups:
                    raise InvariantError(f"path {steps!r} dips below the diagonal")
            else:
                raise InvariantError(f"bad step {c!r}; expected 'U' or 'R'")
        if ups != downs:
            raise InvariantError(f"path {steps!r} has {ups} ups but {downs} rights")
        _set(self, "steps", steps)

    @property
    def semilength(self) -> int:
        return len(self.steps) // 2


# ---------------------------------------------------------------------------
# Young diagrams
# ---------------------------------------------------------------------------

class YoungDiagram(_Record):
    """Weakly decreasing rows inside the staircase for ambient n.

    The staircase bound is rows[i] + (i + 1) <= n for every row, so the
    maximal shape is (n-1, n-2, ..., 1).
    """

    __slots__ = __match_args__ = ("rows", "n")

    def __init__(self, rows: tuple, n: int):
        rows = tuple(rows)
        if n < 0:
            raise InvariantError("ambient must be >= 0")
        prev = None
        for i, r in enumerate(rows):
            if not (type(r) is int or _is_int(r)) or r <= 0:
                raise InvariantError(f"row lengths must be positive integers, got {r!r}")
            if prev is not None and r > prev:
                raise InvariantError(f"rows {rows} are not weakly decreasing")
            if r + i + 1 > n:
                raise InvariantError(
                    f"row {i + 1} of length {r} breaks the staircase bound for ambient {n}"
                )
            prev = r
        _set(self, "rows", rows)
        _set(self, "n", n)

    def conjugate(self) -> tuple:
        """Column lengths, longest first."""
        rows = self.rows
        cols = []
        k = len(rows)  # rows[:k] are the rows longer than c
        for c in range(rows[0] if rows else 0):
            while rows[k - 1] <= c:  # rows are weakly decreasing
                k -= 1
            cols.append(k)
        return tuple(cols)

    def cell_count(self) -> int:
        return sum(self.rows)


def staircase_ok(rows, n: int) -> bool:
    return all(r + i + 1 <= n for i, r in enumerate(rows))


# ---------------------------------------------------------------------------
# Gapped Young diagrams
# ---------------------------------------------------------------------------

class GappedYoungDiagram(_Record):
    """Cells of the tilted diagram before gap elimination.

    Cells live at (row, col) with row >= 1 counted downward from the ceiling
    and col >= 0 rightward; the full triangle satisfies row + col <= n - 1.
    Only those bounds are checked here.  Whether the cells really form a
    bookshelf image (each column one run anchored at the ceiling) is decided
    by push_gaps and the round trips, per the gap rule.
    """

    __slots__ = __match_args__ = ("boxes", "n")

    def __init__(self, boxes: frozenset, n: int):
        cells = set()
        for r, c in boxes:
            if not (type(r) is int and type(c) is int or _is_int(r) and _is_int(c)):
                raise InvariantError(f"cell ({r!r}, {c!r}) is not an integer pair")
            if r < 1 or c < 0 or r + c > n - 1:
                raise InvariantError(
                    f"cell ({r}, {c}) outside the ambient-{n} triangle"
                )
            cells.add((r, c))
        _set(self, "boxes", frozenset(cells))
        _set(self, "n", n)

    def columns_anchored(self) -> bool:
        """True iff every occupied column is one run starting at row 1."""
        cols = {}
        for (r, c) in self.boxes:
            cols.setdefault(c, set()).add(r)
        return all(rs == set(range(1, max(rs) + 1)) for rs in cols.values())

    def cell_count(self) -> int:
        return len(self.boxes)


# ---------------------------------------------------------------------------
# Intervals and torsion pairs
# ---------------------------------------------------------------------------

class Interval(_Ordered):
    """A ball of the triangular structure: the interval [a, b], 1 <= a <= b.

    The hash is computed once, at construction; balls are hashed far more
    often than they are made.  So is _i = b(b - 1)/2 + a - 1, the ball's
    index in b-major order, the same in every ambient: the ball lies in
    ambient n exactly when _i < n(n - 1)/2.  The torsion engine reads a
    ball's tables at _i.
    """

    __slots__ = ("a", "b", "_hash", "_i")
    __match_args__ = ("a", "b")

    def __init__(self, a: int, b: int):
        if not (1 <= a <= b):
            raise InvariantError(f"bad interval [{a}, {b}]")
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "_hash", hash((a, b)))
        _set(self, "_i", b * (b - 1) // 2 + a - 1)

    def __hash__(self):
        return self._hash

    def check_ambient(self, n: int):
        if self.b > n - 1:
            raise AmbientMismatchError(f"[{self.a}, {self.b}] outside ambient {n}")


class TorsionPair(_Record):
    """Torsion class and torsion-free class on the ambient-n ball triangle.

    The two sets are disjoint but in general do not partition the triangle:
    balls above neither edge kind of the corresponding tree belong to neither
    class.  Deserialization checks that generation from the torsion class
    gives the pair back, so both perpendicularity clauses hold.
    """

    __slots__ = __match_args__ = ("torsion", "free", "n")

    def __init__(self, torsion: frozenset, free: frozenset, n: int):
        if n < 0:
            raise InvariantError("ambient must be >= 0")
        torsion, free = frozenset(torsion), frozenset(free)
        for side in (torsion, free):
            for x in side:
                if x.b >= n:
                    x.check_ambient(n)  # raises
        if not torsion.isdisjoint(free):
            raise InvariantError("torsion and torsion-free classes intersect")
        _set(self, "torsion", torsion)
        _set(self, "free", free)
        _set(self, "n", n)
