"""JSON documents for every object family.

Schemas:
    tree            "(•(••))" paren string, or nested pair arrays with [] for a leaf
    dyck            "UURR..." step string
    young           {"n": int, "rows": [int, ...]}
    torsion pair    {"n": int, "torsion": [[a, b], ...], "free": [[a, b], ...]}
    permutation     [int, ...]

Malformed documents raise MalformedDocumentError; documents that parse but
break a type invariant raise InvariantError (or a subclass).  serialize and
deserialize are mutually inverse on every valid object.  A torsion document
is read straight into the two ball masks of torsion._engine(n), each ball
checked as it is read; it is a pair exactly when generation gives it back
from its torsion class, compared on those masks.  Ambient 0 has the one
pair with no balls.

Writing skips json.dumps: quoted and int_array write what it writes, and
torsion text has one writer, _torsion_writer(n).  enumeration_lines streams
the documents of a whole enumeration: core's enumerators spell each tree,
Dyck, Young or 213-avoider document as one join of JSON text pieces, and
torsion documents come from that writer on the masks of the trees' split
tables, so no object is built, checked or formatted per line.  The CLI
takes every family to n <= 12 and passes that bound to deserialize_torsion.
"""

import json
from functools import lru_cache
from itertools import starmap

from . import torsion
from .core import (
    LEAF,
    BinaryTree,
    DyckPath,
    Interval,
    InvariantError,
    Node,
    TorsionPair,
    YoungDiagram,
    _dyck_words,
    _is_int,
    _parens,
    _perms213,
    _young_rows,
    from_paren,
    is_213_avoiding,
    to_paren,
)
from .errors import MalformedDocumentError


def _load(text):
    try:
        return json.loads(text)
    # ValueError: a JSONDecodeError, or an int of more digits than
    # sys.get_int_max_str_digits() allows
    except (ValueError, TypeError, RecursionError) as exc:
        raise MalformedDocumentError(f"not valid JSON: {exc}") from exc


def quoted(text: str) -> str:
    """JSON text of a string with nothing to escape, such as a paren string
    or a Dyck word: what json.dumps(text, ensure_ascii=False) writes."""
    return '"' + text + '"'


def int_array(seq) -> str:
    """JSON text of a sequence of ints (not bools): what
    json.dumps(list(seq)) writes."""
    return repr(list(seq))


# -- trees ------------------------------------------------------------------

def serialize_tree(t: BinaryTree) -> str:
    return quoted(to_paren(t))


def _tree_from_lists(doc):
    out = []
    todo = [(doc, False)]  # True: both children of this node are on out
    while todo:
        item, joined = todo.pop()
        if joined:
            out[-2:] = [Node(*out[-2:])]
        elif item == [] or item is None:
            out.append(LEAF)
        elif isinstance(item, list) and len(item) == 2:
            todo += [(item, True), (item[1], False), (item[0], False)]
        else:
            raise MalformedDocumentError(f"bad tree node {item!r}; expected [] or [left, right]")
    return out[0]


def deserialize_tree(text: str) -> BinaryTree:
    doc = _load(text)
    if isinstance(doc, str):
        return from_paren(doc)
    if isinstance(doc, list) or doc is None:
        return _tree_from_lists(doc)
    raise MalformedDocumentError(f"tree document must be a string or array, got {doc!r}")


# -- Dyck paths -------------------------------------------------------------

def serialize_dyck(p: DyckPath) -> str:
    return quoted(p.steps)


def deserialize_dyck(text: str) -> DyckPath:
    doc = _load(text)
    if not isinstance(doc, str):
        raise MalformedDocumentError(f"dyck document must be a string, got {doc!r}")
    return DyckPath(doc)


# -- Young diagrams ---------------------------------------------------------

def serialize_young(y: YoungDiagram) -> str:
    return f'{{"n": {y.n}, "rows": {int_array(y.rows)}}}'


def deserialize_young(text: str) -> YoungDiagram:
    doc = _load(text)
    if (
        not isinstance(doc, dict)
        or not _is_int(doc.get("n"))
        or not isinstance(doc.get("rows"), list)
        or not all(map(_is_int, doc["rows"]))
    ):
        raise MalformedDocumentError(f'young document must be {{"n", "rows"}}, got {doc!r}')
    return YoungDiagram(tuple(doc["rows"]), doc["n"])


# -- torsion pairs ----------------------------------------------------------

def serialize_torsion(tp: TorsionPair) -> str:
    n = tp.n
    tors, free = (sum(1 << ((x.a - 1) * n + x.b - 1) for x in c) for c in (tp.torsion, tp.free))
    return _torsion_writer(n)(tors, free)


def deserialize_torsion(text: str, max_n=None) -> TorsionPair:
    """With max_n given, a larger ambient is refused before its ball tables
    (n**4 in size, and cached) are built."""
    doc = _load(text)
    if (
        not isinstance(doc, dict)
        or not _is_int(doc.get("n"))
        or not isinstance(doc.get("torsion"), list)
        or not isinstance(doc.get("free"), list)
    ):
        raise MalformedDocumentError(
            f'torsion document must be {{"n", "torsion", "free"}}, got {doc!r}'
        )
    n = doc["n"]
    if max_n is not None and n > max_n:
        raise InvariantError(f"n={n} out of bounds for torsion (0..{max_n})")
    # each class as the set of its balls' bits in torsion._engine(n), where
    # ball [a, b] is bit row[a] + b = (a - 1) n - a (a + 1) / 2 + b; the
    # masks wait for the ball count, so a huge n with few balls stays cheap
    outside = None
    classes = []
    for balls in doc["torsion"], doc["free"]:
        bits = set()
        for v in balls:
            if not (isinstance(v, list) and len(v) == 2 and type(v[0]) is type(v[1]) is int):
                raise MalformedDocumentError(f"bad interval {v!r}; expected [a, b]")
            a, b = v
            if not 1 <= a <= b:
                raise InvariantError(f"bad interval [{a}, {b}]")
            if b >= n and outside is None:
                outside = Interval(a, b)
            bits.add((a - 1) * n - a * (a + 1) // 2 + b)
        classes.append(bits)
    if outside is not None:
        outside.check_ambient(n)  # raises, naming the first such ball
    tors, free = classes
    if tors & free:
        raise InvariantError("torsion and torsion-free classes intersect")
    # Each non-root node of a pair's tree puts at least one ball in a class,
    # so fewer than n - 1 balls are no pair; checked first, this also keeps a
    # short document from building the engine tables of a huge ambient.
    if len(tors) + len(free) < n - 1:
        raise InvariantError(f"document is not a torsion pair (too few balls for ambient {n})")
    e = torsion._engine(n)
    tors, free = (sum(1 << k for k in bits) for bits in classes)
    # a pair is what generation gives back from its torsion class: the free
    # class is tors-perp and the torsion class is perp of that
    if torsion._generate_mask(tors, e) != (tors, free):
        raise InvariantError("document is not a torsion pair (perpendicularity fails)")
    return TorsionPair(torsion._to_set(tors, e.balls), torsion._to_set(free, e.balls), n)


# -- permutations -----------------------------------------------------------

def serialize_perm(p) -> str:
    return int_array(p)


def deserialize_perm(text: str) -> tuple:
    doc = _load(text)
    if not (isinstance(doc, list) and all(map(_is_int, doc))):
        raise MalformedDocumentError(f"permutation document must be [int, ...], got {doc!r}")
    p = tuple(doc)
    if not is_213_avoiding(p):
        raise InvariantError(f"{p!r} contains a 213 pattern")
    return p


# -- enumeration lines ------------------------------------------------------

def _after(v: int) -> str:
    return ", " + str(v)


@lru_cache(maxsize=None)
def _torsion_writer(n: int):
    """The serialize_torsion text of an ambient-n pair from its (tors, free)
    masks with ball [a, b] at bit (a - 1) * n + (b - 1), read a byte at a
    time: spelled[k][v] is the ", [a, b]" pieces of the balls set in the
    value v of byte k.  The bits in order are the balls in sorted order."""
    width = (n * n + 7) // 8
    # the bits of no ball stay clear
    pieces = [f", [{k // n + 1}, {k % n + 1}]" for k in range(8 * width)]
    spelled = []
    for k in range(0, len(pieces), 8):
        byte = [""]
        for piece in pieces[k : k + 8]:  # byte[v + 2**j] = byte[v] + piece j
            byte += [s + piece for s in byte]
        spelled.append(byte)
    get = list.__getitem__

    def write(tors, free):
        t = "".join(map(get, spelled, tors.to_bytes(width, "little")))
        f = "".join(map(get, spelled, free.to_bytes(width, "little")))
        return f'{{"n": {n}, "torsion": [{t[2:]}], "free": [{f[2:]}]}}'

    return write


def enumeration_lines(family: str, n: int):
    """For every object of family at size n, in enumeration order, the
    document its serialize_* writes; n is not checked."""
    if family == "tree":
        return _parens(n, '"')
    if family == "dyck":
        return _dyck_words(n, '"')
    if family == "young":
        return _young_rows(n, (f'{{"n": {n}, "rows": [', str, _after, "]}"))
    if family == "perm213":
        return _perms213(n, ("[", str, _after, "]"))
    if family == "torsion":
        return starmap(_torsion_writer(n), torsion._torsion_masks(n))
    raise ValueError(f"unknown family {family!r}")
