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
is a pair exactly when generation gives it back from its torsion class,
compared on ball masks (is_torsion_pair); ambient 0 has the one pair with
no balls.

quoted and int_array write what json.dumps writes on the strings and int
sequences of valid objects, without its per-call cost.  enumeration_lines
streams the documents of a whole enumeration: core's enumerators spell each
tree, Dyck, Young or 213-avoider document as one join of JSON text pieces,
and a torsion document joins the pieces of its two ball masks, read a byte
at a time, so no object is built, checked or formatted per line.  The CLI
takes every family to n <= 12 and passes that bound to deserialize_torsion.
"""

import json

from .core import (
    LEAF,
    BinaryTree,
    DyckPath,
    Interval,
    InvariantError,
    Node,
    Spelling,
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
from .torsion import _torsion_masks, is_torsion_pair


def _load(text):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, TypeError, RecursionError) as exc:
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

def _interval_from(doc):
    if not (isinstance(doc, list) and len(doc) == 2 and all(map(_is_int, doc))):
        raise MalformedDocumentError(f"bad interval {doc!r}; expected [a, b]")
    return Interval(doc[0], doc[1])


def serialize_torsion(tp: TorsionPair) -> str:
    return json.dumps(
        {
            "n": tp.n,
            "torsion": sorted([x.a, x.b] for x in tp.torsion),
            "free": sorted([x.a, x.b] for x in tp.free),
        }
    )


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
    tors = frozenset(_interval_from(v) for v in doc["torsion"])
    free = frozenset(_interval_from(v) for v in doc["free"])
    pair = TorsionPair(tors, free, n)
    # Each non-root node of a pair's tree puts at least one ball in a class,
    # so fewer than n - 1 balls are no pair; checked first, this also keeps a
    # short document from building the engine tables of a huge ambient.
    if len(tors) + len(free) < n - 1:
        raise InvariantError(f"document is not a torsion pair (too few balls for ambient {n})")
    # a pair is what generation gives back from its torsion class: the free
    # class is tors-perp and the torsion class is perp of that
    if not is_torsion_pair(tors, free, n):
        raise InvariantError("document is not a torsion pair (perpendicularity fails)")
    return pair


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


def _torsion_lines(n: int):
    """serialize_torsion of every pair of enumerate_torsion(n), in order,
    read off the masks of _torsion_masks a byte at a time: spelled[k][v] is
    the ", [a, b]" pieces of the balls set in the value v of byte k."""
    width = (n * n + 7) // 8
    # ball [a, b] is bit (a - 1) * n + (b - 1); the bits of no ball stay clear
    pieces = [f", [{k // n + 1}, {k % n + 1}]" for k in range(8 * width)]
    spelled = []
    for k in range(0, len(pieces), 8):
        byte = [""]
        for piece in pieces[k : k + 8]:  # byte[v + 2**j] = byte[v] + piece j
            byte += [s + piece for s in byte]
        spelled.append(byte)
    get = list.__getitem__
    for tors, free in _torsion_masks(n):
        t = "".join(map(get, spelled, tors.to_bytes(width, "little")))
        f = "".join(map(get, spelled, free.to_bytes(width, "little")))
        yield f'{{"n": {n}, "torsion": [{t[2:]}], "free": [{f[2:]}]}}'


def enumeration_lines(family: str, n: int):
    """For every object of family at size n, in enumeration order, the
    document its serialize_* writes; n is not checked."""
    if family == "tree":
        return _parens(n, '"')
    if family == "dyck":
        return _dyck_words(n, '"')
    if family == "young":
        return _young_rows(n, Spelling(f'{{"n": {n}, "rows": [', str, _after, "]}"))
    if family == "perm213":
        return _perms213(n, Spelling("[", str, _after, "]"))
    if family == "torsion":
        return _torsion_lines(n)
    raise ValueError(f"unknown family {family!r}")
