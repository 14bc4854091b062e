"""JSON documents for every object family.

Schemas:
    tree            "(•(••))" paren string, or nested pair arrays with [] for a leaf
    dyck            "UURR..." step string
    young           {"n": int, "rows": [int, ...]}
    torsion pair    {"n": int in 0..MAX_N, "torsion": [[a, b], ...], "free": [[a, b], ...]}
    permutation     [int, ...]

Malformed documents raise MalformedDocumentError; documents that parse but
break a type invariant raise InvariantError (or a subclass).  serialize and
deserialize are mutually inverse on every valid object.  MAX_N = 12 bounds n
in every family; the CLI enforces it on every document and enumeration, and
both torsion directions here refuse an ambient outside 0..MAX_N before its
ball or text tables are built.  A torsion document is read straight into the
two ball masks of torsion._engine(n), each ball checked as it is read, and
serialize_torsion writes from those masks; both refuse a non-pair by
torsion._is_pair.  Through ambient 8 that test runs once per known pair:
the reader hands out the engine's interned pair (torsion._intern) and tests
only masks it does not know as a pair, and the writer skips it for the
interned pair itself.  Ambient 0 has the one pair with no balls.

Writing skips json.dumps: quoted and int_array write what it writes, and
torsion text has one writer, _torsion_writer(n).  enumeration_runs streams a
whole enumeration as runs of UTF-8 JSON pieces: core's enumerators spell the
tree, Dyck, Young and 213-avoider documents, and a torsion run is 256
documents from that writer on the masks of the trees' split tables, so no
object is built, checked or formatted per line.
"""

import json
from functools import lru_cache
from itertools import islice, starmap

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
    _lines,
    _parens,
    _perms213,
    _young_rows,
    from_paren,
    is_213_avoiding,
    to_paren,
)
from .errors import MalformedDocumentError

MAX_N = 12  # the bound on n of every family


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


def check_n(n: int, family: str) -> int:
    """n, refused outside 0..MAX_N, the documented range of every family."""
    if not 0 <= n <= MAX_N:
        raise InvariantError(f"n={n} out of bounds for {family} (0..{MAX_N})")
    return n


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
        elif item == []:
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
    if isinstance(doc, list):
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
    n = check_n(tp.n, "torsion")  # before the tables of n are built
    masks = torsion._pair_masks(tp, n, torsion._engine(n))
    if masks is None:
        raise InvariantError("not a torsion pair (perpendicularity fails)")
    return _torsion_writer(n, True)(*masks)


def deserialize_torsion(text: str) -> TorsionPair:
    """The pair of a document; an n outside 0..MAX_N is refused right
    after the document's shape is checked."""
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
    n = check_n(doc["n"], "torsion")  # before the ball tables of n are built
    e = torsion._engine(n)
    # each class as the mask of its balls in e, ball [a, b] at bit row[a] + b
    outside = None
    classes = []
    for balls in doc["torsion"], doc["free"]:
        mask = 0
        for v in balls:
            if not (isinstance(v, list) and len(v) == 2 and type(v[0]) is type(v[1]) is int):
                raise MalformedDocumentError(f"bad interval {v!r}; expected [a, b]")
            a, b = v
            if not 1 <= a <= b:
                raise InvariantError(f"bad interval [{a}, {b}]")
            if b < n:
                mask |= 1 << (e.row[a] + b)
            elif outside is None:
                outside = Interval(a, b)
        classes.append(mask)
    if outside is not None:
        outside.check_ambient(n)  # raises, naming the first such ball
    tors, free = classes
    if tors & free:
        raise InvariantError("torsion and torsion-free classes intersect")
    # each non-root node of a pair's tree puts at least one ball in a class
    if tors.bit_count() + free.bit_count() < n - 1:
        raise InvariantError(f"document is not a torsion pair (too few balls for ambient {n})")
    pair = torsion._intern(tors, free, e, n)
    if pair is None:
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

@lru_cache(maxsize=None)
def _torsion_writer(n: int, engine: bool = False):
    """The serialize_torsion text of an ambient-n pair from its (tors, free)
    masks with ball [a, b] at bit (a - 1) * n + (b - 1), or at its bit in
    torsion._engine(n) if engine is true, read a byte at a time:
    spelled[k][v] is the ", [a, b]" pieces of the balls set in the value v
    of byte k.  The bits in order are the balls in sorted order."""
    if engine:
        labels = [(x.a, x.b) for x in torsion._engine(n).balls]
    else:  # the bits of no ball stay clear
        labels = [(k // n + 1, k % n + 1) for k in range(n * n)]
    width = (len(labels) + 7) // 8
    pieces = [f", [{a}, {b}]" for a, b in labels]
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


def _spell(start, close):
    """The spelling (see core) of an int array between start and close."""
    return start.encode(), lambda v: b"%d" % v, lambda v: b", %d" % v, close.encode()


def _torsion_runs(n):
    """Runs (core._runs) of the torsion documents of ambient n, 256 a run."""
    docs = starmap(_torsion_writer(n), torsion._torsion_masks(n))
    while block := list(map(str.encode, islice(docs, 256))):
        yield b"", block, b""


_RUNS = {  # family: the runs (core._runs) of its documents at size n
    "tree": lambda n: _parens(n, b'"'),
    "dyck": lambda n: _dyck_words(n, b'"'),
    "young": lambda n: _young_rows(n, _spell(f'{{"n": {n}, "rows": [', "]}")),
    "perm213": lambda n: _perms213(n, _spell("[", "]")),
    "torsion": _torsion_runs,
}


def enumeration_runs(family: str, n: int):
    """The documents of enumeration_lines(family, n) as runs (head,
    middles, tail) of UTF-8 bytes: each is head + m + tail for each m of
    middles (core._runs); n is not checked."""
    if family not in _RUNS:
        raise InvariantError(f"unknown family {family!r}")
    return _RUNS[family](n)


def enumeration_lines(family: str, n: int):
    """For every object of family at size n, in enumeration order, the
    document its serialize_* writes; n is not checked."""
    return map(bytes.decode, _lines(enumeration_runs(family, n)))
