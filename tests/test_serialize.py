"""JSON round trips and error reporting for every family."""

import json
import random
import tracemalloc
from itertools import combinations

import pytest

from catbij import (
    AmbientMismatchError,
    DyckPath,
    InvariantError,
    LEAF,
    MalformedDocumentError,
    Node,
    NotAPermutationError,
    YoungDiagram,
    all_balls,
    enumerate_dyck,
    enumerate_parens,
    enumerate_perms213,
    enumerate_torsion,
    enumerate_trees,
    enumerate_young,
    hom_nonzero,
)
from catbij import core, torsion
from catbij.serialize import (
    deserialize_dyck,
    deserialize_perm,
    deserialize_torsion,
    deserialize_tree,
    deserialize_young,
    enumeration_lines,
    int_array,
    quoted,
    serialize_dyck,
    serialize_perm,
    serialize_torsion,
    serialize_tree,
    serialize_young,
)
from catbij.torsion import tree_to_torsion


def test_formatters_write_what_json_dumps_writes():
    for n in range(0, 9):
        for seq in enumerate_young(n) + enumerate_perms213(n):
            assert int_array(seq) == json.dumps(list(seq))
        for text in enumerate_dyck(n) + list(enumerate_parens(n)):
            assert quoted(text) == json.dumps(text, ensure_ascii=False)


def test_tree_round_trip_and_forms():
    t = Node(LEAF, Node(LEAF, LEAF))
    assert deserialize_tree(serialize_tree(t)) == t
    assert deserialize_tree('"(•(••))"') == t
    assert deserialize_tree("[[], [[], []]]") == t
    assert deserialize_tree("[]") == LEAF
    assert serialize_tree(LEAF) == '"•"'


def test_round_trips_exhaustive():
    for n in range(0, 7):
        for t in enumerate_trees(n):
            assert deserialize_tree(serialize_tree(t)) == t
        for w in enumerate_dyck(n):
            p = DyckPath(w)
            assert deserialize_dyck(serialize_dyck(p)) == p
        for rows in enumerate_young(n):
            y = YoungDiagram(rows, n)
            assert deserialize_young(serialize_young(y)) == y
        for p in enumerate_perms213(n):
            assert deserialize_perm(serialize_perm(p)) == p
    for n in range(1, 7):
        for pair in enumerate_torsion(n):
            assert deserialize_torsion(serialize_torsion(pair)) == pair


def test_malformed_vs_invariant_are_distinct():
    with pytest.raises(MalformedDocumentError):
        deserialize_young("{not json")
    with pytest.raises(MalformedDocumentError):
        deserialize_young('{"n": 3}')
    with pytest.raises(InvariantError):
        deserialize_young('{"n": 3, "rows": [1, 2]}')  # not weakly decreasing


def test_dyck_errors():
    with pytest.raises(MalformedDocumentError):
        deserialize_dyck("[1, 0]")
    with pytest.raises(InvariantError):
        deserialize_dyck('"RRUU"')


def test_tree_errors():
    with pytest.raises(MalformedDocumentError):
        deserialize_tree("[[], [], []]")
    with pytest.raises(InvariantError):
        deserialize_tree('"((••)"')
    with pytest.raises(MalformedDocumentError):
        deserialize_tree("17")


def test_deep_tree_documents_parse_or_fail_cleanly():
    depth = 100_000
    with pytest.raises(MalformedDocumentError):
        deserialize_tree("[" * depth + "[]" + ", []]" * depth)
    doc = '"' + "(" * depth + "•" + "•)" * depth + '"'
    t = deserialize_tree(doc)
    assert t.size == depth
    assert serialize_tree(t) == doc


def test_perm_errors():
    with pytest.raises(NotAPermutationError):
        deserialize_perm("[1, 1]")
    with pytest.raises(InvariantError):
        deserialize_perm("[2, 3, 1, 4, 5]")  # valid permutation, has a 213
    with pytest.raises(MalformedDocumentError):
        deserialize_perm('["a"]')


def test_torsion_document_must_be_a_real_pair():
    # disjoint sets that are not mutually perpendicular must be rejected
    with pytest.raises(InvariantError):
        deserialize_torsion('{"n": 4, "torsion": [[1, 2]], "free": []}')
    with pytest.raises(InvariantError):  # free is perp, but torsion lacks [2, 2]
        deserialize_torsion('{"n": 4, "torsion": [[1, 2]], "free": [[1, 1], [3, 3]]}')
    with pytest.raises(MalformedDocumentError):
        deserialize_torsion('{"n": 4, "torsion": [[1, 2]]}')
    with pytest.raises(MalformedDocumentError, match="bad interval"):
        deserialize_torsion('{"n": 4, "torsion": [[1]], "free": []}')
    with pytest.raises(InvariantError, match="bad interval"):
        deserialize_torsion('{"n": 6, "torsion": [[5, 2]], "free": []}')


def test_torsion_documents_are_accepted_exactly_when_perpendicular():
    # every torsion/free document of ambient <= 4 (2^6 x 2^6 of them at 4),
    # against both perpendicularity clauses checked ball by ball
    for n in range(5):
        balls = sorted(all_balls(n))
        subsets = [
            frozenset(sub) for r in range(len(balls) + 1) for sub in combinations(balls, r)
        ]
        for tors in subsets:
            for free in subsets:
                perp = free == {
                    y for y in balls if not any(hom_nonzero(x, y, n) for x in tors)
                } and tors == {
                    x for x in balls if not any(hom_nonzero(x, y, n) for y in free)
                }
                doc = json.dumps(
                    {
                        "n": n,
                        "torsion": [[x.a, x.b] for x in sorted(tors)],
                        "free": [[y.a, y.b] for y in sorted(free)],
                    }
                )
                try:
                    pair = deserialize_torsion(doc)
                except InvariantError:
                    assert not perp, doc
                else:
                    assert perp, doc
                    assert (pair.torsion, pair.free, pair.n) == (tors, free, n)


# each faulty document with the error it gets and its message, in the order
# the reader checks: shape, each ball's shape and order, the ambient (first
# offending ball), overlap, the ball count, then perpendicularity
SHAPE = 'torsion document must be {"n", "torsion", "free"}, got '
TOO_FEW = "document is not a torsion pair (too few balls for ambient 5)"
FAULTY_TORSION = [
    ("nope", None, MalformedDocumentError,
     "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("[]", None, MalformedDocumentError, SHAPE + "[]"),
    ('{"n": 4, "torsion": [[1, 2]]}', None, MalformedDocumentError,
     SHAPE + "{'n': 4, 'torsion': [[1, 2]]}"),
    ('{"n": true, "torsion": [], "free": []}', None, MalformedDocumentError,
     SHAPE + "{'n': True, 'torsion': [], 'free': []}"),
    ('{"n": 4, "torsion": [[1]], "free": []}', None, MalformedDocumentError,
     "bad interval [1]; expected [a, b]"),
    ('{"n": 4, "torsion": [], "free": [[1, 2, 3]]}', None, MalformedDocumentError,
     "bad interval [1, 2, 3]; expected [a, b]"),
    ('{"n": 4, "torsion": [[true, 1]], "free": []}', None, MalformedDocumentError,
     "bad interval [True, 1]; expected [a, b]"),
    ('{"n": 4, "torsion": [[1.0, 2]], "free": []}', None, MalformedDocumentError,
     "bad interval [1.0, 2]; expected [a, b]"),
    ('{"n": 4, "torsion": ["x"], "free": []}', None, MalformedDocumentError,
     "bad interval 'x'; expected [a, b]"),
    ('{"n": 6, "torsion": [[5, 2]], "free": []}', None, InvariantError, "bad interval [5, 2]"),
    ('{"n": 6, "torsion": [[0, 1]], "free": []}', None, InvariantError, "bad interval [0, 1]"),
    ('{"n": 4, "torsion": [[3, 2]], "free": [[1]]}', None, InvariantError,
     "bad interval [3, 2]"),
    ('{"n": 4, "torsion": [[1, 9]], "free": [[3, 2]]}', None, InvariantError,
     "bad interval [3, 2]"),
    ('{"n": 4, "torsion": [[1, 1], [1, 4]], "free": []}', None, AmbientMismatchError,
     "[1, 4] outside ambient 4"),
    ('{"n": -1, "torsion": [[1, 1]], "free": []}', None, AmbientMismatchError,
     "[1, 1] outside ambient -1"),
    ('{"n": 3, "torsion": [[1, 1]], "free": [[1, 1]]}', None, InvariantError,
     "torsion and torsion-free classes intersect"),
    ('{"n": 40, "torsion": [[2, 3]], "free": [[2, 3]]}', None, InvariantError,
     "torsion and torsion-free classes intersect"),
    ('{"n": 5, "torsion": [[1, 1]], "free": []}', None, InvariantError, TOO_FEW),
    ('{"n": 5, "torsion": [[1, 1], [1, 1], [1, 1]], "free": [[2, 2]]}', None, InvariantError,
     TOO_FEW),
    ('{"n": 4, "torsion": [[1, 2]], "free": [[1, 1], [3, 3]]}', None, InvariantError,
     "document is not a torsion pair (perpendicularity fails)"),
    ('{"n": -1, "torsion": [], "free": []}', None, InvariantError, "ambient must be >= 0"),
    ('{"n": 13, "torsion": [], "free": []}', 12, InvariantError,
     "n=13 out of bounds for torsion (0..12)"),
]


@pytest.mark.parametrize("text, max_n, error, message", FAULTY_TORSION)
def test_faulty_torsion_documents_get_their_error(text, max_n, error, message):
    with pytest.raises(error) as got:
        deserialize_torsion(text, max_n)
    assert type(got.value) is error and str(got.value) == message


def test_the_first_ball_outside_the_ambient_is_named():
    # in document order, torsion before free, whatever the set order
    doc = '{"n": 4, "torsion": [[1, 1], [%s]], "free": [[%s]]}'
    for first, second in [("2, 5", "1, 9"), ("1, 9", "2, 5"), ("4, 4", "1, 4")]:
        with pytest.raises(AmbientMismatchError, match=rf"^\[{first}\] outside ambient 4$"):
            deserialize_torsion(doc % (first, second))


def test_deserialized_balls_are_the_engine_balls():
    for n in range(9):
        balls = torsion._engine(n).balls
        for t in enumerate_trees(n):
            pair = deserialize_torsion(serialize_torsion(tree_to_torsion(t)))
            for x in pair.torsion | pair.free:
                assert balls[balls.index(x)] is x


def test_short_torsion_document_builds_no_engine(monkeypatch):
    # a pair of ambient n has at least n - 1 balls; a shorter document is
    # rejected before the bitmask tables of its ambient are built
    import catbij.torsion

    def no_engine(n):
        raise AssertionError(f"engine built for ambient {n}")

    monkeypatch.setattr(catbij.torsion, "_engine", no_engine)
    with pytest.raises(InvariantError):
        deserialize_torsion('{"n": 40, "torsion": [[1, 1]], "free": [[2, 39]]}')


@pytest.mark.parametrize(
    "deserialize, text",
    [
        (deserialize_young, '{"n": 3, "rows": [true]}'),
        (deserialize_torsion, '{"n": 2, "torsion": [], "free": [[true, true]]}'),
        (deserialize_torsion, '{"n": 2, "torsion": [[true, 1]], "free": []}'),
        (deserialize_perm, "[true]"),
    ],
    ids=["young", "interval", "torsion", "perm"],
)
def test_json_booleans_are_not_integers(deserialize, text):
    # each document is valid with 1 in place of true
    deserialize(text.replace("true", "1"))
    with pytest.raises(MalformedDocumentError):
        deserialize(text)


def test_torsion_lines_at_n10_are_the_serialized_pairs():
    # tree_to_torsion and serialize_torsion are the per-object route, apart
    # from the mask tables the lines are read off
    want = [serialize_torsion(tree_to_torsion(t)) for t in enumerate_trees(10)]
    assert list(enumeration_lines("torsion", 10)) == want


def random_tree(rng, n):
    if n == 0:
        return LEAF
    k = rng.randrange(n)
    return Node(random_tree(rng, k), random_tree(rng, n - 1 - k))


def test_serialize_torsion_writes_what_json_dumps_writes():
    # an oracle apart from the shared writer: json.dumps of the sorted balls
    def dumped(pair):
        return json.dumps(
            {
                "n": pair.n,
                "torsion": sorted([x.a, x.b] for x in pair.torsion),
                "free": sorted([x.a, x.b] for x in pair.free),
            }
        )

    rng = random.Random(14)
    for n in list(range(9)) + [10] * 300 + [12] * 300:
        pairs = enumerate_torsion(n) if n <= 8 else [tree_to_torsion(random_tree(rng, n))]
        for pair in pairs:
            assert serialize_torsion(pair) == dumped(pair)


@pytest.mark.parametrize("family", ["tree", "perm213", "torsion"])
def test_rejoined_tables_give_the_kept_lines(monkeypatch, family):
    # at n <= 8 every table is kept; with a tiny cap the same sizes are
    # re-joined at each read instead, as the largest are at n = 12
    kept = [list(enumeration_lines(family, n)) for n in range(9)]
    monkeypatch.setattr(core, "_KEEP", 5)
    assert [list(enumeration_lines(family, n)) for n in range(9)] == kept


@pytest.mark.parametrize("family", ["tree", "dyck", "young", "perm213", "torsion"])
def test_n12_enumeration_holds_under_4_mb(family):
    # what the generator keeps once its first line is out: its tables
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lines = enumeration_lines(family, 12)
        next(lines)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 4_000_000
