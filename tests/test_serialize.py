"""JSON round trips and error reporting for every family."""

import json
import random
import tracemalloc
from itertools import combinations

import pytest

from catbij import (
    AmbientMismatchError,
    DyckPath,
    Interval,
    InvariantError,
    LEAF,
    MalformedDocumentError,
    Node,
    NotAPermutationError,
    TorsionPair,
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
from catbij.cli import main
from catbij.serialize import (
    deserialize_dyck,
    deserialize_perm,
    deserialize_torsion,
    deserialize_tree,
    deserialize_young,
    enumeration_lines,
    enumeration_runs,
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
    # [] is the one leaf spelling; null is no tree document
    for text in "null", "[null, []]", "[[], [[], null]]":
        with pytest.raises(MalformedDocumentError):
            deserialize_tree(text)


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
# the reader checks: shape, the range of n, each ball's shape and order, the
# ambient (first offending ball), overlap, the ball count, then
# perpendicularity
SHAPE = 'torsion document must be {"n", "torsion", "free"}, got '
TOO_FEW = "document is not a torsion pair (too few balls for ambient 5)"
OUT = "n=%d out of bounds for torsion (0..12)"
FAULTY_TORSION = [
    ("nope", MalformedDocumentError,
     "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("[]", MalformedDocumentError, SHAPE + "[]"),
    ('{"n": 4, "torsion": [[1, 2]]}', MalformedDocumentError,
     SHAPE + "{'n': 4, 'torsion': [[1, 2]]}"),
    ('{"n": true, "torsion": [], "free": []}', MalformedDocumentError,
     SHAPE + "{'n': True, 'torsion': [], 'free': []}"),
    ('{"n": 4, "torsion": [[1]], "free": []}', MalformedDocumentError,
     "bad interval [1]; expected [a, b]"),
    ('{"n": 4, "torsion": [], "free": [[1, 2, 3]]}', MalformedDocumentError,
     "bad interval [1, 2, 3]; expected [a, b]"),
    ('{"n": 4, "torsion": [[true, 1]], "free": []}', MalformedDocumentError,
     "bad interval [True, 1]; expected [a, b]"),
    ('{"n": 4, "torsion": [[1.0, 2]], "free": []}', MalformedDocumentError,
     "bad interval [1.0, 2]; expected [a, b]"),
    ('{"n": 4, "torsion": ["x"], "free": []}', MalformedDocumentError,
     "bad interval 'x'; expected [a, b]"),
    ('{"n": 6, "torsion": [[5, 2]], "free": []}', InvariantError, "bad interval [5, 2]"),
    ('{"n": 6, "torsion": [[0, 1]], "free": []}', InvariantError, "bad interval [0, 1]"),
    ('{"n": 4, "torsion": [[3, 2]], "free": [[1]]}', InvariantError,
     "bad interval [3, 2]"),
    ('{"n": 4, "torsion": [[1, 9]], "free": [[3, 2]]}', InvariantError,
     "bad interval [3, 2]"),
    ('{"n": 4, "torsion": [[1, 1], [1, 4]], "free": []}', AmbientMismatchError,
     "[1, 4] outside ambient 4"),
    ('{"n": -1, "torsion": [[1, 1]], "free": []}', InvariantError, OUT % -1),
    ('{"n": 3, "torsion": [[1, 1]], "free": [[1, 1]]}', InvariantError,
     "torsion and torsion-free classes intersect"),
    ('{"n": 40, "torsion": [[2, 3]], "free": [[2, 3]]}', InvariantError, OUT % 40),
    ('{"n": 5, "torsion": [[1, 1]], "free": []}', InvariantError, TOO_FEW),
    ('{"n": 5, "torsion": [[1, 1], [1, 1], [1, 1]], "free": [[2, 2]]}', InvariantError,
     TOO_FEW),
    ('{"n": 4, "torsion": [[1, 2]], "free": [[1, 1], [3, 3]]}', InvariantError,
     "document is not a torsion pair (perpendicularity fails)"),
    ('{"n": -1, "torsion": [], "free": []}', InvariantError, OUT % -1),
    ('{"n": 13, "torsion": [], "free": []}', InvariantError, OUT % 13),
    ('{"n": 13, "torsion": [[1, 1]], "free": [[2, 12]]}', InvariantError, OUT % 13),
    ('{"n": 1000000, "torsion": [[1, 1], [2, 3]], "free": [[2, 2]]}', InvariantError,
     OUT % 10**6),
]


@pytest.mark.parametrize("text, error, message", FAULTY_TORSION)
def test_faulty_torsion_documents_get_their_error(text, error, message):
    with pytest.raises(error) as got:
        deserialize_torsion(text)
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
    # an ambient outside 0..12 is refused before the bitmask tables of that
    # ambient are built, however few balls the document holds
    import catbij.torsion

    def engine(n, real=catbij.torsion._engine):
        if n > 12:
            raise AssertionError(f"engine built for ambient {n}")
        return real(n)

    monkeypatch.setattr(catbij.torsion, "_engine", engine)
    for n in 13, 40, 60, 10**6:
        doc = json.dumps({"n": n, "torsion": [[1, 1]], "free": [[2, n - 1]]})
        with pytest.raises(InvariantError) as got:
            deserialize_torsion(doc)
        assert str(got.value) == OUT % n


def test_pair_outside_the_range_builds_no_writer(monkeypatch):
    import catbij.serialize

    def no_writer(n):
        raise AssertionError(f"writer built for ambient {n}")

    monkeypatch.setattr(catbij.serialize, "_torsion_writer", no_writer)
    for n in 13, 150:
        with pytest.raises(InvariantError) as got:
            serialize_torsion(TorsionPair(frozenset(), frozenset(), n))
        assert str(got.value) == OUT % n


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


def test_serialize_torsion_refuses_a_non_pair():
    # spelled as given, its document is one the reader refuses
    pair = TorsionPair({Interval(1, 2)}, (), 3)
    with pytest.raises(InvariantError, match="not a torsion pair"):
        serialize_torsion(pair)
    with pytest.raises(InvariantError, match="not a torsion pair"):
        deserialize_torsion('{"n": 3, "torsion": [[1, 2]], "free": []}')


def test_enumeration_lines_refuses_an_unknown_family():
    # as enumeration_runs does, which raises the one refusal of both
    for make in enumeration_lines, enumeration_runs:
        with pytest.raises(InvariantError, match="^unknown family 'widget'$"):
            make("widget", 2)


@pytest.mark.parametrize("family", ["tree", "dyck", "young", "perm213", "torsion", "paren"])
def test_rejoined_tables_give_the_kept_lines(monkeypatch, capsysbinary, family):
    # at n <= 8 every table is kept; with a tiny cap the same sizes are
    # re-joined at each read, or split into runs, as the largest are at
    # n = 12; either way the CLI's blocks are the same lines, byte for byte
    def lines(n):
        return list(enumerate_parens(n) if family == "paren" else enumeration_lines(family, n))

    def printed(n):
        argv = ["enumerate", family, "--n", str(n)]
        if family == "paren":
            argv[1:2] = ["tree", "--format", "paren"]
        assert main(argv) == 0
        return capsysbinary.readouterr().out

    kept = [lines(n) for n in range(9)]
    want = ["".join(line + "\n" for line in k).encode() for k in kept]
    assert [printed(n) for n in range(9)] == want
    monkeypatch.setattr(core, "_KEEP", 5)
    assert [lines(n) for n in range(9)] == kept
    assert [printed(n) for n in range(9)] == want


@pytest.mark.parametrize("family", ["tree", "dyck", "young", "perm213", "torsion"])
def test_n12_enumeration_holds_under_4_mb(family):
    # what a generator keeps once its first line or run is out: its tables;
    # a run generator peaks under the same bound over all its runs, as it
    # makes no object of a size whose table is not kept
    for make in enumeration_lines, enumeration_runs:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            items = make(family, 12)
            next(items)
            held = tracemalloc.get_traced_memory()[0] - before
            if make is enumeration_runs:
                for _ in items:
                    pass
                assert tracemalloc.get_traced_memory()[1] - before < 4_000_000
        finally:
            tracemalloc.stop()
        assert held < 4_000_000
