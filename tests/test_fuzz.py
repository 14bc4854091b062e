"""Fuzzing the document readers and the CLI: every document either works or
fails with a CatbijError, which the CLI reports as exit 1 and an `error:`
line.

Hypothesis runs derandomized, so every run tries the same examples, and its
deadline bounds each example's wall-clock time (1 s; the slowest example
seen takes about 0.12 s).  The explicit examples cover a huge "n", an int
of more digits than json may read, parens and arrays nested 3,000 deep,
bools and huge ints in int slots, and non-BMP text.

Hand-built torsion pairs of ambient 0..20, most of them no pair and those
past 12 out of range, are written exactly when their documents read back.
"""

import contextlib
import io
import json
from datetime import timedelta

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from catbij import (  # noqa: E402
    CatbijError,
    TorsionPair,
    all_balls,
    from_paren,
    serialize,
    tree_to_torsion,
)
from catbij.cli import FAMILIES, main  # noqa: E402

FUZZ = settings(
    derandomize=True, database=None, deadline=timedelta(seconds=1), max_examples=60
)

DEEP_PARENS = '"' + "(" * 3000 + "•" + "•)" * 3000 + '"'
DEEP_ARRAYS = "[" * 3000 + "[]" + ",[]]" * 3000
BIG_DIGITS = "9" * 5000  # past json's default limit of 4,300 digits
HUGE = [10**30, -(10**30), 2**63, int(BIG_DIGITS[:4000])]
EXAMPLES = [
    DEEP_PARENS,
    DEEP_ARRAYS,
    "[" * 3000 + "]" * 3000,
    '"' + "(" * 3000 + '"',
    '{"n": ' + BIG_DIGITS + ', "rows": []}',
    '{"n": 1' + "0" * 30 + ', "torsion": [[1, 1]], "free": []}',
    '{"n": 3, "rows": [true]}',
    '{"n": true, "torsion": [], "free": []}',
    '{"n": 3, "torsion": [[1, true]], "free": [[2, 2]]}',
    "[true, 2, 1]",
    '"U\U0001f600R"',
    '"(\U0001f600\U0001f600)"',
    '{"n": 2, "rows": ["\U0001f600"]}',
]

ints = st.one_of(st.integers(-3, 14), st.booleans(), st.sampled_from(HUGE))
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=8)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=12,
)
balls = st.lists(st.one_of(st.lists(ints, min_size=2, max_size=2), json_values), max_size=12)
shaped = st.one_of(
    st.text(alphabet="()•.", max_size=24),  # paren strings
    st.recursive(st.just([]), lambda inner: st.lists(inner, max_size=3), max_leaves=10),
    st.text(alphabet="UR", max_size=16),
    st.fixed_dictionaries({"n": ints, "rows": st.lists(ints, max_size=8)}),
    st.fixed_dictionaries({"n": ints, "torsion": balls, "free": balls}),
    st.lists(ints, max_size=10),
    json_values,
)
documents = st.one_of(
    st.builds(json.dumps, shaped),
    st.builds(lambda doc: json.dumps(doc, ensure_ascii=False), shaped),
    st.text(max_size=24),
)


def dyck_word(steps):
    """A Dyck word from any booleans: True steps up, False down where the
    path is above the diagonal; closed at the end."""
    word, height = "", 0
    for up in steps:
        up = up or not height
        word += "U" if up else "R"
        height += 1 if up else -1
    return word + "R" * height


def staircase(n, rows):
    """rows sorted down and cut to the staircase rows[i] + i + 1 <= n."""
    rows = [min(r, n - i - 1) for i, r in enumerate(sorted(rows, reverse=True))]
    return {"n": n, "rows": [r for r in rows if r > 0]}


def moved_ball(paren, k):
    """The torsion document of a tree; for k >= 0, with ball k of the two
    classes moved to the other class, which breaks the pair."""
    doc = json.loads(serialize.serialize_torsion(tree_to_torsion(from_paren(paren))))
    both = [("torsion", v) for v in doc["torsion"]] + [("free", v) for v in doc["free"]]
    if k >= 0 and both:
        side, ball = both[k % len(both)]
        doc[side].remove(ball)
        doc["free" if side == "torsion" else "torsion"].append(ball)
    return json.dumps(doc)


parens = st.recursive(
    st.just("•"), lambda inner: st.tuples(inner, inner).map(lambda p: f"({p[0]}{p[1]})"),
    max_leaves=13,
)
# documents that are mostly valid, per family, so that the readers' success
# paths and the writers are reached too
VALID = {
    "tree": st.one_of(
        parens.map(json.dumps),
        st.recursive(st.just([]), lambda inner: st.tuples(inner, inner).map(list),
                     max_leaves=13).map(json.dumps),
    ),
    "dyck": st.lists(st.booleans(), max_size=24).map(dyck_word).map(json.dumps),
    "young": st.builds(staircase, st.integers(0, 13), st.lists(st.integers(0, 13), max_size=12))
    .map(json.dumps),
    "perm213": st.integers(0, 5).flatmap(lambda n: st.permutations(range(1, n + 1)))
    .map(json.dumps),
    "torsion": st.builds(moved_ball, parens, st.integers(-8, 30)),
}
any_document = st.one_of(documents, *VALID.values())
READERS = {
    "tree": (serialize.deserialize_tree, serialize.serialize_tree),
    "dyck": (serialize.deserialize_dyck, serialize.serialize_dyck),
    "young": (serialize.deserialize_young, serialize.serialize_young),
    "perm213": (serialize.deserialize_perm, serialize.serialize_perm),
    "torsion": (serialize.deserialize_torsion, serialize.serialize_torsion),
}


def round_trips_or_refuses(family, text):
    read, write = READERS[family]
    try:
        obj = read(text)
    except CatbijError:
        return
    assert read(write(obj)) == obj


def hand_built_pair(n, sides):
    """The TorsionPair of ambient n with ball i of the triangle in the
    torsion class, the free class or neither, as sides[i] is "t", "f" or "."."""
    balls = sorted(all_balls(n))
    return TorsionPair(*(frozenset(x for x, s in zip(balls, sides) if s == c) for c in "tf"), n)


# ambient 0..20 with a side for every ball (n * n letters, of which the
# n(n - 1)/2 balls read the first)
hand_built_pairs = st.integers(0, 20).flatmap(
    lambda n: st.text("tf.", min_size=n * n, max_size=n * n).map(
        lambda sides: hand_built_pair(n, sides)
    )
)


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def works_or_exits_1(*argv):
    code, out, err = cli(*argv)
    if code == 0:
        assert out and not err
    else:
        assert code == 1 and not out
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("family", READERS)
@FUZZ
@given(data=st.data())
def test_every_reader_round_trips_or_raises_a_catbij_error(family, data):
    round_trips_or_refuses(family, data.draw(st.one_of(documents, VALID[family])))


@FUZZ
@given(pair=hand_built_pairs)
def test_hand_built_pairs_are_written_and_read_back_or_refused(pair):
    # written exactly when its document, spelled here, reads back
    doc = json.dumps({"n": pair.n, **{k: sorted([x.a, x.b] for x in getattr(pair, k))
                                      for k in ("torsion", "free")}})
    try:
        text = serialize.serialize_torsion(pair)
    except CatbijError:
        with pytest.raises(CatbijError):
            serialize.deserialize_torsion(doc)
    else:
        assert text == doc and serialize.deserialize_torsion(text) == pair


@FUZZ
@given(text=any_document, source=st.sampled_from(FAMILIES), target=st.sampled_from(FAMILIES))
def test_every_convert_pair_works_or_exits_1(text, source, target):
    works_or_exits_1("convert", source, target, "--input=" + text)


@FUZZ
@given(
    text=any_document,
    family=st.sampled_from(FAMILIES),
    backend=st.sampled_from(("ascii", "svg", "dot")),
)
def test_every_render_family_and_backend_works_or_exits_1(text, family, backend):
    works_or_exits_1("render", family, "--backend", backend, "--input=" + text)


@pytest.mark.parametrize("text", EXAMPLES, ids=range(len(EXAMPLES)))
def test_the_explicit_examples_work_or_are_refused(text):
    for family in FAMILIES:
        round_trips_or_refuses(family, text)
        works_or_exits_1("convert", family, "tree", "--input=" + text)
        works_or_exits_1("render", family, "--input=" + text)


def test_the_deep_examples_reach_the_readers():
    # not every explicit example is refused as JSON: the deep paren string
    # is a tree, and the nested arrays meet json's recursion limit
    assert serialize.deserialize_tree(DEEP_PARENS).size == 3000
    with pytest.raises(CatbijError, match="not valid JSON"):
        serialize.deserialize_tree(DEEP_ARRAYS)
    with pytest.raises(CatbijError, match="not valid JSON"):
        serialize.deserialize_young('{"n": ' + BIG_DIGITS + ', "rows": []}')
