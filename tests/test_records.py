"""The value types keep the behaviour of the frozen dataclasses they were."""

import copy
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import catbij
from catbij import (
    LEAF,
    DyckPath,
    GappedYoungDiagram,
    Interval,
    Leaf,
    Node,
    RectangleSplit,
    Shelf,
    TamariPoset,
    TorsionPair,
    TreeCoordinate,
    YoungDiagram,
    all_balls,
)

BALL = Interval(1, 1)

# (type, fields, arguments, arguments of a larger value, repr of the first)
RECORDS = [
    (Leaf, (), (), None, "Leaf"),
    (TreeCoordinate, ("x", "y"), (1, 2), (2, 0), "TreeCoordinate(x=1, y=2)"),
    (DyckPath, ("steps",), ("UURR",), ("URUR",), "DyckPath(steps='UURR')"),
    (YoungDiagram, ("rows", "n"), ((2, 1), 4), ((3,), 4), "YoungDiagram(rows=(2, 1), n=4)"),
    (
        GappedYoungDiagram, ("boxes", "n"), (frozenset({(1, 0)}), 2), (frozenset(), 3),
        "GappedYoungDiagram(boxes=frozenset({(1, 0)}), n=2)",
    ),
    (Interval, ("a", "b"), (1, 2), (2, 2), "Interval(a=1, b=2)"),
    (
        TorsionPair, ("torsion", "free", "n"),
        (frozenset({BALL}), frozenset({Interval(2, 2)}), 3), (frozenset(), frozenset(), 3),
        "TorsionPair(torsion=frozenset({Interval(a=1, b=1)}),"
        " free=frozenset({Interval(a=2, b=2)}), n=3)",
    ),
    (
        Shelf, ("start", "end"), (TreeCoordinate(1, 0), TreeCoordinate(1, 2)),
        (TreeCoordinate(2, 0), TreeCoordinate(2, 1)),
        "Shelf(start=TreeCoordinate(x=1, y=0), end=TreeCoordinate(x=1, y=2))",
    ),
    (
        RectangleSplit, ("skipped", "width", "rectangle", "left", "right"),
        (0, 1, frozenset({BALL}), frozenset(), frozenset()),
        (1, 1, frozenset(), frozenset(), frozenset()),
        "RectangleSplit(skipped=0, width=1, rectangle=frozenset({Interval(a=1, b=1)}),"
        " left=frozenset(), right=frozenset())",
    ),
    (
        TamariPoset, ("nodes", "covers"), ((LEAF,), frozenset()),
        ((Node(LEAF, LEAF),), frozenset()), "TamariPoset(nodes=(Leaf,), covers=frozenset())",
    ),
]
ORDERED = (TreeCoordinate, Interval)


@pytest.mark.parametrize(
    "cls, fields, args, larger, text", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_records_keep_the_dataclass_contract(cls, fields, args, larger, text):
    x = cls(*args)
    assert cls.__match_args__ == fields
    assert tuple(getattr(x, f) for f in fields) == args
    assert repr(x) == text
    # equality and hash are those of the field tuple, within one class
    assert x == cls(*args) == cls(**dict(zip(fields, args)))
    assert hash(x) == hash(cls(*args)) == hash(args)
    assert x != args and x.__eq__(args) is NotImplemented
    other = Interval(1, 2) if cls is TreeCoordinate else TreeCoordinate(1, 2)
    assert x != other and x.__eq__(other) is NotImplemented
    if larger is not None:
        y = cls(*larger)
        assert x != y
        if cls in ORDERED:
            assert x < y and x <= y and y > x and y >= x
            assert not (y < x or y <= x or x > y or x >= y)
            assert x <= cls(*args) and x >= cls(*args) and not (x < x or x > x)
            assert sorted([y, x]) == [x, y]
        else:
            with pytest.raises(TypeError):
                x < y  # noqa: B015
    with pytest.raises(TypeError):
        x < other  # noqa: B015
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert tuple(getattr(x, f) for f in fields) == args
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(twin) is cls and twin == x and hash(twin) == hash(x)
        if cls is Interval:  # with the index the torsion engine reads, [1, 2]'s
            assert twin._i == x._i == 1


def test_records_normalise_their_fields():
    assert YoungDiagram([2, 1], 4).rows == (2, 1)
    assert type(YoungDiagram([2, 1], 4).rows) is tuple
    g = GappedYoungDiagram({(1, 0)}, 2)
    assert type(g.boxes) is frozenset and g == GappedYoungDiagram([(1, 0), (1, 0)], 2)
    pair = TorsionPair([BALL], (), 3)
    assert type(pair.torsion) is frozenset is type(pair.free)
    assert pair == TorsionPair({BALL}, frozenset(), 3)


def test_records_refuse_a_negative_ambient():
    for make in (
        lambda n: YoungDiagram((), n),
        lambda n: TorsionPair(frozenset(), frozenset(), n),
        lambda n: TorsionPair(all_balls(n), frozenset(), n),  # all_balls refuses first
    ):
        with pytest.raises(catbij.InvariantError, match="^ambient must be >= 0$"):
            make(-5)
        assert make(0).n == 0


def test_assignment_raises_frozen_instance_error():
    assert issubclass(catbij.FrozenInstanceError, AttributeError)
    for obj in (LEAF, Node(LEAF, LEAF), Interval(1, 2), DyckPath("UR")):
        with pytest.raises(catbij.FrozenInstanceError, match="^cannot assign to field 'size'$"):
            obj.size = 3
    with pytest.raises(catbij.FrozenInstanceError, match="^cannot delete field 'a'$"):
        del Interval(1, 2).a


def test_importing_the_cli_loads_no_dataclasses():
    # building dataclasses imports inspect and runs generated code at import,
    # which every CLI process would pay for; typing, with what it pulls in,
    # costs 12-18 ms.  -S keeps site, which loads typing itself, out.
    src = pathlib.Path(catbij.__file__).resolve().parent.parent
    code = (
        "import sys, catbij.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-S", "-c", code]
    out = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
