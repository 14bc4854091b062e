"""Hom calibration, torsion generation and closure, and the tree bijection.

The frozen sets below are worked ball-triangle cases: the labeled n = 6
triangle, a three-step generation example on ten balls, two closure
examples, and a rectangle decomposition example.
"""

import itertools

import pytest

from catbij import (
    AmbientMismatchError,
    Interval,
    InvariantError,
    LEAF,
    Node,
    all_balls,
    catalan,
    complete_torsion_hu,
    decompose_rectangle,
    enumerate_torsion,
    enumerate_trees,
    from_paren,
    hom_nonzero,
    is_torsion_class,
    left_comb,
    perp_left,
    perp_right,
    RectangleSplit,
    recompose_rectangle,
    right_comb,
    torsion_generate,
    torsion_to_gapped_young,
    torsion_to_tree,
    tree_to_torsion,
    bookshelf_gapped,
)
from catbij.torsion import _engine, _union


def I(a, b):
    return Interval(a, b)


def iset(*pairs):
    return frozenset(I(a, b) for (a, b) in pairs)


# labeled balls of the n = 6 triangle
S1, S2, S3, S4, S5 = I(1, 1), I(2, 2), I(3, 3), I(4, 4), I(5, 5)
X1, X2, X3, X4 = I(1, 2), I(2, 3), I(3, 4), I(4, 5)
Y1, Y2, Y3 = I(1, 3), I(2, 4), I(3, 5)
Z1, Z2 = I(1, 4), I(2, 5)
W = I(1, 5)


def test_all_balls_counts():
    assert all_balls(2) == iset((1, 1))
    assert len(all_balls(6)) == 15
    assert len(all_balls(4)) == 6
    for n in range(1, 9):
        assert len(all_balls(n)) == (n - 1) * n // 2


def test_hom_calibration_five_examples():
    n = 6
    assert hom_nonzero(X1, Z2, n)
    for x in all_balls(n):
        assert hom_nonzero(x, x, n)
    assert not hom_nonzero(X1, Y3, n)
    assert not hom_nonzero(Y2, Y1, n)
    assert not hom_nonzero(X2, W, n)


def test_hom_antisymmetric_on_distinct_balls():
    for n in range(1, 9):
        for x in all_balls(n):
            for y in all_balls(n):
                if x != y:
                    assert not (hom_nonzero(x, y, n) and hom_nonzero(y, x, n))


def test_hom_ambient_mismatch():
    with pytest.raises(AmbientMismatchError):
        hom_nonzero(I(1, 5), I(1, 1), 4)


@pytest.mark.parametrize(
    "call",
    [complete_torsion_hu, torsion_generate, perp_right, perp_left, is_torsion_class],
    ids=lambda f: f.__name__,
)
@pytest.mark.parametrize("ball", [(2, 5), (5, 5), (1, 9)], ids=lambda b: f"{b[0]}_{b[1]}")
def test_ball_outside_the_ambient_is_refused(call, ball):
    # after a ball inside the ambient, so the refusal is not of the first
    with pytest.raises(AmbientMismatchError, match=rf"^\[{ball[0]}, {ball[1]}\] outside ambient 5$"):
        call((I(1, 1), I(*ball)), 5)


def test_labeled_torsion_pair_validates():
    tors = frozenset({S1, S3, S5})
    free = frozenset({S2, X2, Y2, Z2, S4, X4})
    assert perp_right(tors, 6) == free
    assert perp_left(free, 6) == tors
    assert is_torsion_class(tors, 6)
    assert torsion_generate(tors, 6).free == free


def test_torsion_class_extremes():
    for n in range(1, 7):
        assert is_torsion_class(frozenset(), n)
        assert is_torsion_class(all_balls(n), n)


def test_quotient_gap_is_not_a_class():
    assert not is_torsion_class(iset((1, 2)), 4)  # missing its quotient [2,2]


def test_generate_empty_seed():
    pair = torsion_generate(frozenset(), 5)
    assert pair.torsion == frozenset()
    assert pair.free == all_balls(5)


def test_generate_three_step_example():
    # seed: a side ball and two corner simples on the ten-ball triangle
    pair = torsion_generate(iset((2, 4), (1, 1), (4, 4)), 5)
    assert pair.free == iset((2, 3), (2, 2), (3, 3))
    assert pair.torsion == iset((1, 4), (2, 4), (3, 4), (1, 1), (4, 4))


def test_complete_small_example():
    # two seeds on the six-ball triangle close to five balls; the corner
    # simple under nothing stays out
    got = complete_torsion_hu(iset((1, 2), (1, 3)), 4)
    assert got == iset((1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
    assert is_torsion_class(got, 4)


def test_complete_extension_example():
    # the ten-ball example where one extension fires and the rectangle two
    # lines below the bottom is rejected
    got = complete_torsion_hu(iset((1, 2), (2, 4)), 5)
    assert got == iset((1, 2), (2, 2), (2, 4), (3, 4), (4, 4), (1, 4))
    assert I(1, 4) in got  # the extension ball
    # the rejected rectangle would have added nothing new anyway; check the
    # pair [2,2], [4,4] does not force [2,4] by itself
    alone = complete_torsion_hu(iset((2, 2), (4, 4)), 5)
    assert alone == iset((2, 2), (4, 4))


def test_complete_equals_generate_all_seeds():
    for n in range(1, 6):
        balls = sorted(all_balls(n))
        for r in range(len(balls) + 1):
            for seed in itertools.combinations(balls, r):
                assert (
                    complete_torsion_hu(seed, n)
                    == torsion_generate(seed, n).torsion
                )


def test_class_table_names_each_class_once():
    # every seed at ambient 6 lands on one of catalan(6) pairs, one pair
    # object per quotient-closed seed (n! of them), and the many-to-one maps
    # hand out one set object per class
    n = 6
    sets, pairs = _engine(n).sets, _engine(n).pairs
    balls = sorted(all_balls(n))
    for r in range(len(balls) + 1):
        for seed in itertools.combinations(balls, r):
            pair = torsion_generate(seed, n)
            assert complete_torsion_hu(seed, n) is pair.torsion
            assert perp_right(seed, n) is pair.free
            left = perp_left(seed, n)
            assert torsion_generate(left, n).torsion is left
    assert len(pairs) == 720 and len(set(pairs.values())) == catalan(n)
    tors = {p.torsion for p in pairs.values()}
    free = {p.free for p in pairs.values()}
    assert len(tors) == len(free) == catalan(n)
    assert set(sets.values()) == tors | free
    assert len(sets) == len(tors | free) <= 2 * catalan(n)


def test_class_table_gives_one_set_per_class_and_is_not_kept_above_7():
    seed, closed = iset((1, 2), (1, 3)), iset((1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
    assert complete_torsion_hu(seed, 4) is complete_torsion_hu(closed, 4)
    assert torsion_generate(seed, 4) is torsion_generate(closed, 4)
    assert perp_left(perp_right(seed, 4), 4) is complete_torsion_hu(seed, 4)
    # at ambient 8 the table would outgrow core._KEEP: fresh objects each call
    a, b = torsion_generate(iset((1, 2)), 8), torsion_generate(iset((1, 2)), 8)
    assert a == b and a is not b and a.torsion is not b.torsion
    assert complete_torsion_hu(iset((1, 2)), 8) is not complete_torsion_hu(iset((1, 2)), 8)


def _closed_under_both_rules(objs):
    """complete_torsion_hu's two rules, read off its docstring."""
    for x in objs:
        if x.a < x.b and I(x.a + 1, x.b) not in objs:  # lower-right
            return False
    for x in objs:
        for y in objs:
            if x.a < y.a and x.b < y.b and y.a <= x.b + 1:  # a rectangle
                bottom_ok = y.a == x.b + 1 or I(y.a, x.b) in objs
                if bottom_ok and I(x.a, y.b) not in objs:
                    return False
    return True


def test_closure_memo_holds_each_quotient_closed_mask_once():
    n = 6
    balls = sorted(all_balls(n))

    def to_set(mask):
        return frozenset(x for i, x in enumerate(balls) if mask >> i & 1)

    for r in range(len(balls) + 1):
        for seed in itertools.combinations(balls, r):
            complete_torsion_hu(seed, n)
    closures = _engine(n).closures
    # a quotient-closed set is its lowest member in each of the columns
    # b = 1..n - 1 (b + 1 choices, none included): n! of them
    assert len(closures) == 720
    for key, value in closures.items():
        seed, got = to_set(key), to_set(value)
        assert all(x.a == x.b or I(x.a + 1, x.b) in seed for x in seed)
        assert seed <= got and _closed_under_both_rules(got)
        assert got == torsion_generate(seed, n).torsion
    assert _engine(7).closures is not None
    assert _engine(8).closures is None
    seed = iset((1, 2), (3, 4))
    assert complete_torsion_hu(seed, 8) == torsion_generate(seed, 8).torsion


def test_union_reads_the_byte_tables_as_a_bit_at_a_time_or():
    import random

    def bit_at_a_time(mask, values):
        hit = 0
        for i, v in enumerate(values):
            if mask >> i & 1:
                hit |= v
        return hit

    rng = random.Random(1213)
    for n in [*range(7), 12]:
        balls = sorted(all_balls(n))

        def bits(keep):
            return sum(1 << j for j, y in enumerate(balls) if keep(y))

        per_ball = {
            "hom_from": [bits(lambda y: hom_nonzero(x, y, n)) for x in balls],
            "hom_to": [bits(lambda y: hom_nonzero(y, x, n)) for x in balls],
            "quot": [bits(lambda y: y.b == x.b and y.a >= x.a) for x in balls],
        }
        m = len(balls)
        masks = range(1 << m) if n <= 6 else [rng.getrandbits(m) for _ in range(3000)]
        for name, values in per_ball.items():
            tables = getattr(_engine(n), name)
            assert len(tables) == (m + 7) // 8  # none when there are no balls
            for mask in masks:
                assert _union(mask, tables) == bit_at_a_time(mask, values)


def test_tree_to_torsion_shares_the_class_sets_and_deserialization_adds_nothing():
    from catbij.serialize import deserialize_torsion, serialize_torsion

    _engine.cache_clear()  # start from empty memos

    def sizes(e):
        return len(e.sets), len(e.pairs), len(e.closures), len(e.splits)

    for n in range(8):
        e = _engine(n)
        pairs = [tree_to_torsion(t) for t in enumerate_trees(n)]
        # the class sets only, one per torsion or torsion-free class
        classes = {p.torsion for p in pairs} | {p.free for p in pairs}
        assert sizes(e) == (len(classes), 0, 0, 0) and len(classes) <= 2 * catalan(n)
        for pair in pairs:
            assert deserialize_torsion(serialize_torsion(pair)) == pair
        enumerate_torsion(n)
        assert sizes(e) == (len(classes), 0, 0, 0)
        for t, pair in zip(enumerate_trees(n), pairs):
            g = torsion_generate(pair.torsion, n)
            assert tree_to_torsion(t).torsion is pair.torsion is g.torsion
            assert pair.free is g.free
        assert len(e.sets) == len(classes)  # generation met the same class sets


def test_rectangle_split_is_made_once_per_class_up_to_ambient_7():
    _engine.cache_clear()
    for n in range(8):
        for t in enumerate_trees(n):
            g = tree_to_torsion(t).torsion
            split = decompose_rectangle(g, n)
            assert decompose_rectangle(g, n) is split
            assert recompose_rectangle(split, n) is g
        assert len(_engine(n).splits) == catalan(n)
    # at ambient 8 the memos would outgrow core._KEEP: fresh objects each call
    assert _engine(8).splits is None
    t = from_paren("((•(••))((••)(•(•(••)))))")
    assert t.size == 8
    g = tree_to_torsion(t).torsion
    a, b = decompose_rectangle(g, 8), decompose_rectangle(g, 8)
    assert a == b and a is not b
    assert recompose_rectangle(a, 8) == g
    assert tree_to_torsion(left_comb(8)).torsion is not tree_to_torsion(left_comb(8)).torsion


def test_tree_to_torsion_extremes():
    for n in range(2, 7):
        pair = tree_to_torsion(right_comb(n))
        assert pair.torsion == frozenset()
        assert pair.free == all_balls(n)
        pair = tree_to_torsion(left_comb(n))
        assert pair.torsion == all_balls(n)
        assert pair.free == frozenset()


def test_tree_to_torsion_small():
    pair = tree_to_torsion(from_paren("((..).)"))
    assert pair.torsion == iset((1, 1))
    assert torsion_generate(iset((1, 1)), 2).torsion == pair.torsion


def test_geometric_correspondence_five_leaves():
    # five-leaf case: one torsion ball, three free, two in neither class
    t = Node(Node(LEAF, LEAF), Node(LEAF, Node(LEAF, LEAF)))
    pair = tree_to_torsion(t)
    assert pair.torsion == iset((1, 1))
    assert pair.free == iset((2, 2), (2, 3), (3, 3))
    blanks = all_balls(4) - pair.torsion - pair.free
    assert blanks == iset((1, 2), (1, 3))


def test_trees_give_torsion_pairs():
    for n in range(1, 8):
        for t in enumerate_trees(n):
            pair = tree_to_torsion(t)
            assert perp_right(pair.torsion, n) == pair.free
            assert perp_left(pair.free, n) == pair.torsion


def test_tree_torsion_bijection():
    for n in range(1, 8):
        seen = set()
        for t in enumerate_trees(n):
            g = tree_to_torsion(t).torsion
            assert g not in seen
            seen.add(g)
            assert torsion_to_tree(g, n) == t
        assert len(seen) == catalan(n)


def test_enumerate_torsion_matches_brute_force():
    for n in range(1, 6):
        brute = set()
        balls = sorted(all_balls(n))
        for r in range(len(balls) + 1):
            for sub in itertools.combinations(balls, r):
                if is_torsion_class(frozenset(sub), n):
                    brute.add(frozenset(sub))
        assert {p.torsion for p in enumerate_torsion(n)} == brute
        assert len(brute) == catalan(n)


def test_torsion_masks_are_tree_to_torsion():
    from catbij.torsion import _torsion_masks

    for n in range(0, 9):
        def balls(mask):  # bit k is ball [k // n + 1, k % n + 1]
            return {Interval(k // n + 1, k % n + 1) for k in range(mask.bit_length()) if mask >> k & 1}

        trees = enumerate_trees(n)
        masks = list(_torsion_masks(n))
        assert len(masks) == len(trees)
        for (tors, free), t in zip(masks, trees):
            pair = tree_to_torsion(t)
            assert balls(tors) == pair.torsion and balls(free) == pair.free
        assert enumerate_torsion(n) == [tree_to_torsion(t) for t in trees]


def test_enumerate_torsion_14_classes_at_n4():
    assert len(enumerate_torsion(4)) == 14


def test_torsion_to_tree_extremes():
    for n in range(1, 7):
        assert torsion_to_tree(frozenset(), n) == right_comb(n)
        assert torsion_to_tree(all_balls(n), n) == left_comb(n)


def test_torsion_to_tree_rejects_non_classes():
    with pytest.raises(InvariantError):
        torsion_to_tree(iset((1, 2)), 4)


def test_gapped_young_small_example():
    # complete six-ball class: boxes on the five member balls
    g = torsion_to_gapped_young(
        iset((1, 2), (1, 3), (2, 2), (2, 3), (3, 3)), 4
    )
    assert g.boxes == frozenset({(2, 0), (1, 0), (2, 1), (1, 1), (1, 2)})


def test_gapped_young_larger_example():
    # the ten-ball worked class covers eight balls with boxes, including the
    # two blanks above the column minima
    g = torsion_to_gapped_young(
        iset((1, 2), (2, 2), (2, 4), (3, 4), (4, 4), (1, 4)), 5
    )
    assert g.cell_count() == 8
    # ball [1,3] carries a box though it is not a member
    assert (5 - 3, 0) in g.boxes


def test_gapped_young_empty():
    assert torsion_to_gapped_young(frozenset(), 5).boxes == frozenset()


def test_gapped_frame_coherence():
    for n in range(1, 8):
        for t in enumerate_trees(n):
            g = tree_to_torsion(t).torsion
            assert torsion_to_gapped_young(g, n) == bookshelf_gapped(t)


def test_decompose_singleton():
    split = decompose_rectangle(iset((1, 1)), 2)
    assert split.rectangle == iset((1, 1))
    assert split.left == frozenset() and split.right == frozenset()


def test_decompose_worked_example():
    g = iset((1, 1), (1, 2), (2, 2), (2, 4), (3, 4), (4, 4), (1, 4))
    split = decompose_rectangle(g, 5)
    assert split.width == 2 and split.skipped == 0
    assert split.rectangle == iset(
        (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4)
    )
    assert split.left == iset((1, 1))
    assert split.right == iset((1, 2), (2, 2))
    # the right part splits again, into two empty base cases
    sub = decompose_rectangle(split.right, 3)
    assert sub.skipped == 0 and sub.width == 2
    assert sub.rectangle == split.right
    assert sub.left == frozenset() and sub.right == frozenset()


def test_decompose_recompose_round_trip():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            g = tree_to_torsion(t).torsion
            split = decompose_rectangle(g, n)
            assert recompose_rectangle(split, n) == g
            # parts are torsion classes of their own triangles
            k = split.skipped + split.width
            assert is_torsion_class(split.left, max(k, 1))
            assert is_torsion_class(split.right, max(n - k, 1))


def test_recompose_rejects_a_split_that_is_no_decomposition():
    # [1, 2] under the full-width rectangle of ambient 4 gives the column
    # heights (2, 1, 1, 0), which no tree's shelves stack to
    rect = frozenset(I(a, 3) for a in (1, 2, 3))
    split = RectangleSplit(0, 3, rect, iset((1, 2)), frozenset())
    with pytest.raises(InvariantError):
        recompose_rectangle(split, 4)


@pytest.mark.parametrize(
    "split",
    [
        # nothing is skipped and no rectangle taken, yet a piece is left over
        RectangleSplit(0, 0, frozenset(), iset((1, 1)), frozenset()),
        # the true split of {[1, 1]}, with five columns skipped that are not
        RectangleSplit(5, 1, iset((1, 1)), frozenset(), frozenset()),
        # and with a negative count of skipped columns
        RectangleSplit(-3, 1, iset((1, 1)), frozenset(), frozenset()),
    ],
    ids=["empty-rectangle", "wrong-skip", "negative-skip"],
)
def test_recompose_rejects_splits_decomposition_does_not_give_back(split):
    canonical = decompose_rectangle(iset((1, 1)), 2)
    assert canonical == RectangleSplit(0, 1, iset((1, 1)), frozenset(), frozenset())
    assert decompose_rectangle(iset((1, 1)), 2) is canonical  # kept in _engine(2).splits
    with pytest.raises(InvariantError, match="^split is not a rectangle decomposition$"):
        recompose_rectangle(split, 2)


def heights_of(objs, n):
    heights = [0] * n
    for x in objs:
        heights[x.a - 1] = max(heights[x.a - 1], n - x.b)
    return heights


def decompose_by_sets(objs, n):
    """decompose_rectangle on Interval sets, ball by ball: the reference."""
    heights = heights_of(objs, n)
    if not objs:
        return RectangleSplit(0, 0, frozenset(), frozenset(), frozenset())
    s = next(c for c, h in enumerate(heights) if h)
    fits = [
        k
        for k in range(1, n - s)
        if I(s + k, s + k) in objs and min(heights[s : s + k]) >= n - s - k
    ]
    k = max(fits, key=lambda k: k * (n - s - k))
    rect = frozenset(I(a, b) for a in range(s + 1, s + k + 1) for b in range(s + k, n))
    left = frozenset(x for x in objs if x.b <= s + k - 1)
    right = frozenset(I(x.a - s - k, x.b - s - k) for x in objs if x.a >= s + k + 1)
    return RectangleSplit(s, k, rect, left, right)


def recompose_by_sets(split, n):
    shift = split.skipped + split.width
    right = {I(x.a + shift, x.b + shift) for x in split.right}
    pieces = split.left | split.rectangle | right
    from catbij.bookshelf import tree_from_profile

    return tree_to_torsion(tree_from_profile(heights_of(pieces, n))).torsion


def test_rectangle_split_matches_the_interval_set_algorithm():
    for n in range(9):
        for pair in enumerate_torsion(n):
            split = decompose_rectangle(pair.torsion, n)
            assert split == decompose_by_sets(pair.torsion, n)
            assert recompose_rectangle(split, n) == recompose_by_sets(split, n) == pair.torsion
