"""Renderer determinism and snapshot checks."""

import hashlib
import xml.etree.ElementTree as ET

from catbij import (
    Interval,
    TamariPoset,
    TorsionPair,
    YoungDiagram,
    build_lattice,
    enumerate_torsion,
    enumerate_trees,
    enumerate_young,
    from_paren,
    to_paren,
    tree_to_torsion,
)
from catbij.render import (
    BLUE,
    RED,
    render_lattice_dot,
    render_torsion_svg,
    render_tree_ascii,
    render_wire_svg,
    render_young_ascii,
)


def test_young_ascii_two_rows():
    assert render_young_ascii(YoungDiagram((2, 1), 3)) == "□□\n□"
    assert render_young_ascii(YoungDiagram((), 3)) == "(empty diagram)"


def test_tree_ascii_snapshot():
    out = render_tree_ascii(from_paren("((..).)"))
    assert out == "\n".join(
        [
            "  o",
            " o \\",
            "• • •",
        ]
    )
    assert render_tree_ascii(from_paren(".")) == "•"


def test_torsion_svg_labeled_pair():
    tors = frozenset({Interval(1, 1), Interval(3, 3), Interval(5, 5)})
    free = frozenset(
        {Interval(2, 2), Interval(2, 3), Interval(2, 4), Interval(2, 5),
         Interval(4, 4), Interval(4, 5)}
    )
    svg = render_torsion_svg(TorsionPair(tors, free, 6))
    assert svg.startswith("<svg ") and svg.endswith("</svg>")
    ET.fromstring(svg)  # well-formed XML
    assert svg.count(f'fill="{BLUE}"') == 3
    assert svg.count(f'fill="{RED}"') == 6
    assert svg.count("<circle") == 15


def test_torsion_svg_draws_the_pairs_own_ambient():
    # all six balls of ambient 4, the pair's one free ball [3, 3] among them
    svg = render_torsion_svg(tree_to_torsion(from_paren("(((••)•)(••))")))
    assert svg.count("<circle") == 6 and ">3,3</text>" in svg
    assert svg.count(f'fill="{BLUE}"') == 3 and svg.count(f'fill="{RED}"') == 1


def test_wire_svg_structure():
    svg = render_wire_svg(from_paren("((..)((..).))"))
    ET.fromstring(svg)
    assert svg.count("<circle") == 6  # six balls for n = 4
    assert '">1</text>' in svg and '">4</text>' in svg


def test_lattice_dot_counts():
    dot = render_lattice_dot(build_lattice(4))
    assert dot.count("[shape=box]") == 14
    assert dot.count("->") == 21
    assert dot.startswith("digraph tamari {") and dot.endswith("}")


def test_rendering_is_deterministic():
    for n in range(0, 6):
        for t in enumerate_trees(n):
            assert render_tree_ascii(t) == render_tree_ascii(t)
            assert render_wire_svg(t) == render_wire_svg(t)
    p = build_lattice(3)
    assert render_lattice_dot(p) == render_lattice_dot(p)


def test_lattice_names_each_node_once(monkeypatch):
    import catbij.render as render

    p = build_lattice(5)
    calls = []
    monkeypatch.setattr(render, "to_paren", lambda t: calls.append(t) or to_paren(t))
    dot = render_lattice_dot(p)
    assert len(calls) == len(p.nodes)
    monkeypatch.undo()
    assert dot == dot_naming_every_tree(p)


def dot_naming_every_tree(p):
    """render_lattice_dot as it named a tree at each use: the reference."""
    lines = ["digraph tamari {", '  rankdir="BT";']
    lines += [f'  "{to_paren(t)}" [shape=box];' for t in p.nodes]
    covers = sorted((to_paren(l), to_paren(u)) for (l, u) in p.covers)
    lines += [f'  "{lo}" -> "{hi}";' for lo, hi in covers]
    return "\n".join(lines + ["}"])


def test_lattice_dot_names_cover_trees_outside_the_nodes():
    # a hand-built poset: its covers still name the size-3 bottom and top,
    # which are no nodes
    full = build_lattice(3)
    ends = {full.bottom(), full.top()}
    p = TamariPoset(tuple(t for t in full.nodes if t not in ends), full.covers)
    dot = render_lattice_dot(p)
    assert dot == dot_naming_every_tree(p)
    for t in ends:
        assert f'"{to_paren(t)}"' in dot and f'"{to_paren(t)}" [shape=box]' not in dot


# Regression pins, taken from the renderers at commit 4cb0ede: the sha256 of
# each renderer's output over every object up to a size, in enumeration order.
RENDER_PINS = {
    "tree ascii and wire svg, n <= 8":
        "9147e96dd99b3a3bd7290d3a347bc7ca0e5e75b921b24e266db650b8cf261f47",
    "torsion svg, n <= 6": "cab7ebc2885e987c3d2a5852143b0d979b47a3cc61ec455bd02ab39888c185b6",
    "young ascii, n <= 6": "c07445bac516c5fcdedb0795cf562371eaef4b7de2b523491f6e0d21dce4b33f",
}


def test_render_output_regression_pins():
    def digest(texts):
        h = hashlib.sha256()
        for text in texts:
            h.update(text.encode("utf-8"))
        return h.hexdigest()

    trees = [t for n in range(9) for t in enumerate_trees(n)]
    got = {
        "tree ascii and wire svg, n <= 8":
            digest(s for t in trees for s in (render_tree_ascii(t), render_wire_svg(t))),
        "torsion svg, n <= 6":
            digest(render_torsion_svg(p) for n in range(7) for p in enumerate_torsion(n)),
        "young ascii, n <= 6": digest(
            render_young_ascii(YoungDiagram(rows, n))
            for n in range(7)
            for rows in enumerate_young(n)
        ),
    }
    assert got == RENDER_PINS
