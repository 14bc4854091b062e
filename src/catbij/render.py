"""Deterministic text, SVG and DOT renderers.

Node positions come from core.node_coordinates and the ball triangle from
torsion.all_balls.  Fixed palette: blue for descending edges and torsion
balls, red for ascending edges and torsion-free balls, gray for boxes.
Output is byte-identical across runs for identical input.
"""

from .baseball import BASEBALL, classify_balls, tree_to_perm
from .core import (
    BinaryTree,
    TorsionPair,
    YoungDiagram,
    node_coordinates,
    size,
)
from .tamari import hasse
from .torsion import all_balls

BLUE = "#6688dd"
RED = "#dd6666"
GRAY = "#bbbbbb"

_CELL = "□"  # white square


def _edges(t: BinaryTree) -> list:
    """(parent, child, right) for each edge of the stretched drawing of t,
    as (x, y) coordinates, in preorder of the child: sorted paths over
    {'L', 'R'} are in preorder, since 'L' < 'R' and a prefix sorts first."""
    at = {path: (c.x, c.y) for path, c in node_coordinates(t).items()}
    return [(at[path[:-1]], at[path], path[-1] == "R") for path in sorted(at) if path]


def render_tree_ascii(t: BinaryTree) -> str:
    """Stretched triangle drawing with / and \\ edges, leaves on one line."""
    n = size(t)
    width = 2 * n + 1
    grid = [[" "] * width for _ in range(n + 1)]
    for k in range(n + 1):  # leaf k, at (n - k, k)
        grid[n][2 * k] = "•"
    for (px, py), (x, y), right in _edges(t):
        prow, pcol = px + py, n - px + py
        grid[prow][pcol] = "o"
        step, ch = (1, "\\") if right else (-1, "/")
        for k in range(1, x + y - prow):
            grid[prow + k][pcol + step * k] = ch
    return "\n".join("".join(r).rstrip() for r in grid)


def render_young_ascii(y: YoungDiagram) -> str:
    """One text line per row of boxes."""
    if not y.rows:
        return "(empty diagram)"
    return "\n".join(_CELL * r for r in y.rows)


def _ball_center(a, b, n, scale, pad):
    # leaves sit at x = 0, 2, .., 2n; ball [a, b] floats over leaves a-1 .. b+1
    x = (a + b) * scale + pad
    y = (n - 1 - (b - a)) * scale + pad
    return x, y


def _svg(width, height, body) -> str:
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    return "\n".join([head] + body + ["</svg>"])


def render_torsion_svg(pair: TorsionPair) -> str:
    """The pair's ball triangle with the torsion class blue and the free
    class red."""
    n = pair.n
    scale, pad, r = 40, 30, 14
    body = []
    for ball in sorted(all_balls(n)):
        x, y = _ball_center(ball.a, ball.b, n, scale, pad)
        fill = BLUE if ball in pair.torsion else RED if ball in pair.free else "none"
        body.append(
            f'<circle cx="{x}" cy="{y}" r="{r}" fill="{fill}" '
            'stroke="black" stroke-width="1"/>'
        )
        body.append(
            f'<text x="{x}" y="{y + 4}" font-size="10" text-anchor="middle">'
            f"{ball.a},{ball.b}</text>"
        )
    width = 2 * n * scale + 2 * pad
    height = n * scale + 2 * pad
    return _svg(width, height, body)


def render_wire_svg(t: BinaryTree) -> str:
    """Tree edges plus the ball grid: baseballs plain, crossballs with an X."""
    n = size(t)
    scale, pad, r = 40, 30, 12

    def pt(x, y):
        # tree coordinate (x, y) -> pixel position
        px = (n - x + y) * scale + pad
        py = (x + y) * scale + pad
        return px, py

    body = []
    for parent, child, right in _edges(t):
        x1, y1 = pt(*parent)
        x2, y2 = pt(*child)
        color = BLUE if right else RED
        body.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
    for ball, kind in sorted(classify_balls(t).items()):
        bx, by = _ball_center(ball.a, ball.b, n, scale, pad)
        body.append(
            f'<circle cx="{bx}" cy="{by}" r="{r}" fill="white" '
            'stroke="black" stroke-width="1"/>'
        )
        if kind != BASEBALL:
            d = int(r * 0.7)
            body.append(
                f'<line x1="{bx - d}" y1="{by - d}" x2="{bx + d}" y2="{by + d}" '
                'stroke="black" stroke-width="1"/>'
            )
            body.append(
                f'<line x1="{bx - d}" y1="{by + d}" x2="{bx + d}" y2="{by - d}" '
                'stroke="black" stroke-width="1"/>'
            )
    perm = tree_to_perm(t)
    for w in range(1, n + 1):
        rx = (n + w) * scale + pad + 18
        ry = (w - 1) * scale + pad + 4
        body.append(
            f'<text x="{rx}" y="{ry}" font-size="12" text-anchor="middle">{w}</text>'
        )
        lx = (n - w) * scale + pad - 18
        body.append(
            f'<text x="{lx}" y="{ry}" font-size="12" text-anchor="middle">'
            f"{perm[w - 1]}</text>"
        )
    width = 2 * n * scale + 2 * pad + 40
    height = (n + 1) * scale + 2 * pad
    return _svg(width, height, body)


def render_lattice_dot(n: int) -> str:
    """The size-n Tamari lattice in DOT, named by tamari.hasse."""
    nodes, covers = hasse(n)
    lines = ["digraph tamari {", '  rankdir="BT";']
    lines += [f'  "{name}" [shape=box];' for name in nodes]
    lines += [f'  "{lo}" -> "{hi}";' for lo, hi in covers]
    return "\n".join(lines + ["}"])
