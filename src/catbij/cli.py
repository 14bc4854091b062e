"""Command line front end.

Verbs: enumerate, convert, verify, render, chains, lattice.  Enumeration
streams one JSON document per line in canonical order, from
serialize.enumeration_lines.  Conversion routes everything through the
binary tree hub, by the _FAMILY table.  Exit codes: 0 success, 1 usage or
input error (a closed stdout included), 2 verification failure.

Documented feasibility bounds: n <= 12 for every family, n <= 8 for the
lattice, n <= 11 for chain counting and --n-max 2..9 for verify.
"""

import argparse
import json
import os
import sys
from itertools import islice

from . import baseball, dyck, render, serialize, tamari, torsion, verify
from .bookshelf import bookshelf, inverse_bookshelf
from .core import (  # the enumerate_* names are not called here; bench/spans.py traces them
    enumerate_dyck,
    enumerate_parens,
    enumerate_perms213,
    enumerate_trees,
    enumerate_young,
    size,
    to_paren,
)
from .errors import CatbijError, InvariantError

# family: (read a document, the n of what it reads, that to the tree, the
# tree to a document).  _read checks that n after reading; the torsion
# reader checks its "n" first, before the ball tables of n are built.  Each
# entry looks its functions up when called, so that a patched module
# attribute (bench/spans.py) is the one called.
_FAMILY = {
    "tree": (lambda text: serialize.deserialize_tree(text), size,
             lambda t: t,
             lambda t: serialize.serialize_tree(t)),
    "dyck": (lambda text: serialize.deserialize_dyck(text), lambda p: p.semilength,
             lambda p: dyck.dyck_to_tree(p),
             lambda t: serialize.serialize_dyck(dyck.tree_to_dyck(t))),
    "young": (lambda text: serialize.deserialize_young(text), lambda y: y.n,
              lambda y: inverse_bookshelf(y, y.n),
              lambda t: serialize.serialize_young(bookshelf(t))),
    "perm213": (lambda text: serialize.deserialize_perm(text), len,
                lambda p: baseball.perm_to_tree(p),
                lambda t: serialize.serialize_perm(baseball.tree_to_perm(t))),
    "torsion": (lambda text: serialize.deserialize_torsion(text), lambda tp: tp.n,
                lambda tp: torsion.torsion_to_tree(tp.torsion, tp.n),
                lambda t: serialize.serialize_torsion(torsion.tree_to_torsion(t))),
}
FAMILIES = tuple(_FAMILY)

# (family, backend): draw what _read gives for the family; the lattice is
# drawn from --n
_RENDER = {
    ("lattice", "dot"): lambda n: render.render_lattice_dot(tamari.build_lattice(n)),
    ("young", "ascii"): lambda y: render.render_young_ascii(y),
    ("tree", "ascii"): lambda t: render.render_tree_ascii(t),
    ("torsion", "svg"): lambda tp: render.render_torsion_svg(tp),
    ("tree", "svg"): lambda t: render.render_wire_svg(t),
}


def _die(msg, code=1):
    print(f"error: {msg}", file=sys.stderr)
    return code


def _read(family: str, text: str):
    """Deserialize a document of family and enforce its documented bound."""
    read, n_of, _, _ = _FAMILY[family]
    obj = read(text)
    serialize.check_n(n_of(obj), family)
    return obj


def _to_tree(family: str, text: str):
    return _FAMILY[family][2](_read(family, text))


def _from_tree(family: str, t, fmt: str) -> str:
    if fmt == "paren":
        return to_paren(t)
    return _FAMILY[family][3](t)


def _lattice_n(args, verb: str) -> int:
    """--n, refused outside 1..8, the documented bound of the lattice."""
    if args.n is None or not 1 <= args.n <= 8:
        raise InvariantError(f"{verb} needs --n in 1..8")
    return args.n


def _paren_refused(family: str, fmt: str):
    """The error line for --format paren with a family other than tree."""
    if fmt == "paren" and family != "tree":
        return f"--format paren is for family 'tree', not {family!r}"


def _read_input(args) -> str:
    if args.input is not None:
        return args.input
    return sys.stdin.read()


def cmd_enumerate(args) -> int:
    family = args.family
    if family not in FAMILIES:
        return _die(f"unknown family {family!r}; choose from {', '.join(FAMILIES)}")
    n = args.n
    if n is None:
        return _die("enumerate needs --n")
    serialize.check_n(n, family)  # main reports an n out of bounds
    if refused := _paren_refused(family, args.format):
        return _die(refused)
    if args.format == "paren":
        lines = enumerate_parens(n)
    else:
        lines = serialize.enumeration_lines(family, n)
    # a write per line costs more than making the line; 256 lines keep a
    # chunk small where lines are long (torsion at n = 12: about 400 characters)
    while chunk := list(islice(lines, 256)):
        sys.stdout.write("\n".join(chunk) + "\n")
    return 0


def cmd_convert(args) -> int:
    if args.source not in FAMILIES or args.target not in FAMILIES:
        return _die(f"families must come from {', '.join(FAMILIES)}")
    if refused := _paren_refused(args.target, args.format):
        return _die(refused)
    t = _to_tree(args.source, _read_input(args))  # main reports a CatbijError
    print(_from_tree(args.target, t, args.format))
    return 0


def cmd_verify(args) -> int:
    if args.suite not in verify.SUITES:
        return _die(f"unknown suite {args.suite!r}; choose from {', '.join(verify.SUITES)}")
    report = verify.run_suite(args.suite, args.n_max)  # main reports a bad --n-max
    print(json.dumps(report, indent=2))
    return 0 if report["passed"] else 2


def cmd_render(args) -> int:
    draw = _RENDER.get((args.family, args.backend))
    if draw is None:
        return _die(f"no {args.backend!r} backend for family {args.family!r}")
    if args.family == "lattice":
        out = draw(_lattice_n(args, "render lattice"))
    else:
        out = draw(_read(args.family, _read_input(args)))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out)
                if not out.endswith("\n"):
                    fh.write("\n")
        except OSError as exc:
            return _die(f"cannot write {args.out}: {exc.strerror}")
    else:
        print(out)
    return 0


def cmd_chains(args) -> int:
    if args.n is None or not (1 <= args.n <= 11):
        return _die("chains needs --n in 1..11")
    print(tamari.count_maximal_chains(args.n))
    return 0


def cmd_lattice(args) -> int:
    nodes, covers = render.lattice_names(tamari.build_lattice(_lattice_n(args, "lattice")))
    print(json.dumps({"n": args.n, "nodes": nodes, "covers": covers}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="catbij",
        description="Catalan families, their bijections, and the Tamari lattice.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream all objects of one family")
    p.add_argument("family")
    p.add_argument("--n", type=int)
    p.add_argument("--format", choices=("json", "paren"), default="json")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("convert", help="convert a document between families")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--input", help="document text (default: stdin)")
    p.add_argument("--format", choices=("json", "paren"), default="json")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("suite")
    p.add_argument("--n-max", type=int, default=5)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="draw an object")
    p.add_argument("family", help="tree, young, torsion or lattice")
    p.add_argument("--backend", choices=("ascii", "svg", "dot"), default="ascii")
    p.add_argument("--input", help="document text (default: stdin)")
    p.add_argument("--n", type=int, help="size, for lattice rendering")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("chains", help="count maximal chains of the Tamari lattice")
    p.add_argument("--n", type=int)
    p.set_defaults(func=cmd_chains)

    p = sub.add_parser("lattice", help="emit the Tamari lattice as JSON")
    p.add_argument("--n", type=int)
    p.set_defaults(func=cmd_lattice)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.__stdout__.flush()  # so that a closed pipe fails here, not at exit
    except CatbijError as exc:
        return _die(exc)
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull, as the Python docs
        # advise, so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.__stdout__.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
