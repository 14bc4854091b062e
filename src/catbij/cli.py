"""Command line front end.

Verbs: enumerate, convert, verify, render, chains, lattice.  Enumeration
writes one JSON document per line in canonical order: the runs of
serialize.enumeration_runs as UTF-8 bytes, each run one join, or torsion's
enumeration_lines.  Conversion routes everything through the binary tree
hub, by the _FAMILY table.  Exit codes: 0 success, 1 usage or
input error (a closed stdout included), 2 verification failure.

Every refusal is a CatbijError, printed by main as one `error:` line.  The
parser declares the choices and the documented --n bounds: 0..12 for every
family, 1..8 for the lattice (the one render that takes --n) and 1..11 for
chain counting; verify.run_suite holds --n-max to 2..9.
"""

import argparse
import json
import os
import sys
from itertools import islice

from . import baseball, dyck, render, serialize, tamari, torsion, verify
from .bookshelf import bookshelf, inverse_bookshelf
from .core import (  # the enumerate_* names are not called here; bench/spans.py traces them
    _parens,
    enumerate_dyck,
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
# drawn from --n, which no other family takes
_RENDER = {
    ("tree", "ascii"): lambda t: render.render_tree_ascii(t),
    ("tree", "svg"): lambda t: render.render_wire_svg(t),
    ("young", "ascii"): lambda y: render.render_young_ascii(y),
    ("torsion", "svg"): lambda tp: render.render_torsion_svg(tp),
    ("lattice", "dot"): lambda n: render.render_lattice_dot(n),
}


class _Parser(argparse.ArgumentParser):
    """Raises InvariantError, for main to print, where argparse would exit 2."""

    def error(self, message):
        raise InvariantError(message)


def _int_in(lo: int, hi: int):
    """The --n type of a verb whose documented bound is lo..hi."""

    def n(text: str) -> int:
        if lo <= (value := int(text)) <= hi:
            return value
        raise argparse.ArgumentTypeError(f"{value} out of bounds ({lo}..{hi})")

    n.__name__ = "int"  # argparse names the type when int() refuses a text
    return n


def _read(family: str, text):
    """Deserialize a document of family, read from stdin if text is None,
    and enforce its documented bound."""
    read, n_of, _, _ = _FAMILY[family]
    obj = read(sys.stdin.read() if text is None else text)
    serialize.check_n(n_of(obj), family)
    return obj


def _to_tree(family: str, text):
    return _FAMILY[family][2](_read(family, text))


def _from_tree(family: str, t, fmt: str) -> str:
    if fmt == "paren":
        return to_paren(t)
    return _FAMILY[family][3](t)


def _check_paren(family: str, fmt: str):
    if fmt == "paren" and family != "tree":
        raise InvariantError(f"--format paren is for family 'tree', not {family!r}")


def _write_runs(runs):
    """Write each object of runs (core._runs), UTF-8 bytes, on a line of
    the stdout buffer: up to 1,024 lines a write, each run or each 1,024
    lines of it one join."""
    write = sys.stdout.buffer.write
    pieces, room = [], 1024
    for head, middles, tail in runs:
        end = tail + b"\n"
        sep = end + head
        i = 0
        while i < len(middles):
            block = middles[i : i + room]
            pieces += head, sep.join(block), end
            i += len(block)
            room -= len(block)
            if not room:
                write(b"".join(pieces))
                pieces, room = [], 1024
    write(b"".join(pieces))


def cmd_enumerate(args) -> int:
    _check_paren(args.family, args.format)
    if args.family == "torsion":
        # a torsion line is read off its masks alone; 256 lines keep a
        # chunk small, as they are long (about 400 characters at n = 12)
        lines = serialize.enumeration_lines("torsion", args.n)
        while chunk := list(islice(lines, 256)):
            sys.stdout.write("\n".join(chunk) + "\n")
    elif args.format == "paren":
        _write_runs(_parens(args.n, b""))
    else:
        _write_runs(serialize.enumeration_runs(args.family, args.n))
    return 0


def cmd_convert(args) -> int:
    _check_paren(args.target, args.format)
    t = _to_tree(args.source, args.input)
    print(_from_tree(args.target, t, args.format))
    return 0


def cmd_verify(args) -> int:
    report = verify.run_suite(args.suite, args.n_max)  # which refuses a bad --n-max
    print(json.dumps(report, indent=2))
    return 0 if report["passed"] else 2


def cmd_render(args) -> int:
    draw = _RENDER.get((args.family, args.backend))
    if draw is None:
        raise InvariantError(f"no {args.backend!r} backend for family {args.family!r}")
    if (args.n is None) == (args.family == "lattice"):
        raise InvariantError("--n is for render lattice only, which needs it")
    if args.n is not None and args.input is not None:
        raise InvariantError("--input is not for render lattice, which draws --n")
    out = draw(args.n if args.n is not None else _read(args.family, args.input))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out)
                if not out.endswith("\n"):
                    fh.write("\n")
        except OSError as exc:
            raise CatbijError(f"cannot write {args.out}: {exc.strerror}") from exc
    else:
        print(out)
    return 0


def cmd_chains(args) -> int:
    print(tamari.count_maximal_chains(args.n))
    return 0


def cmd_lattice(args) -> int:
    nodes, covers = tamari.hasse(args.n)
    print(json.dumps({"n": args.n, "nodes": nodes, "covers": covers}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    lattice_n = _int_in(1, 8)
    families, backends = (tuple(dict.fromkeys(k)) for k in zip(*_RENDER))
    ap = _Parser(
        prog="catbij",
        description="Catalan families, their bijections, and the Tamari lattice.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream all objects of one family")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("--n", type=_int_in(0, serialize.MAX_N), required=True)
    p.add_argument("--format", choices=("json", "paren"), default="json")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("convert", help="convert a document between families")
    p.add_argument("source", choices=FAMILIES)
    p.add_argument("target", choices=FAMILIES)
    p.add_argument("--input", help="document text (default: stdin)")
    p.add_argument("--format", choices=("json", "paren"), default="json")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("suite", choices=tuple(verify.SUITES))
    p.add_argument("--n-max", type=int, default=5)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="draw an object")
    p.add_argument("family", choices=families)
    p.add_argument("--backend", choices=backends, default="ascii")
    p.add_argument("--input", help="document text (default: stdin)")
    p.add_argument("--n", type=lattice_n, help="size, for render lattice only")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("chains", help="count maximal chains of the Tamari lattice")
    p.add_argument("--n", type=_int_in(1, 11), required=True)
    p.set_defaults(func=cmd_chains)

    p = sub.add_parser("lattice", help="emit the Tamari lattice as JSON")
    p.add_argument("--n", type=lattice_n, required=True)
    p.set_defaults(func=cmd_lattice)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.__stdout__.flush()  # so that a closed pipe fails here, not at exit
    except SystemExit:  # --help, printed; every other refusal raises
        return 0
    except CatbijError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull, as the Python docs
        # advise, so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.__stdout__.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
