"""In-memory spans recorded by the benchmark around calls into catbij.

A span has a name, a start, an end, a parent span and an operation id.  The
columns live in flat arrays so that a traced run of a few hundred thousand
calls stays small; they are written out once, when the run ends.

Spans come only from the benchmark's own files.  In a traced run the public
functions listed in TARGETS are swapped, at the module attribute each caller
looks up, for wrappers that record a span; `patched` restores them afterwards.
The clock is time.perf_counter, which on Linux reads CLOCK_MONOTONIC and so
agrees between the benchmark and the CLI processes it starts.
"""

import importlib
import json
import struct
from array import array
from contextlib import contextmanager
from time import perf_counter

SETUP_OP = -1  # operation id of spans recorded during set-up

# (module, attribute, span name).  Several rows name one function when a
# caller imported it by name; each row patches the name that caller looks up.
TARGETS = (
    ("catbij.serialize", "deserialize_tree", "serialize.deserialize.tree"),
    ("catbij.serialize", "deserialize_dyck", "serialize.deserialize.dyck"),
    ("catbij.serialize", "deserialize_young", "serialize.deserialize.young"),
    ("catbij.serialize", "deserialize_perm", "serialize.deserialize.perm213"),
    ("catbij.serialize", "deserialize_torsion", "serialize.deserialize.torsion"),
    ("catbij.serialize", "serialize_tree", "serialize.serialize.tree"),
    ("catbij.serialize", "serialize_dyck", "serialize.serialize.dyck"),
    ("catbij.serialize", "serialize_young", "serialize.serialize.young"),
    ("catbij.serialize", "serialize_perm", "serialize.serialize.perm213"),
    ("catbij.serialize", "serialize_torsion", "serialize.serialize.torsion"),
    ("catbij.serialize", "from_paren", "core.from_paren"),
    ("catbij.serialize", "to_paren", "core.to_paren"),
    ("catbij.cli", "to_paren", "core.to_paren"),
    ("catbij.dyck", "dyck_to_tree", "dyck.dyck_to_tree"),
    ("catbij.dyck", "tree_to_dyck", "dyck.tree_to_dyck"),
    ("catbij.bookshelf", "inverse_bookshelf", "bookshelf.inverse_bookshelf"),
    ("catbij.bookshelf", "bookshelf", "bookshelf.bookshelf"),
    ("catbij.verify", "inverse_bookshelf", "bookshelf.inverse_bookshelf"),
    ("catbij.verify", "bookshelf", "bookshelf.bookshelf"),
    ("catbij.cli", "inverse_bookshelf", "bookshelf.inverse_bookshelf"),
    ("catbij.cli", "bookshelf", "bookshelf.bookshelf"),
    ("catbij.baseball", "perm_to_tree", "baseball.perm_to_tree"),
    ("catbij.baseball", "tree_to_perm", "baseball.tree_to_perm"),
    ("catbij.torsion", "torsion_to_tree", "torsion.torsion_to_tree"),
    ("catbij.torsion", "tree_to_torsion", "torsion.tree_to_torsion"),
    ("catbij.torsion", "complete_torsion_hu", "torsion.complete_torsion_hu"),
    ("catbij.torsion", "torsion_generate", "torsion.torsion_generate"),
    ("catbij.torsion", "enumerate_torsion", "torsion.enumerate_torsion"),
    ("catbij.tamari", "build_lattice", "tamari.build_lattice"),
    ("catbij.tamari", "is_lattice", "tamari.is_lattice"),
    ("catbij.tamari", "count_maximal_chains", "tamari.count_maximal_chains"),
    ("catbij.tamari", "verify_order_reversing", "tamari.verify_order_reversing"),
    ("catbij.verify", "verify_roundtrips", "verify.roundtrips"),
    ("catbij.verify", "verify_commutativity", "verify.commutativity"),
    ("catbij.verify", "verify_torsion", "verify.torsion"),
    ("catbij.verify", "verify_tamari", "verify.tamari"),
    ("catbij.verify", "enumerate_dyck", "core.enumerate_dyck"),
    ("catbij.verify", "enumerate_young", "core.enumerate_young"),
    ("catbij.verify", "enumerate_perms213", "core.enumerate_perms213"),
    ("catbij.cli", "enumerate_trees", "core.enumerate_trees"),
    ("catbij.cli", "enumerate_dyck", "core.enumerate_dyck"),
    ("catbij.cli", "enumerate_young", "core.enumerate_young"),
    ("catbij.cli", "enumerate_perms213", "core.enumerate_perms213"),
    ("catbij.render", "render_lattice_dot", "render.render_lattice_dot"),
)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self._open = []
        self.current_op = SETUP_OP

    def _name_id(self, name):
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def begin(self, name):
        i = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._open[-1] if self._open else -1)
        self.op.append(self.current_op)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._open.append(i)
        return i

    def finish(self, i):
        self.end[i] = perf_counter()
        self._open.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            i = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(i)

        return traced

    def adopt(self, other, parent):
        """Append the spans of `other` (say, from a child process) under `parent`."""
        base = len(self.start)
        for k in range(len(other.start)):
            self.name.append(self._name_id(other.names[other.name[k]]))
            p = other.parent[k]
            self.parent.append(parent if p < 0 else base + p)
            self.op.append(self.op[parent])
            self.start.append(other.start[k])
            self.end.append(other.end[k])

    def dump(self, path):
        header = json.dumps({"names": self.names, "count": len(self.start)}).encode()
        with open(path, "wb") as fh:
            fh.write(struct.pack("<I", len(header)))
            fh.write(header)
            for col in (self.name, self.parent, self.op, self.start, self.end):
                col.tofile(fh)

    @classmethod
    def load(cls, path):
        tr = cls()
        with open(path, "rb") as fh:
            (size,) = struct.unpack("<I", fh.read(4))
            header = json.loads(fh.read(size))
            for name in header["names"]:
                tr._name_id(name)
            for col in (tr.name, tr.parent, tr.op, tr.start, tr.end):
                col.fromfile(fh, header["count"])
        return tr

    def summary(self):
        """Per span name: inclusive durations of timed-phase spans, inclusive
        set-up seconds, and self seconds of timed-phase spans."""
        m = len(self.start)
        child = [0.0] * m
        for k in range(m):
            p = self.parent[k]
            if p >= 0:
                child[p] += self.end[k] - self.start[k]
        out = {name: {"durations": [], "setup_s": 0.0, "self_s": 0.0} for name in self.names}
        for k in range(m):
            entry = out[self.names[self.name[k]]]
            d = self.end[k] - self.start[k]
            if self.op[k] == SETUP_OP:
                entry["setup_s"] += d
            else:
                entry["durations"].append(d)
                entry["self_s"] += d - child[k]
        return out


@contextmanager
def patched(tracer):
    saved = []
    try:
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(span, fn))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
