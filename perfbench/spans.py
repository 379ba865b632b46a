"""Span recorder for the traced benchmark child.

``install`` wraps the public boundary functions of the five annigraph
modules from the outside: every module namespace that binds a wrapped
function gets the wrapper, so calls made through a by-name import (for
example ``veritas`` calling ``canonical_form``) are seen too.  Generators
are timed per ``next()``.  Private helpers and hot inner functions such as
``interior_mask`` are deliberately left alone, or the wrapper cost would
swamp what it measures.

``install`` raises if a boundary name is missing, so a function that is
renamed or moved cannot drop out of the trace and read as a zero.

Spans live in flat arrays while the child runs and are written once, by
``Recorder.dump``, when it ends.  ``summarize`` turns a dump into per-name
call counts and self times (span duration minus its direct child spans).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from array import array

_clock = time.perf_counter

# (module, function names) wrapped as plain calls.
PLAIN = {
    "topo": ("canonical_form", "classify"),
    "idealgraph": ("build_ag_discrete", "build_dg", "distance_classifier",
                   "ecc_classifier", "leaf_classifier", "gi_classifier",
                   "twin_expansion"),
    "graphcore": ("compute_invariants", "girth", "eccentricity", "radius",
                  "diameter", "dominating_number", "clique_number",
                  "chromatic_number", "gi", "gi_two_paths"),
    "veritas": ("evaluate_space_claim", "run_hom_suite"),
    "cli": ("main",),
}
# Generator functions, timed per next(); each item yielded bumps a count.
GENERATORS = {
    "topo": {"enumerate_topologies": "topo.labeled_yielded",
             "canonical_topologies": "topo.classes_yielded"},
}
WORKSPACE_METHODS = ("ag", "ag_inv", "ag_gi", "dg", "dg_inv")
# Calls made inside spans of this name are counted apart ("in_scope"), so
# that eccentricity per invariant-report vertex can be told from the calls
# claim checkers make directly.
SCOPE = "graphcore.compute_invariants"


class Recorder:
    """Spans as parallel arrays: name id, parent span index, start, end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid: int) -> None:
        self._stack.append(len(self.start))
        self.name.append(nid)
        self.parent.append(self._stack[-2])
        self.end.append(0.0)
        self.start.append(_clock())

    def leave(self) -> None:
        self.end[self._stack.pop()] = _clock()

    def add(self, key: str, k: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def dump(self, path: str) -> None:
        header = {"names": self.names, "counts": self.counts, "spans": len(self.start)}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(f)


def _wrap(rec: Recorder, name: str, fn, note=None):
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.enter(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.leave()
        if note is not None:
            note(args, result)
        return result

    return wrapper


def _wrap_gen(rec: Recorder, name: str, fn, count_key: str):
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)

        def stepped():
            while True:
                rec.enter(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    rec.leave()
                rec.add(count_key)
                yield item

        return stepped()

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap the boundary functions of annigraph in every namespace."""
    import importlib

    import annigraph

    mods = {m: importlib.import_module(f"annigraph.{m}")
            for m in ("topo", "idealgraph", "graphcore", "veritas", "cli")}

    def vertices(key):
        return lambda args, g: rec.add(key, g.vertex_count)

    notes = {
        "idealgraph.build_ag_discrete": vertices("idealgraph.vertices_built"),
        "idealgraph.build_dg": vertices("idealgraph.vertices_built"),
        "graphcore.compute_invariants":
            lambda args, r: rec.add("graphcore.invariant_vertices", args[0].vertex_count),
        "veritas.evaluate_space_claim":
            lambda args, r: rec.add("veritas.cells_applicable", r is not None),
    }
    def target(owner, name: str):
        fn = getattr(owner, name, None)
        if not callable(fn):
            raise LookupError(f"{owner.__name__}.{name} is gone; update spans.py")
        return fn

    replace: dict[int, object] = {}
    for mod, names in PLAIN.items():
        for fname in names:
            key = f"{mod}.{fname}"
            fn = target(mods[mod], fname)
            replace[id(fn)] = _wrap(rec, key, fn, notes.get(key))
    for mod, gens in GENERATORS.items():
        for fname, count_key in gens.items():
            fn = target(mods[mod], fname)
            replace[id(fn)] = _wrap_gen(rec, f"{mod}.{fname}", fn, count_key)
    for ns in (annigraph, *mods.values()):
        for attr, value in list(vars(ns).items()):
            if id(value) in replace:
                setattr(ns, attr, replace[id(value)])

    topology = mods["topo"].Topology
    topology.__init__ = _wrap(rec, "topo.Topology", topology.__init__)
    workspace = mods["veritas"].Workspace
    for meth in WORKSPACE_METHODS:
        setattr(workspace, meth,
                _wrap(rec, f"veritas.Workspace.{meth}", target(workspace, meth)))

    # Claim checkers are stored in the registry, not bound to a module
    # name; wrap each under its family, the first segment of the claim id.
    reg = mods["veritas"].registry()
    for cid, claim in list(reg.items()):
        span = f"veritas.claims.{cid.split('.')[0]}"
        changes = {field: _wrap(rec, span, getattr(claim, field))
                   for field in ("check", "check_trial")
                   if callable(getattr(claim, field, None))}
        if not changes or not dataclasses.is_dataclass(claim):
            raise LookupError(f"claim {cid} has no check to wrap; update spans.py")
        reg[cid] = dataclasses.replace(claim, **changes)


def load(path: str) -> tuple[dict, array, array, array, array]:
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        n = header["spans"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(f, n)
            arrays.append(arr)
    return (header, *arrays)


def summarize(path: str) -> dict:
    """Per span name: calls, total self seconds, leaf calls (spans with no
    child span; for a memo lookup that means a hit) and calls made inside
    a ``SCOPE`` span.  Also returns the counts the wrappers kept."""
    header, name, parent, start, end = load(path)
    names = header["names"]
    scope_id = names.index(SCOPE) if SCOPE in names else -1
    n = len(start)
    child_time = [0.0] * n
    has_child = bytearray(n)
    in_scope = bytearray(n)
    for i in range(n):  # a parent is always recorded before its children
        p = parent[i]
        if p >= 0:
            child_time[p] += end[i] - start[i]
            has_child[p] = 1
            in_scope[i] = in_scope[p] or name[p] == scope_id
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    leaves = [0] * len(names)
    scoped = [0] * len(names)
    for i in range(n):
        k = name[i]
        calls[k] += 1
        self_s[k] += end[i] - start[i] - child_time[i]
        leaves[k] += not has_child[i]
        scoped[k] += in_scope[i]
    per_name = {nm: {"calls": calls[k], "s": self_s[k], "leaves": leaves[k],
                     "in_scope": scoped[k]}
                for k, nm in enumerate(names)}
    return {"spans": per_name, "counts": header["counts"]}
