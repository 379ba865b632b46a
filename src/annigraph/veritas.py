"""Claim registry and verification harness.

Every structural claim relating a finite space to its disjointness graphs
is registered under a stable id together with a one-line mathematical
statement, a tier and a checker.  Guaranteed-tier claims are asserted over
discrete spaces, where the ring-of-functions model is faithful; explore
mode records verdicts for every claim over arbitrary finite topologies
without ever failing the run, because several statements provably need
separation hypotheses and their divergences are findings, not defects.

Every space claim reads one record per space, built once by
``Workspace.space``: the space's class, canonical key, weak components,
their unions and the operator tables ``i[u]`` = interior(X minus u) and
``cl[u]`` = closure(u) for every subset u.  Claims are rows of data: the
identities of the open-set calculus are laws over those tables checked by
``_laws``; graph claims name a graph and a shape checked by ``_on_graph``.

Reports serialize to JSON Lines (schema ``veritas/1``) and are
byte-stable: fixed key order, deterministic claim/space ordering, no
timestamps.
"""

from __future__ import annotations

import fnmatch
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from . import graphcore as gc
from .graphcore import DEGENERATE, INF, UGraph
from .idealgraph import (
    DEFAULT_MODEL_CAP,
    GI_CASES,
    HomWitness,
    build_ag_discrete,
    build_dg,
    distance_classifier,
    ecc_classifier,
    gi_case,
    gi_classifier,
    girth_predictor,
    is_vertex,
    leaf_classifier,
    orthogonality_test,
    radius_predictor,
    triangulated_predictor,
    twin_expansion,
)
from .topo import (
    DEFAULT_ENUM_CAP,
    PointSet,
    Topology,
    UsageError,
    canonical_form,
    canonical_topologies,
    cellularity,
    classify,
    clopen_count,
    closure_mask,
    interior_mask,
    is_dense,
    weight,
    _component_labels,
)

SCHEMA = "veritas/1"
DEFAULT_HOM_TRIALS = 200
# Every trial's witness is held until the last trial is checked and its
# reports until the run ends, about 6.5 KB a trial, so the count is bounded
# by memory: 10 000 trials peak near 80 MB.
_MAX_HOM_TRIALS = 10_000
HOM_PROBE_KEY = "twin:probe:k2x2"

PASS = "pass"
FAIL = "fail"
DEGEN = "degenerate"
NA = "not-applicable"

_SENTINEL_TYPE = type(INF)


def _jsonable(x):
    if isinstance(x, _SENTINEL_TYPE):
        return x.name
    if isinstance(x, PointSet):
        return x.render()
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


@dataclass(frozen=True)
class ClaimResult:
    verdict: str
    expected: object = None
    computed: object = None
    witness: dict | None = None


@dataclass(frozen=True)
class Claim:
    id: str
    statement: str
    tier: str  # "guaranteed" | "explore"
    scope: str  # "space" | "trial"
    applies: Callable[[_Space], bool] | None = None
    check: Callable | None = None  # space: (ws, _Space) -> ClaimResult
    check_trial: Callable | None = None  # trial: (HomWitness, _hom_values) -> ClaimResult
    find: str = "fail"  # what a search over spaces looks for


@dataclass(frozen=True)
class TheoremReport:
    claim: str
    space: str
    verdict: str
    expected: object
    computed: object
    witness: dict | None
    mode: str  # "assert" | "explore"

    def to_json_dict(self) -> dict:
        return {"schema": SCHEMA, **self.__dict__}

    def to_json_line(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def of(cls, claim: str, space: str, res: ClaimResult, mode: str) -> "TheoremReport":
        return cls(
            claim=claim,
            space=space,
            verdict=res.verdict,
            expected=_jsonable(res.expected),
            computed=_jsonable(res.computed),
            witness=_jsonable(res.witness) if res.witness is not None else None,
            mode=mode,
        )


class _Space:
    """What the space claims read about one space, derived once: its class,
    canonical key and weak components (as masks), ``q[s]`` the union of the
    components selected by the bit mask s (distinct masks give distinct
    unions), and the operator tables indexed by subset mask: ``i[u]`` is
    interior(X minus u), the open set of the ideal vanishing on u, and
    ``cl[u]`` is closure(u)."""

    __slots__ = ("t", "cls", "key", "comps", "q", "i", "cl")

    def __init__(self, t: Topology):
        self.t = t
        self.cls = classify(t)
        self.key = canonical_form(t)
        self.comps = [0] * self.cls.component_count
        for p, c in enumerate(_component_labels(t)):
            self.comps[c] |= 1 << p
        self.q = [sum(c for k, c in enumerate(self.comps) if s >> k & 1)
                  for s in range(1 << len(self.comps))]
        self.i = [interior_mask(t, t._full & ~u) for u in range(1 << t.n)]
        self.cl = [closure_mask(t, u) for u in range(1 << t.n)]

    @property
    def full(self) -> int:
        return self.t._full


class Workspace:
    """Shared memo for the space records, the model graphs and their
    invariant tables."""

    def __init__(self):
        self._space: dict[Topology, _Space] = {}
        self._ag: dict[int, UGraph] = {}
        self._ag_inv: dict[int, gc.InvariantReport] = {}
        self._ag_gi: dict[int, dict] = {}
        self._dg: dict[Topology, UGraph] = {}
        self._dg_inv: dict[Topology, gc.InvariantReport] = {}

    def space(self, t: Topology) -> _Space:
        if t not in self._space:
            self._space[t] = _Space(t)
        return self._space[t]

    def ag(self, m: int) -> UGraph:
        if m not in self._ag:
            self._ag[m] = build_ag_discrete(m)
        return self._ag[m]

    def ag_inv(self, m: int) -> gc.InvariantReport:
        if m not in self._ag_inv:
            self._ag_inv[m] = gc.compute_invariants(self.ag(m))
        return self._ag_inv[m]

    def ag_gi(self, m: int) -> dict:
        """gi values for every unordered non-leaf vertex pair of the
        discrete model, keyed by (label, label)."""
        if m not in self._ag_gi:
            g = self.ag(m)
            nonleaf = [u for u in g.labels if gc.degree(g, u) != 1]
            table = {}
            for a, b in itertools.combinations(nonleaf, 2):
                table[(a, b)] = gc.gi(g, a, b)
            self._ag_gi[m] = table
        return self._ag_gi[m]

    def dg(self, t: Topology) -> UGraph:
        if t not in self._dg:
            self._dg[t] = build_dg(t)
        return self._dg[t]

    def dg_inv(self, t: Topology) -> gc.InvariantReport:
        if t not in self._dg_inv:
            self._dg_inv[t] = gc.compute_invariants(self.dg(t))
        return self._dg_inv[t]


def _applies_all(x: _Space) -> bool:
    return True


def _applies_discrete(x: _Space) -> bool:
    return x.cls.is_discrete


def _applies_multipoint(x: _Space) -> bool:
    # the ring-side vertex notions are vacuous on a one-point space
    return x.t.n >= 2


def _eq(expected, computed, witness: dict | None = None) -> ClaimResult:
    if expected == computed:
        return ClaimResult(PASS, expected=expected, computed=computed)
    return ClaimResult(FAIL, expected=expected, computed=computed, witness=witness or {})


def _graph_witness(t: Topology, g: UGraph, **extra) -> dict:
    w = {"topology": t.to_text(), "edges": [[a.render(), b.render()] for a, b in g.edges()]}
    w.update(extra)
    return w


# --------------------------------------------------------------------------
# Operator-level claims.  The identities of the open-set calculus hold on
# every finite topology; a claim states them as a row of laws, and one
# checker evaluates the row over the space's operator tables.
# --------------------------------------------------------------------------


# What each coordinate of a law ranges over: u, v subsets; g, h open sets;
# s, r selectors of component unions.
_RANGES = {
    "u": lambda x: range(len(x.i)), "v": lambda x: range(len(x.i)),
    "g": lambda x: x.t.opens, "h": lambda x: x.t.opens,
    "s": lambda x: range(len(x.q)), "r": lambda x: range(len(x.q)),
}


def _laws(record: str, *parts):
    """Checker for a row of laws.  A part is (coordinates, law), and
    ``law(x, *masks)`` must hold on the operator tables x for every tuple
    of the coordinates' ranges.  The first false tuple is the witness; a
    pass records the size of the first part's domain under ``record``."""

    def check(ws, x):
        for coords, law in parts:
            for masks in itertools.product(*(_RANGES[c](x) for c in coords)):
                if not law(x, *masks):
                    return ClaimResult(FAIL, witness={
                        "topology": x.t.to_text(), **{c: f"{m:#x}" for c, m in zip(coords, masks)}})
        size = math.prod(len(_RANGES[c](x)) for c in parts[0][0])
        return ClaimResult(PASS, computed={record: size})

    return check


def _generated_span(x, s: int) -> int:
    """Cozero union of the ideal generated by the functions supported on
    the components s selects: every selector inside s contributes."""
    span = 0
    for c in range(len(x.q)):
        if c & ~s == 0:
            span |= x.q[c]
    return span


def _element_ag_b_truth(x, u: int) -> bool:
    return x.cl[u] != x.full and interior_mask(x.t, x.cl[u]) != 0


def _c_strict_cup(ws, x):
    t, i = x.t, x.i
    for u in range(1 << t.n):
        for v in range(u, 1 << t.n):
            lhs = i[u & v]
            rhs = i[u] | i[v]
            if rhs & ~lhs == 0 and lhs != rhs:
                sides = {"i_of_intersection": PointSet(t.n, lhs), "union_of_i": PointSet(t.n, rhs)}
                return ClaimResult(PASS, "strict inclusion", sides, {
                    "topology": t.to_text(), "u": PointSet(t.n, u), "v": PointSet(t.n, v), **sides,
                })
    return ClaimResult(NA, computed="no strict pair on this space")


def _c_strict_cap(ws, x):
    t = x.t
    cozeros = sorted(m for m in x.q if m)
    for a, b in itertools.combinations(cozeros, 2):
        if a & b:
            sides = {"cozero_union_of_intersection": PointSet(t.n, 0),
                     "intersection_of_cozero_unions": PointSet(t.n, a & b)}
            return ClaimResult(PASS, "strict inclusion", sides, {
                "topology": t.to_text(), "cozero_u": PointSet(t.n, a),
                "cozero_v": PointSet(t.n, b), **sides, "ideal_level_strict": False,
            })
    return ClaimResult(NA, computed="no overlapping distinct cozero sets")


def _c_lem_o_onto(ws, x):
    t = x.t
    for g in t.opens:
        for c in x.comps:
            if g & c not in (0, c):
                return ClaimResult(
                    FAIL,
                    expected="every open is a union of weak components",
                    computed=f"open {g:#x} splits component {c:#x}",
                    witness={"topology": t.to_text(), "open": PointSet(t.n, g)},
                )
    return ClaimResult(PASS, computed={"opens_checked": len(t.opens)})


def _c_cor_element_ag_b_literal(ws, x):
    t = x.t
    for u in range(1 << t.n):
        literal = interior_mask(t, x.cl[u]) != 0
        repaired = _element_ag_b_truth(x, u)
        if literal != repaired:
            return ClaimResult(
                FAIL,
                expected=repaired,
                computed=literal,
                witness={
                    "topology": t.to_text(),
                    "u": PointSet(t.n, u),
                    "u_dense": is_dense(t, PointSet(t.n, u)),
                    "literal_predicate": literal,
                    "repaired_predicate": repaired,
                },
            )
    return ClaimResult(PASS, computed={"subsets_checked": 1 << t.n})


def _c_cor_orthogonal(ws, x):
    t, g = x.t, ws.dg(x.t)
    if g.vertex_count < 2:
        return ClaimResult(DEGEN, computed="graph has fewer than two vertices")
    for a, b in itertools.combinations(g.labels, 2):
        lhs = gc.orthogonal(g, a, b)
        rhs = orthogonality_test(t, a, b)
        if lhs != rhs:
            return ClaimResult(
                FAIL, expected=rhs, computed=lhs,
                witness=_graph_witness(t, g, a=a, b=b),
            )
    return ClaimResult(PASS, computed={"pairs_checked": g.vertex_count * (g.vertex_count - 1) // 2})


def _c_model_reflection(ws, x):
    m = x.cls.component_count
    return _eq(1 << m, clopen_count(x.t), {"topology": x.t.to_text(), "components": m})


# --------------------------------------------------------------------------
# Graph claims.  A row names its graph and a shape; the generic checker
# guards the graph once and hands the shape the graph and its invariants.
# "ag" is the annihilating-ideal graph of the ring model, which applies to
# discrete spaces, where the ring of functions sees every point; "dg" is
# the disjoint-open-set graph, intrinsic to any finite topology.
# --------------------------------------------------------------------------

_EMPTY = {
    "ag": "no vertices on a one-point space",
    "dg": "empty graph: no qualifying open sets",
}


def _model(ws, t, graph):
    """The claim's graph and its invariants, or None when it has no vertices."""
    if graph == "ag":
        return (ws.ag(t.n), ws.ag_inv(t.n)) if t.n >= 2 else None
    inv = ws.dg_inv(t)
    return (ws.dg(t), inv) if inv.vertex_count else None


def _on_graph(graph, shape, outside=None):
    """Checker for a graph claim.  ``outside(ws, t)`` returns a note for
    spaces the statement excludes (recorded as not applicable), else None;
    ``shape(ws, x, g, inv)`` judges the claim on a nonempty graph."""

    def check(ws, x):
        if outside is not None:
            note = outside(ws, x.t)
            if note is not None:
                return ClaimResult(NA, computed=note)
        model = _model(ws, x.t, graph)
        if model is None:
            return ClaimResult(DEGEN, computed=_EMPTY[graph])
        return shape(ws, x, *model)

    return check


def _same(predicate):
    """Shape: ``predicate(x, inv)`` returns (expected, computed), which must
    be equal."""

    def shape(ws, x, g, inv):
        expected, computed = predicate(x, inv)
        if expected == computed:
            return ClaimResult(PASS, expected=expected, computed=computed)
        return ClaimResult(FAIL, expected, computed, _graph_witness(x.t, g))

    return shape


def _holds(relation: str, predicate):
    """Shape: ``predicate(x, inv)`` returns (ok, computed values); a failure
    records the relation as what was expected."""

    def shape(ws, x, g, inv):
        ok, computed = predicate(x, inv)
        if ok:
            return ClaimResult(PASS, computed=computed)
        return ClaimResult(FAIL, relation, computed, _graph_witness(x.t, g))

    return shape


def _per_vertex(classifier, measure):
    """Shape: a closed-form vertex classifier against ``measure(inv, v)``."""

    def shape(ws, x, g, inv):
        for v in g.labels:
            predicted, actual = classifier(x.t, v), measure(inv, v)
            if predicted != actual:
                return ClaimResult(FAIL, predicted, actual, _graph_witness(x.t, g, vertex=v))
        return ClaimResult(PASS, computed={"vertices_checked": g.vertex_count})

    return shape


def _distance(ws, x, g, inv):
    t = x.t
    dmat = gc.distance_matrix(g)
    for i, a in enumerate(g.labels):
        for j in range(i + 1, g.vertex_count):
            b = g.labels[j]
            predicted = distance_classifier(t, a, b)
            if predicted != dmat[i][j]:
                return ClaimResult(FAIL, predicted, dmat[i][j], _graph_witness(t, g, a=a, b=b))
    return ClaimResult(PASS, computed={"pairs_checked": g.vertex_count * (g.vertex_count - 1) // 2})


def _gi_part(case: str):
    """Shape: one part of the shortest-common-cycle lemma over the measured
    non-leaf pairs.  ``gi_case`` decides membership and ``gi_classifier``
    the predicted length; a length no other part predicts must not occur
    outside the part."""
    value = GI_CASES[case]
    exclusive = list(GI_CASES.values()).count(value) == 1

    def shape(ws, x, g, inv):
        t = x.t
        checked = 0
        for (a, b), measured in ws.ag_gi(t.n).items():
            if gi_case(t, a, b) == case:
                checked += 1
                predicted = gi_classifier(t, a, b)
                if measured != predicted:
                    return ClaimResult(FAIL, predicted, measured, _graph_witness(t, g, a=a, b=b))
            elif exclusive and measured == value:
                return ClaimResult(FAIL, f"gi={value} only inside the case", measured,
                                   _graph_witness(t, g, a=a, b=b))
        if checked == 0:
            return ClaimResult(NA, computed="no non-leaf pair matches the case")
        return ClaimResult(PASS, computed={"pairs_in_case": checked})

    return shape


def _dg_is_ag(ws, x, g, inv):
    dg = ws.dg(x.t)
    if dg.labels == g.labels and set(dg.edges()) == set(g.edges()):
        return ClaimResult(PASS, expected=True, computed=True)
    return ClaimResult(FAIL, True, False, _graph_witness(
        x.t, dg, ag_edges=[[a.render(), b.render()] for a, b in g.edges()]))


def _finite(x, inv):
    expected = (1 << x.t.n) - 2
    ok = inv.vertex_count == expected and all(
        isinstance(v, int)
        for v in (inv.clique_number, inv.chromatic_number, inv.dominating_number))
    return ({"vertex_count": expected, "all_finite": True},
            {"vertex_count": inv.vertex_count, "all_finite": ok})


def _triangulated(x, inv):
    computed = {
        "has_isolated_point": x.cls.has_isolated_point,
        "has_leaf": any(inv.is_leaf.values()),
        "is_triangulated": inv.is_triangulated,
    }
    ok = (x.cls.has_isolated_point == computed["has_leaf"] == (not inv.is_triangulated)
          and triangulated_predictor(x.t) == inv.is_triangulated)
    return ok, computed


def _dt_bounds(x, inv):
    c, dt, w = cellularity(x.t), inv.dominating_number, weight(x.t)
    return c <= dt <= w, {"cellularity": c, "dominating_number": dt, "weight": w}


def _chi_clique_cellularity(x, inv):
    c = cellularity(x.t)
    computed = {"chromatic": inv.chromatic_number, "clique": inv.clique_number, "cellularity": c}
    return inv.chromatic_number == inv.clique_number == c, computed


def _dt_two_point(ws, t):
    """On the two-point space the graph is a single edge and one vertex
    dominates it, so the dominating number is 1, below the cellularity of
    2; the domination claims hold from three points on."""
    if t.n != 2:
        return None
    return {
        "note": "two-point exception: a single vertex dominates the edge",
        "dominating_number": ws.ag_inv(t.n).dominating_number,
        "cellularity": cellularity(t),
        "weight": weight(t),
    }


def _two_points_or_fewer(ws, t):
    return "stated for spaces with more than two points" if t.n <= 2 else None


# Shapes stated for both graphs.
_STAR = _same(lambda x, inv: (x.t.n == 2, inv.is_star))
_RADIUS = _same(lambda x, inv: (radius_predictor(x.t.n, x.cls.has_isolated_point), inv.radius))
_CHI_CLIQUE_C = _holds("chromatic = clique = cellularity", _chi_clique_cellularity)
_COMPLEMENTED = _same(lambda x, inv: (True, inv.is_complemented))


# --------------------------------------------------------------------------
# Vertex-collapse (graph surjection) checkers over twin-expansion trials.
# --------------------------------------------------------------------------


def _dist_le(a, b) -> bool:
    if b is INF:
        return True
    if a is INF:
        return False
    return a <= b


_HOM_KEYS = ("diameter", "radius", "girth", "dominating_number", "clique_number",
             "chromatic_number", "is_complemented")


def _hom_values(w: HomWitness) -> dict:
    """Every compared invariant of both sides of the witness, computed once
    and handed to each part checker."""
    return {side: {key: getattr(gc, key)(g) for key in _HOM_KEYS}
            for side, g in (("source", w.source), ("target", w.target))}


def _hom_witness_dict(w: HomWitness, vals: dict, key: str) -> dict:
    return {
        "source_edges": [[str(a), str(b)] for a, b in w.source.edges()],
        "target_edges": [[str(a), str(b)] for a, b in w.target.edges()],
        "values": {
            "source": _jsonable(vals["source"][key]),
            "target": _jsonable(vals["target"][key]),
        },
    }


def _equal(s, t):
    return t, s, s == t


def _at_most(s, t):
    return "target <= source", {"source": s, "target": t}, _dist_le(t, s)


def _hom_part(key: str, compare):
    """Checker comparing one invariant of the original graph (source) with
    the collapsed one (target); ``compare(s, t)`` returns (expected,
    computed, ok).  ``vals`` are the witness's ``_hom_values``."""

    def check(w: HomWitness, vals: dict) -> ClaimResult:
        s, t = vals["source"][key], vals["target"][key]
        if s is DEGENERATE or t is DEGENERATE:
            return ClaimResult(DEGEN, computed="graph too small for this invariant")
        expected, computed, ok = compare(s, t)
        if ok:
            return ClaimResult(PASS, expected=expected, computed=computed)
        return ClaimResult(FAIL, expected, computed, _hom_witness_dict(w, vals, key))

    return check


def check_hom_lemma(w: HomWitness) -> dict[str, ClaimResult]:
    """Per-part verdicts of the vertex-collapse comparison for one witness."""
    w.validate()
    vals = _hom_values(w)
    return {part: _HOM_CHECKS[part](w, vals) for part in sorted(_HOM_CHECKS)}


_HOM_CHECKS = {
    "a": _hom_part("diameter", _equal),
    "b": _hom_part("radius", _equal),
    "c": _hom_part("girth", _at_most),
    "d": _hom_part("dominating_number", _at_most),
    "e": _hom_part("clique_number", _equal),
    "f": _hom_part("chromatic_number", _equal),
    "g": _hom_part("is_complemented", _equal),
}


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------


def _space_claim(cid, statement, tier, check, applies=_applies_all, find="fail"):
    return Claim(id=cid, statement=statement, tier=tier, scope="space",
                 applies=applies, check=check, find=find)


def _law_claim(cid, statement, record, *parts):
    """A guaranteed-tier identity of the open-set calculus, checked on
    every space by ``_laws``."""
    return _space_claim(cid, statement, "guaranteed", _laws(record, *parts))


def _graph_claim(cid, graph, shape, statement, outside=None):
    """A guaranteed-tier claim about one graph: "ag" claims apply to
    discrete spaces, "dg" claims to every space."""
    applies = _applies_discrete if graph == "ag" else _applies_all
    return _space_claim(cid, statement, "guaranteed", _on_graph(graph, shape, outside), applies)


def _trial_claim(cid, statement, tier, part):
    return Claim(id=cid, statement=statement, tier=tier, scope="trial",
                 check_trial=_HOM_CHECKS[part])


def _build_registry() -> dict[str, Claim]:
    claims = [
        # operator calculus, valid on every finite topology
        _law_claim(
            "lem.order",
            "The set-to-open operator U -> interior(X minus U) is antitone, is empty exactly on dense sets, is the whole space only on the empty set, and is unchanged by closing its argument.",
            "subsets_checked",
            ("u", lambda x, u: ((x.i[u] == 0) == (x.cl[u] == x.full) and (x.i[u] == x.full) == (u == 0)
                                and x.i[u] == x.i[x.cl[u]])),
            ("uv", lambda x, u, v: u & ~v != 0 or x.i[v] & ~x.i[u] == 0)),
        _law_claim(
            "prop.generated",
            "The open set attached to a family of functions equals the open set attached to the ideal the family generates (cozero unions are span-invariant).",
            "cozero_pairs_checked",
            ("sr", lambda x, s, r: _generated_span(x, s | r) == x.q[s] | x.q[r])),
        _law_claim(
            "prop.cap_cup",
            "Sums of ideals map to unions of opens and vanishing ideals turn unions into intersections; the two remaining inclusion laws hold, with equality not required.",
            "subset_pairs_checked",
            ("uv", lambda x, u, v: (x.i[u | v] == x.i[u] & x.i[v]
                                    and (x.i[u] | x.i[v]) & ~x.i[u & v] == 0)),
            # support model: sums map to unions, pairwise intersections to
            # intersections, on the component lattice
            ("sr", lambda x, s, r: x.q[s | r] == x.q[s] | x.q[r] and x.q[s & r] == x.q[s] & x.q[r])),
        _space_claim(
            "prop.I.cup.e.strict",
            "Witness search: subsets U, V whose intersection's vanishing ideal is strictly larger than the sum of the two vanishing ideals (interior(X minus (U and V)) strictly contains the union of the two interiors).",
            "explore", _c_strict_cup, find="witness"),
        _space_claim(
            "prop.O.cap.b.strict",
            "Witness search: two distinct nonzero functions with overlapping cozero sets; intersecting them as mere sets loses the overlap, so the cozero union of the intersection is strictly smaller. For ideals of a finite ring the corresponding inclusion is an equality.",
            "explore", _c_strict_cap, find="witness"),
        _law_claim(
            "prop.o_and_i",
            "The annihilator operator on open sets is idempotent after one application: applying it three times equals applying it once.",
            "opens_checked",
            ("g", lambda x, g: x.i[g] == x.i[x.i[x.i[g]]])),
        _law_claim(
            "thm.ij_zero",
            "Products and containments of ideals translate to open-set conditions: zero products mean disjoint opens; annihilator products vanish exactly when the union of opens is dense; equal closures mean equal annihilators; vanishing-ideal products vanish exactly on closure containment.",
            "open_pairs_checked",
            ("gh", lambda x, g, h: ((g & x.i[h] == 0) == (g & ~x.cl[h] == 0)
                                    and (x.i[g] & x.i[h] == 0) == (x.cl[g | h] == x.full)
                                    and (x.cl[g] == x.cl[h]) == (x.i[g] == x.i[h]))),
            ("gu", lambda x, g, u: (g & x.i[u] == 0) == (g & ~x.cl[u] == 0)),
            # support model: products of support ideals vanish iff supports
            # are disjoint iff the attached open sets are disjoint
            ("sr", lambda x, s, r: (s & r == 0) == (x.q[s] & x.q[r] == 0))),
        _law_claim(
            "cor.i_product_zero",
            "Two vanishing ideals multiply to zero exactly when the union of their defining sets is dense (their attached opens are disjoint iff the union is dense).",
            "subset_pairs_checked",
            ("uv", lambda x, u, v: (x.i[u] & x.i[v] == 0) == (x.cl[u | v] == x.full))),
        _space_claim(
            "lem.o_onto",
            "Every open set is the cozero union of some ideal; in the finite model the attainable cozero unions are exactly the unions of weak components, so this holds iff every open set is such a union (true on discrete spaces).",
            "guaranteed", _c_lem_o_onto),
        _law_claim(
            "cor.elementAG.a",
            "A nonempty open set is a graph vertex exactly when its closure is not the whole space.",
            "opens_checked",
            ("g", lambda x, g: g == 0 or is_vertex(x.t, PointSet(x.t.n, g)) == (x.cl[g] != x.full))),
        _space_claim(
            "cor.elementAG.b.literal",
            "Literal vertexhood test for the ideal vanishing on U: interior(closure(U)) nonempty. Diverges from the repaired test exactly on dense U with somewhere-dense closure; divergences are recorded, not repaired silently.",
            "explore", _c_cor_element_ag_b_literal, applies=_applies_multipoint),
        _law_claim(
            "cor.elementAG.b.repaired",
            "Repaired vertexhood test: closure(U) proper and interior(closure(U)) nonempty; equivalent to the attached open set being nonempty with non-dense closure.",
            "subsets_checked",
            ("u", lambda x, u: _element_ag_b_truth(x, u) == (x.i[u] != 0 and x.cl[x.i[u]] != x.full))),
        _space_claim(
            "cor.orthogonal",
            "Two vertices are orthogonal (adjacent with no common neighbor) exactly when their open sets are disjoint with dense union.",
            "guaranteed", _c_cor_orthogonal),
        # ring model over the discrete reflection
        _graph_claim(
            "prop.size2.diam", "ag", _same(lambda x, inv: (x.t.n == 2, inv.diameter == 1)),
            "The space has exactly two points iff the ideal graph has diameter 1."),
        _graph_claim(
            "prop.size2.clique", "ag", _same(lambda x, inv: (x.t.n == 2, inv.clique_number == 2)),
            "The space has exactly two points iff the clique number is 2."),
        _graph_claim(
            "prop.size2.bipartite", "ag",
            _same(lambda x, inv: (x.t.n == 2, inv.is_bipartite and inv.vertex_count >= 2)),
            "The space has exactly two points iff the ideal graph is bipartite with two nonempty parts."),
        _graph_claim(
            "prop.size2.complete_bipartite", "ag",
            _same(lambda x, inv: (x.t.n == 2, inv.is_complete_bipartite)),
            "The space has exactly two points iff the ideal graph is complete bipartite with two nonempty parts."),
        _graph_claim(
            "prop.diam3", "ag", _same(lambda x, inv: (x.t.n >= 3, inv.diameter == 3)),
            "The space has at least three points iff the ideal graph has diameter 3."),
        _graph_claim(
            "prop.chi_clique", "ag",
            _same(lambda x, inv: (inv.clique_number, inv.chromatic_number)),
            "Chromatic number equals clique number for the ideal graph."),
        _graph_claim(
            "prop.finite", "ag", _same(_finite),
            "A finite space yields a finite graph with one vertex per nonzero proper ideal (2^n - 2 of them) and finite degree, clique and chromatic data."),
        _graph_claim(
            "lem.distance", "ag", _distance,
            "Distance trichotomy: disjoint opens are at distance 1; overlapping opens with non-dense union at distance 2; overlapping opens with dense union at distance 3."),
        _graph_claim(
            "prop.ecc", "ag", _per_vertex(ecc_classifier, lambda inv, v: inv.eccentricity[v]),
            "Eccentricity is 3 unless a vertex's open set is a singleton; singletons have eccentricity 2 on spaces with more than two points and 1 on the two-point space."),
        _graph_claim(
            "cor.star", "ag", _STAR,
            "The space has exactly two points iff the ideal graph is a star."),
        _graph_claim(
            "thm.radius", "ag", _RADIUS,
            "Radius is 1 on the two-point space, 2 when the space is larger and has an isolated point, and 3 otherwise."),
        _graph_claim(
            "prop.leaf", "ag", _per_vertex(leaf_classifier, lambda inv, v: inv.is_leaf[v]),
            "A vertex is a leaf exactly when the complement of the closure of its open set is a singleton."),
        _graph_claim(
            "lem.gi.a", "ag", _gi_part("a"),
            "For non-leaf vertices: shortest common cycle length 3 iff the opens are disjoint and their union is not dense."),
        _graph_claim(
            "lem.gi.b", "ag", _gi_part("b"),
            "Disjoint opens with dense union give shortest common cycle length 4."),
        _graph_claim(
            "lem.gi.c", "ag", _gi_part("c"),
            "Overlapping opens with equal closures give shortest common cycle length 4 (vacuous on discrete spaces, where equal closures force equal vertices)."),
        _graph_claim(
            "lem.gi.d", "ag", _gi_part("d"),
            "Overlapping opens with distinct closures and at least two points outside the closure of the union give shortest common cycle length 4."),
        _graph_claim(
            "lem.gi.e", "ag", _gi_part("e"),
            "Shortest common cycle length 5 iff the opens overlap, their closures differ, and exactly one point lies outside the closure of the union."),
        _graph_claim(
            "lem.gi.dense_overlap", "ag", _gi_part("dense_overlap"),
            "Overlapping non-leaf vertices with distinct closures and dense union have no common neighbor; on a discrete space the shortest common cycle is two length-3 paths, length 6. This case is outside the 3/4/5 split."),
        _graph_claim(
            "thm.girth", "ag", _same(lambda x, inv: (girth_predictor(x.t.n), inv.girth)),
            "Girth is 3 once the space has more than two points; the two-point space's graph is acyclic."),
        _graph_claim(
            "thm.triangulated", "ag",
            _holds("isolated point iff leaf iff not triangulated", _triangulated),
            "The space has an isolated point iff the ideal graph has a leaf iff it is not triangulated."),
        _graph_claim(
            "thm.dt.bounds", "ag",
            _holds("cellularity <= dominating number <= weight", _dt_bounds),
            "Cellularity of the space <= dominating number of the ideal graph <= weight of the space. Holds from three points on; the two-point space is a genuine exception (one vertex dominates the single edge, below cellularity 2) and is recorded as such.",
            outside=_dt_two_point),
        _graph_claim(
            "cor.dt.discrete", "ag", _same(lambda x, inv: (x.t.n, inv.dominating_number)),
            "On a discrete space with at least three points the dominating number equals the number of points; on two points it is 1, not 2, and the exception is recorded.",
            outside=_dt_two_point),
        _graph_claim(
            "thm.dt.finite", "ag",
            _holds("dominating number = number of points",
                   lambda x, inv: (inv.dominating_number == x.t.n,
                                   {"dominating_number": inv.dominating_number})),
            "The dominating number is finite exactly for finite spaces, where it equals the number of points (from three points on; the two-point exception is recorded).",
            outside=_dt_two_point),
        _graph_claim(
            "thm.chi.clique.c", "ag", _CHI_CLIQUE_C,
            "Chromatic number = clique number = cellularity of the space."),
        _graph_claim(
            "thm.ag.complemented", "ag", _COMPLEMENTED,
            "The ideal graph is complemented: every vertex has an orthogonal partner."),
        # disjoint-open-set graph, intrinsic to the topology
        _graph_claim(
            "dg.eq.ag", "ag", _dg_is_ag,
            "On a discrete space the disjoint-open-set graph coincides label-for-label with the ideal graph."),
        _graph_claim(
            "dg.thm.a", "dg", _same(lambda x, inv: (1 if x.t.n == 2 else 3, inv.diameter)),
            "Diameter of the disjoint-open-set graph: 1 on the two-point space, else 3."),
        _graph_claim(
            "dg.thm.b", "dg", _STAR,
            "The space has exactly two points iff the disjoint-open-set graph is a star."),
        _graph_claim(
            "dg.thm.c", "dg", _RADIUS,
            "Radius of the disjoint-open-set graph follows the same three cases as the ideal graph (1 / 2 with isolated point / 3 without)."),
        _graph_claim(
            "dg.thm.d", "dg", _same(lambda x, inv: (3, inv.girth)),
            "Girth of the disjoint-open-set graph is 3 once the space has more than two points.",
            outside=_two_points_or_fewer),
        _graph_claim(
            "dg.thm.e", "dg", _CHI_CLIQUE_C,
            "Chromatic number = clique number = cellularity for the disjoint-open-set graph."),
        _graph_claim(
            "dg.thm.g", "dg", _COMPLEMENTED,
            "The disjoint-open-set graph is complemented."),
        _space_claim(
            "model.reflection",
            "The number of continuous two-valued functions is 2 to the number of weak components; collapsing components to points yields a discrete space carrying the whole function ring.",
            "guaranteed", _c_model_reflection),
        # vertex-collapse comparisons over twin-expansion trials
        _trial_claim(
            "lem.hom.a",
            "Vertex collapses that reflect, preserve and never contract edges keep the diameter unchanged (fails under twin expansion: twins sit at distance two over a collapsed distance zero).",
            "explore", "a"),
        _trial_claim(
            "lem.hom.b",
            "Such collapses keep the radius unchanged (fails under twin expansion for the same reason as the diameter).",
            "explore", "b"),
        _trial_claim(
            "lem.hom.c",
            "girth(collapsed) <= girth(original) (fails under twin expansion: two twins of an edge form a 4-cycle that collapses onto an acyclic graph).",
            "explore", "c"),
        _trial_claim(
            "lem.hom.d",
            "Dominating number does not grow under collapse: dt(collapsed) <= dt(original).",
            "guaranteed", "d"),
        _trial_claim(
            "lem.hom.e",
            "Clique number is preserved by collapse.",
            "guaranteed", "e"),
        _trial_claim(
            "lem.hom.f",
            "Chromatic number is preserved by collapse.",
            "guaranteed", "f"),
        _trial_claim(
            "lem.hom.g",
            "The original graph is complemented iff the collapsed graph is.",
            "explore", "g"),
    ]
    out: dict[str, Claim] = {}
    for c in claims:
        if c.id in out:
            raise AssertionError(f"duplicate claim id {c.id}")
        out[c.id] = c
    return out


_REGISTRY: dict[str, Claim] | None = None


def registry() -> dict[str, Claim]:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _build_registry()
    return _REGISTRY


def claims_matching(patterns: Sequence[str] | None) -> list[Claim]:
    reg = registry()
    if not patterns:
        return list(reg.values())
    out = []
    for c in reg.values():
        if any(fnmatch.fnmatchcase(c.id, p) for p in patterns):
            out.append(c)
    if not out:
        raise UsageError(f"unknown claim: no claim matches {patterns!r}")
    return out


def registry_document() -> str:
    """Markdown listing of every claim; kept in sync with docs/claims.md."""
    lines = [
        "# Claim registry",
        "",
        "Stable identifiers for every structural claim the harness checks.",
        "Guaranteed-tier claims are asserted over discrete spaces (and over",
        "seeded collapse trials for the trial-scoped ones); explore mode",
        "records verdicts for all claims over arbitrary finite topologies.",
        "",
    ]
    for c in sorted(registry().values(), key=lambda c: c.id):
        lines.append(f"- `{c.id}` ({c.tier}, {c.scope}): {c.statement}")
    lines.append("")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Suite runners
# --------------------------------------------------------------------------


def evaluate_space_claim(claim: Claim, t: Topology, ws: Workspace,
                         mode: str) -> TheoremReport | None:
    """One (claim, space) cell; None when the claim does not apply."""
    if claim.scope != "space":
        raise ValueError(f"claim {claim.id} is not space-scoped")
    x = ws.space(t)
    if not claim.applies(x):
        return None
    return TheoremReport.of(claim.id, x.key, claim.check(ws, x), mode)


def run_space_suite(claims: Sequence[Claim], spaces: Iterable[Topology],
                    mode: str) -> list[TheoremReport]:
    space_claims = [c for c in claims if c.scope == "space"]
    ws = Workspace()
    cells = (evaluate_space_claim(c, t, ws, mode) for t in spaces for c in space_claims)
    reports = [r for r in cells if r is not None]
    reports.sort(key=lambda r: (r.mode, r.claim, r.space))
    return reports


def _make_trial_witness(rng: random.Random) -> HomWitness:
    nb = rng.randint(2, 8)
    edges = [(i, j) for i in range(nb) for j in range(i + 1, nb) if rng.random() < 0.5]
    base = UGraph(list(range(nb)), edges)
    mult = [rng.randint(1, 3) for _ in range(nb)]
    return twin_expansion(base, mult)


def run_hom_suite(claims: Sequence[Claim], trials: int, seed: int,
                  mode: str) -> list[TheoremReport]:
    """Seeded twin-expansion trials; the fixed probe (an edge expanded by
    two twins on each side, collapsing a 4-cycle onto a single edge) runs
    first so the findings always include it."""
    trial_claims = [c for c in claims if c.scope == "trial"]
    if not trial_claims:
        return []
    witnesses: list[tuple[str, HomWitness]] = [
        (HOM_PROBE_KEY, twin_expansion(UGraph([0, 1], [(0, 1)]), [2, 2]))
    ]
    rng = random.Random(seed)
    for i in range(trials):
        witnesses.append((f"twin:{seed}:{i:04d}", _make_trial_witness(rng)))
    reports = []
    for key, w in witnesses:
        vals = _hom_values(w)
        for claim in trial_claims:
            reports.append(TheoremReport.of(claim.id, key, claim.check_trial(w, vals), mode))
    reports.sort(key=lambda r: (r.mode, r.claim, r.space))
    return reports


# Per suite: the default top of the point range and the largest accepted.
# The guaranteed suite builds the ring model of each discrete space, the
# explore suite enumerates every labeled topology.
_SUITE_RANGE = {"guaranteed": (5, DEFAULT_MODEL_CAP), "explore": (4, DEFAULT_ENUM_CAP)}


def run_suite(
    suite: str = "guaranteed",
    n_lo: int | None = None,
    n_hi: int | None = None,
    claim_patterns: Sequence[str] | None = None,
    hom_trials: int = DEFAULT_HOM_TRIALS,
    seed: int = 0,
) -> tuple[list[TheoremReport], bool]:
    """Run a verification suite; returns (reports, ok).

    ``ok`` is False exactly when some assert-mode (guaranteed-tier) cell
    failed.  Explore mode records and never fails.
    """
    if suite not in ("guaranteed", "explore", "all"):
        raise UsageError(f"unknown suite {suite!r}")
    parts = ("guaranteed", "explore") if suite == "all" else (suite,)
    tops = {part: n_hi or _SUITE_RANGE[part][0] for part in parts}
    for part, hi in tops.items():
        if hi > _SUITE_RANGE[part][1]:
            raise UsageError(f"the {part} suite covers spaces of at most "
                             f"{_SUITE_RANGE[part][1]} points (got {hi})")
    if hom_trials < 0:
        raise UsageError(f"hom trials must be >= 0 (got {hom_trials})")
    if hom_trials > _MAX_HOM_TRIALS:
        raise UsageError(f"hom trials must be <= {_MAX_HOM_TRIALS} (got {hom_trials})")
    selected = claims_matching(claim_patterns)
    reports: list[TheoremReport] = []
    lo = max(n_lo or 2, 1)
    if "guaranteed" in tops:
        guaranteed = [c for c in selected if c.tier == "guaranteed"]
        spaces = [Topology.discrete(k) for k in range(lo, tops["guaranteed"] + 1)]
        reports.extend(run_space_suite(guaranteed, spaces, "assert"))
        reports.extend(run_hom_suite(guaranteed, hom_trials, seed, "assert"))
    if "explore" in tops:
        spaces = []
        for k in range(lo, tops["explore"] + 1):
            spaces.extend(canonical_topologies(k))
        reports.extend(run_space_suite(selected, spaces, "explore"))
        explore_trials = [c for c in selected if c.scope == "trial" and c.tier == "explore"]
        reports.extend(run_hom_suite(explore_trials, hom_trials, seed, "explore"))
    reports.sort(key=lambda r: (r.mode, r.claim, r.space))
    ok = not any(r.mode == "assert" and r.verdict == FAIL for r in reports)
    return reports, ok


def search_counterexample(claim_id: str, max_n: int = 4) -> TheoremReport | None:
    """Scan canonical topologies in deterministic order; return the first
    failure (or, for witness-search claims, the first witness) or None."""
    claim = registry().get(claim_id)
    if claim is None:
        raise UsageError(f"unknown claim: {claim_id}")
    if claim.scope != "space":
        raise UsageError(f"claim {claim_id} is trial-scoped; search runs over spaces")
    if max_n < 1:
        raise UsageError(f"max n must be >= 1 (got {max_n})")
    if max_n > DEFAULT_ENUM_CAP:
        raise UsageError(f"search enumerates spaces of at most {DEFAULT_ENUM_CAP} "
                         f"points (got {max_n})")
    ws = Workspace()
    for n in range(1, max_n + 1):
        for t in canonical_topologies(n):
            rep = evaluate_space_claim(claim, t, ws, "explore")
            if rep is None:
                continue
            if claim.find == "witness":
                if rep.verdict == PASS and rep.witness:
                    return rep
            elif rep.verdict == FAIL:
                return rep
    return None


def summarize(reports: Sequence[TheoremReport]) -> str:
    """Plain-text verdict table, one row per claim within each mode."""
    by_mode: dict[str, dict[str, dict[str, int]]] = {}
    for r in reports:
        by_mode.setdefault(r.mode, {}).setdefault(r.claim, {}).setdefault(r.verdict, 0)
        by_mode[r.mode][r.claim][r.verdict] += 1
    lines = []
    for mode in sorted(by_mode):
        lines.append(f"== {mode} ==")
        lines.append(f"{'claim':<32} {'pass':>6} {'fail':>6} {'degen':>6} {'n/a':>6}")
        for claim in sorted(by_mode[mode]):
            counts = by_mode[mode][claim]
            lines.append(
                f"{claim:<32} {counts.get(PASS, 0):>6} {counts.get(FAIL, 0):>6} "
                f"{counts.get(DEGEN, 0):>6} {counts.get(NA, 0):>6}"
            )
    total_fail = sum(1 for r in reports if r.verdict == FAIL)
    assert_fail = sum(1 for r in reports if r.verdict == FAIL and r.mode == "assert")
    lines.append(f"total reports: {len(reports)}; failures: {total_fail} "
                 f"(asserted: {assert_fail})")
    return "\n".join(lines)
