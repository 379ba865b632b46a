"""Open-set operator calculus and the two disjointness graphs it induces.

For a finite space the ring of real-valued continuous functions is a
finite product of copies of the reals, one factor per weak component, so
its ideals are exactly the coordinate-support ideals.  The
annihilating-ideal graph therefore has one vertex per nonempty proper
support, with disjoint supports adjacent; ``build_ag_discrete`` realizes
it exactly.  For a non-discrete finite space the ring only sees the
discrete reflection, while ``build_dg`` constructs the intrinsic
disjoint-open-set graph on the topology itself: vertices are the nonempty
opens whose complement has nonempty interior, adjacency is disjointness.

The ideal-side operators live at open-set level in the operator tables
that the verification harness builds once per space (``veritas._Space``):
``i[u]`` = interior(X \\ U) is the open set attached to the ideal of
functions vanishing on U, and, for an open G, ``i[G]`` is the open set of
the annihilator of an ideal with open support G; ``cl[u]`` is closure(U).

The closed-form classifiers (distance, eccentricity, leaf, shortest cycle
through a pair, radius, girth, triangulatedness) predict graph facts from
these operators alone; the verification harness checks them against brute
force.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .graphcore import INF, Distance, UGraph
from .topo import (
    PointSet,
    Topology,
    UsageError,
    closure_mask,
    interior_mask,
    isolated_points,
)

DEFAULT_MODEL_CAP = 12


def tau_star(t: Topology) -> list[PointSet]:
    """Vertex set of the disjoint-open-set graph: nonempty opens whose
    complement has nonempty interior."""
    out = []
    for m in t.opens:
        if m and interior_mask(t, t._full & ~m):
            out.append(PointSet(t.n, m))
    return out


def is_vertex(t: Topology, g: PointSet) -> bool:
    t._check(g)
    return (
        t.is_open(g)
        and g.mask != 0
        and interior_mask(t, t._full & ~g.mask) != 0
    )


def _require_vertex(t: Topology, g: PointSet) -> None:
    if not is_vertex(t, g):
        raise ValueError(f"{g.render()} is not a graph vertex for this space")


def build_ag_discrete(n: int) -> UGraph:
    """Annihilating-ideal graph of the ring of functions on a discrete
    n-point space: one vertex per nonempty proper subset, adjacency is
    disjointness."""
    if not 2 <= n <= DEFAULT_MODEL_CAP:
        raise UsageError(f"discrete model needs 2 <= n <= {DEFAULT_MODEL_CAP}, got {n}")
    labels = [PointSet(n, m) for m in range(1, (1 << n) - 1)]
    edges = []
    for a, b in itertools.combinations(labels, 2):
        if a.mask & b.mask == 0:
            edges.append((a, b))
    return UGraph(labels, edges)


def build_dg(t: Topology) -> UGraph:
    """Disjoint-open-set graph of an arbitrary finite topology; may be
    empty (e.g. when no open has a complement with interior)."""
    labels = tau_star(t)
    edges = []
    for a, b in itertools.combinations(labels, 2):
        if a.mask & b.mask == 0:
            edges.append((a, b))
    return UGraph(labels, edges)


def orthogonality_test(t: Topology, g: PointSet, h: PointSet) -> bool:
    """Adjacent with no common neighbor: disjoint open sets whose union
    is dense."""
    _require_vertex(t, g)
    _require_vertex(t, h)
    return g.mask & h.mask == 0 and closure_mask(t, g.mask | h.mask) == t._full


# -- closed-form classifiers ---------------------------------------------


def distance_classifier(t: Topology, g: PointSet, h: PointSet) -> int:
    """Predicted graph distance between two vertices: 1 when disjoint, 2
    when they overlap and the union is not dense, 3 when they overlap and
    the union is dense."""
    _require_vertex(t, g)
    _require_vertex(t, h)
    if g == h:
        raise ValueError("distance classifier needs two distinct vertices")
    if g.mask & h.mask == 0:
        return 1
    return 2 if closure_mask(t, g.mask | h.mask) != t._full else 3


def ecc_classifier(t: Topology, g: PointSet) -> int:
    """Predicted eccentricity: 3 unless the open set is a singleton, in
    which case 2 for spaces with more than two points and 1 otherwise."""
    _require_vertex(t, g)
    if len(g) != 1:
        return 3
    return 2 if t.n > 2 else 1


def leaf_classifier(t: Topology, g: PointSet) -> bool:
    """Predicted leafhood: the complement of the closure is a singleton."""
    _require_vertex(t, g)
    return (t._full & ~closure_mask(t, g.mask)).bit_count() == 1


# Parts of the shortest-common-cycle lemma (named as in the claim ids
# ``lem.gi.<part>``) and the cycle length each one predicts.
GI_CASES = {"a": 3, "b": 4, "c": 4, "d": 4, "e": 5, "dense_overlap": 6}


def gi_case(t: Topology, g: PointSet, h: PointSet) -> str:
    """The part of the shortest-common-cycle lemma that covers two
    non-leaf vertices; the hypothesis excludes leaves, which are rejected.

    Case split on the two open sets: disjoint pairs fall in part a (union
    not dense) or b (union dense); overlapping pairs with equal closures
    in part c; overlapping pairs with distinct closures are governed by
    how many points lie outside the closure of the union: two or more give
    part d, exactly one part e, and none leaves the pair at distance 3
    with no common neighbor (part dense_overlap).
    """
    _require_vertex(t, g)
    _require_vertex(t, h)
    if g == h:
        raise ValueError("gi classifier needs two distinct vertices")
    if leaf_classifier(t, g) or leaf_classifier(t, h):
        raise ValueError("gi classifier is undefined on leaf vertices")
    union_cl = closure_mask(t, g.mask | h.mask)
    if g.mask & h.mask == 0:
        return "a" if union_cl != t._full else "b"
    if closure_mask(t, g.mask) == closure_mask(t, h.mask):
        return "c"
    outside = (t._full & ~union_cl).bit_count()
    if outside >= 2:
        return "d"
    return "e" if outside == 1 else "dense_overlap"


def gi_classifier(t: Topology, g: PointSet, h: PointSet) -> int:
    """Predicted length of the shortest cycle through two non-leaf
    vertices: 3 or 4 for disjoint opens, 4 for overlapping opens with
    equal closures or at least two points outside the closure of the
    union, 5 for exactly one such point, and 6 for none, where the
    shortest common cycle is two length-3 paths (see ``gi_case``)."""
    return GI_CASES[gi_case(t, g, h)]


def radius_predictor(m: int, has_isolated: bool) -> int:
    """Predicted radius of the annihilating-ideal graph over a space with
    m points: 1 for two points, 2 when an isolated point exists, else 3."""
    if m < 2:
        raise ValueError("radius prediction needs at least two points")
    if m == 2:
        return 1
    return 2 if has_isolated else 3


def girth_predictor(m: int) -> Distance:
    """Predicted girth: 3 once the space has more than two points, and no
    cycle at all on the two-point space."""
    if m < 2:
        raise ValueError("girth prediction needs at least two points")
    return INF if m == 2 else 3


def triangulated_predictor(t: Topology) -> bool:
    """The graph is triangulated exactly when the space has no isolated
    point."""
    return not bool(isolated_points(t))


# -- graph-collapse witnesses ----------------------------------------------


@dataclass
class HomWitness:
    """A surjection of vertex sets that reflects and preserves edges and
    never collapses an edge; twin expansions below generate valid ones."""

    source: UGraph
    target: UGraph
    phi: dict

    def validate(self) -> None:
        mapped = set()
        for u in self.source.labels:
            if u not in self.phi:
                raise ValueError(f"map undefined on {u!r}")
            v = self.phi[u]
            if v not in self.target.index:
                raise ValueError(f"{u!r} maps outside the target graph")
            mapped.add(v)
        if mapped != set(self.target.labels):
            raise ValueError("map is not onto the target vertices")
        for a, b in itertools.combinations(self.source.labels, 2):
            src_edge = self.source.has_edge(a, b)
            fa, fb = self.phi[a], self.phi[b]
            if src_edge and fa == fb:
                raise ValueError(f"edge {{{a!r},{b!r}}} collapses to one vertex")
            tgt_edge = fa != fb and self.target.has_edge(fa, fb)
            if src_edge != tgt_edge:
                raise ValueError(
                    f"edge condition violated at {{{a!r},{b!r}}}"
                )


def twin_expansion(base: UGraph, multiplicities: Sequence[int]) -> HomWitness:
    """Replace each base vertex by k mutually non-adjacent copies with the
    base vertex's neighborhood; collapsing the copies is a valid witness."""
    if len(multiplicities) != base.vertex_count:
        raise ValueError("one multiplicity per base vertex required")
    if any(k < 1 for k in multiplicities):
        raise ValueError("multiplicities must be at least 1")
    labels = []
    phi = {}
    for lab, k in zip(base.labels, multiplicities):
        for copy in range(k):
            twin = (lab, copy)
            labels.append(twin)
            phi[twin] = lab
    edges = []
    for a, b in base.edges():
        ka = multiplicities[base.index[a]]
        kb = multiplicities[base.index[b]]
        for i in range(ka):
            for j in range(kb):
                edges.append(((a, i), (b, j)))
    return HomWitness(source=UGraph(labels, edges), target=base, phi=phi)
