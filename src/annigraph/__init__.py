"""Exact computation on finite topological spaces and their disjointness
graphs: the annihilating-ideal graph of the ring of continuous functions
(via the discrete reflection of a finite space) and the disjoint-open-set
graph of an arbitrary finite topology, plus a claim verification harness
that cross-checks closed-form classifiers against brute force."""

__version__ = "0.1.0"

from .graphcore import DEGENERATE, INF, InvariantReport, UGraph, compute_invariants
from .idealgraph import build_ag_discrete, build_dg, twin_expansion
from .topo import (
    PointSet,
    SpaceClass,
    Topology,
    canonical_form,
    canonical_topologies,
    classify,
    enumerate_topologies,
)
from .veritas import TheoremReport, registry, run_suite, search_counterexample

__all__ = [
    "DEGENERATE",
    "INF",
    "InvariantReport",
    "PointSet",
    "SpaceClass",
    "TheoremReport",
    "Topology",
    "UGraph",
    "build_ag_discrete",
    "build_dg",
    "canonical_form",
    "canonical_topologies",
    "classify",
    "compute_invariants",
    "enumerate_topologies",
    "registry",
    "run_suite",
    "search_counterexample",
    "twin_expansion",
    "__version__",
]
