import itertools

import pytest
from hypothesis import given, settings, strategies as st

from annigraph import graphcore as gc
from annigraph.graphcore import DEGENERATE, INF, UGraph

from oracles import (
    brute_chromatic,
    brute_clique,
    brute_dominating,
    brute_gi,
    brute_girth,
)


def complete(n):
    return UGraph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n):
    return UGraph(range(n), [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return UGraph(range(n), [(i, i + 1) for i in range(n - 1)])


def star(leaves):
    return UGraph(range(leaves + 1), [(0, i) for i in range(1, leaves + 1)])


@st.composite
def graphs(draw, min_n=1, max_n=10):
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    picks = draw(st.integers(0, (1 << len(pairs)) - 1))
    edges = [e for i, e in enumerate(pairs) if picks >> i & 1]
    return UGraph(range(n), edges)


class TestConstruction:
    def test_rejects_duplicates_and_loops(self):
        with pytest.raises(ValueError):
            UGraph(["a", "a"], [])
        with pytest.raises(ValueError):
            UGraph(["a", "b"], [("a", "a")])

    def test_unknown_vertex(self):
        g = path(3)
        with pytest.raises(KeyError):
            gc.eccentricity(g, 99)

    def test_edges_and_neighbors(self):
        g = path(3)
        assert g.edges() == [(0, 1), (1, 2)]
        assert g.adj[g.index[1]] == 0b101
        assert g.has_edge(0, 1) and not g.has_edge(0, 2)


class TestDistances:
    def test_path(self):
        g = path(3)
        assert gc.distance_matrix(g)[0][2] == 2
        assert gc.eccentricity(g, 1) == 1
        assert gc.radius(g) == 1
        assert gc.diameter(g) == 2

    def test_complete(self):
        assert gc.distance_matrix(complete(4))[0][3] == 1

    def test_disconnected(self):
        g = UGraph(["x", "y"], [])
        assert gc.distance_matrix(g)[0][1] == -1  # unreachable
        assert gc.diameter(g) is INF

    def test_star_and_cycle(self):
        s = star(4)
        assert gc.radius(s) == 1 and gc.diameter(s) == 2
        c5 = cycle(5)
        assert gc.radius(c5) == gc.diameter(c5) == 2

    def test_degenerate(self):
        assert gc.radius(UGraph([], [])) is DEGENERATE
        assert gc.diameter(UGraph([0], [])) is DEGENERATE
        assert gc.girth(UGraph([0], [])) is DEGENERATE


class TestGirthAndGi:
    def test_examples(self):
        assert gc.girth(cycle(4)) == 4
        assert gc.girth(path(5)) is INF
        assert gc.girth(complete(4)) == 3
        assert gc.gi(cycle(4), 0, 2) == 4
        assert gc.gi(complete(4), 0, 1) == 3
        assert gc.gi(path(4), 0, 3) is INF

    def test_gi_is_exact_past_the_search_depth(self):
        assert gc.gi(cycle(10), 0, 5) == 10
        assert gc.gi(path(6), 0, 5) is INF

    def test_two_paths_on_known_graphs(self):
        assert gc.gi_two_paths(cycle(6), 0, 3) == 6
        assert gc.gi_two_paths(complete(5), 1, 2) == 3
        assert gc.gi_two_paths(UGraph([0, 1], [(0, 1)]), 0, 1) is INF

    @given(graphs(min_n=2, max_n=9))
    def test_girth_matches_brute_force(self, g):
        assert gc.girth(g) == brute_girth(g)

    @given(st.data())
    @settings(max_examples=80)
    def test_gi_algorithms_agree(self, data):
        g = data.draw(graphs(min_n=2, max_n=12))
        u = data.draw(st.integers(0, g.vertex_count - 1))
        v = data.draw(st.integers(0, g.vertex_count - 1))
        if u == v:
            return
        bounded = gc.gi(g, u, v)
        disjoint_paths = gc.gi_two_paths(g, u, v)
        assert bounded == disjoint_paths

    @given(st.data())
    @settings(max_examples=40)
    def test_gi_matches_brute_force(self, data):
        g = data.draw(graphs(min_n=2, max_n=8))
        u = data.draw(st.integers(0, g.vertex_count - 1))
        v = data.draw(st.integers(0, g.vertex_count - 1))
        if u == v:
            return
        assert gc.gi(g, u, v) == brute_gi(g, u, v)


class TestLocalStructure:
    def test_star_flags(self):
        assert gc.is_star(star(3))
        assert gc.is_star(complete(4))  # a universal vertex exists
        assert not gc.is_star(cycle(4))
        assert gc.is_leaf(star(3), 1) and not gc.is_leaf(star(3), 0)

    def test_bipartite(self):
        assert gc.is_bipartite(cycle(4))
        assert gc.is_complete_bipartite(cycle(4))
        assert not gc.is_bipartite(complete(3))
        assert not gc.is_complete_bipartite(path(4))
        assert not gc.is_complete_bipartite(UGraph([0], []))

    def test_triangulated(self):
        assert gc.is_triangulated(complete(4))
        assert gc.is_hypertriangulated(complete(4))
        assert not gc.is_triangulated(path(3))
        assert not gc.is_hypertriangulated(path(3))
        bowtie = UGraph(range(5), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        assert gc.is_triangulated(bowtie)
        assert gc.is_hypertriangulated(bowtie)
        assert gc.is_triangulated(UGraph([], []))

    def test_orthogonality(self):
        k2 = complete(2)
        assert gc.orthogonal(k2, 0, 1)
        assert gc.is_complemented(k2)
        k3 = complete(3)
        assert not any(
            gc.orthogonal(k3, a, b) for a, b in itertools.combinations(range(3), 2)
        )
        assert not gc.is_complemented(k3)
        # in C4 the orthogonal pairs are exactly the edges
        c4 = cycle(4)
        for a, b in itertools.combinations(range(4), 2):
            assert gc.orthogonal(c4, a, b) == c4.has_edge(a, b)
        assert gc.is_complemented(c4)


class TestExactOptimization:
    def test_examples(self):
        assert gc.dominating_number(star(7)) == 1
        assert gc.dominating_number(cycle(4)) == 2
        assert gc.clique_number(complete(4)) == 4
        assert gc.chromatic_number(complete(4)) == 4
        assert gc.clique_number(cycle(5)) == 2
        assert gc.chromatic_number(cycle(5)) == 3

    @given(graphs(max_n=10))
    @settings(max_examples=50)
    def test_dominating_matches_brute_force(self, g):
        assert gc.dominating_number(g) == brute_dominating(g)

    @given(graphs(max_n=12))
    @settings(max_examples=50)
    def test_clique_matches_brute_force(self, g):
        assert gc.clique_number(g) == brute_clique(g)

    @given(graphs(max_n=9))
    @settings(max_examples=50)
    def test_chromatic_matches_brute_force(self, g):
        assert gc.chromatic_number(g) == brute_chromatic(g)

    def test_chromatic_number_of_a_long_path(self):
        assert gc.chromatic_number(path(1200)) == 2

    @given(graphs(min_n=1, max_n=10))
    def test_invariant_relations(self, g):
        assert gc.clique_number(g) <= gc.chromatic_number(g)
        assert gc.dominating_number(g) <= g.vertex_count
        if g.vertex_count >= 2 and gc.is_connected(g):
            r, d = gc.radius(g), gc.diameter(g)
            assert r <= d <= 2 * r
        if gc.is_complete_bipartite(g):
            assert gc.is_bipartite(g)
        if gc.is_star(g) and g.vertex_count >= 2:
            assert gc.diameter(g) <= 2


class TestReportsAndExports:
    def test_report_fields(self):
        rep = gc.compute_invariants(cycle(4))
        d = rep.to_json_dict()
        assert d["girth"] == 4 and d["radius"] == 2
        assert d["is_complete_bipartite"] is True
        assert not rep.is_degenerate

    @given(graphs(min_n=0, max_n=10))
    def test_report_distances_match_standalone_functions(self, g):
        rep = gc.compute_invariants(g)
        assert rep.radius == gc.radius(g)
        assert rep.diameter == gc.diameter(g)
        assert rep.is_connected == gc.is_connected(g)
        assert rep.eccentricity == {u: gc.eccentricity(g, u) for u in g.labels}

    def test_degenerate_report(self):
        rep = gc.compute_invariants(UGraph([0], []))
        assert rep.is_degenerate
        assert rep.to_json_dict()["radius"] == "DEGENERATE"

    def test_dot(self):
        out = gc.to_dot(path(2))
        assert out.startswith("graph g {")
        assert "v0 -- v1;" in out

    def test_dimacs(self):
        out = gc.to_dimacs(complete(3))
        lines = out.strip().splitlines()
        assert lines[0] == "p edge 3 3"
        assert "e 1 2" in lines
