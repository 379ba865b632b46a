import itertools

import pytest
from hypothesis import given, strategies as st

from annigraph import graphcore as gc
from annigraph import idealgraph as ig
from annigraph.graphcore import INF, UGraph
from annigraph.topo import (
    PointSet,
    Topology,
    closure_mask,
    enumerate_topologies,
    interior_mask,
    is_dense,
)

SIERPINSKI = Topology.sierpinski()
PAIRED4 = Topology(4, [0b0000, 0b0011, 0b1100, 0b1111])


def ps(n, *members):
    return PointSet(n, sum(1 << p for p in members))


class TestOperators:
    # interior_mask(t, full & ~u) is the open set of the ideal vanishing on
    # u; for an open u it is the open set of the annihilator.
    def test_ideal_vertex_guards(self):
        # a vertex of the discrete model is the support of an ideal: a
        # nonempty proper subset, whose cozero union is the support itself
        assert ps(4, 0, 2) in ig.build_ag_discrete(4).labels
        assert ig.is_vertex(Topology.discrete(4), ps(4, 0, 2))
        assert not ig.is_vertex(Topology.discrete(3), ps(3, 0, 1, 2))
        assert not ig.is_vertex(Topology.discrete(3), ps(3))

    def test_i_of_set(self):
        assert interior_mask(Topology.discrete(3), 0b111 & ~0b001) == 0b110
        assert interior_mask(SIERPINSKI, 0b11 & ~0b01) == 0
        assert interior_mask(PAIRED4, 0b1111 & ~0) == 0b1111

    def test_i_of_set_dense_iff_zero(self):
        # the ideal vanishing on a dense set is zero
        assert is_dense(SIERPINSKI, ps(2, 0))
        assert interior_mask(SIERPINSKI, 0b11 & ~0b01) == 0

    def test_ann_open(self):
        assert interior_mask(Topology.discrete(4), 0b1111 & ~0b0011) == 0b1100
        assert interior_mask(PAIRED4, 0b1111 & ~0b0011) == 0b1100

    def test_ann_open_triple_identity(self):
        for n in (2, 3, 4):
            for t in enumerate_topologies(n):
                i = [interior_mask(t, t._full & ~u) for u in range(1 << n)]
                for g in t.opens:
                    assert i[g] == i[i[i[g]]]

    def test_i_of_closure_identity(self):
        for n in (2, 3):
            for t in enumerate_topologies(n):
                i = [interior_mask(t, t._full & ~u) for u in range(1 << n)]
                for u in range(1 << n):
                    assert i[u] == i[closure_mask(t, u)]

    def test_disjoint_i_iff_dense_union(self):
        for n in (2, 3):
            for t in enumerate_topologies(n):
                i = [interior_mask(t, t._full & ~u) for u in range(1 << n)]
                for u in range(1 << n):
                    for v in range(1 << n):
                        dense = closure_mask(t, u | v) == t._full
                        assert (i[u] & i[v] == 0) == dense

    def test_equal_closures_iff_equal_ann(self):
        for n in (2, 3):
            for t in enumerate_topologies(n):
                for a in t.opens:
                    for b in t.opens:
                        lhs = closure_mask(t, a) == closure_mask(t, b)
                        rhs = (interior_mask(t, t._full & ~a)
                               == interior_mask(t, t._full & ~b))
                        assert lhs == rhs


class TestModelBuilders:
    def test_ag2_is_a_single_edge(self):
        g = ig.build_ag_discrete(2)
        assert g.labels == (ps(2, 0), ps(2, 1))
        assert g.edge_count == 1
        assert gc.is_star(g)

    def test_ag3_counts(self):
        g = ig.build_ag_discrete(3)
        assert g.vertex_count == 6
        assert g.edge_count == 6
        assert gc.diameter(g) == 3

    def test_bounds(self):
        with pytest.raises(ValueError):
            ig.build_ag_discrete(1)
        with pytest.raises(ValueError):
            ig.build_ag_discrete(13)

    def test_dg_on_discrete_equals_ag(self):
        for n in range(2, 6):
            ag = ig.build_ag_discrete(n)
            dg = ig.build_dg(Topology.discrete(n))
            assert dg.labels == ag.labels
            assert set(dg.edges()) == set(ag.edges())

    def test_dg_sierpinski_empty(self):
        assert ig.build_dg(SIERPINSKI).vertex_count == 0

    def test_dg_paired(self):
        g = ig.build_dg(PAIRED4)
        assert g.vertex_count == 2 and g.edge_count == 1

    def test_tau_star_membership(self):
        assert ig.tau_star(PAIRED4) == [ps(4, 0, 1), ps(4, 2, 3)]
        assert ig.is_vertex(PAIRED4, ps(4, 0, 1))
        assert not ig.is_vertex(PAIRED4, ps(4, 0))


class TestAdjacencyAndOrthogonality:
    def test_examples(self):
        # vertices are adjacent exactly when their open sets are disjoint
        d3 = Topology.discrete(3)
        assert ig.build_dg(d3).has_edge(ps(3, 0), ps(3, 1))
        assert not ig.orthogonality_test(d3, ps(3, 0), ps(3, 1))
        d2 = Topology.discrete(2)
        assert ig.build_dg(d2).has_edge(ps(2, 0), ps(2, 1))
        assert ig.orthogonality_test(d2, ps(2, 0), ps(2, 1))
        d4 = Topology.discrete(4)
        assert ig.build_dg(d4).has_edge(ps(4, 0, 1), ps(4, 2, 3))
        assert ig.orthogonality_test(d4, ps(4, 0, 1), ps(4, 2, 3))

    def test_non_vertex_rejected(self):
        with pytest.raises(ValueError):
            ig.orthogonality_test(Topology.discrete(3), ps(3, 0), ps(3, 0, 1, 2))


class TestClassifiers:
    def test_distance_cases(self):
        d3 = Topology.discrete(3)
        assert ig.distance_classifier(d3, ps(3, 0), ps(3, 1)) == 1
        assert ig.distance_classifier(d3, ps(3, 0), ps(3, 0, 1)) == 2
        assert ig.distance_classifier(d3, ps(3, 0, 1), ps(3, 1, 2)) == 3
        with pytest.raises(ValueError):
            ig.distance_classifier(d3, ps(3, 0), ps(3, 0))

    def test_ecc_cases(self):
        d3 = Topology.discrete(3)
        assert ig.ecc_classifier(d3, ps(3, 0, 1)) == 3
        assert ig.ecc_classifier(d3, ps(3, 0)) == 2
        assert ig.ecc_classifier(Topology.discrete(2), ps(2, 0)) == 1

    def test_leaf_cases(self):
        d3 = Topology.discrete(3)
        assert ig.leaf_classifier(d3, ps(3, 0, 1))
        assert not ig.leaf_classifier(d3, ps(3, 0))
        assert not ig.leaf_classifier(Topology.discrete(4), ps(4, 0, 1))

    def test_gi_cases(self):
        d4 = Topology.discrete(4)
        assert ig.gi_classifier(d4, ps(4, 0), ps(4, 1)) == 3
        assert ig.gi_classifier(d4, ps(4, 0, 1), ps(4, 2, 3)) == 4
        assert ig.gi_classifier(d4, ps(4, 0, 1), ps(4, 1, 2)) == 5
        d5 = Topology.discrete(5)
        assert ig.gi_classifier(d5, ps(5, 0, 1, 2), ps(5, 2, 3, 4)) == 6
        assert ig.gi_case(d4, ps(4, 0), ps(4, 1)) == "a"
        assert ig.gi_case(d4, ps(4, 0, 1), ps(4, 2, 3)) == "b"
        assert ig.gi_case(d5, ps(5, 0, 1), ps(5, 1, 2)) == "d"
        assert ig.gi_case(d4, ps(4, 0, 1), ps(4, 1, 2)) == "e"
        assert ig.gi_case(d5, ps(5, 0, 1, 2), ps(5, 2, 3, 4)) == "dense_overlap"

    def test_gi_rejects_leaves(self):
        d3 = Topology.discrete(3)
        with pytest.raises(ValueError):
            ig.gi_classifier(d3, ps(3, 0, 1), ps(3, 0))

    def test_classifiers_match_bfs_on_small_models(self):
        for n in (3, 4):
            t = Topology.discrete(n)
            g = ig.build_ag_discrete(n)
            dmat = gc.distance_matrix(g)
            for i, a in enumerate(g.labels):
                assert ig.ecc_classifier(t, a) == gc.eccentricity(g, a)
                assert ig.leaf_classifier(t, a) == gc.is_leaf(g, a)
                for j in range(i + 1, g.vertex_count):
                    b = g.labels[j]
                    assert ig.distance_classifier(t, a, b) == dmat[i][j]
                    if not gc.is_leaf(g, a) and not gc.is_leaf(g, b):
                        assert ig.gi_classifier(t, a, b) == gc.gi(g, a, b)


class TestPredictors:
    def test_radius(self):
        assert ig.radius_predictor(2, True) == 1
        assert ig.radius_predictor(5, True) == 2
        assert ig.radius_predictor(3, False) == 3
        with pytest.raises(ValueError):
            ig.radius_predictor(1, True)

    def test_girth(self):
        assert ig.girth_predictor(2) is INF
        assert ig.girth_predictor(5) == 3

    def test_triangulated(self):
        assert not ig.triangulated_predictor(Topology.discrete(3))
        assert not ig.triangulated_predictor(Topology.discrete(2))
        assert ig.triangulated_predictor(Topology.indiscrete(3))


class TestSupportSumLaw:
    def test_adjacency_to_sum_is_simultaneous_adjacency(self):
        # a vertex is disjoint from a union exactly when it is disjoint
        # from both parts, i.e. adjacency to the sum ideal's support is
        # simultaneous adjacency to both summands
        n = 4
        g = ig.build_ag_discrete(n)
        for a, b in itertools.combinations(g.labels, 2):
            union = a | b
            if union not in g.index:
                continue
            for k in g.labels:
                if k in (a, b) or k == union:
                    continue
                lhs = g.has_edge(k, union)
                rhs = g.has_edge(k, a) and g.has_edge(k, b)
                assert lhs == rhs


class TestTwinExpansion:
    def test_k2_doubled_is_c4(self):
        base = UGraph(["a", "b"], [("a", "b")])
        w = ig.twin_expansion(base, [2, 2])
        w.validate()
        assert w.source.vertex_count == 4
        assert w.source.edge_count == 4
        assert gc.girth(w.source) == 4
        assert gc.girth(w.target) is INF

    def test_identity_witness(self):
        g = ig.build_ag_discrete(3)
        w = ig.twin_expansion(g, [1] * g.vertex_count)
        w.validate()
        assert gc.diameter(w.source) == gc.diameter(w.target)

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            ig.twin_expansion(UGraph([0, 1], [(0, 1)]), [0, 2])
        with pytest.raises(ValueError):
            ig.twin_expansion(UGraph([0, 1], [(0, 1)]), [1])

    def test_validation_catches_bad_maps(self):
        src = UGraph([0, 1, 2], [(0, 1)])
        tgt = UGraph(["x", "y"], [("x", "y")])
        # collapsing an edge
        bad = ig.HomWitness(src, tgt, {0: "x", 1: "x", 2: "y"})
        with pytest.raises(ValueError):
            bad.validate()
        # not onto
        bad2 = ig.HomWitness(src, tgt, {0: "x", 1: "y"})
        with pytest.raises(ValueError):
            bad2.validate()

    @given(st.data())
    def test_random_expansions_validate(self, data):
        n = data.draw(st.integers(2, 5))
        pairs = list(itertools.combinations(range(n), 2))
        picks = data.draw(st.integers(0, (1 << len(pairs)) - 1))
        base = UGraph(range(n), [e for i, e in enumerate(pairs) if picks >> i & 1])
        mult = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        ig.twin_expansion(base, mult).validate()


class TestStrictnessWitnesses:
    def test_union_law_strictness_exists_at_two_points(self):
        # on the two-point indiscrete space the two singletons are both
        # dense, so the vanishing ideal of their (empty) intersection is
        # everything while each separate vanishing ideal is zero
        t = Topology.indiscrete(2)
        i = [interior_mask(t, 0b11 & ~u) for u in range(4)]
        lhs = i[0b01 & 0b10]
        rhs = i[0b01] | i[0b10]
        assert rhs & ~lhs == 0 and lhs != rhs

    def test_sierpinski_also_strict(self):
        t = SIERPINSKI
        i = [interior_mask(t, 0b11 & ~u) for u in range(4)]
        lhs = i[0b01 & 0b10]
        rhs = i[0b01] | i[0b10]
        assert rhs & ~lhs == 0 and lhs != rhs
