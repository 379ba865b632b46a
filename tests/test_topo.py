import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from annigraph.topo import (
    PointSet,
    Topology,
    UsageError,
    canonical_form,
    canonical_topologies,
    cellularity,
    classify,
    clopen_count,
    closure_mask,
    enumerate_topologies,
    interior_mask,
    is_dense,
    isolated_points,
    weight,
    _component_labels,
)

from annigraph.cli import _FILTERS
from oracles import (
    brute_cellularity,
    brute_classes,
    brute_topologies,
    brute_two_valued_function_count,
    brute_weight,
    closure_stream,
)

SIERPINSKI = Topology.sierpinski()
PAIRED4 = Topology(4, [0b0000, 0b0011, 0b1100, 0b1111])

# Labeled-topology counts for n = 0..5 (OEIS A000798).
TOPOLOGY_COUNTS = (1, 1, 4, 29, 355, 6942)


def ps(n, *members):
    return PointSet(n, sum(1 << p for p in members))


class TestPointSet:
    def test_members_roundtrip(self):
        a = ps(4, 0, 2)
        assert a.members == (0, 2)
        assert a.render() == "{0,2}"
        assert 2 in a and 1 not in a
        assert len(a) == 2

    def test_set_algebra(self):
        a, b = ps(3, 0, 1), ps(3, 1, 2)
        assert (a & b).members == (1,)
        assert (a | b).mask == 0b111
        assert (a - b).members == (0,)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            PointSet(3, 0b1000)
        with pytest.raises(ValueError):
            ps(2, 5)
        with pytest.raises(ValueError):
            ps(2, 0) | ps(3, 0)


class TestOperators:
    def test_interior_examples(self):
        assert interior_mask(Topology.discrete(3), 0b011) == 0b011
        assert interior_mask(SIERPINSKI, 0b10) == 0
        assert interior_mask(PAIRED4, 0b1111) == 0b1111

    def test_interior_is_open(self):
        for t in enumerate_topologies(3):
            for m in range(8):
                assert t.is_open_mask(interior_mask(t, m))

    def test_closure_examples(self):
        assert closure_mask(PAIRED4, 0) == 0
        assert closure_mask(SIERPINSKI, 0b01) == 0b11
        assert closure_mask(Topology.discrete(4), 0b1010) == 0b1010

    def test_density_examples(self):
        assert is_dense(SIERPINSKI, ps(2, 0))
        assert not is_dense(Topology.discrete(3), ps(3, 0, 1))
        assert is_dense(PAIRED4, ps(4, 0, 1, 2, 3))

    def test_isolated_points(self):
        assert isolated_points(Topology.discrete(4)) == ps(4, 0, 1, 2, 3)
        assert isolated_points(SIERPINSKI) == ps(2, 0)
        assert isolated_points(Topology.indiscrete(3)) == ps(3)

    def test_minimal_neighborhood(self):
        assert Topology.discrete(5)._min_nbhd[3] == 0b01000
        assert SIERPINSKI._min_nbhd[1] == 0b11
        assert Topology.indiscrete(3)._min_nbhd[0] == 0b111

    @given(st.data())
    def test_interior_closure_laws(self, data):
        n = data.draw(st.integers(2, 4))
        t = data.draw(st.sampled_from(list(enumerate_topologies(n))))
        full = (1 << n) - 1
        a = data.draw(st.integers(0, full))
        b = data.draw(st.integers(0, full))
        assert interior_mask(t, interior_mask(t, a)) == interior_mask(t, a)
        assert closure_mask(t, closure_mask(t, a)) == closure_mask(t, a)
        assert closure_mask(t, a) == full & ~interior_mask(t, full & ~a)
        if a & ~b == 0:
            assert interior_mask(t, a) & ~interior_mask(t, b) == 0
            assert closure_mask(t, a) & ~closure_mask(t, b) == 0


class TestCardinalInvariants:
    def test_weight_examples(self):
        assert weight(Topology.discrete(4)) == 4
        assert weight(Topology.indiscrete(3)) == 1
        assert weight(SIERPINSKI) == 2

    def test_weight_against_base_search(self):
        for n in (2, 3):
            for t in enumerate_topologies(n):
                assert weight(t) == brute_weight(t)

    def test_cellularity_examples(self):
        assert cellularity(Topology.discrete(5)) == 5
        assert cellularity(Topology.indiscrete(4)) == 1
        assert cellularity(PAIRED4) == 2

    def test_cellularity_against_exhaustive_packing(self):
        for n in (2, 3, 4):
            for t in enumerate_topologies(n):
                assert cellularity(t) == brute_cellularity(t)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (3, 29), (4, 355)])
    def test_labeled_counts(self, n, count):
        assert len(list(enumerate_topologies(n))) == count == TOPOLOGY_COUNTS[n]

    def test_against_generate_and_filter_oracle(self):
        for n in (2, 3, 4):
            ours = [t.opens for t in enumerate_topologies(n)]
            assert ours == brute_topologies(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_meet_rule_matches_closure_completion(self, n):
        assert [t.opens for t in enumerate_topologies(n)] == closure_stream(n)

    def test_every_family_validates(self):
        for t in enumerate_topologies(4):
            Topology(t.n, t.opens, validate=True)

    @pytest.mark.parametrize("n", [3, 4])
    def test_validation_accepts_exactly_the_topologies(self, n):
        subsets = 1 << n
        accepted = []
        for pick in range(1 << subsets):
            fam = [m for m in range(subsets) if pick >> m & 1]
            try:
                accepted.append(Topology(n, fam, validate=True).opens)
            except ValueError:
                pass
        assert sorted(accepted) == brute_topologies(n)

    def test_deterministic_order(self):
        a = [t.to_text() for t in enumerate_topologies(3)]
        b = [t.to_text() for t in enumerate_topologies(3)]
        assert a == b == sorted(a)

    def test_stream_starts_without_collecting_the_families(self):
        tracemalloc.start()
        try:
            first = list(itertools.islice(enumerate_topologies(6, cap=6), 10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(first) == 10
        assert [t.opens for t in first] == sorted(t.opens for t in first)
        assert peak < 1 << 20

    def test_filter(self):
        discretes = list(
            enumerate_topologies(3, space_filter=lambda c: c.is_discrete)
        )
        assert len(discretes) == 1

    def test_cap(self):
        with pytest.raises(UsageError, match="enumeration cap"):
            list(enumerate_topologies(6))
        assert len(list(enumerate_topologies(5, cap=5))) == 6942


class TestCanonicalForms:
    def test_nine_classes_on_three_points(self):
        assert sum(1 for _ in canonical_topologies(3)) == 9
        # OEIS A001930: topologies on n points up to homeomorphism.
        counts = [sum(1 for _ in canonical_topologies(n)) for n in range(1, 6)]
        assert counts == [1, 3, 9, 33, 139]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_classes_match_brute_force(self, n):
        assert [t.opens for t in canonical_topologies(n)] == brute_classes(n)

    @pytest.mark.parametrize("name", sorted(_FILTERS))
    def test_filtered_classes_are_the_filtered_stream(self, name):
        keep = _FILTERS[name]
        filtered = list(canonical_topologies(4, space_filter=keep))
        assert filtered == [t for t in canonical_topologies(4) if keep(classify(t))]

    def test_every_key_names_one_representative(self):
        reps = [t.to_text() for t in canonical_topologies(4)]
        assert len(set(reps)) == len(reps)
        keys = {canonical_form(t) for t in enumerate_topologies(4)}
        assert keys == set(reps)

    def test_discrete_symmetric(self):
        t = Topology.discrete(3)
        assert canonical_form(t) == t.to_text()

    @given(st.data())
    def test_relabeling_invariance(self, data):
        import itertools as it

        n = data.draw(st.integers(2, 4))
        t = data.draw(st.sampled_from(list(enumerate_topologies(n))))
        perm = data.draw(st.sampled_from(list(it.permutations(range(n)))))
        remapped = []
        for o in t.opens:
            m = 0
            for i in range(n):
                if o >> i & 1:
                    m |= 1 << perm[i]
            remapped.append(m)
        assert canonical_form(Topology(n, remapped)) == canonical_form(t)


class TestClassification:
    def test_discrete(self):
        c = classify(Topology.discrete(3))
        assert c.is_discrete and c.is_t1 and c.is_t0
        assert c.component_count == 3

    def test_sierpinski(self):
        c = classify(SIERPINSKI)
        assert c.is_t0 and not c.is_t1 and not c.is_discrete
        assert c.component_count == 1
        assert c.has_isolated_point

    def test_paired(self):
        c = classify(PAIRED4)
        assert c.component_count == 2
        assert not c.has_isolated_point and not c.is_t0

    def test_finite_t1_implies_discrete(self):
        for n in (2, 3, 4):
            for t in enumerate_topologies(n):
                c = classify(t)
                if c.is_t1:
                    assert c.is_discrete
                if c.is_discrete:
                    assert c.is_t1 and c.is_t0


class TestReflection:
    # The discrete reflection collapses each weak component to a point.
    def test_discrete_identity(self):
        assert _component_labels(Topology.discrete(4)) == (0, 1, 2, 3)
        assert classify(Topology.discrete(4)).component_count == 4

    def test_sierpinski_collapses(self):
        assert _component_labels(SIERPINSKI) == (0, 0)
        assert classify(SIERPINSKI).component_count == 1
        assert clopen_count(SIERPINSKI) == 2

    def test_paired(self):
        assert _component_labels(PAIRED4) == (0, 0, 1, 1)
        assert classify(PAIRED4).component_count == 2
        assert clopen_count(PAIRED4) == 4

    def test_function_count_oracle(self):
        for n in (2, 3, 4):
            for t in enumerate_topologies(n):
                m = classify(t).component_count
                assert clopen_count(t) == 1 << m
                assert brute_two_valued_function_count(t) == 1 << m


class TestSerialization:
    def test_text_roundtrip(self):
        for t in enumerate_topologies(3):
            assert Topology.from_text(t.to_text()) == t

    def test_json_roundtrip(self):
        for t in enumerate_topologies(3):
            assert Topology.from_json_dict(t.to_json_dict()) == t

    def test_malformed(self):
        with pytest.raises(ValueError):
            Topology.from_text("nonsense")
        with pytest.raises(ValueError):
            Topology.from_json_dict({"n": 2})

    def test_validation(self):
        with pytest.raises(ValueError):
            Topology(2, [0b00, 0b01])  # missing the whole space
        with pytest.raises(ValueError):
            Topology(3, [0b000, 0b001, 0b010, 0b111])  # union missing
        Topology(3, [0b000, 0b001, 0b010, 0b011, 0b111])
