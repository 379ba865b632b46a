import json
from pathlib import Path

import pytest

from annigraph import graphcore as gc
from annigraph import topo, veritas
from annigraph.graphcore import INF, UGraph
from annigraph.idealgraph import build_ag_discrete, twin_expansion
from annigraph.topo import Topology, canonical_form

EXPECTED_CLAIM_IDS = {
    # operator calculus
    "lem.order",
    "prop.generated",
    "prop.cap_cup",
    "prop.I.cup.e.strict",
    "prop.O.cap.b.strict",
    "prop.o_and_i",
    "thm.ij_zero",
    "cor.i_product_zero",
    "lem.o_onto",
    "cor.elementAG.a",
    "cor.elementAG.b.literal",
    "cor.elementAG.b.repaired",
    "cor.orthogonal",
    # ring model over the discrete reflection
    "prop.size2.diam",
    "prop.size2.clique",
    "prop.size2.bipartite",
    "prop.size2.complete_bipartite",
    "prop.diam3",
    "prop.chi_clique",
    "prop.finite",
    "lem.distance",
    "prop.ecc",
    "cor.star",
    "thm.radius",
    "prop.leaf",
    "lem.gi.a",
    "lem.gi.b",
    "lem.gi.c",
    "lem.gi.d",
    "lem.gi.e",
    "lem.gi.dense_overlap",
    "thm.girth",
    "thm.triangulated",
    "thm.dt.bounds",
    "cor.dt.discrete",
    "thm.dt.finite",
    "thm.chi.clique.c",
    "thm.ag.complemented",
    # disjoint-open-set graph
    "dg.eq.ag",
    "dg.thm.a",
    "dg.thm.b",
    "dg.thm.c",
    "dg.thm.d",
    "dg.thm.e",
    "dg.thm.g",
    "model.reflection",
    # vertex collapses
    "lem.hom.a",
    "lem.hom.b",
    "lem.hom.c",
    "lem.hom.d",
    "lem.hom.e",
    "lem.hom.f",
    "lem.hom.g",
}

PAIRED4 = Topology(4, [0b0000, 0b0011, 0b1100, 0b1111])

# The guaranteed identities of the open-set calculus, checked as law rows.
IDENTITY_CLAIMS = ["lem.order", "prop.generated", "prop.cap_cup", "prop.o_and_i",
                   "thm.ij_zero", "cor.i_product_zero", "cor.elementAG.a",
                   "cor.elementAG.b.repaired"]


class TestRegistry:
    def test_expected_ids(self):
        assert set(veritas.registry()) == EXPECTED_CLAIM_IDS

    def test_statements_nonempty(self):
        for c in veritas.registry().values():
            assert c.statement.strip()
            assert c.tier in ("guaranteed", "explore")
            assert c.scope in ("space", "trial")

    def test_document_in_sync(self):
        doc = Path(__file__).resolve().parent.parent / "docs" / "claims.md"
        assert doc.read_text() == veritas.registry_document()

    def test_every_statement_in_document(self):
        text = (Path(__file__).resolve().parent.parent / "docs" / "claims.md").read_text()
        for c in veritas.registry().values():
            assert f"`{c.id}`" in text
            assert c.statement in text

    def test_pattern_matching(self):
        assert {c.id for c in veritas.claims_matching(["lem.gi.*"])} == {
            "lem.gi.a", "lem.gi.b", "lem.gi.c", "lem.gi.d", "lem.gi.e",
            "lem.gi.dense_overlap",
        }
        with pytest.raises(topo.UsageError, match="unknown claim: no claim matches"):
            veritas.claims_matching(["no.such.claim"])


class TestGuaranteedSuite:
    def test_passes_on_discrete_2_to_5(self):
        reports, ok = veritas.run_suite("guaranteed", hom_trials=50, seed=11)
        assert ok
        fails = [r for r in reports if r.verdict == veritas.FAIL]
        assert fails == []
        # every guaranteed claim produced at least one report
        seen = {r.claim for r in reports}
        guaranteed = {c.id for c in veritas.registry().values() if c.tier == "guaranteed"}
        assert guaranteed <= seen

    def test_fail_verdicts_carry_witnesses(self):
        reports, _ = veritas.run_suite("explore", n_lo=2, n_hi=3, hom_trials=10, seed=3)
        for r in reports:
            if r.verdict == veritas.FAIL:
                assert r.witness is not None

    def test_reports_deterministic(self):
        a, _ = veritas.run_suite("all", n_lo=2, n_hi=3, hom_trials=15, seed=5)
        b, _ = veritas.run_suite("all", n_lo=2, n_hi=3, hom_trials=15, seed=5)
        assert [r.to_json_line() for r in a] == [r.to_json_line() for r in b]

    def test_parallel_equals_serial(self):
        # The suite runs in one process and takes no process count.
        with pytest.raises(TypeError, match="parallelism"):
            veritas.run_suite("explore", n_lo=2, n_hi=3, hom_trials=0, seed=0,
                              parallelism=2)

    def test_json_lines_schema(self):
        reports, _ = veritas.run_suite("guaranteed", n_lo=2, n_hi=3, hom_trials=5)
        for r in reports:
            d = json.loads(r.to_json_line())
            assert d["schema"] == "veritas/1"
            assert d["verdict"] in ("pass", "fail", "degenerate", "not-applicable")


class TestExploreFindings:
    def test_dg_radius_finding_on_paired_space(self):
        reports, ok = veritas.run_suite("explore", n_lo=4, n_hi=4,
                                        claim_patterns=["dg.thm.c"], hom_trials=0)
        assert ok  # explore never fails the run
        key = canonical_form(PAIRED4)
        hit = [r for r in reports if r.space == key]
        assert len(hit) == 1
        assert hit[0].verdict == veritas.FAIL
        assert hit[0].expected == 3 and hit[0].computed == 1
        assert hit[0].witness["topology"] == PAIRED4.to_text()
        assert hit[0].witness["edges"]

    def test_sierpinski_is_degenerate_for_dg(self):
        reports, _ = veritas.run_suite("explore", n_lo=2, n_hi=2,
                                       claim_patterns=["dg.thm.*"], hom_trials=0)
        key = canonical_form(Topology.sierpinski())
        rows = [r for r in reports if r.space == key]
        # dg.thm.d is stated for more than two points, hence not applicable;
        # everything else sees the empty graph and is degenerate
        assert rows
        for r in rows:
            expected = veritas.NA if r.claim == "dg.thm.d" else veritas.DEGEN
            assert r.verdict == expected

    def test_o_onto_fails_off_discrete(self):
        rep = veritas.search_counterexample("lem.o_onto", max_n=2)
        assert rep is not None and rep.verdict == veritas.FAIL


    def test_gi_parts_check_the_production_classifier(self, monkeypatch):
        monkeypatch.setattr(veritas, "gi_classifier", lambda t, g, h: 7)
        reports, ok = veritas.run_suite("guaranteed", n_lo=4, n_hi=4,
                                        claim_patterns=["lem.gi.*"], hom_trials=0)
        assert not ok
        assert {r.claim for r in reports if r.verdict == veritas.FAIL} == {
            "lem.gi.a", "lem.gi.b", "lem.gi.d", "lem.gi.e"}

    def test_identity_laws_fail_on_a_corrupted_table(self, monkeypatch):
        build = veritas._Space

        def corrupted(t):
            x = build(t)
            x.i = [m >> 1 for m in x.i]
            x.cl = [m >> 1 for m in x.cl]
            x.q = x.q[::-1]
            return x

        monkeypatch.setattr(veritas, "_Space", corrupted)
        reports, ok = veritas.run_suite("guaranteed", n_lo=3, n_hi=3,
                                        claim_patterns=IDENTITY_CLAIMS, hom_trials=0)
        assert not ok
        assert sorted(r.claim for r in reports) == sorted(IDENTITY_CLAIMS)
        for r in reports:
            assert r.verdict == veritas.FAIL
            assert r.witness["topology"] == Topology.discrete(3).to_text()
            masks = {k: v for k, v in r.witness.items() if k != "topology"}
            assert masks and all(v.startswith("0x") for v in masks.values())


class TestSpaceRecord:
    def test_explore_builds_one_record_per_space(self, monkeypatch):
        calls = {"records": 0, "labels": 0}
        build, labels = veritas._Space, topo._component_labels

        def counted_build(t):
            calls["records"] += 1
            return build(t)

        def counted_labels(t):
            calls["labels"] += 1
            return labels(t)

        monkeypatch.setattr(veritas, "_Space", counted_build)
        for module in (topo, veritas):
            monkeypatch.setattr(module, "_component_labels", counted_labels)
        reports, _ = veritas.run_suite("explore", n_lo=2, n_hi=5, hom_trials=0)
        spaces = {r.space for r in reports if r.space.startswith("n=")}
        assert len(spaces) == calls["records"] == 184
        assert calls["labels"] <= 2 * 184


class TestSearch:
    def test_girth_has_no_counterexample(self):
        assert veritas.search_counterexample("thm.girth", max_n=5) is None

    def test_literal_vertexhood_diverges_at_two_points(self):
        rep = veritas.search_counterexample("cor.elementAG.b.literal", max_n=3)
        assert rep is not None
        assert rep.space.startswith("n=2;")
        assert rep.witness["u_dense"] is True

    def test_strictness_witnesses_found(self):
        e = veritas.search_counterexample("prop.I.cup.e.strict", max_n=3)
        assert e is not None and e.verdict == veritas.PASS
        assert e.witness["u"] and e.witness["v"]
        b = veritas.search_counterexample("prop.O.cap.b.strict", max_n=3)
        assert b is not None and b.verdict == veritas.PASS
        assert b.witness["cozero_union_of_intersection"] == "{}"
        assert b.witness["intersection_of_cozero_unions"] != "{}"

    def test_unknown_claim(self):
        with pytest.raises(topo.UsageError, match="unknown claim: thm.bogus"):
            veritas.search_counterexample("thm.bogus")

    def test_trial_scope_rejected(self):
        with pytest.raises(ValueError):
            veritas.search_counterexample("lem.hom.c")


class TestHomLemma:
    def test_identity_witness_passes_everything(self):
        g = build_ag_discrete(4)
        w = twin_expansion(g, [1] * g.vertex_count)
        results = veritas.check_hom_lemma(w)
        assert set(results) == set("abcdefg")
        assert all(r.verdict == veritas.PASS for r in results.values())

    def test_probe_collapses_a_4_cycle_onto_an_edge(self):
        w = twin_expansion(UGraph([0, 1], [(0, 1)]), [2, 2])
        results = veritas.check_hom_lemma(w)
        assert results["c"].verdict == veritas.FAIL
        vals = results["c"].witness["values"]
        assert vals["source"] == 4 and vals["target"] == "INF"
        assert results["e"].verdict == veritas.PASS
        assert results["f"].verdict == veritas.PASS
        assert results["d"].verdict == veritas.PASS

    def test_guaranteed_parts_hold_on_seeded_trials(self):
        claims = veritas.claims_matching(["lem.hom.d", "lem.hom.e", "lem.hom.f"])
        reports = veritas.run_hom_suite(claims, trials=200, seed=2026, mode="assert")
        assert reports and all(r.verdict == veritas.PASS for r in reports)

    def test_explore_parts_record_probe(self):
        claims = veritas.claims_matching(["lem.hom.a", "lem.hom.b", "lem.hom.c",
                                          "lem.hom.g"])
        reports = veritas.run_hom_suite(claims, trials=5, seed=1, mode="explore")
        probe_rows = [r for r in reports if r.space == veritas.HOM_PROBE_KEY]
        assert {r.claim for r in probe_rows} == {
            "lem.hom.a", "lem.hom.b", "lem.hom.c", "lem.hom.g",
        }
        c_row = next(r for r in probe_rows if r.claim == "lem.hom.c")
        assert c_row.verdict == veritas.FAIL


class TestSummary:
    def test_table_mentions_each_claim(self):
        reports, _ = veritas.run_suite("guaranteed", n_lo=2, n_hi=3, hom_trials=5)
        table = veritas.summarize(reports)
        assert "thm.radius" in table
        assert "total reports:" in table
