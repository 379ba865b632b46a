"""Acceptance suite: every release criterion, each with its stated budget.

Each test prints one pass/fail line (run with ``pytest -s`` to see them
inline) and asserts exact values; there are no tolerances anywhere, every
comparison is integer- or boolean-exact.
"""

import itertools
import json
import time

from annigraph import cli
from annigraph import graphcore as gc
from annigraph import idealgraph as ig
from annigraph import veritas
from annigraph.graphcore import INF
from annigraph.topo import (
    PointSet,
    Topology,
    canonical_form,
    canonical_topologies,
    cellularity,
    classify,
    clopen_count,
    closure_mask,
    enumerate_topologies,
    interior_mask,
)

from oracles import brute_topologies

PAIRED4 = Topology(4, [0b0000, 0b0011, 0b1100, 0b1111])


def _report(num: int, ok: bool, desc: str) -> None:
    print(f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def test_criterion_01_two_point_model():
    start = time.monotonic()
    g = ig.build_ag_discrete(2)
    ok = (
        g.vertex_count == 2
        and g.edge_count == 1
        and gc.is_star(g)
        and gc.diameter(g) == 1
        and gc.radius(g) == 1
    )
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    _report(1, ok, f"two-point model is a single-edge star ({elapsed:.3f}s)")


def test_criterion_02_model_invariants_3_to_5():
    start = time.monotonic()
    ok = True
    for n in (3, 4, 5):
        g = ig.build_ag_discrete(n)
        inv = gc.compute_invariants(g)
        t = Topology.discrete(n)
        ok = ok and (
            inv.diameter == 3
            and inv.radius == 2
            and inv.girth == 3
            and inv.dominating_number == n
            and inv.clique_number == n
            and inv.chromatic_number == n
            and cellularity(t) == n
            and not inv.is_triangulated
            and inv.is_complemented
        )
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _report(2, ok, f"exact invariants of the 3/4/5-point models ({elapsed:.1f}s)")


def test_criterion_03_classifiers_vs_brute_force():
    mismatches = 0
    pairs_checked = 0
    for n in (3, 4, 5):
        t = Topology.discrete(n)
        g = ig.build_ag_discrete(n)
        dmat = gc.distance_matrix(g)
        leaves = {v for v in g.labels if gc.degree(g, v) == 1}
        for i, a in enumerate(g.labels):
            if ig.ecc_classifier(t, a) != gc.eccentricity(g, a):
                mismatches += 1
            if ig.leaf_classifier(t, a) != (a in leaves):
                mismatches += 1
            for j in range(i + 1, g.vertex_count):
                b = g.labels[j]
                pairs_checked += 1
                if ig.distance_classifier(t, a, b) != dmat[i][j]:
                    mismatches += 1
                if n >= 4 and a not in leaves and b not in leaves:
                    if ig.gi_classifier(t, a, b) != gc.gi(g, a, b):
                        mismatches += 1
    _report(3, mismatches == 0,
            f"classifiers agree with BFS/cycle search on {pairs_checked} pairs, "
            f"{mismatches} mismatches")


def test_criterion_04_operator_identity_sweep():
    start = time.monotonic()
    spaces = 0
    bad = 0
    for n in (1, 2, 3, 4):
        for t in enumerate_topologies(n):
            spaces += 1
            full = t._full
            imask = [interior_mask(t, full & ~u) for u in range(1 << n)]
            cmask = [closure_mask(t, u) for u in range(1 << n)]
            for g in t.opens:
                a1 = imask[g]
                if imask[imask[a1]] != a1:
                    bad += 1
            for u in range(1 << n):
                if imask[u] != imask[cmask[u]]:
                    bad += 1
            for u in range(1 << n):
                for v in range(1 << n):
                    if (imask[u] & imask[v] == 0) != (cmask[u | v] == full):
                        bad += 1
            for g in t.opens:
                for h in t.opens:
                    if (cmask[g] == cmask[h]) != (imask[g] == imask[h]):
                        bad += 1
    elapsed = time.monotonic() - start
    ok = bad == 0 and elapsed < 60.0
    _report(4, ok, f"operator identities over all {spaces} labeled topologies "
                   f"with up to 4 points ({elapsed:.1f}s, {bad} violations)")


def test_criterion_05_strictness_witnesses():
    e = veritas.search_counterexample("prop.I.cup.e.strict", max_n=3)
    b = veritas.search_counterexample("prop.O.cap.b.strict", max_n=3)
    ok = (
        e is not None
        and e.verdict == veritas.PASS
        and e.space.split(";")[0] in ("n=1", "n=2", "n=3")
        and b is not None
        and b.verdict == veritas.PASS
    )
    if ok:
        # re-verify the union-law witness strictly at the operator level
        t = Topology.from_text(e.witness["topology"])
        u = PointSet.from_members(t.n, json.loads(
            e.witness["u"].replace("{", "[").replace("}", "]")))
        v = PointSet.from_members(t.n, json.loads(
            e.witness["v"].replace("{", "[").replace("}", "]")))
        lhs = ig.i_of_set(t, u & v)
        rhs = ig.i_of_set(t, u) | ig.i_of_set(t, v)
        ok = rhs.issubset(lhs) and lhs != rhs
    _report(5, ok, "strictness witnesses for both inclusion laws found at n <= 3")


def test_criterion_06_enumeration_counts():
    start = time.monotonic()
    ok = True
    for n, count in ((2, 4), (3, 29), (4, 355)):
        ours = [t.opens for t in enumerate_topologies(n)]
        ok = ok and len(ours) == count and ours == brute_topologies(n)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    _report(6, ok, f"topology counts 4/29/355 match the generate-and-filter "
                   f"oracle ({elapsed:.1f}s)")


def test_criterion_07_dg_coincides_with_ag_on_discrete():
    ok = True
    for n in range(2, 6):
        ag = ig.build_ag_discrete(n)
        dg = ig.build_dg(Topology.discrete(n))
        ok = ok and dg.labels == ag.labels and set(dg.edges()) == set(ag.edges())
    _report(7, ok, "disjoint-open-set graph of discrete n coincides "
                   "label-for-label with the ideal model, n <= 5")


def test_criterion_08_reflection_soundness():
    ws = veritas.Workspace()
    ok = True
    spaces = 0
    for n in (1, 2, 3, 4):
        for t in enumerate_topologies(n):
            spaces += 1
            m = classify(t).component_count
            if clopen_count(t) != 1 << m:
                ok = False
            for rep in veritas.check_reflected_guaranteed(t, ws):
                if rep.verdict == veritas.FAIL:
                    ok = False
    _report(8, ok, f"two-valued function counts and reflected guaranteed "
                   f"suite over {spaces} spaces")


def test_criterion_09_hom_lemma_trials():
    claims_def = veritas.claims_matching(["lem.hom.d", "lem.hom.e", "lem.hom.f"])
    start = time.monotonic()
    reports = veritas.run_hom_suite(claims_def, trials=1000, seed=20260810,
                                    mode="assert")
    elapsed = time.monotonic() - start
    ok = bool(reports) and all(r.verdict == veritas.PASS for r in reports)

    claims_exp = veritas.claims_matching(["lem.hom.a", "lem.hom.b",
                                          "lem.hom.c", "lem.hom.g"])
    findings = veritas.run_hom_suite(claims_exp, trials=50, seed=20260810,
                                     mode="explore")
    probe = [r for r in findings
             if r.space == veritas.HOM_PROBE_KEY and r.claim == "lem.hom.c"]
    ok = ok and len(probe) == 1 and probe[0].verdict == veritas.FAIL
    vals = probe[0].witness["values"]
    ok = ok and vals["source"] == 4 and vals["target"] == "INF"

    again = veritas.run_hom_suite(claims_exp, trials=50, seed=20260810,
                                  mode="explore")
    ok = ok and [r.to_json_line() for r in findings] == [r.to_json_line() for r in again]
    _report(9, ok, f"collapse-invariance parts d/e/f hold on 1000 seeded "
                   f"trials; probe girth values recorded ({elapsed:.1f}s)")


def test_criterion_10_explore_dg_sweep(capsys, tmp_path):
    out = tmp_path / "dg.jsonl"
    code = cli.main([
        "verify", "--suite", "explore", "--n-range", "2..4",
        "--claims", "dg.*", "--hom-trials", "0", "--out", str(out),
    ])
    captured = capsys.readouterr()
    ok = code == 0
    for part in ("dg.thm.a", "dg.thm.b", "dg.thm.c", "dg.thm.d",
                 "dg.thm.e", "dg.thm.g"):
        ok = ok and part in captured.err
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    sierpinski = canonical_form(Topology.sierpinski())
    ok = ok and any(
        r["space"] == sierpinski and r["verdict"] == "degenerate" for r in rows
    )
    paired = canonical_form(PAIRED4)
    radius_finding = [
        r for r in rows
        if r["claim"] == "dg.thm.c" and r["space"] == paired
        and r["verdict"] == "fail"
    ]
    ok = ok and len(radius_finding) == 1
    ok = ok and radius_finding[0]["expected"] == 3
    ok = ok and radius_finding[0]["computed"] == 1
    _report(10, ok, "explore sweep over canonical spaces with up to 4 points "
                    "emits per-part findings, including the degenerate and "
                    "no-isolated-point cases, and exits 0")
