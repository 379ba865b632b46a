import dataclasses
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from annigraph import cli, idealgraph, veritas
from annigraph.topo import Topology

SRC = Path(cli.__file__).resolve().parents[1]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTopoEnum:
    def test_counts(self, capsys):
        code, out, _ = run(capsys, "topo", "enum", "3")
        assert code == 0
        assert len(out.strip().splitlines()) == 29

    def test_canonical(self, capsys):
        code, out, _ = run(capsys, "topo", "enum", "3", "--canonical")
        assert code == 0
        assert len(out.strip().splitlines()) == 9

    def test_two_points(self, capsys):
        code, out, _ = run(capsys, "topo", "enum", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        for line in lines:
            Topology.from_text(line)

    def test_json_mirror(self, capsys):
        code, out, _ = run(capsys, "topo", "enum", "2", "--json")
        assert code == 0
        for line in out.strip().splitlines():
            Topology.from_json_dict(json.loads(line))

    def test_filter(self, capsys):
        code, out, _ = run(capsys, "topo", "enum", "3", "--filter", "discrete")
        assert code == 0
        assert len(out.strip().splitlines()) == 1

    def test_cap_exceeded_exits_2(self, capsys):
        code, _, err = run(capsys, "topo", "enum", "7")
        assert code == 2
        assert "cap" in err

    def test_unknown_filter_exits_2(self, capsys):
        code, _, err = run(capsys, "topo", "enum", "3", "--filter", "bogus")
        assert code == 2

    def test_output_file(self, capsys, tmp_path):
        out_file = tmp_path / "t.txt"
        code, _, _ = run(capsys, "topo", "enum", "2", "-o", str(out_file))
        assert code == 0
        assert len(out_file.read_text().strip().splitlines()) == 4

    def test_cap_exceeded_creates_no_output_file(self, capsys, tmp_path):
        out_file = tmp_path / "t.txt"
        code, out, err = run(capsys, "topo", "enum", "7", "-o", str(out_file))
        assert code == 2
        assert out == ""
        assert err == "error: enumeration cap is 5 (got n=7); raise the cap explicitly\n"
        assert not out_file.exists()


class TestGraph:
    def test_ag3_invariants(self, capsys):
        code, out, _ = run(capsys, "graph", "ag-discrete:3", "--invariants")
        assert code == 0
        d = json.loads(out)
        assert d["diameter"] == 3
        assert d["radius"] == 2
        assert d["girth"] == 3
        assert d["dominating_number"] == 3
        assert d["clique_number"] == 3
        assert d["chromatic_number"] == 3

    def test_ag2_is_star(self, capsys):
        code, out, _ = run(capsys, "graph", "ag-discrete:2")
        assert code == 0
        assert json.loads(out)["is_star"] is True

    def test_dg_sierpinski_degenerate(self, capsys, tmp_path):
        f = tmp_path / "sierpinski.txt"
        f.write_text(Topology.sierpinski().to_text() + "\n")
        code, out, _ = run(capsys, "graph", f"dg:{f}")
        assert code == 0
        d = json.loads(out)
        assert d["degenerate"] is True and d["vertex_count"] == 0

    def test_dg_accepts_json_file(self, capsys, tmp_path):
        f = tmp_path / "paired.json"
        t = Topology(4, [0b0000, 0b0011, 0b1100, 0b1111])
        f.write_text(json.dumps(t.to_json_dict()))
        code, out, _ = run(capsys, "graph", f"dg:{f}")
        assert code == 0
        assert json.loads(out)["vertex_count"] == 2

    def test_exports(self, capsys, tmp_path):
        dot = tmp_path / "g.dot"
        code, _, _ = run(capsys, "graph", "ag-discrete:2", "--export", "dot",
                         "-o", str(dot))
        assert code == 0
        text = dot.read_text()
        assert text.startswith("graph g {") and '"{0}"' in text

        dim = tmp_path / "g.dimacs"
        code, _, _ = run(capsys, "graph", "ag-discrete:3", "--export", "dimacs",
                         "-o", str(dim))
        assert code == 0
        assert "p edge 6 6" in dim.read_text()

        js = tmp_path / "g.json"
        code, _, _ = run(capsys, "graph", "ag-discrete:2", "--export", "json",
                         "-o", str(js))
        assert code == 0
        d = json.loads(js.read_text())
        assert d["vertices"] == ["{0}", "{1}"]

    def test_dg_exports_six_points(self, capsys, tmp_path):
        f = tmp_path / "discrete6.txt"
        f.write_text(Topology.discrete(6).to_text() + "\n")
        dot = tmp_path / "g.dot"
        code, _, err = run(capsys, "graph", f"dg:{f}", "--export", "dot", "-o", str(dot))
        assert code == 0, err
        assert dot.read_text().count(" -- ") == 301

    @pytest.mark.parametrize("n", [cli.DG_KEY_CAP + 1, 16])
    def test_dg_over_the_key_cap_exits_2(self, capsys, tmp_path, n):
        f = tmp_path / "big.txt"
        f.write_text(Topology.discrete(n).to_text() + "\n")
        code, _, err = run(capsys, "graph", f"dg:{f}", "--export", "dot")
        assert code == 2
        assert f"at most {cli.DG_KEY_CAP} points (got {n})" in err

    def test_bad_selector_exits_2(self, capsys):
        code, _, err = run(capsys, "graph", "nonsense:3")
        assert code == 2

    def test_out_of_range_exits_2(self, capsys):
        code, _, _ = run(capsys, "graph", "ag-discrete:1")
        assert code == 2

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "graph", "dg:/no/such/file")
        assert code == 2

    def test_cache_hit_matches_cold_run(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        code, cold, _ = run(capsys, "graph", "ag-discrete:3",
                            "--cache-dir", str(cache))
        assert code == 0
        assert list(cache.glob("*.json"))
        code, warm, _ = run(capsys, "graph", "ag-discrete:3",
                            "--cache-dir", str(cache))
        assert code == 0
        assert warm == cold

    def test_cache_keeps_labels_of_homeomorphic_inputs(self, capsys, tmp_path):
        # the two spaces are homeomorphic, so they share a canonical key, but
        # their graphs have different vertex labels
        cache = tmp_path / "cache"
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        first.write_text("n=3; opens=0x0,0x1,0x2,0x3,0x7\n")
        second.write_text("n=3; opens=0x0,0x2,0x4,0x6,0x7\n")
        code, out_a, _ = run(capsys, "graph", f"dg:{first}", "--cache-dir", str(cache))
        assert code == 0
        code, out_b, _ = run(capsys, "graph", f"dg:{second}", "--cache-dir", str(cache))
        assert code == 0
        code, cold_b, _ = run(capsys, "graph", f"dg:{second}")
        assert code == 0
        assert out_b == cold_b
        assert json.loads(out_b)["degree"] == {"{1}": 1, "{2}": 1}
        assert json.loads(out_a)["model"] == json.loads(out_b)["model"]

    def test_corrupt_cache_entry_is_recomputed(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        code, cold, _ = run(capsys, "graph", "ag-discrete:3", "--cache-dir", str(cache))
        assert code == 0
        [entry] = cache.glob("*.json")
        entry.write_text("{not json")
        code, again, _ = run(capsys, "graph", "ag-discrete:3", "--cache-dir", str(cache))
        assert code == 0
        assert again == cold
        assert json.loads(entry.read_text())["model"] == "ag-discrete:3"
        assert [p.name for p in cache.iterdir()] == [entry.name]

    def test_cache_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / "envcache"))
        code, _, _ = run(capsys, "graph", "ag-discrete:2")
        assert code == 0
        assert list((tmp_path / "envcache").glob("*.json"))


class TestVerify:
    def test_guaranteed_exits_0(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "guaranteed",
                             "--n-range", "2..4", "--hom-trials", "20")
        assert code == 0
        for line in out.strip().splitlines():
            d = json.loads(line)
            assert d["schema"] == "veritas/1"
            assert d["verdict"] != "fail"
        assert "== assert ==" in err

    def test_explore_records_and_exits_0(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "explore",
                             "--n-range", "2..4", "--claims", "dg.*",
                             "--hom-trials", "0")
        assert code == 0
        verdicts = {json.loads(l)["verdict"] for l in out.strip().splitlines()}
        assert "fail" in verdicts  # findings recorded without failing the run
        for part in ("dg.thm.a", "dg.thm.b", "dg.thm.c", "dg.thm.d",
                     "dg.thm.e", "dg.thm.g"):
            assert part in err

    def test_claim_filter(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "guaranteed",
                           "--n-range", "2..3", "--claims", "lem.gi.*",
                           "--hom-trials", "0")
        assert code == 0
        claims = {json.loads(l)["claim"] for l in out.strip().splitlines()}
        assert claims == {"lem.gi.a", "lem.gi.b", "lem.gi.c", "lem.gi.d",
                          "lem.gi.e", "lem.gi.dense_overlap"}

    def test_unknown_claim_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--claims", "zzz.*")
        assert code == 2
        assert err == "error: unknown claim: no claim matches ['zzz.*']\n"

    def test_bad_range_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--n-range", "oops")
        assert code == 2

    def test_byte_identical_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for target in (a, b):
            code, _, _ = run(capsys, "verify", "--suite", "all",
                             "--n-range", "2..3", "--hom-trials", "10",
                             "--seed", "42", "--out", str(target))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_parallelism_does_not_change_output(self, capsys, tmp_path):
        a, b = tmp_path / "p1.jsonl", tmp_path / "p2.jsonl"
        code, _, _ = run(capsys, "verify", "--suite", "explore",
                         "--n-range", "2..3", "--hom-trials", "0",
                         "--claims", "dg.*", "--out", str(a), "-p", "1")
        assert code == 0
        code, _, _ = run(capsys, "verify", "--suite", "explore",
                         "--n-range", "2..3", "--hom-trials", "0",
                         "--claims", "dg.*", "--out", str(b), "-p", "2")
        assert code == 0
        assert a.read_bytes() == b.read_bytes()


    def test_guaranteed_runs_on_six_points(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "guaranteed",
                           "--n-range", "2..6", "--hom-trials", "5")
        assert code == 0
        assert any(json.loads(l)["space"].startswith("n=6;") for l in out.splitlines())

    def test_report_stream_is_pinned(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--n-range", "2..4")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "47c07c8f87d2bdfeb3907beae87d9c9d4d8452ba78379d8e94abce54dc3aa850")

    def test_explore_stream_is_pinned(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "explore", "--n-range", "2..5")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "77dd3efba0ad38f93ec114a212d68267457a7cb719d19f44b322d168eec16717")

    def test_guaranteed_stream_is_pinned(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "guaranteed", "--n-range", "2..5")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "06620f195685f3bf37e691c4b751ad64ee68df9fecef3e8f03f46634aa83663a")

    @pytest.mark.parametrize("argv, limit", [
        (("verify", "--suite", "guaranteed", "--n-range", "13..13"),
         "the guaranteed suite covers spaces of at most 12 points (got 13)"),
        (("verify", "--suite", "explore", "--n-range", "2..6"),
         "the explore suite covers spaces of at most 5 points (got 6)"),
        (("verify", "--suite", "all", "--n-range", "2..6"),
         "the explore suite covers spaces of at most 5 points (got 6)"),
        (("search", "thm.girth", "--max-n", "6"),
         "search enumerates spaces of at most 5 points (got 6)"),
        (("verify", "--n-range", "2..2", "--hom-trials", "-5"),
         "hom trials must be >= 0 (got -5)"),
        (("verify", "--n-range", "2..2", "--parallelism", "0"),
         "parallelism must be >= 1 (got 0)"),
        (("search", "thm.girth", "--max-n", "-3"), "max n must be >= 1 (got -3)"),
        (("verify", "--n-range", "2..2", "-p", "65"),
         "parallelism must be at most 64 (got 65)"),
    ])
    def test_out_of_range_input_is_refused_before_any_work(
            self, capsys, monkeypatch, argv, limit):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the range was checked")

        for name in ("canonical_form", "canonical_topologies", "run_space_suite"):
            monkeypatch.setattr(veritas, name, no_work)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {limit}\n"
        assert "raise the cap" not in err


class TestSearch:
    def test_none_result(self, capsys):
        code, out, _ = run(capsys, "search", "thm.girth", "--max-n", "4")
        assert code == 0
        assert out.strip() == "none"

    def test_witness_json(self, capsys):
        code, out, _ = run(capsys, "search", "prop.I.cup.e.strict", "--max-n", "3")
        assert code == 0
        d = json.loads(out)
        assert d["claim"] == "prop.I.cup.e.strict"
        assert d["witness"]["u"]

    def test_unknown_claim_exits_2(self, capsys):
        code, _, err = run(capsys, "search", "thm.nothing")
        assert code == 2
        assert err == "error: unknown claim: thm.nothing\n"


class TestMisc:
    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0

    def test_no_command_exits_2(self, capsys):
        assert cli.main([]) == 2

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        def broken(args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "cmd_graph", broken)
        code, out, err = run(capsys, "graph", "ag-discrete:3")
        assert code == 3
        assert out == ""
        assert err.startswith("internal error:") and len(err.splitlines()) == 1
        assert "RecursionError" in err

    def test_help_exits_0(self, capsys):
        code, out, err = run(capsys, "--help")
        assert code == 0
        assert out.startswith("usage: annigraph") and err == ""

    @pytest.mark.parametrize("argv, message", [
        (("verify", "--n-range", "-1..3"), "argument --n-range: expected one argument"),
        (("topo", "enum", "abc"), "argument n: invalid int value: 'abc'"),
        ((), "the following arguments are required: cmd"),
    ])
    def test_argument_refusal_is_one_error_line(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_import_leaves_the_process_pool_out(self):
        probe = ("import sys, annigraph.cli; "
                 "print('concurrent.futures.process' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
                              timeout=120)
        assert done.stdout == "False\n"


# sha256 of the whole stdout of each command.
@pytest.mark.parametrize("argv, digest", [
    (("verify", "--suite", "guaranteed", "--n-range", "2..6"),
     "14d34956f4c85cb8787c4095f4f5c070c1e694924b156d86b77c86ba5b628d10"),
    (("verify", "--suite", "all", "--n-range", "2..5"),
     "cbb86475e62ad05be1f789e9727207d120fb2369b9814b279a95b670ec86c938"),
    (("topo", "enum", "5", "--canonical"),
     "0153e47b48c2fc9f72a6d2e5893cb74188f0ed075e4de86df4caeb6630f62dd5"),
    (("topo", "enum", "5"),
     "c7d80fb232234585f36dd1f988859da98041c4ce129faf3e58885d85ebc404f9"),
])
def test_stream_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("data, message", [
    (b'{"a":' * 100_000,
     "maximum recursion depth exceeded while decoding a JSON object from a unicode string"),
    (b'{"n": 1e999, "opens": []}', "malformed topology JSON: {'n': inf, 'opens': []}"),
    (b'{"n": 2, "opens": [0,', "Expecting value: line 1 column 22 (char 21)"),
    (b"\xff\xfe\n", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
], ids=["deep", "infinite-n", "truncated", "undecodable"])
def test_malformed_topology_file_exits_2(capsys, tmp_path, data, message):
    f = tmp_path / "bad.json"
    f.write_bytes(data)
    assert run(capsys, "graph", f"dg:{f}") == (2, "", f"error: {message}\n")


def _missing_key(ws, x):
    return {}["missing"]


def _bad_value(ws, x):
    raise ValueError("broken check")


def _broken_gi_case(t, g, h):
    raise ValueError("broken gi case")


VERIFY_3 = ("verify", "--n-range", "3..3", "--hom-trials", "0")


@pytest.mark.parametrize("argv, check, message", [
    (VERIFY_3, _missing_key, "KeyError: 'missing'"),
    (("search", "thm.girth", "--max-n", "3"), _missing_key, "KeyError: 'missing'"),
    (VERIFY_3, _bad_value, "ValueError: broken check"),
    (("search", "thm.girth", "--max-n", "3"), _bad_value, "ValueError: broken check"),
    (VERIFY_3 + ("--claims", "lem.gi.*"), None, "ValueError: broken gi case"),
], ids=["verify-KeyError", "search-KeyError", "verify-ValueError", "search-ValueError",
        "gi_case-ValueError"])
def test_engine_defect_exits_3(capsys, monkeypatch, argv, check, message):
    """A defect inside the engine is an internal error, never a usage error,
    whatever the type of the exception."""
    if check is None:
        monkeypatch.setattr(idealgraph, "gi_case", _broken_gi_case)
    else:
        claim = veritas.registry()["thm.girth"]
        monkeypatch.setitem(veritas.registry(), "thm.girth",
                            dataclasses.replace(claim, check=check))
    assert run(capsys, *argv) == (3, "", f"internal error: {message}\n")


def _entry_point(*argv, **kwargs) -> subprocess.Popen:
    """The console script's entry point, run in a fresh interpreter."""
    return subprocess.Popen(
        [sys.executable, "-c", "from annigraph.cli import main_entry; main_entry()", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)), stderr=subprocess.PIPE, **kwargs)


@pytest.mark.parametrize("argv", [("topo", "enum", "5"),
                                  ("verify", "--suite", "all", "--n-range", "2..5")])
def test_reader_going_away_ends_the_process_quietly(argv):
    # Both streams are far larger than a pipe buffer, so the writer is still
    # writing when the reader closes its end, as with ``| head -1``.
    proc = _entry_point(*argv, stdout=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == -signal.SIGPIPE
    assert err == b""


def test_closed_stdout_is_refused():
    proc = _entry_point("topo", "enum", "2", preexec_fn=lambda: os.close(1))
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err == b"error: standard output is closed\n"
