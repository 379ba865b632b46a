"""Command-line front end.

Subcommands: ``topo enum`` streams topologies, ``graph`` builds a model
and reports invariants or exports it, ``verify`` runs the claim suites,
``search`` scans canonical spaces for a counterexample or witness.

Exit codes: 0 success, 1 a guaranteed-tier claim failed, 2 refused input,
3 internal error.  Exit 2 comes from a ``UsageError``, raised only where
input from outside the program is checked (arguments, claim ids, topology
files), or from an ``OSError`` (a file that cannot be read or written);
each prints one ``error:`` line.  Any other exception is a defect of
annigraph and exits 3 with one ``internal error:`` line.  The console
script dies quietly of SIGPIPE when its reader goes away, as other filters
do.  All outputs are byte-reproducible under fixed flags and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import signal
import sys
import tempfile
from pathlib import Path

from . import __version__
from . import graphcore as gc
from . import veritas
from .idealgraph import build_ag_discrete, build_dg
from .topo import (
    Topology,
    UsageError,
    canonical_form,
    canonical_topologies,
    enumerate_topologies,
)

CACHE_ENV = "ANNIGRAPH_CACHE"
# Largest dg: space whose canonical key is computed.  The key tries all n!
# relabelings: about 0.5 s for the discrete 7-point space, 9 s for 8 points.
DG_KEY_CAP = 7

_FILTERS = {
    "discrete": lambda c: c.is_discrete,
    "t0": lambda c: c.is_t0,
    "not-t0": lambda c: not c.is_t0,
    "t1": lambda c: c.is_t1,
    "has-isolated": lambda c: c.has_isolated_point,
    "no-isolated": lambda c: not c.has_isolated_point,
    "connected": lambda c: c.component_count == 1,
}


class _Parser(argparse.ArgumentParser):
    """Refuses bad arguments with a UsageError instead of the usage text."""

    def error(self, message: str):
        raise UsageError(message)


def _parse_n_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}, expected A..B") from exc
    if lo > hi or lo < 1:
        raise UsageError(f"bad range {text!r}")
    return lo, hi


def _stdout():
    if sys.stdout is None:  # the process was started with stdout closed
        raise UsageError("standard output is closed")
    return sys.stdout


def _open_out(path: str | None):
    if path is None or path == "-":
        return _stdout(), False
    return open(path, "w"), True


def _load_topology(ref: str) -> Topology:
    p = Path(ref)
    if not p.exists():
        raise UsageError(f"topology file not found: {ref}")
    try:  # undecodable bytes, malformed JSON, or JSON nested too deep to parse
        text = p.read_text().strip()
        data = json.loads(text) if text.startswith("{") else None
    except (ValueError, RecursionError) as exc:
        raise UsageError(str(exc)) from exc
    if data is not None:
        return Topology.from_json_dict(data)
    if not text:
        raise UsageError(f"empty topology file: {ref}")
    return Topology.from_text(text.splitlines()[0])


def _cache_key(labeled_key: str) -> str:
    return hashlib.sha256(f"{labeled_key}|{__version__}".encode()).hexdigest()


def _cached_invariants(cache_dir: str | None, model_key: str, labeled_key: str,
                       graph) -> dict:
    """Invariant report of graph.  The cache is keyed by the labeled model,
    because the report names vertices by their labels; an unreadable entry
    is recomputed and replaced."""
    d = cache_dir or os.environ.get(CACHE_ENV)
    cdir = Path(d) if d else None
    if cdir is not None:
        cdir.mkdir(parents=True, exist_ok=True)
        path = cdir / f"{_cache_key(labeled_key)}.json"
        try:
            return json.loads(path.read_text())
        except (FileNotFoundError, ValueError):
            pass  # missing or damaged entry: compute and write it below
    report = gc.compute_invariants(graph).to_json_dict()
    report["model"] = model_key
    if cdir is not None:
        fd, tmp = tempfile.mkstemp(dir=cdir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(json.dumps(report, sort_keys=True, separators=(",", ":")))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    return report


# -- subcommands -------------------------------------------------------------


def cmd_topo_enum(args) -> int:
    space_filter = None
    if args.filter_name is not None:
        if args.filter_name not in _FILTERS:
            raise UsageError(
                f"unknown filter {args.filter_name!r}; choose from {sorted(_FILTERS)}"
            )
        space_filter = _FILTERS[args.filter_name]
    gen = canonical_topologies if args.canonical else enumerate_topologies
    stream = gen(args.n, space_filter=space_filter, cap=args.max_n)
    # The generators check n against the cap on their first step, so a
    # refused n leaves no output behind.
    first = list(itertools.islice(stream, 1))
    out, close = _open_out(args.out)
    try:
        for t in itertools.chain(first, stream):
            if args.json:
                out.write(json.dumps(t.to_json_dict(), sort_keys=True,
                                     separators=(",", ":")) + "\n")
            else:
                out.write(t.to_text() + "\n")
    finally:
        if close:
            out.close()
    return 0


def _build_model(sel: str) -> tuple[str, str, object]:
    """(model key, labeled key, graph).  The model key of a dg model names
    the homeomorphism class; the labeled key names the labeled topology."""
    if sel.startswith("ag-discrete:"):
        try:
            n = int(sel.split(":", 1)[1])
        except ValueError as exc:
            raise UsageError(f"bad model selector {sel!r}") from exc
        return f"ag-discrete:{n}", f"ag-discrete:{n}", build_ag_discrete(n)
    if sel.startswith("dg:"):
        t = _load_topology(sel.split(":", 1)[1])
        if t.n > DG_KEY_CAP:
            raise UsageError(
                f"dg: models are keyed by their canonical form, computed for at "
                f"most {DG_KEY_CAP} points (got {t.n})"
            )
        return f"dg:{canonical_form(t)}", f"dg:{t.to_text()}", build_dg(t)
    raise UsageError(
        f"bad model selector {sel!r}; expected ag-discrete:<n> or dg:<topology-file>"
    )


def cmd_graph(args) -> int:
    model_key, labeled_key, graph = _build_model(args.model)
    artifacts = {
        "dot": lambda: gc.to_dot(graph, render_label=str),
        "dimacs": lambda: gc.to_dimacs(graph, comment=model_key),
        "json": lambda: json.dumps(
            {
                "model": model_key,
                "vertices": [str(v) for v in graph.labels],
                "edges": [[str(a), str(b)] for a, b in graph.edges()],
            },
            sort_keys=True, separators=(",", ":"),
        ) + "\n",
    }
    if args.export is not None:
        out, close = _open_out(args.out)
        try:
            out.write(artifacts[args.export]())
        finally:
            if close:
                out.close()
    if args.invariants or args.export is None:
        report = _cached_invariants(args.cache_dir, model_key, labeled_key, graph)
        _stdout().write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_verify(args) -> int:
    n_lo, n_hi = _parse_n_range(args.n_range) if args.n_range else (None, None)
    reports, ok = veritas.run_suite(
        suite=args.suite,
        n_lo=n_lo,
        n_hi=n_hi,
        claim_patterns=args.claims,
        hom_trials=args.hom_trials,
        seed=args.seed,
        parallelism=args.parallelism,
    )
    out, close = _open_out(args.out)
    try:
        for r in reports:
            out.write(r.to_json_line() + "\n")
    finally:
        if close:
            out.close()
    sys.stderr.write(veritas.summarize(reports) + "\n")
    return 0 if ok else 1


def cmd_search(args) -> int:
    rep = veritas.search_counterexample(args.claim, max_n=args.max_n)
    text = "none" if rep is None else json.dumps(rep.to_json_dict(), sort_keys=True, indent=2)
    _stdout().write(text + "\n")
    return 0


# -- argument parsing ----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="annigraph",
        description="Disjointness graphs of finite topological spaces: exact "
                    "invariants and claim verification.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    p_topo = sub.add_parser("topo", help="topology utilities")
    topo_sub = p_topo.add_subparsers(dest="topo_cmd", required=True)
    p_enum = topo_sub.add_parser("enum", help="enumerate topologies on n points")
    p_enum.add_argument("n", type=int)
    p_enum.add_argument("--canonical", action="store_true",
                        help="one representative per homeomorphism class")
    p_enum.add_argument("--filter", dest="filter_name", default=None,
                        help=f"space-class filter: {', '.join(sorted(_FILTERS))}")
    p_enum.add_argument("--json", action="store_true", help="JSON lines output")
    p_enum.add_argument("--max-n", type=int, default=5,
                        help="enumeration cap (default 5)")
    p_enum.add_argument("-o", "--out", default=None)
    p_enum.set_defaults(func=cmd_topo_enum)

    p_graph = sub.add_parser("graph", help="build a model graph")
    p_graph.add_argument("model", help="ag-discrete:<n> or dg:<topology-file>")
    p_graph.add_argument("--invariants", action="store_true",
                         help="print the invariant report (default when no export)")
    p_graph.add_argument("--export", choices=["dot", "dimacs", "json"], default=None)
    p_graph.add_argument("-o", "--out", default=None)
    p_graph.add_argument("--cache-dir", default=None,
                         help=f"invariant cache directory (or ${CACHE_ENV})")
    p_graph.set_defaults(func=cmd_graph)

    p_verify = sub.add_parser("verify", help="run the claim suites")
    p_verify.add_argument("--suite", choices=["guaranteed", "explore", "all"],
                          default="guaranteed")
    p_verify.add_argument("--n-range", default=None, help="e.g. 2..5")
    p_verify.add_argument("--claims", nargs="*", default=None,
                          help="claim id patterns, e.g. dg.* lem.gi.*")
    p_verify.add_argument("--out", default=None, help="JSONL report path (default stdout)")
    p_verify.add_argument("--hom-trials", type=int, default=veritas.DEFAULT_HOM_TRIALS)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--parallelism", "-p", type=int, default=1)
    p_verify.set_defaults(func=cmd_verify)

    p_search = sub.add_parser("search", help="scan for a counterexample/witness")
    p_search.add_argument("claim")
    p_search.add_argument("--max-n", type=int, default=4)
    p_search.set_defaults(func=cmd_search)

    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help or --version has printed its text
        return exc.code
    except (UsageError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3


def main_entry() -> None:
    # A reader that goes away (``| head``) ends the process quietly, as it
    # does for other filters.  Only here: tests call main() in-process.
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
