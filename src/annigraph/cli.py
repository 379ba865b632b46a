"""Command-line front end.

Subcommands: ``topo enum`` streams topologies, ``graph`` builds a model
and reports invariants or exports it, ``verify`` runs the claim suites,
``search`` scans canonical spaces for a counterexample or witness.

Exit codes: 0 success, 1 a guaranteed-tier claim failed, 2 usage error,
3 internal error (a defect of annigraph, reported on one line).
All outputs are byte-reproducible under fixed flags and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from . import graphcore as gc
from . import veritas
from .idealgraph import build_ag_discrete, build_dg
from .topo import (
    EnumerationCapExceeded,
    Topology,
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


@dataclass
class RunConfig:
    """Resolved flags for one invocation; fixed seed means fixed output."""

    subcommand: str
    n: int | None = None
    model: str | None = None
    suite: str = "guaranteed"
    n_range: tuple[int, int] | None = None
    claims: list[str] | None = None
    export: str | None = None
    out: str | None = None
    cache_dir: str | None = None
    parallelism: int = 1
    seed: int = 0
    hom_trials: int = veritas.DEFAULT_HOM_TRIALS


class _UsageError(Exception):
    pass


def _parse_n_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise _UsageError(f"bad range {text!r}, expected A..B") from exc
    if lo > hi or lo < 1:
        raise _UsageError(f"bad range {text!r}")
    return lo, hi


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w"), True


def _load_topology(ref: str) -> Topology:
    p = Path(ref)
    if not p.exists():
        raise _UsageError(f"topology file not found: {ref}")
    text = p.read_text().strip()
    if not text:
        raise _UsageError(f"empty topology file: {ref}")
    if text.lstrip().startswith("{"):
        return Topology.from_json_dict(json.loads(text))
    return Topology.from_text(text.splitlines()[0])


def _cache_dir(cfg: RunConfig) -> Path | None:
    d = cfg.cache_dir or os.environ.get(CACHE_ENV)
    return Path(d) if d else None


def _cache_key(labeled_key: str) -> str:
    return hashlib.sha256(f"{labeled_key}|{__version__}".encode()).hexdigest()


def _cached_invariants(cfg: RunConfig, model_key: str, labeled_key: str, graph) -> dict:
    """Invariant report of graph.  The cache is keyed by the labeled model,
    because the report names vertices by their labels; an unreadable entry
    is recomputed and replaced."""
    cdir = _cache_dir(cfg)
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


def cmd_topo_enum(cfg: RunConfig, canonical: bool, filter_name: str | None,
                  as_json: bool, max_n: int) -> int:
    space_filter = None
    if filter_name is not None:
        if filter_name not in _FILTERS:
            raise _UsageError(
                f"unknown filter {filter_name!r}; choose from {sorted(_FILTERS)}"
            )
        space_filter = _FILTERS[filter_name]
    gen = canonical_topologies if canonical else enumerate_topologies
    stream = gen(cfg.n, space_filter=space_filter, cap=max_n)
    try:
        # The generators check n against the cap on their first step, so
        # a refused n leaves no output behind.
        first = list(itertools.islice(stream, 1))
    except EnumerationCapExceeded as exc:
        raise _UsageError(str(exc)) from exc
    out, close = _open_out(cfg.out)
    try:
        for t in itertools.chain(first, stream):
            if as_json:
                out.write(json.dumps(t.to_json_dict(), sort_keys=True,
                                     separators=(",", ":")) + "\n")
            else:
                out.write(t.to_text() + "\n")
    finally:
        if close:
            out.close()
    return 0


def _build_model(cfg: RunConfig) -> tuple[str, str, object]:
    """(model key, labeled key, graph).  The model key of a dg model names
    the homeomorphism class; the labeled key names the labeled topology."""
    sel = cfg.model
    if sel.startswith("ag-discrete:"):
        try:
            n = int(sel.split(":", 1)[1])
        except ValueError as exc:
            raise _UsageError(f"bad model selector {sel!r}") from exc
        try:
            return f"ag-discrete:{n}", f"ag-discrete:{n}", build_ag_discrete(n)
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
    if sel.startswith("dg:"):
        t = _load_topology(sel.split(":", 1)[1])
        if t.n > DG_KEY_CAP:
            raise _UsageError(
                f"dg: models are keyed by their canonical form, computed for at "
                f"most {DG_KEY_CAP} points (got {t.n})"
            )
        return f"dg:{canonical_form(t)}", f"dg:{t.to_text()}", build_dg(t)
    raise _UsageError(
        f"bad model selector {sel!r}; expected ag-discrete:<n> or dg:<topology-file>"
    )


def cmd_graph(cfg: RunConfig, want_invariants: bool) -> int:
    model_key, labeled_key, graph = _build_model(cfg)
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
    if cfg.export is not None:
        if cfg.export not in artifacts:
            raise _UsageError(f"unknown export format {cfg.export!r}")
        out, close = _open_out(cfg.out)
        try:
            out.write(artifacts[cfg.export]())
        finally:
            if close:
                out.close()
    if want_invariants or cfg.export is None:
        report = _cached_invariants(cfg, model_key, labeled_key, graph)
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    n_lo = cfg.n_range[0] if cfg.n_range else None
    n_hi = cfg.n_range[1] if cfg.n_range else None
    try:
        reports, ok = veritas.run_suite(
            suite=cfg.suite,
            n_lo=n_lo,
            n_hi=n_hi,
            claim_patterns=cfg.claims,
            hom_trials=cfg.hom_trials,
            seed=cfg.seed,
            parallelism=cfg.parallelism,
        )
    except KeyError as exc:
        raise _UsageError(f"unknown claim: {exc.args[0]}") from exc
    out, close = _open_out(cfg.out)
    try:
        for r in reports:
            out.write(r.to_json_line() + "\n")
    finally:
        if close:
            out.close()
    sys.stderr.write(veritas.summarize(reports) + "\n")
    return 0 if ok else 1


def cmd_search(cfg: RunConfig, claim: str, max_n: int) -> int:
    try:
        rep = veritas.search_counterexample(claim, max_n=max_n)
    except KeyError as exc:
        raise _UsageError(f"unknown claim: {exc.args[0]}") from exc
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    if rep is None:
        sys.stdout.write("none\n")
    else:
        sys.stdout.write(json.dumps(rep.to_json_dict(), sort_keys=True, indent=2) + "\n")
    return 0


# -- argument parsing ----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
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

    p_graph = sub.add_parser("graph", help="build a model graph")
    p_graph.add_argument("model", help="ag-discrete:<n> or dg:<topology-file>")
    p_graph.add_argument("--invariants", action="store_true",
                         help="print the invariant report (default when no export)")
    p_graph.add_argument("--export", choices=["dot", "dimacs", "json"], default=None)
    p_graph.add_argument("-o", "--out", default=None)
    p_graph.add_argument("--cache-dir", default=None,
                         help=f"invariant cache directory (or ${CACHE_ENV})")

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

    p_search = sub.add_parser("search", help="scan for a counterexample/witness")
    p_search.add_argument("claim")
    p_search.add_argument("--max-n", type=int, default=4)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.cmd == "topo":
            cfg = RunConfig(subcommand="topo-enum", n=args.n, out=args.out)
            return cmd_topo_enum(cfg, args.canonical, args.filter_name,
                                 args.json, args.max_n)
        if args.cmd == "graph":
            cfg = RunConfig(subcommand="graph", model=args.model, out=args.out,
                            export=args.export, cache_dir=args.cache_dir)
            return cmd_graph(cfg, args.invariants)
        if args.cmd == "verify":
            cfg = RunConfig(
                subcommand="verify",
                suite=args.suite,
                n_range=_parse_n_range(args.n_range) if args.n_range else None,
                claims=args.claims,
                out=args.out,
                parallelism=args.parallelism,
                seed=args.seed,
                hom_trials=args.hom_trials,
            )
            return cmd_verify(cfg)
        if args.cmd == "search":
            cfg = RunConfig(subcommand="search")
            return cmd_search(cfg, args.claim, args.max_n)
        raise _UsageError(f"unknown command {args.cmd!r}")
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
