"""Child processes the benchmark spawns besides the plain ``annigraph`` CLI.

    child.py [--trace FILE] ag-gi    Workspace().ag_gi(6); prints a digest
    child.py --trace FILE cli ARGS  the annigraph CLI with spans recorded

With ``--trace`` the annigraph boundary functions are wrapped before the
work starts and the spans are written to FILE when it ends.  The work and
its output are the same as without tracing.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def ag_gi_digest() -> dict:
    from annigraph import veritas

    table = veritas.Workspace().ag_gi(6)
    hist: dict[str, int] = {}
    for value in table.values():
        key = str(getattr(value, "name", value))
        hist[key] = hist.get(key, 0) + 1
    return {"pairs": len(table), "histogram": dict(sorted(hist.items()))}


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    kind, args = argv[0], argv[1:]
    rec = None
    if trace_path is not None:
        rec = spans.Recorder()
        spans.install(rec)
    try:
        if kind == "cli":
            from annigraph import cli

            return cli.main(args)
        if kind == "ag-gi":
            print(json.dumps(ag_gi_digest(), sort_keys=True))
            return 0
        raise SystemExit(f"unknown child kind {kind!r}")
    finally:
        sys.stdout.flush()
        if rec is not None:
            rec.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
