"""Record the outputs the benchmark checks against into reference.json.

    python3 perfbench/record.py

Run from the root of a checkout of the commit whose outputs are taken as
correct.  Each workload command runs once at seed 0; the digests are the
ones ``run.py`` recomputes and compares on every operation.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def trial_claims(out: bytes) -> list[str]:
    """Trial-scoped claims are the ones reported on twin-expansion keys."""
    return sorted({r["claim"] for r in map(json.loads, out.splitlines())
                   if r["space"].startswith("twin:")})


def record() -> dict:
    if run.WORK.exists():
        shutil.rmtree(run.WORK)
    run.WORK.mkdir()
    cli = {c.label: c for w in run.WORKLOADS
           for c in run.commands(w, 0, {})}

    def output(label: str) -> bytes:
        res = run.spawn(cli[label].args)
        if res.rc != 0:
            raise SystemExit(f"{label} exited {res.rc}: {res.err}")
        return res.out

    ref: dict = {}
    for key, label in (("explore", "verify-explore"), ("guaranteed", "verify-guaranteed")):
        out = output(label)
        claims = trial_claims(out)
        ref[key] = {"trial_claims": claims, **run.verify_digest(out, claims)}
    ref["invariants"] = {str(n): run.json_digest(output(f"ag-discrete:{n}"))
                         for n in range(2, 10)}
    ref["ag_gi_6"] = json.loads(output("ag-gi-6"))
    ref["enum6"] = run.lines_digest(output("enum-6"))
    return ref


if __name__ == "__main__":
    reference = record()
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {run.HERE / 'reference.json'}\n")
