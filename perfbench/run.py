"""annigraph benchmark: batch CLI workloads timed from outside.

    python3 perfbench/run.py --workload explore|models|enum6 --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``).
Load model: closed loop, one client.  The commands of a workload run back
to back, each in a fresh interpreter, one at a time, because that is what
a CLI user pays: ``topo``'s canonical-form cache and ``veritas.Workspace``
are per-process memos that must not carry over between repetitions.  The
seed goes to ``verify --seed`` only; the space cells, the models and the
enumeration do not depend on it.

Workloads (why each was chosen):
    explore  ``verify --suite explore --n-range 2..5``: the heaviest user
             path, dominated by canonicalization and claim checkers; the
             graphs it builds are tiny.
    models   ``graph ag-discrete:<n> --invariants`` for n = 2..9, then
             ``verify --suite guaranteed --n-range 2..5``, then the gi
             table of the 6-point model through the library: graph
             invariants and gi on graphs of up to 510 vertices, with no
             canonicalization beyond discrete n <= 5.
    enum6    ``topo enum 6 --max-n 6``: 209 527 labeled topologies and
             15.8 MB of text; labeled enumeration, Topology construction
             and output, with no canonicalization.

Every command's output is checked against ``reference.json`` (recorded at
the seed by ``record.py``).  An operation is one command; it fails on a
nonzero exit, a traceback or a wrong output.

Timings are per child, from spawn to exit (``os.wait4`` gives that
child's own CPU time and peak RSS).  The speed of this shared host swings
by up to 2x within seconds, so each child's times are rescaled to a
reference speed by the ``Probe`` sampling the same CPU while it runs.
The raw times and the probe series are printed and kept in
``.perfbench_run/last.json`` so host drift can be told apart from a code
change.  Set-up children are timed against a bare interpreter start
spawned just before each one instead (see ``Run.setup_children``).
Reported values are medians over the repetitions of one run.

With ``--trace 1`` repetitions alternate untraced and traced; traced
children wrap the package's boundary functions (see ``spans.py``) and the
per-layer metrics come from the traced ones, ``trace_overhead`` from the
pair.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
CHILD = str(HERE / "child.py")
CLI = ["-c", "from annigraph.cli import main_entry; main_entry()"]
SETUP = ["-c", "import annigraph, annigraph.veritas; annigraph.veritas.registry()"]
BARE = ["-c", "pass"]

# Seconds of one warm ``probe_unit`` in the reference host's fastest state
# (2-core x86-64 VM, Python 3.11.7).  Only ratios to it matter; it is a
# constant so that two runs of the same code report the same seconds.
PROBE_REF_S = 0.00043
PROBE_GAP_S = 0.02
PROBE_WINDOW_S = 1.0
# Seconds of a BARE child, spawn to exit, at the same reference speed.
BARE_REF_S = 0.043
SETUP_PER_REP = 3  # set-up children before each repetition
SETUP_MIN = 15  # taken at the end if the repetitions gave fewer
CHILD_TIMEOUT_S = 170.0
WORKLOADS = ("explore", "models", "enum6")


class CheckError(Exception):
    pass


@dataclass
class Command:
    label: str
    args: list[str]  # interpreter arguments of the untraced child
    traced: Callable[[str], list[str]]  # trace file -> interpreter arguments
    check: Callable[[bytes], None]
    heavy: bool = False  # the command whose first output byte is timed


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    first_out: float | None
    rc: int
    out: bytes
    err: str
    t0: float  # spawn time, on the time.perf_counter clock


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "ANNIGRAPH_CACHE"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


ENV = child_env()


def spawn(args: list[str]) -> Child:
    """Run one child to completion; time it from spawn to reaped exit."""
    with open(WORK / "stderr.txt", "w+b") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                             stdout=subprocess.PIPE, stderr=err, cwd=WORK, env=ENV)
        killer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
        killer.start()
        reaped = False
        try:
            fd = p.stdout.fileno()
            chunks, first = [], None
            while chunk := os.read(fd, 1 << 20):
                if first is None:
                    first = time.perf_counter() - t0
                chunks.append(chunk)
            _, status, usage = os.wait4(p.pid, 0)
            wall = time.perf_counter() - t0
            reaped = True
        finally:
            killer.cancel()
            p.stdout.close()
            if not reaped:
                p.kill()
                p.wait()
        p.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        err_text = err.read().decode(errors="replace")
    return Child(wall=wall, cpu=usage.ru_utime + usage.ru_stime,
                 rss_mb=usage.ru_maxrss / 1024.0, first_out=first,
                 rc=p.returncode, out=b"".join(chunks), err=err_text, t0=t0)


# -- output digests and checks -------------------------------------------------


def verify_digest(out: bytes, trial_claims: list[str]) -> dict:
    """What a verify run must reproduce, independent of the canonical-key
    format: the (mode, claim, verdict) table of its space cells and the
    number of reports of each trial claim (trial verdicts vary with the
    seed; space cells do not)."""
    table: Counter = Counter()
    trials: Counter = Counter()
    for line in out.splitlines():
        r = json.loads(line)
        if r["claim"] in trial_claims:
            trials[r["claim"]] += 1
        else:
            table[f"{r['mode']} {r['claim']} {r['verdict']}"] += 1
    return {"space_cells": sum(table.values()),
            "space_table": dict(sorted(table.items())),
            "trial_reports": dict(sorted(trials.items()))}


def json_digest(out: bytes) -> str:
    doc = json.loads(out)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def lines_digest(out: bytes) -> dict:
    lines = out.splitlines()
    distinct = sorted(set(lines))
    return {"lines": len(lines), "distinct": len(distinct),
            "sha256_sorted": hashlib.sha256(b"\n".join(distinct)).hexdigest()}


def _expect(name: str, got, want) -> None:
    if got != want:
        raise CheckError(f"{name}: got {str(got)[:300]}, want {str(want)[:300]}")


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def commands(workload: str, seed: int, ref: dict) -> list[Command]:
    def cli(label, argv, check, heavy=False):
        return Command(label, CLI + argv,
                       lambda tf: [CHILD, "--trace", tf, "cli", *argv], check, heavy)

    def check_verify(key):
        def check(out: bytes) -> None:
            r = ref[key]
            _expect(key, verify_digest(out, r["trial_claims"]),
                    {k: r[k] for k in ("space_cells", "space_table", "trial_reports")})
        return check

    seed_args = ["--seed", str(seed)]
    if workload == "explore":
        return [cli("verify-explore",
                    ["verify", "--suite", "explore", "--n-range", "2..5", *seed_args],
                    check_verify("explore"), heavy=True)]
    if workload == "models":
        cmds = []
        for n in range(2, 10):
            cmds.append(cli(f"ag-discrete:{n}", ["graph", f"ag-discrete:{n}", "--invariants"],
                            lambda out, n=n: _expect(f"ag-discrete:{n}", json_digest(out),
                                                     ref["invariants"][str(n)]),
                            heavy=n == 9))
        cmds.append(cli("verify-guaranteed",
                        ["verify", "--suite", "guaranteed", "--n-range", "2..5", *seed_args],
                        check_verify("guaranteed")))
        cmds.append(Command(
            "ag-gi-6", [CHILD, "ag-gi"],
            lambda tf: [CHILD, "--trace", tf, "ag-gi"],
            lambda out: _expect("ag-gi-6", json.loads(out), ref["ag_gi_6"])))
        return cmds
    if workload == "enum6":
        return [cli("enum-6", ["topo", "enum", "6", "--max-n", "6"],
                    lambda out: _expect("enum-6", lines_digest(out), ref["enum6"]),
                    heavy=True)]
    raise ValueError(workload)


def judge(cmd: Command, res: Child) -> str | None:
    """None when the operation succeeded, else why it failed."""
    if res.rc != 0:
        return f"exit code {res.rc}"
    if "Traceback" in res.err:
        return "traceback on stderr"
    try:
        cmd.check(res.out)
    except (CheckError, ValueError, KeyError, TypeError) as exc:
        return f"wrong output: {exc}"
    return None


# -- per-layer metrics from the spans ------------------------------------------

CLASSIFIERS = ("distance_classifier", "ecc_classifier", "leaf_classifier", "gi_classifier")
CLAIM_FAMILIES = ("cor", "dg", "lem", "model", "prop", "thm")
SELF_TIMES = (
    "topo.canonical_topologies", "topo.canonical_form", "topo.classify",
    "topo.enumerate_topologies", "topo.Topology",
    "idealgraph.build_ag_discrete", "idealgraph.build_dg",
    "graphcore.compute_invariants", "graphcore.girth", "graphcore.eccentricity",
    "graphcore.radius", "graphcore.diameter", "graphcore.dominating_number",
    "graphcore.clique_number", "graphcore.chromatic_number", "graphcore.gi",
    "veritas.evaluate_space_claim", "veritas.Workspace.ag_gi",
    "veritas.run_hom_suite", "cli.main",
    *(f"veritas.claims.{f}" for f in CLAIM_FAMILIES),
)
CALL_COUNTS = (
    "topo.canonical_form", "topo.classify", "topo.Topology", "idealgraph.build_dg",
    "idealgraph.gi_classifier", "graphcore.compute_invariants",
    "graphcore.eccentricity", "graphcore.gi",
)


def merge(summaries: list[dict]) -> dict:
    out: dict = {"spans": {}, "counts": Counter()}
    for s in summaries:
        for name, v in s["spans"].items():
            acc = out["spans"].setdefault(name, dict.fromkeys(v, 0))
            for k in acc:
                acc[k] += v[k]
        out["counts"].update(s["counts"])
    return out


def layer_metrics(agg: dict, output_bytes: int) -> dict[str, float]:
    sp, cnt = agg["spans"], Counter(agg["counts"])

    def get(name, key):
        return sp.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for name in SELF_TIMES:
        m[f"{name}.s"] = get(name, "s")
    for name in CALL_COUNTS:
        m[f"{name}.calls"] = get(name, "calls")
    m["topo.classes_yielded"] = cnt["topo.classes_yielded"]
    m["topo.labeled_yielded"] = cnt["topo.labeled_yielded"]
    m["topo.class_yield_ratio"] = ratio(cnt["topo.classes_yielded"], cnt["topo.labeled_yielded"])
    m["idealgraph.vertices_built"] = cnt["idealgraph.vertices_built"]
    m["idealgraph.classifiers.calls"] = sum(get(f"idealgraph.{c}", "calls") for c in CLASSIFIERS)
    m["idealgraph.classifiers.s"] = sum(get(f"idealgraph.{c}", "s") for c in CLASSIFIERS)
    # Eccentricity runs per vertex of an invariant report (claims that
    # call eccentricity directly are not counted).
    m["graphcore.eccentricity.per_vertex"] = ratio(
        get("graphcore.eccentricity", "in_scope"), cnt["graphcore.invariant_vertices"])
    m["graphcore.gi_fallback_ratio"] = ratio(
        get("graphcore.gi_two_paths", "calls"), get("graphcore.gi", "calls"))
    cells = get("veritas.evaluate_space_claim", "calls")
    m["veritas.cells"] = cells
    m["veritas.cells_applicable_ratio"] = ratio(cnt["veritas.cells_applicable"], cells)
    lookups = [sp[n] for n in sp if n.startswith("veritas.Workspace.")]
    m["veritas.workspace_hit_ratio"] = ratio(sum(v["leaves"] for v in lookups),
                                             sum(v["calls"] for v in lookups))
    m["veritas.trials"] = get("idealgraph.twin_expansion", "calls")
    m["cli.output_bytes"] = output_bytes
    return m


# -- host speed probe ----------------------------------------------------------


def probe_unit() -> None:
    """Fixed interpreter work of the kind annigraph does (bit masks, small
    sorted tuples, dict traffic); it never touches the program under test."""
    x, seen = 12345, {}
    for _ in range(700):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        fam = tuple(sorted((x & 63, (x >> 6) & 63, (x >> 12) & 63)))
        seen[fam] = seen.get(fam, 0) + 1


class Probe:
    """Samples the speed of the CPU the children run on.

    This host's speed swings by up to 2x within seconds and drifts over
    minutes.  The parent and its children are pinned to one CPU, and this
    thread wakes every PROBE_GAP_S, runs ``probe_unit`` twice and takes the
    thread CPU time of the second, warm run (CPU time, so that time the
    probe spends preempted by a child does not count).  A child's speed
    factor is the mean of PROBE_REF_S / sample over the samples taken while
    it ran, so its wall seconds times the factor are seconds at the
    reference speed, close to the host's fastest state.  The probe takes
    about 4% of the CPU, the same share in every run.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (end time, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.is_set():
            probe_unit()
            c0 = time.thread_time()
            probe_unit()
            self.samples.append((time.perf_counter(), time.thread_time() - c0))
            self._stop.wait(PROBE_GAP_S)

    def __enter__(self) -> "Probe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def speed(self, t0: float, t1: float) -> float:
        """Mean speed over [t0, t1], widened to PROBE_WINDOW_S for short
        children: a handful of samples is noisier than the host's drift
        within a second."""
        pad = max(0.0, PROBE_WINDOW_S - (t1 - t0)) / 2
        inside = [d for t, d in self.samples if t0 - pad <= t <= t1 + pad]
        inside = inside or [d for _, d in self.samples]
        return statistics.fmean(PROBE_REF_S / d for d in inside)


# -- one run -------------------------------------------------------------------


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    cmds: list[Command]
    setup: list[dict] = field(default_factory=list)
    reps: list[dict] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def setup_children(self, k: int) -> None:
        """Each set-up child runs right after a BARE one, and its time is
        taken as a multiple of that interpreter start, in BARE_REF_S units.
        Process start-up is mostly exec, page faults and unmarshalling, which
        the probe's pure-Python speed tracks poorly; a bare start just before
        slows down with the host the same way: on the reference host the
        median ratio over a run's worth of pairs spreads about 4% from run
        to run, against about 13% with probe rescaling."""
        for _ in range(k):
            bare, res = spawn(BARE), spawn(SETUP)
            if bare.rc != 0 or res.rc != 0:
                raise RuntimeError(f"setup child failed: {bare.err}{res.err}")
            self.setup.append({"t0": res.t0, "raw_wall": res.wall, "bare_wall": bare.wall,
                               "cpu": res.cpu, "wall": res.wall / bare.wall * BARE_REF_S})

    def rep(self, traced: bool) -> None:
        rows = []
        for i, cmd in enumerate(self.cmds):
            trace_file = str(WORK / f"spans-{i}.bin")
            res = spawn(cmd.traced(trace_file) if traced else cmd.args)
            why = judge(cmd, res)
            self.attempted += 1
            if why is not None:
                self.failures.append(f"{cmd.label}: {why}")
            rows.append({
                "label": cmd.label, "t0": res.t0, "raw_wall": res.wall,
                "raw_first_out": res.first_out if res.first_out is not None else res.wall,
                "cpu": res.cpu, "rss_mb": res.rss_mb, "bytes": len(res.out),
                "heavy": cmd.heavy, "ok": why is None,
                "spans": spans.summarize(trace_file) if traced and why is None else None,
            })
        self.reps.append({"traced": traced, "commands": rows})

    def execute(self) -> None:
        """Repetitions until the next would pass the deadline.  The set-up
        children are spread between them, so that their median sees the
        host's drift over the whole run."""
        deadline = time.perf_counter() + self.seconds
        rounds = []
        while True:
            t0 = time.perf_counter()
            self.setup_children(SETUP_PER_REP)
            self.rep(traced=self.trace and len(self.reps) % 2 == 1)
            rounds.append(time.perf_counter() - t0)
            enough = not self.trace or len(self.reps) >= 2
            if enough and time.perf_counter() + statistics.fmean(rounds) > deadline:
                break
        self.setup_children(SETUP_MIN - len(self.setup))

    def rescale(self, probe: Probe) -> None:
        """Attach each child's speed factor and its times in reference
        seconds, once the probe has its samples from around every child."""
        for row in (c for r in self.reps for c in r["commands"]):
            row["speed"] = k = probe.speed(row["t0"], row["t0"] + row["raw_wall"])
            row["wall"] = row["raw_wall"] * k
            if "raw_first_out" in row:
                row["first_out"] = row["raw_first_out"] * k
        for r in self.reps:
            rows = r["commands"]
            r["raw_wall"] = sum(c["raw_wall"] for c in rows)
            r["wall"] = sum(c["wall"] for c in rows)
            r["first_out"] = next(c["first_out"] for c in rows if c["heavy"])
            r["rss_mb"] = max(c["rss_mb"] for c in rows)
            r["bytes"] = sum(c["bytes"] for c in rows)


def med(values) -> float:
    return statistics.median(values)


def end_to_end(run: Run) -> dict[str, tuple[float, str, int]]:
    reps = run.reps
    return {
        "wall_s": (med(r["wall"] for r in reps), "s", len(reps)),
        "setup_s": (med(s["wall"] for s in run.setup), "s", len(run.setup)),
        "first_output_s": (med(r["first_out"] for r in reps), "s", len(reps)),
        "peak_rss_mb": (max(r["rss_mb"] for r in reps), "MB", len(reps)),
    }


def scaled(summary: dict, speed: float) -> dict:
    """A span summary with its self times in reference seconds."""
    return {"counts": summary["counts"],
            "spans": {n: {**v, "s": v["s"] * speed} for n, v in summary["spans"].items()}}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(("_ratio", "_overhead", ".per_vertex")):
        return "ratio"
    return "count"


def per_layer(run: Run, probe: Probe) -> dict[str, tuple[float, str, int]]:
    """Self times are medians over the traced repetitions; counts are exact
    and taken from the first.  A failed command contributes no spans."""
    traced = [r for r in run.reps if r["traced"]]
    plain = [r for r in run.reps if not r["traced"]]
    per_rep = [layer_metrics(merge([scaled(c["spans"], c["speed"])
                                    for c in r["commands"] if c["spans"] is not None]),
                             r["bytes"])
               for r in traced]
    values = {name: [m[name] for m in per_rep] for name in per_rep[0]}
    values["trace_overhead"] = [med(r["wall"] for r in traced) / med(r["wall"] for r in plain)]
    values["probe_s"] = [med(d for _, d in probe.samples)]
    return {name: (med(v) if layer_unit(name) == "s" else v[0], layer_unit(name), len(v))
            for name, v in values.items()}


def per_command_counts(run: Run) -> list[str]:
    """Human-readable per-command view of the traced repetition's counts."""
    lines = []
    traced = [r for r in run.reps if r["traced"]]
    if not traced:
        return lines
    for c in traced[0]["commands"]:
        if c["spans"] is None:
            continue
        label, m = c["label"], layer_metrics(scaled(c["spans"], c["speed"]), 0)
        top = max((n for n in m if n.endswith(".s")), key=m.get)
        counts = {n: m[n] for n in ("topo.classify.calls", "topo.canonical_form.calls",
                                    "graphcore.gi.calls", "graphcore.eccentricity.per_vertex")
                  if m[n]}
        lines.append(f"  {label}: top self time {top}={m[top]:.3f}s {json.dumps(counts)}")
    return lines


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "annigraph" / "__init__.py").is_file():
        sys.stderr.write(f"error: no annigraph source under {SRC}; "
                         "run from the root of an annigraph checkout\n")
        return 2
    ref = load_reference()
    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir()
    # The "build": byte-compile once so no child pays compilation.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   check=True, env=ENV, stdout=subprocess.DEVNULL)

    # Children inherit the pinning, so they share the probe's CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
              commands(args.workload, args.seed, ref))
    with Probe() as probe:
        run.execute()
        time.sleep(PROBE_WINDOW_S / 2)  # samples after the last child
    run.rescale(probe)
    metrics = per_layer(run, probe) if run.trace else end_to_end(run)
    failed = len(run.failures)

    print(f"workload {run.workload} seed {run.seed} trace {int(run.trace)}: "
          f"{len(run.reps)} repetitions of {len(run.cmds)} commands")
    probe_s = [d for _, d in probe.samples]
    print(f"probe_s median {med(probe_s):.6f} min {min(probe_s):.6f} over {len(probe_s)} "
          f"samples (reference {PROBE_REF_S})")
    for r in run.reps:
        print(f"  repetition{' (traced)' if r['traced'] else ''}: raw wall {r['raw_wall']:.3f} s, "
              f"speed factors " + " ".join(f"{c['speed']:.3f}" for c in r["commands"]))
    print(f"failed_ratio {failed / run.attempted:.4f} ({failed}/{run.attempted} operations)")
    for why in run.failures:
        print(f"  failed: {why}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:45s} {value:14.6f} {unit:6s} n={n}")
    for line in per_command_counts(run):
        print(line)
    (WORK / "last.json").write_text(json.dumps({
        "workload": run.workload, "seed": run.seed, "trace": run.trace,
        "probe": probe.samples, "setup": run.setup,
        "reps": [{**r, "commands": [{k: v for k, v in c.items() if k != "spans"}
                                     for c in r["commands"]]} for r in run.reps],
        "failures": run.failures,
    }, indent=1))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
