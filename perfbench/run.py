"""quncert benchmark: two seeded workloads, end-to-end metrics, a traced pass.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]   # every workload, then the traced pass
    python3 -m pytest perfbench                          # the benchmark's own tests

``--trace 0`` runs one workload for S seconds and prints the end-to-end
metrics. ``--trace 1`` runs one fixed round of units of four input kinds
(the two timed workloads, ``verify-qubit`` and ``verify-qutrit``), once
untimed and once with spans around the calls into each quncert module, and
prints the per-layer metrics. Each layer is measured on the inputs that call
it, so the round is the same whichever workload is named. Without
``--workload`` the command runs each workload and the traced pass in turn,
writes ``BENCHMARK.json`` from ``SPEC`` and exits non-zero if any check failed.

Human-readable lines go first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` where ``attempted``
counts program calls and ``failed`` the calls that failed a check. A report
with machine facts and the accuracy figures is written to
``perfbench/out/<workload>-seed<N>-trace<T>.json``; the traced pass also
writes its spans to ``perfbench/out/spans-seed<N>.jsonl``.

Seeds: the default seed is 1. Seed 2 is held out: use it only to confirm a
gain claimed on other seeds.

BLAS and OpenMP are pinned to one thread before numpy is imported, and no
worker pool is used. Each workload has a fixed corpus of at least 100 calls
for a seed, so that ten lie beyond p90. A timed run passes over the corpus
again and again for S seconds, at least once, and ends on a whole cycle of
the input rotation, so the mix of inputs is exact. A call's latency is the
median of its timings over the passes: the host's speed swings over seconds,
and a call timed in several passes is not left wholly to one swing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from measure import (
    bound_fail_count,
    bound_fail_share,
    miss_count,
    miss_share,
    percentile,
    shortfall_max,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SEED = 1
SETUP_REPEATS = 5
MAX_SECONDS = 150.0
TRACE_ROUND = ("sweep-qubit", "verify-qubit", "verify-qutrit", "zero-discord")

WORKLOADS = {
    "sweep-qubit": "Paper's two-qubit X-state sweeps (pd-markov, sudden-transition, jc-nonmarkov) "
    "through the CLI: channels, qubit-A J, concurrence and CSV; Bell rows checked against closed-form J",
    "zero-discord": "One evaluate_bounds call per classical-quantum state, dims (2,2) to (3,4): exact "
    "J reference I(A:B), single-call latency, and the qutrit-A search, about 2/3 of its time",
}

END_TO_END = [
    # The bounds are wide because run-to-run machine speed drifts by +-15% on a
    # shared 2-vCPU host; peak memory does not drift.
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "states_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "call_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "call_ms_p90", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

LAYER_TIMES = [
    "channels.evolve_ms",
    "scenarios.sample_ms",
    "scenarios.verify_self_ms",
    "correlations.J_ms.dA2",
    "correlations.J_ms.dA3",
    "correlations.concurrence_ms",
    "bounds.U_ms",
    "entropy.S_ms",
    "entropy.I_ms",
    "bounds.complementarity_ms",
    "bounds.evaluate_ms",
    "bounds.self_ms",
    "cli.self_ms",
]
ZERO_DISCORD_DIMS = ("2x2", "2x3", "2x4", "3x2", "3x3", "3x4")
PER_LAYER = (
    [{"name": n, "unit": "ms", "better": "lower"} for n in LAYER_TIMES]
    + [{"name": "correlations.J_share", "unit": "ratio", "better": "lower"}]
    + [{"name": f"numpy.{f}_calls", "unit": "count", "better": "lower"}
       for f in ("eigvalsh", "eigh", "einsum")]
    + [{"name": "trace.overhead_share", "unit": "ratio", "better": "lower"},
       {"name": "correlations.J_shortfall_max_bits", "unit": "bits", "better": "lower"},
       {"name": "correlations.J_miss_share", "unit": "ratio", "better": "lower"},
       {"name": "correlations.J_ref_states", "unit": "count", "better": "higher"}]
    + [{"name": f"correlations.J_shortfall_max.{d}", "unit": "bits", "better": "lower"}
       for d in ZERO_DISCORD_DIMS + ("bell2x2",)]
)

SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 60,
    "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
    "end_to_end": END_TO_END,
    "per_layer": PER_LAYER,
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p


def _load_program():
    """Import quncert from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "quncert" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no quncert sources under {src}")
    sys.path.insert(0, str(src))
    import quncert

    if Path(quncert.__file__).resolve().parent != src / "quncert":
        raise SystemExit(f"perfbench: imported quncert from {quncert.__file__}, not {src}")


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _cold_setup(args) -> float:
    """Wall time of a fresh interpreter that imports, builds inputs and warms up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    # A blocking wait: with a timeout, subprocess polls every 50 ms, which
    # would round the set-up time to that step. The timer stands in for it.
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    timer = threading.Timer(120, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    elapsed = perf_counter() - t0
    if code:
        raise subprocess.CalledProcessError(code, cmd)
    return elapsed


def _timed_run(args, scratch: Path) -> dict:
    import workloads

    setups = [_cold_setup(args) for _ in range(SETUP_REPEATS)]
    wl = workloads.make(args.workload, args.seed, scratch)
    wl.run_unit(0)  # warm-up, as in the cold set-ups
    calls, refs, k = [], [], 0
    timings = defaultdict(list)  # (unit, call in unit) -> ms of each pass
    t_start = perf_counter()
    while perf_counter() - t_start < args.seconds or k < wl.corpus_units or k % wl.cycle:
        if perf_counter() - t_start > MAX_SECONDS:
            raise RuntimeError(f"{k} of {wl.corpus_units} corpus units after {MAX_SECONDS} s")
        unit = k % wl.corpus_units
        unit_calls, unit_refs = wl.run_unit(unit)
        for j, call in enumerate(unit_calls):
            timings[unit, j].append(call.ms)
        calls += unit_calls
        if k < wl.corpus_units:
            refs += unit_refs
        k += 1
    wall = perf_counter() - t_start
    states = sum(c.states for c in calls)
    ms = [statistics.median(t) for t in timings.values()]
    passes = k / wl.corpus_units
    metrics = {
        "setup_s": statistics.median(setups),
        "states_per_s": states / wall,
        "call_ms_p50": percentile(ms, 50),
        "call_ms_p90": percentile(ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    p90 = metrics["call_ms_p90"]
    per_call = f"{len(ms)} corpus calls, each the median of its timings in {passes:.2f} passes"
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} cold set-ups",
        "states_per_s": f"{states} states in {wall:.1f} s, {k // wl.cycle} whole input cycles",
        "call_ms_p50": per_call,
        "call_ms_p90": f"{per_call}, {sum(m > p90 for m in ms)} beyond p90",
        "peak_rss_mb": "ru_maxrss of the benchmark process",
    }
    tol = workloads.j_tolerance()
    accuracy = {
        "bound_fail_share": f"{bound_fail_share(calls):.6g} "
        f"({bound_fail_count(calls)} of {len(calls)} calls)",
    }
    if refs:
        accuracy["j_shortfall_max_bits"] = f"{shortfall_max(refs)!r} ({len(refs)} referenced states)"
        accuracy["j_miss_share"] = (f"{miss_share(refs, tol):.6g} "
                                    f"({miss_count(refs, tol)} of {len(refs)} referenced states)")
    else:
        accuracy["j_shortfall_max_bits"] = "n/a (no referenced state)"
        accuracy["j_miss_share"] = "n/a (no referenced state)"
    units = {m["name"]: m["unit"] for m in END_TO_END}
    return _result(calls, {n: (v, units[n], notes[n]) for n, v in metrics.items()}, accuracy)


def _trace_run(args, scratch: Path) -> dict:
    import workloads
    from tracer import Tracer

    wls = [workloads.make(name, args.seed, scratch) for name in TRACE_ROUND]
    for wl in wls:
        wl.run_unit(0)
    # Each unit runs untraced, then traced, back to back, so that the overhead
    # is not confounded with drift in machine speed over the round.
    tracer = Tracer()
    calls, refs = [], {wl.name: [] for wl in wls}
    untraced = traced = 0.0
    for wl in wls:
        for k in range(wl.trace_units):
            t0 = perf_counter()
            unit_calls, _ = wl.run_unit(k)
            untraced += perf_counter() - t0
            calls += unit_calls
            tracer.install()
            try:
                t0 = perf_counter()
                unit_calls, unit_refs = wl.run_unit(k, tracer.call)
                traced += perf_counter() - t0
            finally:
                tracer.uninstall()
            calls += unit_calls
            refs[wl.name] += unit_refs
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-seed{args.seed}.jsonl")

    units = {m["name"]: m["unit"] for m in PER_LAYER}
    layers = tracer.layer_metrics(LAYER_TIMES)
    metrics = {n: (v, units[n], f"median over {c} calls" if n in LAYER_TIMES else f"per state, {c} states")
               for n, (v, c) in layers.items()}
    metrics["correlations.J_share"] = (layers["correlations.J_share"][0], "ratio",
                                       "J time / evaluate_bounds time")
    metrics["trace.overhead_share"] = ((traced - untraced) / untraced, "ratio",
                                       f"traced {traced:.2f} s vs untraced {untraced:.2f} s")
    tol = workloads.j_tolerance()
    every = refs["zero-discord"] + refs["sweep-qubit"]
    metrics["correlations.J_shortfall_max_bits"] = (shortfall_max(every), "bits", "all referenced states")
    metrics["correlations.J_miss_share"] = (miss_share(every, tol), "ratio",
                                            f"{miss_count(every, tol)} of {len(every)} referenced states")
    metrics["correlations.J_ref_states"] = (len(every), "count", "zero-discord corpus and Bell rows")
    for dims in ZERO_DISCORD_DIMS:
        subset = [r for r in refs["zero-discord"] if f"{r.dims[0]}x{r.dims[1]}" == dims]
        metrics[f"correlations.J_shortfall_max.{dims}"] = (
            shortfall_max(subset), "bits",
            f"{miss_count(subset, tol)} of {len(subset)} zero-discord states missed")
    metrics["correlations.J_shortfall_max.bell2x2"] = (
        shortfall_max(refs["sweep-qubit"]), "bits", f"{len(refs['sweep-qubit'])} Bell-diagonal rows")
    return _result(calls, metrics, {})


def _result(calls, metrics, extra) -> dict:
    failed = sum(bool(c.failures) for c in calls)
    return {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": metrics,
        "extra": extra,
        "failures": [f for c in calls for f in c.failures],
    }


def _print_report(args, facts, result):
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    threads = " ".join(f"{k}={v}" for k, v in facts["threads"].items())
    print(f"machine: nproc={facts['nproc']} affinity={facts['affinity']} python={facts['python']} "
          f"numpy={facts['numpy']} blas={facts['blas']} [{facts['blas_config']}] {threads}")
    for name, (value, unit, note) in result["metrics"].items():
        print(f"  {name:36s} {value!r:>24} {unit:6s} {note}")
    for name, text in result["extra"].items():
        print(f"  {name:36s} {text}")
    for failure in result["failures"]:
        print(f"CHECK FAILED: {failure}")
    print(f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")


def _run_one(args) -> int:
    _load_program()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.setup_only:
            import workloads

            workloads.make(args.workload, args.seed, Path(tmp)).run_unit(0)
            return 0
        run = _trace_run if args.trace else _timed_run
        result = run(args, Path(tmp))
    facts = machine_facts()
    _print_report(args, facts, result)
    report = dict(result, facts=facts, workload=args.workload, seed=args.seed, seconds=args.seconds)
    report["metrics"] = {n: {"value": v, "unit": u, "note": note}
                         for n, (v, u, note) in result["metrics"].items()}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")
    line = {k: result[k] for k in ("correct", "attempted", "failed")}
    line["metrics"] = {n: {"value": v, "unit": u} for n, (v, u, _) in result["metrics"].items()}
    print(json.dumps(line))
    return 0 if result["correct"] else 1


def _run_all(args) -> int:
    """Every workload, then the traced pass, each in its own process."""
    worst = 0
    runs = [(name, 0) for name in WORKLOADS] + [(next(iter(WORKLOADS)), 1)]
    for name, trace in runs:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", f"{args.seconds:g}", "--trace", str(trace)]
        worst = max(worst, subprocess.run(cmd, timeout=600).returncode)
    (ROOT / "BENCHMARK.json").write_text(json.dumps(SPEC, indent=2) + "\n", encoding="utf-8")
    return worst


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # numpy reads these when it is first imported, so set them before any import of it
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload is None:
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
