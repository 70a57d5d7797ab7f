"""Benchmark entry point: run one workload for a fixed time, check its outputs,
print one JSON result line.

    python3 bench/run.py --workload crossing-ladder --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  ``--trace 0`` times untraced operations
and prints the end-to-end metrics; ``--trace 1`` alternates each traced
operation with an untraced twin on the same inputs and prints the per-layer
metrics.  Spans of a traced run are written to .bench_work/ at the end.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); import lfpp.cli; "
                "print(time.perf_counter() - t, len(sys.modules))")

# Per-layer metric names and units come from BENCHMARK.json.  "<span>.s" is
# self time ("<span>.self.s" where the span has children of its own layer),
# "<span>.calls" the number of outermost spans of that name, the rest exact
# work counts; all per protocol replica (per command round on cli).
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    LAYER_METRICS = [(m["name"], m["unit"]) for m in json.load(_fh)["per_layer"]]


def _log(msg: str) -> None:
    print(f"[bench] {msg}", file=sys.stderr, flush=True)


def _timed_loop(seconds: float, op):
    """Closed loop: operation k + 1 starts when k has ended, until time is up."""
    t0 = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - t0 < seconds:
        op(k)
        k += 1


def _setup_seconds(wl):
    """Median wall time of a fresh interpreter importing the workload's entry module."""
    times = []
    for _ in range(SETUP_REPEATS):
        dt, code, _, _ = wl.run_python(["-c", f"import {wl.entry}"])
        if code != 0:
            raise RuntimeError(f"importing {wl.entry} failed; see {wl.work}/stderr.txt")
        times.append(dt)
    return statistics.median(times)


def untraced(wl, seconds: float) -> dict:
    times = []

    def op(k):
        times.append(wl.op(k))

    _timed_loop(seconds, op)
    peak = wl.peak_rss()  # before the checks load networkx
    _log(f"{len(times)} operations, seconds {[round(t, 4) for t in times]}")
    # a user of a replica loop waits for the sum over replicas, so op_s is
    # the mean; it also follows slow spells of the host more smoothly than
    # a median, which jumps between fast and slow operation times
    return {"op_s": (sum(times) / (len(times) * wl.units), "s"), "peak_rss_mb": (peak, "MB")}


def traced(wl, seconds: float, trace_path: str) -> dict:
    from spans import Tracer

    tracer = Tracer()
    overhead, per_op, spans = [], [], []
    wl.in_process = True

    def op(k):
        # twin operations on the same inputs; alternate which runs first
        for traced_first in ((False, True) if k % 2 == 0 else (True, False)):
            if traced_first:
                tracer.reset()
                tracer.install()
                try:
                    t_on = wl.op(k)
                finally:
                    tracer.uninstall()
                per_op.append((tracer.self_times(), tracer.calls(), dict(tracer.counts)))
                spans.append([list(s) for s in tracer.spans])
            else:
                t_off = wl.op(k)
        overhead.append((t_on - t_off) / wl.units)

    _timed_loop(seconds, op)
    metrics = {}
    calls, counts = per_op[0][1], per_op[0][2]
    for name, unit in LAYER_METRICS:
        if name.endswith(".calls"):
            value = calls.get(name[:-len(".calls")], 0) / wl.units
        elif name.endswith(".s"):
            span = name[:-len(".s")].removesuffix(".self")
            value = statistics.median(t.get(span, 0.0) for t, _, _ in per_op) / wl.units
        else:
            value = counts.get(name, 0) / wl.units
        metrics[name] = (value, unit)
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
    if wl.name == "cli":
        probes = [wl.run_python(["-c", IMPORT_PROBE])[2].split() for _ in range(SETUP_REPEATS)]
        metrics["cli.import.s"] = (statistics.median(float(p[0]) for p in probes), "s")
        modules = {int(p[1]) for p in probes}
        if len(modules) != 1:
            wl.fail(f"sys.modules size after import differs between interpreters: {modules}")
        metrics["cli.import.modules"] = (modules.pop(), "count")
    summary = {span: {"self_s": total, "calls": calls.get(span, 0)} for span, total in per_op[0][0].items()}
    with open(trace_path, "w") as fh:
        json.dump({"workload": wl.name, "units_per_op": wl.units, "first_op_summary": summary,
                   "ops": [{"spans": s, "counts": c} for s, (_, _, c) in zip(spans, per_op)]}, fh)
    _log(f"{len(per_op)} traced operations; spans in {trace_path}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lfpp", "__init__.py")):
        _log(f"no lfpp sources under {SRC}; run from the root of an lfpp checkout")
        return 2
    sys.path.insert(0, SRC)
    compileall.compile_dir(os.path.join(SRC, "lfpp"), quiet=1)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _log(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
        return 2
    base = os.path.join(ROOT, ".bench_work")
    work = os.path.join(base, f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            trace_path = os.path.join(base, f"trace-{args.workload}-seed{args.seed}.json")
            metrics = traced(wl, args.seconds, trace_path)
        else:
            metrics = {"setup_s": (_setup_seconds(wl), "s")}
            metrics.update(untraced(wl, args.seconds))
        wl.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in wl.problems:
        _log(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not wl.problems,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
