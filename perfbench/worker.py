"""One benchmark run: a fresh process that runs a workload's case list pass
after pass, single-threaded on its side, for a fixed number of seconds.

    python3 -m perfbench.worker PLAN RESULT SECONDS TRACE

PLAN is the JSON written by `run.py`; RESULT receives the pass times, the
gate's verdicts, the accuracy, the peak resident memory and, with TRACE=1,
the per-layer metrics.  The first pass is a warm-up: it is gated but not
timed, so lazy set-up inside the program (first schema validation, cached
tables) is not mixed into the pass times.  With TRACE=1 untraced and traced
passes alternate after it, so the tracing overhead is measured within one
process.

The host's speed drifts by up to 2x over seconds to minutes, so every pass
also runs `reference`, a fixed piece of work of the benchmark's own, before
its first case and after each case.  A case's wall time divided by the
mean of the reference times around it is its time in reference units,
which follows the program and not the host's speed at that moment.
"""

import json
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter, process_time

import numpy as np
import scipy.linalg

from perfbench import cases, trace


# Inputs of the reference work: one node's multivector at a time, and a
# batch of 2x2 matrices for scipy's matrix exponential.
_REF_NODES = np.linspace(-1.0, 1.0, 64 * 8).reshape(64, 8)
_REF_MATRICES = np.linspace(-0.5, 0.5, 2000 * 4).reshape(-1, 2, 2)


def reference():
    """Wall time of a fixed mix of the kinds of work the workloads do:
    interpreter loops, numpy calls on single nodes and a batched
    `scipy.linalg.expm`.  Of the mixes tried, this one's time moved with
    the host's speed most nearly as every workload's pass time did."""
    start = perf_counter()
    table, acc = {}, 0
    for i in range(60000):
        table[i & 255] = acc
        acc += i * 3 % 7
    total = 0.0
    for i in range(3000):
        x = _REF_NODES[i & 63]
        total += float(np.dot(x, x) + x.sum())
    scipy.linalg.expm(_REF_MATRICES)
    return perf_counter() - start


def run_pass(prepared, tracer=None):
    """Run every case once, back to back, with `reference` before the
    first case and after each one; returns (wall, refs, cpu, outcomes):
    the summed case wall times, the reference times in order, this
    process's CPU time over the cases, and each case's outcome."""
    outcomes, refs = [], [reference()]
    wall = cpu = 0.0
    for case, run in prepared:
        if tracer is not None:
            tracer.case = case["id"]
        c0, t0 = process_time(), perf_counter()
        outcome = cases.execute(run)
        outcome["wall"] = perf_counter() - t0
        cpu += process_time() - c0
        wall += outcome["wall"]
        outcomes.append(outcome)
        refs.append(reference())
    return wall, refs, cpu, outcomes


def relative_wall(case_walls, refs):
    """A pass's time in reference units: each case's wall time divided by
    the mean of the reference times just before and just after it."""
    return sum(w / (0.5 * (before + after))
               for w, before, after in zip(case_walls, refs, refs[1:]))


def gate(prepared, outcomes):
    """Verdicts of one pass, in case order."""
    return [dict(cases.check(case, outcome), rc=outcome["rc"],
                 known=cases.known_failure(case["id"], outcome))
            for (case, _), outcome in zip(prepared, outcomes)]


def run(plan, seconds, traced_run):
    out = Path(plan["out"])
    prepared = [(case, cases.prepare(case)) for case in plan["cases"]]
    tracer = trace.Tracer() if traced_run else None
    passes, layer_passes, spans_kept = [], [], None
    start = perf_counter()
    while True:
        kind = ("warmup" if not passes else
                "traced" if traced_run and len(passes) % 2 == 0 else "untraced")
        traced = kind == "traced"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        undo = trace.install(tracer) if traced else []
        try:
            wall, refs, cpu, outcomes = run_pass(
                prepared, tracer if traced else None)
        finally:
            trace.uninstall(undo)
        if traced:
            spans = tracer.take()
            layer_passes.append(trace.pass_metrics(spans, wall))
            if spans_kept is None:
                spans_kept = spans
        case_walls = [o["wall"] for o in outcomes]
        passes.append({"wall": wall, "rel": relative_wall(case_walls, refs),
                       "refs": refs, "cpu": cpu, "kind": kind,
                       "case_walls": case_walls,
                       "verdicts": gate(prepared, outcomes)})
        elapsed = perf_counter() - start
        # the next pass must fit in the run; a run measures at least one
        # pass, a traced run at least one of each kind
        longest = max(p["wall"] + sum(p["refs"]) for p in passes[-2:])
        if elapsed + longest > seconds and len(passes) >= (3 if traced_run else 2):
            break
    result = {"passes": passes,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if traced_run:
        result["layers"] = trace.summarize(
            layer_passes, [p["wall"] for p in passes if p["kind"] == "untraced"])
        result["spans"] = spans_kept
    return result


def main(argv):
    plan_path, result_path, seconds, traced = argv
    plan = json.loads(Path(plan_path).read_text())
    result = run(plan, float(seconds), traced == "1")
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
