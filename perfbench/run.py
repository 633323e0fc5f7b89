"""The spinorforge benchmark: one run of one workload, from a checkout root.

    python3 perfbench/run.py --workload forward --seed 1 --seconds 30 --trace 0

Workloads are `forward`, `semidirect` and `converse` (see README.md);
`--workload all` runs each in turn.  A run generates the workload's inputs
from the seed, times fresh interpreters importing `spinorforge.cli`
(set-up) before and after one fresh worker process that runs the case list
pass after pass for `--seconds` seconds and gates every case.  It prints
every metric by name with its unit, writes a run record under
`.bench_results/`, and ends with one JSON line: the end-to-end metrics
with `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# fresh interpreters timed before the worker starts and again after it ends,
# so set-up is sampled at both ends of the run
SETUP_SAMPLES = 4
RUN_LIMIT_S = 170.0
THREAD_ENV = ("SPINORFORGE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# Every child runs on one thread.  With OpenBLAS's default of one thread per
# core, part of each pass runs on the host's second vCPU, and when another
# tenant takes that vCPU the pass slows in a way the single-threaded
# reference work cannot follow.
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

# end-to-end metric -> unit; every one is reported on every workload.
# wall_ref is the pass time in units of the worker's reference work, which
# the host's drifting speed moves far less than the pass time in seconds;
# wall_s is printed and recorded beside it.
END_TO_END = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB",
              "err.worst": "h2"}
# accuracy metrics recorded and printed, each where it applies; err.worst,
# their maximum, is the one that applies to every workload
ACCURACY = ("err.holonomy", "err.structure", "err.isometry", "err.sff",
            "err.metric", "err.pde")


def child_env():
    """The environment of every child: the checkout's sources first,
    SPINORFORGE_THREADS at its default and OpenBLAS on one thread."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_ENV}
    env.update(CHILD_THREADS)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def measure_setup(env):
    """Wall times of SETUP_SAMPLES fresh interpreters importing
    spinorforge.cli."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import spinorforge.cli"],
                       env=env, cwd=ROOT, check=True, timeout=60)
        samples.append(perf_counter() - t0)
    return samples


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_record_env():
    import numpy
    import scipy
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        openblas = None
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True,
                               timeout=10).stdout
        caches = [ln.strip() for ln in lscpu.splitlines() if "cache" in ln]
    except (OSError, subprocess.SubprocessError):
        caches = None
    return {"nproc": os.cpu_count(), "caches": caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": openblas,
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
            "child_thread_env": CHILD_THREADS}


def summarize(plan, result):
    """Gate totals, pass statistics and accuracy of one worker result."""
    verdicts = [v for p in result["passes"] for v in p["verdicts"]]
    failures = {}
    for v in verdicts:
        if not v["ok"]:
            key = (v["id"], v["reason"])
            failures[key] = failures.get(key, 0) + 1
    accuracy = {}
    for v in verdicts:
        for k, value in v["accuracy"].items():
            accuracy[k] = max(accuracy.get(k, 0.0), value)
    untraced = [p for p in result["passes"] if p["kind"] == "untraced"]
    walls = [p["wall"] for p in untraced]
    q1, q3 = quartiles(walls)
    rel = [p["rel"] for p in untraced]
    rel_q1, rel_q3 = quartiles(rel)
    failed = sum(not v["ok"] for v in verdicts)
    unexpected = sum(not v["ok"] and not v["known"] for v in verdicts)
    ids = [c["id"] for c in plan["cases"]]
    case_walls = {cid: statistics.median(p["case_walls"][i] for p in untraced)
                  for i, cid in enumerate(ids)}
    case_accuracy = {v["id"]: v["accuracy"]
                     for v in result["passes"][0]["verdicts"]}
    return {"attempted": len(verdicts), "failed": failed,
            "unexpected_failures": unexpected,
            "failed_ratio": failed / len(verdicts),
            "failures": [{"id": cid, "reason": reason, "count": n}
                         for (cid, reason), n in failures.items()],
            "wall_s": statistics.median(walls), "wall_q1_s": q1,
            "wall_q3_s": q3, "pass_walls_s": walls,
            "wall_ref": statistics.median(rel), "wall_ref_q1": rel_q1,
            "wall_ref_q3": rel_q3, "pass_rel": rel,
            "pass_refs_s": [p["refs"] for p in untraced],
            "pass_case_walls_s": [p["case_walls"] for p in untraced],
            "pass_cpu_s": [p["cpu"] for p in untraced],
            "warmup_wall_s": result["passes"][0]["wall"],
            "case_median_walls_s": case_walls, "accuracy": accuracy,
            "case_accuracy": case_accuracy}


def run_workload(workload, seed, seconds, traced, env):
    from perfbench import inputs, trace
    deadline = perf_counter() + max(RUN_LIMIT_S, seconds + 60.0)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".bench_work"))
    try:
        plan = inputs.generate(workload, seed, work / "inputs", work / "out")
        (work / "plan.json").write_text(json.dumps(plan))
        setup_samples = measure_setup(env)
        timeout = max(30.0, deadline - perf_counter())
        subprocess.run([sys.executable, "-m", "perfbench.worker",
                        str(work / "plan.json"), str(work / "result.json"),
                        str(seconds), "1" if traced else "0"],
                       env=env, cwd=ROOT, stdout=sys.stderr, check=True,
                       timeout=timeout)
        result = json.loads((work / "result.json").read_text())
        setup_samples += measure_setup(env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = summarize(plan, result)
    setup_s = statistics.median(setup_samples)
    record.update({"workload": workload, "seed": seed, "traced": traced,
                   "input_digest": plan["digest"], "run_seconds": seconds,
                   "setup_s": setup_s, "setup_samples_s": setup_samples,
                   "peak_rss_mb": result["peak_rss_mb"],
                   "environment": run_record_env()})
    if traced:
        layers = result["layers"]
        record["layers"] = layers
        metrics = {k: (layers[k], unit) for k, (unit, _) in trace.PER_LAYER.items()}
    else:
        values = {"wall_ref": record["wall_ref"], "setup_s": setup_s,
                  "peak_rss_mb": record["peak_rss_mb"],
                  "err.worst": max(record["accuracy"].values(),
                                   default=float("nan"))}
        metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(traced)}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if traced:
        (results / f"{stem}.spans.json").write_text(json.dumps(result["spans"]))
    print_record(record, metrics)
    correct = record["unexpected_failures"] == 0 and all(
        value == value for value, _ in metrics.values())
    return correct, record, metrics


def print_record(record, metrics):
    passes = len(record["pass_walls_s"])
    print(f"workload {record['workload']}  seed {record['seed']}  inputs "
          f"sha256:{record['input_digest'][:16]}  untraced passes {passes}")
    print(f"  wall_ref       {record['wall_ref']:.4f} ref  (q1 "
          f"{record['wall_ref_q1']:.4f}, q3 {record['wall_ref_q3']:.4f})")
    print(f"  wall_s         {record['wall_s']:.4f} s  (q1 {record['wall_q1_s']:.4f}"
          f", q3 {record['wall_q3_s']:.4f})")
    print(f"  setup_s        {record['setup_s']:.4f} s")
    print(f"  peak_rss_mb    {record['peak_rss_mb']:.1f} MB")
    print(f"  failed_ratio   {record['failed_ratio']:.4f}  ({record['failed']} "
          f"of {record['attempted']} cases)")
    for name in ACCURACY:
        value = record["accuracy"].get(name)
        shown = "n/a" if value is None else f"{value:.6g} h2"
        print(f"  {name:<14} {shown}")
    print(f"  err.worst      {max(record['accuracy'].values()):.6g} h2")
    for f in record["failures"]:
        print(f"  FAILED x{f['count']} {f['id']}: {f['reason']}")
    if record["traced"]:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<32} {value:.6g} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["forward", "semidirect", "converse", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spinorforge" / "__init__.py").is_file():
        print(f"error: no spinorforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    env = child_env()
    workloads = (["forward", "semidirect", "converse"]
                 if args.workload == "all" else [args.workload])
    try:
        runs = [run_workload(w, args.seed, args.seconds, bool(args.trace), env)
                for w in workloads]
    except (subprocess.SubprocessError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(runs) == 1:
        correct, record, metrics = runs[0]
        named = metrics
    else:
        named = {f"{rec['workload']}/{k}": v
                 for _, rec, metrics in runs for k, v in metrics.items()}
    print(json.dumps({
        "correct": all(r[0] for r in runs),
        "attempted": sum(r[1]["attempted"] for r in runs),
        "failed": sum(r[1]["failed"] for r in runs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
