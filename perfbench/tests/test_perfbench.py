"""Tests of the benchmark's own logic: span self times, failure counting,
seed determinism, and agreement with BENCHMARK.json."""

import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import cases, inputs, run, trace, worker
from spinorforge import clifford

ROOT = Path(__file__).resolve().parents[2]
TINY = {"forward": {"sphere-r3": 9, "s3-sphere": 9, "sphere-r4-twisted": 9,
                    "cmc-sphere": 9},
        "semidirect": {"sol3-plane": 9, "h2xr-slice": 9},
        "converse": {"sphere-r3": 9, "sphere-r4-twisted": 9,
                     "sol3-plane": 9}}


def _span(name, layer, start, end, parent, book=0.0):
    return [name, layer, start, end, parent, "case", None, book]


def test_self_times_subtract_children_and_their_bookkeeping():
    spans = [_span("cli.main", "cli", 0.0, 10.0, -1),
             _span("spinor.solve_killing", "spinor", 1.0, 4.0, 0, book=0.5),
             _span("grid.ParamGrid.dx", "grid", 2.0, 3.0, 1),
             _span("spinor.xi_from_spinor", "spinor", 5.0, 8.0, 0)]
    assert trace.self_times(spans) == [3.5, 2.0, 1.0, 3.0]
    m = trace.pass_metrics(spans, wall=10.25)
    assert m["cli.self_s"] == 3.5
    assert m["spinor.self_s"] == 5.0
    assert m["grid.self_s"] == 1.0
    assert m["spinor.solve_s"] == 2.0
    # layer self times plus the uncovered remainder give the pass wall time
    totals = sum(m[trace.layer_total(layer)] for layer in trace.LAYERS)
    assert totals + m["trace.uncovered_s"] == pytest.approx(10.25)
    assert m["trace.uncovered_s"] == pytest.approx(0.75)


def test_installed_wrappers_nest_and_uninstall_restores():
    original = clifford.gp_array
    tracer = trace.Tracer()
    undo = trace.install(tracer)
    try:
        biv = np.zeros((4, 8))
        biv[:, 3] = 0.1
        clifford.exp_array(biv, 3)
    finally:
        trace.uninstall(undo)
    assert clifford.gp_array is original
    spans = tracer.take()
    assert spans[0][trace.NAME] == "clifford.exp_array"
    children = [s for s in spans if s[trace.PARENT] == 0]
    assert len(children) == 18 and all(
        s[trace.NAME] == "clifford.gp_array" for s in children)
    m = trace.pass_metrics(spans, wall=spans[0][trace.END] - spans[0][trace.START])
    assert m["clifford.exp_array.squarings"] == 0
    assert m["clifford.gp_array.products"] == 18 * 4
    assert sum(trace.self_times(spans)) + sum(
        s[trace.BOOK] for s in spans[1:]) == pytest.approx(m["trace.wall_s"])


def test_injected_bad_exit_code_counts_as_one_failure(tmp_path):
    plan = inputs.generate("forward", 3, tmp_path / "in", tmp_path / "out",
                           sizes=TINY["forward"])
    gcr = plan["cases"][0]
    prepared = [(gcr, cases.prepare(gcr)),
                ({**gcr, "id": "injected"}, lambda: (2, "boom", None))]
    passes = []
    for _ in range(2):
        wall, refs, cpu, outcomes = worker.run_pass(prepared)
        passes.append({"wall": wall, "rel": 1.0, "refs": refs, "cpu": cpu,
                       "kind": "untraced",
                       "case_walls": [o["wall"] for o in outcomes],
                       "verdicts": worker.gate(prepared, outcomes)})
    record = run.summarize({"cases": [c for c, _ in prepared]},
                           {"passes": passes})
    assert record["attempted"] == 4
    assert record["failed"] == 2 and record["unexpected_failures"] == 2
    assert record["failures"] == [
        {"id": "injected", "reason": "exit code 2: boom", "count": 2}]


def test_known_failure_needs_its_exit_code_and_message():
    cid, rc, message = cases.KNOWN_FAILURE
    assert cases.known_failure(cid, {"rc": rc, "stderr": f"input error: {message}"})
    assert not cases.known_failure(cid, {"rc": 4, "stderr": message})
    assert not cases.known_failure("other", {"rc": rc, "stderr": message})


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(tmp_path, workload):
    def digest(seed, name):
        return inputs.generate(workload, seed, tmp_path / name / "in",
                               tmp_path / name / "out",
                               sizes=TINY[workload])["digest"]
    first = digest(7, "a")
    assert digest(7, "b") == first
    assert digest(8, "c") != first


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == trace.PER_LAYER


def test_wall_ref_divides_each_case_by_the_reference_around_it():
    # the host slows 2x during the pass; both cases do the same work
    assert worker.relative_wall([1.0, 2.0], [0.5, 0.5, 1.5]) == 4.0
    verdict = {"id": "a", "ok": True, "known": False, "reason": "",
               "accuracy": {}}
    passes = [{"wall": w, "rel": rel, "refs": [], "cpu": w, "kind": kind,
               "case_walls": [w], "verdicts": [verdict]}
              for w, rel, kind in [(9.0, 9.0, "warmup"), (2.0, 4.0, "untraced"),
                                   (4.0, 4.0, "untraced"), (3.0, 4.0, "untraced")]]
    record = run.summarize({"cases": [{"id": "a"}]}, {"passes": passes})
    assert record["wall_s"] == 3.0
    assert record["wall_ref"] == record["wall_ref_q1"] == record["wall_ref_q3"] == 4.0
    assert worker.reference() > 0.0
