"""The CLI's outputs at --grid-n 17 match tests/golden/ (tools/outputs.py).

Regenerate with `python3 tools/outputs.py --write`, and name every value
that moved in CHANGES.md.
"""

import importlib.util
import json
import math
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "outputs.py"
spec = importlib.util.spec_from_file_location("outputs", TOOL)
golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden)

RUNS = golden.runs()


def load(name):
    return json.loads(golden.golden_path(name).read_text())


def test_every_run_has_a_record_and_every_record_a_run():
    names = {path.stem for path in golden.GOLDEN.glob("*.json")}
    assert names == {name for name, _ in RUNS}
    assert len(RUNS) == 33


@pytest.mark.parametrize("name,argv", RUNS, ids=[name for name, _ in RUNS])
def test_outputs_match_the_golden_record(tmp_path, name, argv):
    want = load(name)
    got = golden.record(argv, tmp_path)
    assert golden.compare(want, got) == []


def test_every_float_has_a_bound():
    for name, _ in RUNS:
        for key, _ in golden._floats(load(name)["values"]):
            assert golden.quantity(key) in golden.BOUNDS, (name, key)


def test_the_known_failures_are_pinned():
    exits = {name: load(name)["exit"] for name, _ in RUNS}
    assert [n for n, code in exits.items() if code == 2] == [
        f"sphere-r3-broken.{c}" for c in golden.COMMANDS]
    assert sorted(n for n, code in exits.items() if code == 3) == [
        "sphere-r4-twisted.reconstruct"]
    assert load("sphere-r4-twisted.reconstruct")["stderr"] == (
        "input error: no R^3 embedding for abelian payloads of dimension 4\n")


def test_compare_holds_each_value_to_its_bound():
    want = load("s3-sphere.reconstruct")
    key = "out.json:second_fundamental_error"
    w = want["values"][key]
    bound = golden.bound(key, w, want["h"])
    assert bound == 32 * golden.ULP1 / want["h"] ** 2
    for move, faults in ((0.5 * bound, 0), (2.0 * bound, 1)):
        got = json.loads(json.dumps(want))
        got["values"][key] = w + move
        assert len(golden.compare(want, got)) == faults
    got = json.loads(json.dumps(want))
    got["values"]["out.surface.obj:f"]["sample"][0] += 1     # a face index
    got["values"]["out.json:holonomy_argmax"]["values"][0] += 1
    got["stderr"] = "x"
    assert len(golden.compare(want, got)) == 3


def test_every_bound_is_twice_the_measured_move(tmp_path):
    # the rule above BOUNDS: at least twice the largest move that --measure
    # finds, and for the relative units the smallest such power of two, at
    # least 4
    moves = golden.measure(tmp_path)
    assert set(moves) == set(golden.BOUNDS)
    for q, move in moves.items():
        unit, multiple = golden.BOUNDS[q]
        assert 2 * move <= multiple, (q, move, multiple)
        if unit != "absolute":
            assert multiple == max(4, 2 ** math.ceil(math.log2(
                max(2 * move, 1.0)))), (q, move, multiple)
