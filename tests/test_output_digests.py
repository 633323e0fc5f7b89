"""tools/output_digests.py: the output sweep gives the same listing twice."""

import importlib.util
import os
import pathlib

import spinorforge

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
SRC = os.path.dirname(spinorforge.__path__[0])


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_a_sweep_run_twice_lists_identical_outputs(tmp_path):
    tool = load_tool()
    runs = (tool.grid_runs(["sphere-r3", "s3-sphere"], sizes=(9,),
                           commands=("reconstruct",))
            + tool.catalog_runs(["S3"]))
    first = tool.sweep(SRC, tmp_path / "a", runs)
    second = tool.sweep(SRC, tmp_path / "b", runs)
    assert first == second
    done = [line.split() for line in first if line.startswith("run ")]
    # the three runs, then check-algebra on the algebra and two exports
    assert [words[4] for words in done] == ["reconstruct", "reconstruct",
                                            "catalog", "check-algebra",
                                            "export", "export"]
    assert all(words[1] == "0" for words in done)
    files = {line.split()[-1] for line in first if line.startswith("file ")}
    assert {"sphere-r3-9.reconstruct.surface.json",
            "s3-sphere-9.reconstruct.surface.export.ply",
            "algebra-S3.check-algebra.json"} <= files


def test_converse_digests_are_repeatable_and_name_every_output():
    tool = load_tool()
    from spinorforge.cli import SURFACE_FIXTURES
    fixtures = {name: SURFACE_FIXTURES[name]
                for name in ("sphere-r3", "sphere-r4-twisted", "sol3-plane")}
    first = tool.converse_lines(fixtures, sizes=(9,))
    assert first == tool.converse_lines(fixtures, sizes=(9,))
    parts = ["values", "frames", "mu", "B", "theta_x", "theta_y"]
    assert [line.split()[2:] for line in first] == [
        [f"{name}-9", part] for name in fixtures for part in parts]
    # distinct fixtures give distinct spinors
    values = [line.split()[1] for line in first if line.endswith(" values")]
    assert len(set(values)) == 3


def test_the_leak_runs_fail_and_write_nothing(tmp_path):
    tool = load_tool()
    out = tmp_path / "out"
    out.mkdir()
    runs = tool.leak_runs(out)
    lines = tool.sweep(SRC, out, runs)
    done = [line.split() for line in lines if line.startswith("run ")]
    assert len(done) == len(runs) == 9
    assert [words[1] for words in done] == ["4"] + ["3"] * 8
    # only the two cmc inputs, which the runs read
    assert [line.split()[-1] for line in lines if line.startswith("file ")] \
        == ["cmc-diverging-9.cmc-input.json", "cmc-s3-pole-9.cmc-input.json"]
