"""tools/outputs.py --digest and --compare: the output sweep gives the same
listing twice, and --compare sizes what moved between two sweeps."""

import hashlib
import importlib.util
import json
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np

import spinorforge

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "outputs.py"
SRC = os.path.dirname(spinorforge.__path__[0])


def load_tool():
    spec = importlib.util.spec_from_file_location("outputs", TOOL)
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


def _small_sweep(tool, out):
    """reconstruct on sphere-r3 and s3-sphere at 9 nodes, which writes JSON
    and OBJ, and the PLY exports of their surfaces."""
    runs = tool.grid_runs(["sphere-r3", "s3-sphere"], sizes=(9,),
                          commands=("reconstruct",))
    return tool.sweep(SRC, out, runs)


# One listing: the small sweep, then the converse of every surface fixture at
# 9 nodes, printed by a process of its own.
LISTING = """
import sys
sys.path.insert(0, sys.argv[1])
import test_output_digests as digests
from spinorforge.cli import SURFACE_FIXTURES
tool = digests.load_tool()
lines = digests._small_sweep(tool, sys.argv[2])
lines += tool.converse_lines(dict(sorted(SURFACE_FIXTURES.items())),
                             sizes=(9,))
print("\\n".join(lines))
"""


def test_the_listing_does_not_depend_on_the_blas_thread_count(tmp_path):
    """OpenBLAS reads OPENBLAS_NUM_THREADS when it loads, so each thread
    count lists in a process of its own."""
    listings = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [SRC, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", LISTING, str(pathlib.Path(__file__).parent),
             str(tmp_path / threads)],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        listings.append(done.stdout)
    assert listings[0] == listings[1]
    lines = listings[0].splitlines()
    assert sum(line.startswith("run 0 ") for line in lines) == 4
    assert sum(line.startswith("converse ") for line in lines) >= 6


def test_a_sweep_compared_with_itself_moves_no_file(tmp_path):
    tool = load_tool()
    _small_sweep(tool, tmp_path / "a")
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    assert tool.compare_dirs(tmp_path / "a", tmp_path / "b") == []
    # every format the sweep writes is read
    for path in sorted((tmp_path / "a").iterdir()):
        assert tool.file_numbers(path), path


def test_compare_reports_a_one_ulp_nudge_exactly(tmp_path):
    tool = load_tool()
    _small_sweep(tool, tmp_path / "a")
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    report = tmp_path / "b" / "sphere-r3-9.reconstruct.json"
    blob = json.loads(report.read_text())
    x = blob["holonomy"]
    blob["holonomy"] = float(np.nextafter(x, np.inf))
    report.write_text(json.dumps(blob, sort_keys=True) + "\n")
    # one PLY vertex double, and one OBJ vertex dropped
    ply = tmp_path / "b" / "s3-sphere-9.reconstruct.surface.export.ply"
    data = bytearray(ply.read_bytes())
    at = data.index(b"end_header\n") + len(b"end_header\n") + 8 * 4
    y = np.frombuffer(bytes(data[at:at + 8]), "<f8")[0]
    y_down = np.nextafter(y, -np.inf)
    data[at:at + 8] = np.array([y_down], "<f8").tobytes()
    ply.write_bytes(bytes(data))
    obj = tmp_path / "b" / "sphere-r3-9.reconstruct.surface.obj"
    lines = obj.read_text().splitlines(keepends=True)
    obj.write_text("".join(lines[1:]))
    assert tool.compare_dirs(tmp_path / "a", tmp_path / "b") == [
        f"moved {float(y - y_down)!r} "
        "s3-sphere-9.reconstruct.surface.export.ply",
        f"moved {float(np.nextafter(x, np.inf) - x)!r} "
        "sphere-r3-9.reconstruct.json",
        "count 243 240 sphere-r3-9.reconstruct.surface.obj",
    ]


def test_compare_sizes_a_one_ulp_nudge_of_a_converse_part(tmp_path):
    tool = load_tool()
    from spinorforge.cli import SURFACE_FIXTURES
    fixtures = {name: SURFACE_FIXTURES[name]
                for name in ("sphere-r3", "sphere-r4-twisted")}
    lines = tool.converse_lines(fixtures, sizes=(9,),
                                save=tmp_path / "a" / "converse")
    # one file per digest line, holding the digested bytes
    for _, sha, name, part in map(str.split, lines):
        array = np.load(tmp_path / "a" / "converse" / f"{name}.{part}.npy")
        assert hashlib.sha256(array.tobytes()).hexdigest() == sha
    assert len(list((tmp_path / "a" / "converse").iterdir())) == len(lines)
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    assert tool.compare_dirs(tmp_path / "a", tmp_path / "b") == []
    path = tmp_path / "b" / "converse" / "sphere-r4-twisted-9.frames.npy"
    frames = np.load(path)
    x = frames[2, 7, 1, 2]
    frames[2, 7, 1, 2] = np.nextafter(x, np.inf)
    np.save(path, frames)
    assert tool.file_numbers(path) == frames.ravel().tolist()
    assert tool.compare_dirs(tmp_path / "a", tmp_path / "b") == [
        f"moved {float(np.nextafter(x, np.inf) - x)!r} "
        "converse/sphere-r4-twisted-9.frames.npy"]


def test_compare_names_a_file_whose_numbers_are_equal_but_bytes_differ(
        tmp_path):
    tool = load_tool()
    runs = tool.grid_runs(["sphere-r3", "sphere-r3-broken"], sizes=(17,),
                          commands=("reconstruct",))
    tool.sweep(SRC, tmp_path / "a", runs)
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    # a verdict flipped, an error naming another plaquette, two faces swapped
    report = tmp_path / "b" / "sphere-r3-17.reconstruct.json"
    blob = json.loads(report.read_text())
    assert blob["integrable"] is True
    blob["integrable"] = False
    report.write_text(json.dumps(blob, sort_keys=True) + "\n")
    report = tmp_path / "b" / "sphere-r3-broken-17.reconstruct.json"
    blob = json.loads(report.read_text())
    assert blob["error"].endswith("at plaquette (11, 8)")
    blob["error"] = blob["error"].replace("(11, 8)", "(8, 11)")
    report.write_text(json.dumps(blob, sort_keys=True) + "\n")
    obj = tmp_path / "b" / "sphere-r3-17.reconstruct.surface.obj"
    lines = obj.read_text().splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line.startswith("f "))
    lines[first], lines[first + 1] = lines[first + 1], lines[first]
    obj.write_text("".join(lines))
    assert tool.compare_dirs(tmp_path / "a", tmp_path / "b") == [
        "differs sphere-r3-17.reconstruct.json",
        "differs sphere-r3-17.reconstruct.surface.obj",
        "differs sphere-r3-broken-17.reconstruct.json",
    ]
