"""CLI contract: exit codes, reports, mesh export, determinism, schemas."""

import argparse
import contextlib
import functools
import gc
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import spinorforge
from spinorforge import fixtures, lie_algebra as la
from spinorforge import serialization, spinor
from spinorforge.cli import (MIN_GRID_NODES, SURFACE_FIXTURES, build_parser,
                             main)
from spinorforge.meshexport import export_mesh, grid_faces
from spinorforge.grid import STENCILS, ParamGrid, difference
from spinorforge.lie_group import model_for, model_params
from spinorforge.serialization import (SURFACE_SCHEMA, cmc_to_dict,
                                       dump_json, load_json, problem_from_dict,
                                       problem_to_dict, surface_from_dict,
                                       surface_to_dict)

from oracles import padded


def write_problem(tmp_path, fx, name="problem.json"):
    path = tmp_path / name
    dump_json(problem_to_dict(fx.data, fx.alg, base_point=fx.F[0, 0]), path)
    return path


def read_obj_vertices(path):
    with open(path) as fh:
        return np.array([[float(t) for t in line.split()[1:4]]
                         for line in fh if line.startswith("v ")])


def read_ply_vertices(path):
    with open(path, "rb") as fh:
        header = b""
        while not header.endswith(b"end_header\n"):
            line = fh.readline()
            if not line:
                raise ValueError(f"{path}: PLY header has no end_header")
            header += line
        nvert = int([ln for ln in header.decode().splitlines()
                     if ln.startswith("element vertex")][0].split()[-1])
        return np.frombuffer(fh.read(24 * nvert), dtype="<f8").reshape(-1, 3)


# =============================================================================
# Mesh export
# =============================================================================

def test_two_by_two_grid_mesh(tmp_path):
    faces = grid_faces(2, 2)
    assert faces.shape == (2, 3)
    F = np.zeros((2, 2, 3))
    F[..., 0], F[..., 1] = np.meshgrid([0.0, 1.0], [0.0, 1.0], indexing="ij")
    model = model_for(la.rn(3))
    verts = export_mesh(F, model, "obj", tmp_path / "m.obj")
    assert verts.shape == (4, 3)
    text = (tmp_path / "m.obj").read_text().splitlines()
    assert sum(1 for ln in text if ln.startswith("v ")) == 4
    assert sum(1 for ln in text if ln.startswith("f ")) == 2


def test_face_indices_in_bounds():
    fx = fixtures.sphere_r3(9)
    faces = grid_faces(9, 9)
    assert faces.min() >= 0 and faces.max() < 81
    # every interior vertex is used
    assert len(np.unique(faces)) == 81


def test_obj_ply_identical_vertices(tmp_path):
    fx = fixtures.sphere_r3(9)
    model = model_for(fx.alg)
    export_mesh(fx.F, model, "obj", tmp_path / "s.obj")
    export_mesh(fx.F, model, "ply", tmp_path / "s.ply")
    vo = read_obj_vertices(tmp_path / "s.obj")
    vp = read_ply_vertices(tmp_path / "s.ply")
    assert np.max(np.abs(vo - vp)) <= 1e-12


def test_read_ply_vertices_stops_at_a_truncated_header(tmp_path):
    path = tmp_path / "t.ply"
    path.write_bytes(b"ply\nformat binary_little_endian 1.0\n"
                     b"element vertex 4\n")
    with pytest.raises(ValueError, match="no end_header"):
        read_ply_vertices(path)


def test_s3_stereographic_pole(tmp_path):
    fx = fixtures.s3_equator(9)
    model = fx.model
    v1 = export_mesh(fx.F, model, "obj", tmp_path / "a.obj")
    v2 = export_mesh(fx.F, model, "obj", tmp_path / "b.obj",
                     pole=(0.0, 1.0, 0.0, 0.0))
    assert np.all(np.isfinite(v1)) and np.all(np.isfinite(v2))
    assert np.max(np.abs(v1 - v2)) > 1e-3   # genuinely different charts
    with pytest.raises(ValueError):
        export_mesh(fx.F, model, "obj", tmp_path / "c.obj",
                    pole=(2.0, 0.0, 0.0, 0.0))


# =============================================================================
# CLI commands
# =============================================================================

def test_catalog_prints_sol3_constants(capsys):
    assert main(["catalog", "--group", "sol3"]) == 0
    out = capsys.readouterr().out
    assert "Gamma[1,1]^3 = -1" in out
    assert "Gamma[2,2]^3 = 1" in out


def test_catalog_unknown_group():
    assert main(["catalog", "--group", "nope"]) == 3


def test_schema_flag(capsys):
    assert main(["--schema", "problem"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "frames" in payload["properties"]


def test_check_algebra_roundtrip(tmp_path):
    path = tmp_path / "alg.json"
    dump_json(la.algebra_to_dict(la.sol3()), path)
    out = tmp_path / "report.json"
    assert main(["check-algebra", str(path), "-o", str(out)]) == 0
    report = load_json(out)
    assert report["pass"] and report["jacobi"] <= 1e-12


def test_check_algebra_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["check-algebra", str(path)]) == 3
    path2 = tmp_path / "bad2.json"
    dump_json({"c": [[[0.0]]]}, path2)     # missing tag
    assert main(["check-algebra", str(path2)]) == 3


def test_check_gcr_sphere_fixture_passes(tmp_path):
    out = tmp_path / "gcr.json"
    assert main(["check-gcr", "--fixture", "sphere-r3", "--grid-n", "17",
                 "-o", str(out)]) == 0
    report = load_json(out)
    assert report["pass"]
    field = load_json(report["residuals"]["gauss"]["field_path"])
    assert len(field) == 17 * 17


def test_check_gcr_broken_fixture_fails(tmp_path):
    out = tmp_path / "gcr.json"
    assert main(["check-gcr", "--fixture", "sphere-r3-broken",
                 "--grid-n", "17", "-o", str(out)]) == 2
    assert not load_json(out)["pass"]


def test_check_frame_file_input(tmp_path):
    fx = fixtures.sol3_plane(17)
    path = write_problem(tmp_path, fx)
    out = tmp_path / "frame.json"
    assert main(["check-frame", str(path), "-o", str(out)]) == 0


def test_check_frame_at_corank_two(tmp_path):
    out = tmp_path / "frame.json"
    assert main(["check-frame", "--fixture", "sphere-r4-twisted",
                 "--grid-n", "9", "-o", str(out)]) == 0
    report = load_json(out)
    assert sorted(report["residuals"]) == ["normal", "tangent"]
    for entry in report["residuals"].values():
        assert len(load_json(entry["field_path"])) == 9 * 9


def test_check_frame_hn_structure_field(tmp_path):
    out = tmp_path / "horo.json"
    assert main(["check-frame", "--fixture", "horosphere-h3", "--grid-n", "9",
                 "-o", str(out)]) == 0
    report = load_json(out)
    assert report["residuals"]["structure_field"]["max"] <= 1e-12


def test_check_frame_hn_reads_l_from_c(tmp_path):
    # a u_field is checked against the l of c; params need not carry it
    fx = fixtures.horosphere_h3(9)
    blob = problem_to_dict(fx.data, fx.alg, u_field=fx.extras["u_field"])
    blob["algebra"]["params"] = {}
    path = tmp_path / "horo.json"
    dump_json(blob, path)
    out = tmp_path / "frame.json"
    assert main(["check-frame", str(path), "-o", str(out)]) == 0
    assert load_json(out)["residuals"]["structure_field"]["max"] <= 1e-12


def test_check_frame_u_field_outside_hn_is_input_error(tmp_path, capsys):
    fx = fixtures.horosphere_h3(9)
    blob = problem_to_dict(fx.data, la.sol3(), u_field=fx.extras["u_field"])
    blob["algebra"]["tag"] = "Hn"
    path = tmp_path / "horo.json"
    dump_json(blob, path)
    assert main(["check-frame", str(path),
                 "-o", str(tmp_path / "frame.json")]) == 3
    assert "expects an H^n algebra" in capsys.readouterr().err


# problem files whose u_field check-frame rejects: (fixture, the u_field
# for its grid shape, the stderr line)
_U_FIELD_PROBES = {
    "outside-hn": ("sphere-r3",
                   lambda shape: np.broadcast_to([0.0, 0.0, 1.0], shape + (3,)),
                   "input error: hn_u_residual expects an H^n algebra"),
    "zero": ("horosphere-h3", lambda shape: np.zeros(shape + (3,)),
             "input error: |U| must equal |l| everywhere; off by 1.000e+00"),
    "one-node": ("horosphere-h3", lambda shape: np.zeros(4),
                 "input error: u_field must have frame components "
                 "(nx, ny, 2 + q)"),
}


@pytest.mark.parametrize("command", ["check-frame", "check-gcr", "solve",
                                     "reconstruct"])
@pytest.mark.parametrize("probe", _U_FIELD_PROBES)
def test_every_grid_command_rejects_a_u_field_check_frame_rejects(
        tmp_path, capsys, probe, command):
    name, u_field, line = _U_FIELD_PROBES[probe]
    fx = SURFACE_FIXTURES[name](9)
    path = tmp_path / "problem.json"
    dump_json(problem_to_dict(fx.data, fx.alg,
                              u_field=u_field(fx.grid.shape)), path)
    out = tmp_path / "out"
    out.mkdir()
    code, err = _main_err([command, str(path), "-o", str(out / "r.json")],
                          capsys)
    assert (code, err.splitlines()) == (3, [line])
    assert list(out.iterdir()) == []


def test_solve_and_reports(tmp_path):
    out = tmp_path / "solve.json"
    assert main(["solve", "--fixture", "s3-sphere", "--grid-n", "17",
                 "-o", str(out)]) == 0
    report = load_json(out)
    assert report["integrable"]
    spinor = load_json(report["spinor_path"])
    assert len(spinor) == 17 * 17 * 8


def test_solve_broken_exits_two(tmp_path):
    out = tmp_path / "solve.json"
    assert main(["solve", "--fixture", "sphere-r3-broken", "--grid-n", "17",
                 "-o", str(out)]) == 2


def test_reconstruct_writes_mesh_and_report(tmp_path):
    out = tmp_path / "rec.json"
    assert main(["reconstruct", "--fixture", "sphere-r3", "--grid-n", "17",
                 "-o", str(out), "--format", "ply"]) == 0
    report = load_json(out)
    assert report["isometry_error"] <= 5 * (0.5 / 16) ** 2
    verts = read_ply_vertices(report["mesh_path"])
    assert verts.shape == (17 * 17, 3)
    # the surface JSON re-exports to identical coordinates
    out2 = tmp_path / "again.obj"
    assert main(["export", report["surface_path"], "-o", str(out2),
                 "--format", "obj"]) == 0
    vo = read_obj_vertices(out2)
    assert np.max(np.abs(vo - verts)) <= 1e-12


@pytest.mark.parametrize("label", [
    {"params": {"A": [[3.0, 0.0], [0.0, 0.5]]}}, {"tag": "Rn"},
    {"tag": "custom"}], ids=["wrong-params-A", "Rn-tag", "custom-tag"])
def test_reconstruct_takes_the_group_from_c(tmp_path, label):
    # Sol_3's c with any tag or params.A gives the Sol_3 surface
    fx = fixtures.sol3_plane(17)
    blob = problem_to_dict(fx.data, fx.alg, base_point=fx.F[0, 0])
    surfaces, reports = [], []
    for name, algebra in (("ref", {}), ("labelled", label)):
        blob["algebra"].update(algebra)
        path = tmp_path / f"{name}.json"
        dump_json(blob, path)
        out = tmp_path / f"{name}.rec.json"
        assert main(["reconstruct", str(path), "-o", str(out)]) == 0
        reports.append(load_json(out))
        surfaces.append((tmp_path / f"{name}.rec.surface.json").read_bytes())
    assert surfaces[0] == surfaces[1]
    assert reports[0]["isometry_error"] == reports[1]["isometry_error"]
    assert reports[1]["isometry_error"] <= 5 * fx.data.grid.h ** 2


def test_reconstruct_not_integrable_exits_two(tmp_path):
    out = tmp_path / "rec.json"
    assert main(["reconstruct", "--fixture", "sphere-r3-broken",
                 "--grid-n", "17", "-o", str(out)]) == 2
    report = load_json(out)
    assert not report["integrable"]


@pytest.mark.parametrize("model,payload,code", [
    ({"name": "semidirect"}, [0.0] * 12, 3),
    ({"name": "s3"}, [float("nan")] * 16, 3),
    ({"name": "s3"}, [0.0] * 16, 3),
    ({"name": "hn", "params": {"n": 3}}, [0.0, 0.0, 1.0] * 3 + [0.0] * 3, 3),
    ({"name": "abelian"}, [0.5] * 12, 0),
    ({"name": "hn", "params": {}}, [0.5] * 12, 0),
    ({"name": "hn", "params": {"n": 3.7}}, [0.5] * 12, 3),
    ({"name": "semidirect", "params": {"A": [["1", "0"], ["0", "-1"]]}},
     [0.0] * 12, 3),
    ({"name": "abelian"}, ["0.5"] * 12, 3),
    ({"name": "s3"}, [1.0, 0.0, 0.0, 0.0] * 3 + [1.0 + 1e-7, 0.0, 0.0, 0.0],
     3),
], ids=["semidirect-without-A", "s3-nan", "s3-not-unit",
        "hn-outside-half-space", "abelian-default-n", "hn-default-n",
        "hn-non-integral-n", "semidirect-string-A", "abelian-string-payload",
        "s3-off-by-1e-7"])
def test_export_surface_exit_codes(tmp_path, model, payload, code):
    path = tmp_path / "surface.json"
    dump_json({"model": model, "nx": 2, "ny": 2, "payload": payload}, path)
    assert main(["export", str(path), "-o", str(tmp_path / "m.obj")]) == code


@pytest.mark.parametrize("nest", [
    lambda p: [p], lambda p: [p[i:i + 3] for i in range(0, len(p), 3)]],
    ids=["wrapped", "triples"])
def test_export_rejects_a_nested_payload(tmp_path, capsys, nest):
    fx = fixtures.sphere_r3(5)
    blob = surface_to_dict(fx.F, fx.model)
    blob["payload"] = nest(blob["payload"])    # the right size, not flat
    path = tmp_path / "surface.json"
    dump_json(blob, path)
    mesh = tmp_path / "m.obj"
    assert main(["export", str(path), "-o", str(mesh)]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("input error: payload must be a flat list")
    assert not mesh.exists()


_NONFINITE = [float("nan"), float("inf"), float("-inf")]
_WRONG_PARAM = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 6), st.text(max_size=3),
    st.floats(-5, 5), st.sampled_from(_NONFINITE),
    st.lists(st.integers(-1, 2), max_size=5),
    st.just([[float("nan"), 0.0], [0.0, 1.0]]))


@st.composite
def surface_blobs(draw):
    """Surface JSON for every schema model name, starting from params valid
    for all of them; each param may be dropped or given a wrong value, the
    payload length may be off by one and one entry may be non-finite."""
    model = {"name": draw(st.sampled_from(
        SURFACE_SCHEMA["properties"]["model"]["properties"]["name"]["enum"]))}
    params = {"n": 3, "A": [[-1.0, 0.0], [0.0, 1.0]]}
    for key in list(params):
        how = draw(st.sampled_from(["keep", "keep", "drop", "wrong"]))
        if how == "drop":
            del params[key]
        elif how == "wrong":
            params[key] = draw(_WRONG_PARAM)
    shape = draw(st.sampled_from(["dict", "dict", "absent", "wrong"]))
    if shape != "absent":
        model["params"] = params if shape == "dict" else draw(_WRONG_PARAM)
    nx, ny = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    dim = 4 if model["name"] == "s3" else 3
    length = nx * ny * dim + draw(st.sampled_from([0, 0, 0, -1, 1]))
    # positive entries keep H^n payloads in the half space
    low = draw(st.sampled_from([0.25, -3.0]))
    payload = draw(st.lists(st.floats(low, 3), min_size=length,
                            max_size=length))
    bad = draw(st.sampled_from([None, None, None] + _NONFINITE))
    if bad is not None:
        payload[draw(st.integers(0, length - 1))] = bad
    return {"model": model, "nx": nx, "ny": ny, "payload": payload}


@given(surface_blobs(), st.sampled_from(["obj", "ply"]))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_export_fuzz_exits_cleanly(blob, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "surface.json")
        dump_json(blob, path)
        code = main(["export", path, "--format", fmt,
                     "-o", os.path.join(tmp, "mesh." + fmt)])
    assert code in (0, 3)


# each gate has one tolerance, which no option overrides
TOLERANCE_OPTIONS = [("check-algebra", "--tol"), ("check-frame", "--tol"),
                     ("check-gcr", "--tol"), ("solve", "--holonomy-tol"),
                     ("reconstruct", "--holonomy-tol"),
                     ("reconstruct", "--structure-tol"),
                     ("cmc", "--structure-tol")]


@pytest.mark.parametrize("command,flag", TOLERANCE_OPTIONS,
                         ids=[c + f[1:] for c, f in TOLERANCE_OPTIONS])
def test_a_tolerance_option_exits_three(tmp_path, capsys, command, flag):
    inputs, work = tmp_path / "in", tmp_path / "work"
    inputs.mkdir()
    work.mkdir()
    code, err = _main_err(_every_command_argv(inputs)[command] + [
        f"{flag}=1", "-o", str(work / "r.json")], capsys)
    assert code == 3
    assert err.splitlines() == [f"input error: unrecognized arguments: "
                                f"{flag}=1"]
    assert list(work.iterdir()) == []


# each former tolerance option on a command that read it
TOLERANCE_SOURCES = {"--tol": ["check-gcr", "--fixture", "sphere-r3"],
                     "--holonomy-tol": ["solve", "--fixture", "sphere-r3"],
                     "--structure-tol": ["cmc", "--fixture", "cmc-sphere"]}


@pytest.mark.parametrize("flag,value", [
    ("--tol", "nan"), ("--holonomy-tol", "nan"), ("--holonomy-tol", "-1"),
    ("--tol", "inf"), ("--tol", "1e400"), ("--holonomy-tol", "inf"),
    ("--holonomy-tol", "1e400"), ("--structure-tol", "inf"),
    ("--structure-tol", "1e400"),
], ids=["tol-nan", "holonomy-nan", "holonomy-negative", "tol-inf",
        "tol-1e400", "holonomy-inf", "holonomy-1e400", "structure-inf",
        "structure-1e400"])
def test_tolerance_must_be_positive(tmp_path, capsys, flag, value):
    # no tolerance value, and so no NaN, negative or infinite one, reaches
    # a gate: the option itself is rejected before any work
    code, err = _main_err(TOLERANCE_SOURCES[flag] + [
        "--grid-n", "9", f"{flag}={value}", "-o", str(tmp_path / "r.json")],
        capsys)
    assert code == 3
    assert err.splitlines() == [f"input error: unrecognized arguments: "
                                f"{flag}={value}"]
    assert list(tmp_path.iterdir()) == []


def test_reconstruct_missing_input_is_input_error(tmp_path):
    assert main(["reconstruct"]) == 3
    assert main(["reconstruct", str(tmp_path / "absent.json")]) == 3


def test_empty_grid_rejected(tmp_path):
    fx = fixtures.sphere_r3(5)
    blob = problem_to_dict(fx.data, fx.alg)
    blob["grid"]["nx"] = 1
    path = tmp_path / "bad.json"
    dump_json(blob, path)
    assert main(["reconstruct", str(path)]) == 3


# values of h and mu whose squares underflow to 0 or overflow to inf
# values of h and mu whose squares are subnormal: their reciprocals overflow
SQUARE_PROBES = [("h", 1e-170), ("h", 1e160), ("mu", 1e-200), ("mu", 1e200),
                 ("h", 1e-160), ("mu", 1e-160)]
SQUARE_PROBE_IDS = [f"{key}={value:g}" for key, value in SQUARE_PROBES]


@pytest.mark.parametrize(
    "key,value",
    [pytest.param(key, np.inf, id=key) for key in ["mu", "h", "x0", "y0"]]
    + [pytest.param(key, value, id=name)
       for (key, value), name in zip(SQUARE_PROBES, SQUARE_PROBE_IDS)])
def test_grid_rejects_non_finite(key, value):
    kwargs = {"mu": np.ones((5, 5)), "h": 0.1, "x0": 0.0, "y0": 0.0}
    if key == "mu":
        kwargs["mu"][2, 3] = value
    else:
        kwargs[key] = value
    with pytest.raises(ValueError):
        ParamGrid(5, 5, **kwargs)


@pytest.mark.parametrize("key,value", SQUARE_PROBES, ids=SQUARE_PROBE_IDS)
@pytest.mark.parametrize("command", ["check-frame", "check-gcr", "solve",
                                     "reconstruct"])
def test_grid_squares_out_of_range_are_input_errors(tmp_path, capsys, command,
                                                    key, value):
    fx = fixtures.sphere_r3(9)
    blob = problem_to_dict(fx.data, fx.alg, base_point=fx.F[0, 0])
    if key == "h":
        blob["grid"]["h"] = value
    else:
        blob["grid"]["mu"] = np.full((9, 9), value).tolist()
    path = tmp_path / "problem.json"
    dump_json(blob, path)
    assert main([command, str(path), "-o", str(tmp_path / "r.json")]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and f"{key}^2" in lines[0], lines


@pytest.mark.parametrize("key", ["h", "x0"])
def test_grid_integers_beyond_the_float_range_are_input_errors(tmp_path, capsys,
                                                               key):
    fx = fixtures.sphere_r3(9)
    blob = problem_to_dict(fx.data, fx.alg)
    blob["grid"][key] = 10 ** 400
    path = tmp_path / "problem.json"
    dump_json(blob, path)
    assert main(["check-gcr", str(path), "-o", str(tmp_path / "r.json")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "input error: grid h, x0 and y0 must be within the float range"]


@pytest.mark.parametrize("command", ["solve", "check-algebra", "cmc",
                                     "export"])
def test_too_deeply_nested_json_is_an_input_error(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main([command, str(path), "-o", str(tmp_path / "r.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot read JSON from {path}")
    assert gc.isenabled()


def test_reports_locate_the_worst_plaquette(tmp_path):
    fx = fixtures.sphere_r3(17)
    blob = problem_to_dict(fx.data, fx.alg, base_point=fx.F[0, 0])
    S = np.array(blob["S"])
    S[8, 8] += 0.1 * np.eye(2)
    blob["S"] = S.tolist()
    path = tmp_path / "bumped.json"
    dump_json(blob, path)
    # the plaquettes named by their lower-left node that touch node (8, 8)
    touching = [[7, 7], [7, 8], [8, 7], [8, 8]]
    assert main(["solve", str(path), "-o", str(tmp_path / "s.json")]) == 2
    solved = load_json(tmp_path / "s.json")
    assert solved["holonomy_argmax"] in touching
    assert main(["reconstruct", str(path), "-o", str(tmp_path / "r.json")]) == 2
    report = load_json(tmp_path / "r.json")
    i, j = report["holonomy_argmax"]
    assert [i, j] == solved["holonomy_argmax"]
    assert report["error"].endswith(f" at plaquette ({i}, {j})")


def test_check_gcr_rejects_infinite_mu(tmp_path):
    fx = fixtures.sphere_r3(9)
    blob = problem_to_dict(fx.data, fx.alg)
    blob["grid"]["mu"][4][4] = float("inf")
    path = tmp_path / "inf.json"
    dump_json(blob, path)
    assert main(["check-gcr", str(path), "-o", str(tmp_path / "r.json")]) == 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["solve", "reconstruct"])
def test_infinite_base_spinor_rejected_before_any_product(tmp_path, capsys,
                                                          command):
    fx = fixtures.sphere_r3(9)
    blob = problem_to_dict(fx.data, fx.alg)
    blob["base_spinor"] = [1.0, 0.0, 0.0, float("inf")] + [0.0] * 4
    path = tmp_path / "inf.json"
    dump_json(blob, path)
    assert main([command, str(path), "-o", str(tmp_path / "r.json")]) == 3
    err = capsys.readouterr().err
    assert "deviates from 1" in err and "Traceback" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_infinite_gauss_map_rejected_before_any_product(tmp_path, capsys):
    blob = json.loads(_cmc_text(9))
    blob["g"][0][0][1] = float("inf")
    path = tmp_path / "inf.json"
    dump_json(blob, path)
    assert main(["cmc", str(path), "-o", str(tmp_path / "r.json")]) == 3
    err = capsys.readouterr().err
    assert "g has non-finite entries" in err and "Traceback" not in err


def test_nan_base_spinor_rejected(tmp_path, capsys):
    fx = fixtures.sphere_r3(9)
    blob = problem_to_dict(fx.data, fx.alg)
    blob["base_spinor"] = [float("nan")] + [0.0] * 7
    with pytest.raises(ValueError, match="deviates from 1"):
        problem_from_dict(blob)
    path = tmp_path / "nan.json"
    dump_json(blob, path)
    assert main(["solve", str(path), "-o", str(tmp_path / "r.json")]) == 3
    assert "deviates from 1" in capsys.readouterr().err


def test_reconstruct_undersized_grid_names_minimum(tmp_path, capsys):
    # the order-4 verification stencils need five nodes per axis
    out = tmp_path / "rec.json"
    assert main(["reconstruct", "--fixture", "sphere-r3", "--grid-n", "4",
                 "-o", str(out)]) == 3
    assert "at least 5 nodes" in capsys.readouterr().err


def test_min_grid_nodes_is_the_widest_stencil_reach():
    def fewest_nodes(derivative, order):
        for size in range(1, 20):
            f = np.zeros(size)
            try:
                difference(lambda lo, hi, k: f[lo + k:hi + k], size, 1.0,
                           derivative, order)
                return size
            except ValueError:
                pass
    assert MIN_GRID_NODES == max(fewest_nodes(*key) for key in STENCILS) == 5


def _r4(n):
    fx = fixtures.sphere_r4_twisted(n)
    return problem_to_dict(fx.data, fx.alg)


def _r4_not_integrable(n):
    blob = _r4(n)
    B = np.array(blob["B"])
    B[n // 2, n // 2] *= 3.0
    blob["B"] = B.tolist()
    return blob


def _no_model(n):
    fx = fixtures.sphere_r3(n)
    return problem_to_dict(fx.data, la.e_kappa_tau(-1.0, 0.5))


def _based(fixture, point):
    """A fixture's problem whose base point is `point`."""
    def make(n):
        fx = fixture(n)
        return problem_to_dict(fx.data, fx.alg, base_point=point)
    return make


NO_MESH = "input error: no R^3 embedding for abelian payloads of dimension 4"
OFF_S3 = "input error: S^3 points must be unit quaternions: |q| is off 1 by "


@pytest.mark.parametrize("make,message", [
    (_r4, NO_MESH), (_r4_not_integrable, NO_MESH),
    (_no_model, "input error: structure constants have no closed-form "
                "group model"),
    (_based(fixtures.s3_sphere, [2.0, 0.0, 0.0, 0.0]),
     OFF_S3 + "1.000e+00 > 1e-08"),
    (_based(fixtures.s3_sphere, [0.0, 0.0, 0.0, 0.0]),
     OFF_S3 + "1.000e+00 > 1e-08"),
    (_based(fixtures.s3_sphere, [1.0 + 2e-8, 0.0, 0.0, 0.0]),
     OFF_S3 + "2.000e-08 > 1e-08"),
    (_based(fixtures.horosphere_h3, [0.0, 0.0, -1.0]),
     "input error: H^n payload left the half space a_n > 0"),
], ids=["r4", "r4-not-integrable", "no-model", "s3-base-norm-two",
        "s3-base-zero", "s3-base-off-2e-8", "h3-base-outside-half-space"])
def test_reconstruct_without_a_mesh_fails_before_the_solve(
        tmp_path, capsys, monkeypatch, make, message):
    calls = []
    solve = spinor.solve_killing
    monkeypatch.setattr(spinor, "solve_killing",
                        lambda *a, **k: calls.append(1) or solve(*a, **k))
    path = tmp_path / "problem.json"
    dump_json(make(9), path)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["reconstruct", str(path), "-o", str(out / "r.json")]) == 3
    assert capsys.readouterr().err.splitlines() == [message]
    assert calls == [] and list(out.iterdir()) == []


@pytest.mark.parametrize("pole", [["nan"] * 4, ["2", "0", "0", "0"]],
                         ids=["nan", "norm-two"])
def test_export_rejects_a_pole_off_s3(tmp_path, capsys, pole):
    fx = fixtures.s3_equator(9)
    path = tmp_path / "surface.json"
    dump_json(surface_to_dict(fx.F, fx.model), path)
    out = tmp_path / "m.obj"
    assert main(["export", str(path), "--pole", *pole, "-o", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(OFF_S3)
    assert not out.exists()


@pytest.mark.parametrize("command", ["check-frame", "check-gcr", "solve"])
def test_every_problem_command_rejects_a_base_point_off_the_group(
        tmp_path, capsys, command):
    path = tmp_path / "problem.json"
    dump_json(_based(fixtures.s3_sphere, [2.0, 0.0, 0.0, 0.0])(9), path)
    out = tmp_path / "out"
    out.mkdir()
    assert main([command, str(path), "-o", str(out / "r.json")]) == 3
    assert capsys.readouterr().err.splitlines() == [OFF_S3 + "1.000e+00 > 1e-08"]
    assert list(out.iterdir()) == []


def _scaled_shape_operator_problem(tmp_path, scale):
    fx = fixtures.sphere_r3(9)
    blob = problem_to_dict(fx.data, fx.alg, base_point=fx.F[0, 0])
    blob["S"] = (np.array(blob["S"]) * scale).tolist()
    path = tmp_path / "scaled.json"
    dump_json(blob, path)
    return path


@pytest.mark.parametrize("command", ["solve", "reconstruct"])
def test_overflowing_transport_exits_four_and_names_the_edge(tmp_path, capsys,
                                                             command):
    # |h eta|^2 overflows, so the edge rotors are not finite
    path = _scaled_shape_operator_problem(tmp_path, 1e300)
    assert main([command, str(path), "-o", str(tmp_path / "r.json")]) == 4
    err = capsys.readouterr().err
    assert "numerical failure: spin transport diverged at cell (" in err
    assert "Traceback" not in err
    assert "must be even" not in err


@pytest.mark.parametrize("n", [4, 5])
def test_overflowing_connection_exits_as_in_r4_at_n_5(tmp_path, capsys, n):
    """sphere-r4-twisted, and the same surface padded into R^5 (e5 a third
    normal with zero B and theta), with one B entry at 1e308.  solve exits
    4 naming the cell at both n, and writes no report and no spinor file;
    reconstruct stops at its R^3 embedding check before any work."""
    fx = fixtures.sphere_r4_twisted(9)
    if n == 5:
        fx = padded(fx)
    blob = problem_to_dict(fx.data, fx.alg, base_point=fx.F[0, 0])
    B = np.array(blob["B"])
    B[4, 4, 0, 0, 0] = 1e308
    blob["B"] = B.tolist()
    path = tmp_path / "overflow.json"
    dump_json(blob, path)
    out = tmp_path / "out"
    out.mkdir()
    for command, code, message in [
            ("solve", 4, "numerical failure: spin transport diverged at "
                         "cell (3, 4)"),
            ("reconstruct", 3, f"input error: no R^3 embedding for abelian "
                               f"payloads of dimension {n}")]:
        assert _main_err([command, str(path), "-o", str(out / "r.json")],
                         capsys) == (code, message + "\n")
        assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["solve", "reconstruct"])
def test_huge_but_finite_transport_is_not_integrable(tmp_path, capsys,
                                                      command):
    path = _scaled_shape_operator_problem(tmp_path, 1e150)
    assert main([command, str(path), "-o", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "must be even" not in err


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, spinorforge.cli; print('scipy' in sys.modules)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(spinorforge.__path__[0]),
                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_cmc_fixture_and_file(tmp_path):
    out = tmp_path / "cmc.json"
    assert main(["cmc", "--fixture", "cmc-sphere", "--grid-n", "33",
                 "-o", str(out)]) == 0
    report = load_json(out)
    assert report["pde"]["max"] <= 1e-12
    assert "mesh_path" in report
    # same data through a file
    from spinorforge.cmc import HPotential, WeierstrassData
    from spinorforge.grid import ParamGrid
    n, half = 17, 0.75
    h = 2 * half / (n - 1)
    base = ParamGrid(n, n, h, x0=-half, y0=-half)
    X, Y = base.mesh()
    z = X + 1j * Y
    grid = ParamGrid(n, n, h, mu=2.0 / (1 + np.abs(z) ** 2), x0=-half, y0=-half)
    data = WeierstrassData(grid, z)
    path = tmp_path / "cmc-in.json"
    dump_json(cmc_to_dict(data, HPotential(1.0, (0, 0, 0))), path)
    out2 = tmp_path / "cmc2.json"
    assert main(["cmc", str(path), "-o", str(out2)]) == 0


def test_cmc_singular_potential_exits_four(tmp_path):
    from spinorforge.cmc import HPotential, WeierstrassData
    from spinorforge.grid import ParamGrid
    grid = ParamGrid(5, 5, 0.1)
    data = WeierstrassData(grid, np.zeros(grid.shape, dtype=complex))
    path = tmp_path / "sing.json"
    dump_json(cmc_to_dict(data, HPotential(0.0, (0.0, 0.0, 0.0))), path)
    assert main(["cmc", str(path), "-o", str(tmp_path / "r.json")]) == 4


def test_reports_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["check-gcr", "--fixture", "s3-sphere", "--grid-n", "9",
                 "-o", str(a)]) == 0
    assert main(["check-gcr", "--fixture", "s3-sphere", "--grid-n", "9",
                 "-o", str(b)]) == 0
    # identical up to the output paths baked into field_path entries
    ra = a.read_bytes().replace(str(tmp_path / "a").encode(), b"OUT")
    rb = b.read_bytes().replace(str(tmp_path / "b").encode(), b"OUT")
    assert ra == rb


# =============================================================================
# Input fuzz: problem and CMC files through the commands that read them
# =============================================================================

_PROBLEM_FIXTURES = ("sphere-r3", "sphere-r4-twisted", "s3-sphere",
                     "sol3-plane")


@functools.lru_cache(maxsize=None)
def _problem_text(name, n):
    fx = SURFACE_FIXTURES[name](n)
    spinor = np.zeros(1 << fx.alg.n)
    spinor[0] = 1.0
    return json.dumps(problem_to_dict(fx.data, fx.alg, base_spinor=spinor,
                                      base_point=fx.F[0, 0]), sort_keys=True)


@functools.lru_cache(maxsize=None)
def _cmc_text(n):
    from spinorforge.cmc import HPotential, WeierstrassData
    half = 0.75
    h = 2 * half / (n - 1)
    X, Y = ParamGrid(n, n, h, x0=-half, y0=-half).mesh()
    z = X + 1j * Y
    grid = ParamGrid(n, n, h, mu=2.0 / (1.0 + np.abs(z) ** 2),
                     x0=-half, y0=-half)
    return json.dumps(cmc_to_dict(WeierstrassData(grid, z),
                                  HPotential(1.0, (0.0, 0.0, 0.0))),
                      sort_keys=True)


# the values a fuzzed input may break, by dotted path
_PROBLEM_KEYS = ("grid", "grid.nx", "grid.ny", "grid.h", "grid.x0", "grid.y0",
                 "grid.mu", "algebra.c", "algebra.gamma", "frames", "S", "B",
                 "theta_x", "theta_y", "base_spinor", "base_point")
_CMC_KEYS = ("grid", "grid.nx", "grid.h", "grid.mu", "potential",
             "potential.H", "potential.mu", "g")


@st.composite
def broken_inputs(draw):
    """(command, file text) for an input no command may accept: truncated
    JSON, a non-finite, missing or extra entry, a value of the wrong type,
    or a grid with fewer than five nodes per axis."""
    command = draw(st.sampled_from(["check-gcr", "solve", "reconstruct",
                                    "cmc"]))
    how = draw(st.sampled_from(["truncate", "non-finite", "mis-shape",
                                "mistype", "small-grid"]))
    if how == "small-grid":
        n = draw(st.integers(2, 4))
        return command, _cmc_text(n) if command == "cmc" else \
            _problem_text(draw(st.sampled_from(_PROBLEM_FIXTURES)), n)
    text = _cmc_text(9) if command == "cmc" else \
        _problem_text(draw(st.sampled_from(_PROBLEM_FIXTURES)), 9)
    if how == "truncate":
        return command, text[:draw(st.integers(0, len(text) - 1))]
    blob = json.loads(text)
    keys = _CMC_KEYS if command == "cmc" else _PROBLEM_KEYS
    *parents, leaf = draw(st.sampled_from(
        [k for k in keys if k.split(".")[0] in blob])).split(".")
    holder = blob
    for key in parents:
        holder = holder[key]
    # descend to a random entry of a nested array
    while isinstance(holder[leaf], list) and holder[leaf] \
            and draw(st.booleans()):
        holder, leaf = holder[leaf], draw(
            st.integers(0, len(holder[leaf]) - 1))
    value = holder[leaf]
    if how == "non-finite":
        while isinstance(value, (list, dict)):
            holder, leaf = value, draw(st.sampled_from(
                list(value) if isinstance(value, dict)
                else range(len(value))))
            value = holder[leaf]
        holder[leaf] = draw(st.sampled_from([float("nan"), float("inf"),
                                             float("-inf")]))
    elif how == "mis-shape":
        if isinstance(value, list) and value:
            holder[leaf] = draw(st.sampled_from(
                [value[:-1], value + value[-1:], [value]]))
        else:
            holder[leaf] = [value, value]
    else:
        holder[leaf] = draw(st.sampled_from(["x", {"k": 1}, [[]]]
                                            if isinstance(leaf, str)
                                            else ["x", {"k": 1}, None, []]))
    return command, json.dumps(blob)


# the fixtures whose reconstruct writes a surface
_SURFACE_NAMES = ("sphere-r3", "s3-sphere", "s3-equator", "sol3-plane",
                  "h2xr-slice", "horosphere-h3")
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-9, 9)
    | st.floats(-5, 5) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3), max_leaves=6)


def _reconstructed_surface(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        dump_json(blob, path)
        assert main(["reconstruct", path,
                     "-o", os.path.join(tmp, "rec.json")]) == 0
        with open(os.path.join(tmp, "rec.surface.json"), "rb") as fh:
            return fh.read()


@functools.lru_cache(maxsize=None)
def _surface_problem_text(name):
    fx = SURFACE_FIXTURES[name](9)
    return json.dumps(problem_to_dict(fx.data, fx.alg))


@functools.lru_cache(maxsize=None)
def _reference_surface(name):
    return _reconstructed_surface(json.loads(_surface_problem_text(name)))


@given(st.sampled_from(_SURFACE_NAMES),
       st.sampled_from(sorted(la.CATALOG) + ["custom"]) | st.text(max_size=8),
       st.dictionaries(st.sampled_from(["A", "l", "n", "mu", "kappa"])
                       | st.text(max_size=3), _JSON_VALUES, max_size=3))
@example("sphere-r3", "EKappaTau", {"A": [False, 0]})  # a bool among numbers
@settings(max_examples=30, deadline=None, derandomize=True)
def test_reconstruct_surface_ignores_tag_and_params(name, tag, params):
    blob = json.loads(_surface_problem_text(name))
    blob["algebra"].update(tag=tag, params=params)
    assert _reconstructed_surface(blob) == _reference_surface(name)


@given(broken_inputs())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_broken_inputs_exit_three_or_four(case):
    command, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, path, "-o", os.path.join(tmp, "r.json")])
    assert code in (3, 4), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("name", _SURFACE_NAMES)
def test_reconstruct_fixture_exits_zero(tmp_path, name):
    # the fixture's F[0, 0] is the base point, so it must be a group point
    out = tmp_path / "rec.json"
    assert main(["reconstruct", "--fixture", name, "--grid-n", "9",
                 "-o", str(out)]) == 0
    if name == "horosphere-h3":
        # the flat horosphere a_3 = 1 is reconstructed exactly
        F, _ = surface_from_dict(load_json(load_json(out)["surface_path"]))
        assert np.array_equal(F, fixtures.horosphere_h3(9).F)


# =============================================================================
# Option table and usage errors
# =============================================================================

_SOURCE = {"input", "--fixture", "--grid-n"}
_MESH = {"--format", "--pole"}
# the options each command reads, besides -v and -o
COMMAND_OPTIONS = {
    "catalog": {"--group", "--params"},
    "check-algebra": {"input"},
    "check-frame": _SOURCE,
    "check-gcr": _SOURCE,
    "solve": _SOURCE,
    "reconstruct": _SOURCE | _MESH,
    "cmc": _SOURCE | _MESH,
    "export": {"input"} | _MESH,
}


def _settable(parser):
    """Each value a parser sets, named by its long option or its dest."""
    return [a.option_strings[-1] if a.option_strings else a.dest
            for a in parser._actions if not isinstance(a, argparse._HelpAction)]


def _subparsers(parser):
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_each_command_takes_only_the_options_it_reads():
    parser = build_parser()
    assert _settable(parser) == ["--schema", "command"]
    commands = _subparsers(parser)
    assert set(commands) == set(COMMAND_OPTIONS)
    total = 0
    for name, sub in commands.items():
        settable = _settable(sub)
        assert len(settable) == len(set(settable))
        assert set(settable) == COMMAND_OPTIONS[name] | {"--verbose",
                                                         "--output"}
        total += len(settable)
    assert total == 41


def _main_err(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--fixture", "sphere-r3", "--grid-n", "9", "--tol=1"],
    ["check-gcr", "--fixture", "sphere-r3", "--grid-n", "9",
     "--format", "ply"],
    ["export", "surface.json", "--holonomy-tol=1"],
    ["check-algebra", "alg.json", "--pole", "1", "0", "0", "0"],
], ids=["solve-tol", "check-gcr-format", "export-holonomy-tol",
        "check-algebra-pole"])
def test_an_option_the_command_does_not_read_exits_three(tmp_path, capsys,
                                                         argv):
    code, err = _main_err(argv + ["-o", str(tmp_path / "out")], capsys)
    assert code == 3
    assert err.startswith("input error: unrecognized arguments: ")
    assert not list(tmp_path.iterdir())


def test_nan_tolerance_exits_three(tmp_path, capsys):
    code, err = _main_err(["check-gcr", "--fixture", "sphere-r3",
                           "--grid-n", "9", "--tol=nan",
                           "-o", str(tmp_path / "r.json")], capsys)
    assert code == 3
    assert err.splitlines() == ["input error: unrecognized arguments: "
                                "--tol=nan"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["solve", "--fixture", "sphere-r3", "--grid-n", "9", "--bogus", "7"],
    ["reconstruct", "--bogus", "7", "--fixture", "sphere-r3",
     "--grid-n", "9"],
], ids=["after-the-fixture", "before-the-fixture"])
def test_an_unknown_options_value_is_named_with_it(tmp_path, capsys, argv):
    # argparse gives the value to the optional input path; it may be the
    # unknown option's, so the message names both
    code, err = _main_err(argv + ["-o", str(tmp_path / "r.json")], capsys)
    assert code == 3
    assert err.splitlines() == ["input error: unrecognized arguments: "
                                "--bogus 7"]
    assert not list(tmp_path.iterdir())


def _with_a_bool(blob, key):
    """`blob` with the first entry of its array `key` that is 0 or 1
    written as the JSON bool numpy would read as that number."""
    array = blob[key]
    flat = np.ravel(array)
    at = np.unravel_index(int(np.flatnonzero((flat == 0) | (flat == 1))[0]),
                          np.shape(array))
    inner = array
    for i in at[:-1]:
        inner = inner[i]
    inner[at[-1]] = bool(inner[at[-1]])
    return blob


def _bool_inputs(inputs):
    """(argv without -o, the array that holds the bool) per command, on
    files written to `inputs`."""
    def problem(make, key):
        fx = make(9)
        return _with_a_bool(problem_to_dict(fx.data, fx.alg,
                                            base_point=fx.F[0, 0]), key)

    blobs = {
        "solve": (problem(fixtures.sphere_r3, "S"), "S"),
        "reconstruct": (problem(fixtures.sphere_r3, "frames"), "frames"),
        "check-frame": (problem(fixtures.sphere_r4_twisted, "theta_x"),
                        "theta_x"),
        "check-gcr": (problem(fixtures.sphere_r4_twisted, "B"), "B"),
        "check-algebra": (_with_a_bool(la.algebra_to_dict(la.sol3()), "c"),
                          "c"),
        "cmc": (_with_a_bool(cmc_to_dict(*fixtures.cmc_sphere(9)), "g"), "g"),
        "export": (_with_a_bool({"model": {"name": "abelian"}, "nx": 2,
                                 "ny": 2, "payload": [0.5, 0.0] * 6},
                                "payload"), "payload"),
    }
    out = {}
    for command, (blob, key) in blobs.items():
        path = inputs / f"{command}.json"
        dump_json(blob, path)
        out[command] = ([command, str(path)], key)
    return out


@pytest.mark.parametrize("command", ["solve", "reconstruct", "check-frame",
                                     "check-gcr", "check-algebra", "cmc",
                                     "export"])
def test_a_bool_among_numbers_exits_three(tmp_path, capsys, command):
    inputs, work = tmp_path / "in", tmp_path / "work"
    inputs.mkdir()
    work.mkdir()
    argv, key = _bool_inputs(inputs)[command]
    code, err = _main_err(argv + ["-o", str(work / "r.out")], capsys)
    assert code == 3
    [line] = err.splitlines()
    # check-algebra says "invalid algebra: " before the array's name
    assert line.startswith("input error: ")
    assert line.endswith(f" {key} is not a numeric array: it holds booleans")
    assert list(work.iterdir()) == []


def test_a_text_without_true_or_false_is_not_walked(tmp_path, monkeypatch):
    def walk(value):
        raise AssertionError("walked a text that holds no bool")

    monkeypatch.setattr(serialization, "_mark_bools", walk)
    path = write_problem(tmp_path, fixtures.sphere_r3(9))
    assert main(["solve", str(path), "-o", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize("argv", [
    ["solve", "--fixture", "sphere-r3", "--grid-n", "abc"],
    ["no-such-command"],
    ["-v", "solve", "--fixture", "sphere-r3", "--grid-n", "9"],
    ["--schema", "nope"],
], ids=["grid-n-abc", "unknown-command", "top-level-v", "unknown-schema"])
def test_usage_errors_exit_three(tmp_path, capsys, argv):
    code, err = _main_err(argv, capsys)
    assert code == 3
    assert err.startswith("input error: ")


def test_usage_error_through_the_module_entry_point(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(spinorforge.__path__[0]),
                      env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "spinorforge.cli", "solve", "--fixture",
         "sphere-r3", "--grid-n", "abc"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 3
    assert done.stderr.startswith("input error: argument --grid-n")
    assert "Traceback" not in done.stderr


def test_input_file_and_fixture_are_exclusive(tmp_path, capsys):
    path = write_problem(tmp_path, fixtures.sphere_r3(9))
    out = str(tmp_path / "r.json")
    code, err = _main_err(["solve", str(path), "--fixture", "sphere-r3",
                           "-o", out], capsys)
    assert code == 3 and "not both" in err
    code, err = _main_err(["check-gcr", str(path), "--grid-n", "9",
                           "-o", out], capsys)
    assert code == 3 and "--grid-n sizes a fixture" in err
    code, err = _main_err(["cmc", "--grid-n", "9", "-o", out], capsys)
    assert code == 3 and "needs an input file or --fixture" in err
    assert not os.path.exists(out)
    # each alone is accepted
    assert main(["check-gcr", str(path), "-o", out]) == 0
    assert main(["check-gcr", "--fixture", "sphere-r3", "--grid-n", "9",
                 "-o", out]) == 0


@pytest.mark.parametrize("command,fixture", [("check-gcr", "sphere-r3"),
                                            ("cmc", "cmc-sphere")])
@pytest.mark.parametrize("n", ["0", "1"])
def test_fixture_grid_below_minimum_exits_three(tmp_path, capsys, command,
                                                fixture, n):
    # --grid-n 1 divided by n - 1 while building the fixture
    code, err = _main_err([command, "--fixture", fixture, "--grid-n", n,
                           "-o", str(tmp_path / "r.json")], capsys)
    assert code == 3 and "at least 5 nodes" in err


def test_solve_verbose_prints_one_line(tmp_path, capsys):
    assert main(["solve", "--fixture", "s3-sphere", "--grid-n", "9", "-v",
                 "-o", str(tmp_path / "s.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("holonomy ")


# =============================================================================
# catalog: tags in any case, parameters through the algebra schema
# =============================================================================

def test_catalog_group_is_a_tag_in_any_case(tmp_path, capsys):
    for group in ("sol3", "Sol3", "SOL3"):
        assert main(["catalog", "--group", group,
                     "-o", str(tmp_path / f"{group}.json")]) == 0
    out = capsys.readouterr().out.split("\n")
    assert out[0].startswith("Sol3  (n = 3")
    texts = {(tmp_path / f"{g}.json").read_text()
             for g in ("sol3", "Sol3", "SOL3")}
    assert len(texts) == 1


def test_catalog_unknown_group_lists_the_tags(capsys):
    code, err = _main_err(["catalog", "--group", "ekt"], capsys)
    assert code == 3
    for tag in la.CATALOG:
        assert repr(tag) in err
    assert main(["catalog", "--group", "ekappatau"]) == 0


@pytest.mark.parametrize("group,params", [
    ("rn", "[1]"), ("hn", '{"n": 0}'), ("rn", '{"n": null}'),
    ("unimodular", '{"mu": [1]}'), ("rn", '{"n": Infinity}'),
    ("hn", '{"n": 100000}'), ("semidirect", '{"A": "x"}'),
    ("ekappatau", "null"), ("sol3", "{not json"),
    ("rn", '{"n": 3.7}'), ("rn", '{"n": true}'),
    ("unimodular", '{"mu": "123"}'),
], ids=["rn-list", "hn-zero", "rn-null", "unimodular-short-mu", "rn-inf",
        "hn-huge", "semidirect-string", "ekappatau-null", "not-json",
        "rn-non-integral", "rn-bool", "unimodular-string-mu"])
def test_catalog_bad_params_exit_three(capsys, group, params):
    code, err = _main_err(["catalog", "--group", group, "--params", params],
                          capsys)
    assert code == 3
    assert err.startswith("input error: ") and "Traceback" not in err


@pytest.mark.parametrize("given", ["1e300", "-1e300", "100000", "9.0"])
def test_catalog_names_an_oversized_dimension_as_given(capsys, given):
    code, err = _main_err(["catalog", "--group", "Rn", "--params",
                           f'{{"n": {given}}}'], capsys)
    assert (code, err) == (3, f"input error: invalid algebra: dimension must "
                              f"be 1..8; got {json.loads(given)!r}\n")


@given(st.sampled_from(sorted(la.CATALOG)),
       st.dictionaries(st.sampled_from(["n", "l", "A", "mu", "kappa", "tau"])
                       | st.text(max_size=3), _JSON_VALUES, max_size=3)
       | _JSON_VALUES)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_catalog_params_fuzz_exits_cleanly(group, params):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), np.errstate(all="ignore"):
        code = main(["catalog", "--group", group,
                     "--params", json.dumps(params)])
    assert code in (0, 3), err.getvalue()


_ODD_NUMBERS = st.sampled_from([1e308, -1e308, 1e300, 5e-324, 0.0, 1.0])
_NOT_NUMBERS = st.sampled_from([True, False, "x", "", None, [], {}])
_TAG_PARAMS = {
    "Rn": st.fixed_dictionaries({"n": st.sampled_from([9, 0, 8.5, 1e300, 4])}),
    "Hn": st.fixed_dictionaries({"n": st.sampled_from([9, 3]),
                                 "l": st.lists(_ODD_NUMBERS, max_size=9)}),
    "EKappaTau": st.fixed_dictionaries(
        {"kappa": _ODD_NUMBERS | _NOT_NUMBERS, "tau": _ODD_NUMBERS}),
    "SemiDirect": st.fixed_dictionaries({"A": st.lists(
        st.lists(_ODD_NUMBERS | _NOT_NUMBERS, max_size=3), max_size=3)}),
    "Unimodular": st.fixed_dictionaries(
        {"mu": st.lists(_ODD_NUMBERS | _NOT_NUMBERS, max_size=4)}),
}
# the mutations of a catalog algebra file, those that index into it first
_ALGEBRA_MUTATIONS = ("huge-c", "gamma-entry", "ragged-c", "c-of-9", "gamma",
                      "params")


@st.composite
def mutated_catalog_files(draw):
    """A catalog algebra file as `catalog -o` writes it, with one or two of:
    an odd entry of `c`, a bool or string in `gamma` or as `gamma`, a
    ragged `c`, a `c` of dimension 9, a non-object `params`."""
    tag = draw(st.sampled_from(sorted(la.CATALOG)))
    blob = la.algebra_to_dict(la.catalog_build(tag, la.CATALOG[tag][1]))
    index = st.integers(0, 2)
    hows = draw(st.lists(st.sampled_from(_ALGEBRA_MUTATIONS),
                         min_size=1, max_size=2))
    for how in sorted(hows, key=_ALGEBRA_MUTATIONS.index):
        if how == "huge-c":
            blob["c"][draw(index)][draw(index)][draw(index)] = \
                draw(_ODD_NUMBERS)
        elif how == "gamma-entry":
            blob["gamma"][draw(index)][draw(index)][draw(index)] = \
                draw(_NOT_NUMBERS)
        elif how == "ragged-c":
            i = draw(index)
            blob["c"][i] = blob["c"][i][:draw(index)]
        elif how == "c-of-9":
            blob["c"] = np.zeros((9, 9, 9)).tolist()
        elif how == "gamma":
            blob["gamma"] = draw(_NOT_NUMBERS)
        else:
            blob["params"] = draw(st.sampled_from([True, "x", None, [], 3]))
    return blob


# an algebra file without `c` and `gamma`, for its tag to build from params
_TAG_BUILT_ALGEBRAS = st.sampled_from(sorted(_TAG_PARAMS)).flatmap(
    lambda tag: st.fixed_dictionaries({"tag": st.just(tag),
                                       "params": _TAG_PARAMS[tag]}))


@given(mutated_catalog_files() | _TAG_BUILT_ALGEBRAS)
@settings(max_examples=80, deadline=None, derandomize=True)
@seed(20261020)
def test_check_algebra_fuzz_exits_cleanly(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "alg.json"), os.path.join(tmp, "r.json")
        with open(path, "w") as fh:
            json.dump(blob, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["check-algebra", path, "-o", out])
        assert code in (0, 2, 3), err.getvalue()
        assert err.getvalue().count("\n") <= 1, err.getvalue()
        assert os.path.exists(out) == (code != 3), (code, err.getvalue())


def test_tag_only_hn_of_dimension_zero_is_input_error(tmp_path, capsys):
    fx = fixtures.sphere_r3(9)
    blob = problem_to_dict(fx.data, fx.alg)
    blob["algebra"] = {"tag": "Hn", "params": {"n": 0}}
    path = tmp_path / "hn0.json"
    dump_json(blob, path)
    code, err = _main_err(["check-gcr", str(path),
                           "-o", str(tmp_path / "r.json")], capsys)
    assert code == 3
    assert "dimension must be 1..8" in err and "Traceback" not in err


@pytest.mark.parametrize("params", [{"n": 3.7}, {"n": True}, {"n": "3"}],
                         ids=["non-integral", "bool", "string"])
def test_tag_only_problem_params_are_not_coerced(tmp_path, capsys, params):
    fx = fixtures.sphere_r3(9)
    blob = problem_to_dict(fx.data, fx.alg)
    blob["algebra"] = {"tag": "Rn", "params": params}
    path = tmp_path / "rn.json"
    dump_json(blob, path)
    code, err = _main_err(["check-gcr", str(path),
                           "-o", str(tmp_path / "r.json")], capsys)
    assert code == 3
    assert "params.n must be" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("group,params", [
    ("semidirect", '{"A": [[1e200, 1e200], [1e200, 1e200]]}'),
    ("ekappatau", '{"kappa": 5, "tau": 1e-300}'),
], ids=["semidirect-overflow", "ekappatau-overflow"])
def test_catalog_overflowing_constants_fail_jacobi_without_warning(
        capsys, group, params):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = _main_err(["catalog", "--group", group,
                               "--params", params], capsys)
    assert code == 3 and "Jacobi" in err


_ORDINARY_MU = [123.456, 789.012, 345.678]


def test_unimodular_with_ordinary_mu_builds(tmp_path, capsys):
    code, err = _main_err(["catalog", "--group", "unimodular", "--params",
                           json.dumps({"mu": _ORDINARY_MU})], capsys)
    assert code == 0 and "Traceback" not in err
    blob = json.loads(_cmc_text(9))
    blob["potential"]["mu"] = _ORDINARY_MU
    path = tmp_path / "cmc.json"
    dump_json(blob, path)
    code, err = _main_err(["cmc", str(path),
                           "-o", str(tmp_path / "r.json")], capsys)
    assert code in (0, 2) and "Traceback" not in err


def test_tag_only_algebra_is_read_in_any_case(tmp_path):
    fx = fixtures.sol3_plane(9)
    blob = problem_to_dict(fx.data, fx.alg)
    texts = []
    for tag in ("sol3", "Sol3"):
        blob["algebra"] = {"tag": tag}
        dump_json(blob, tmp_path / f"{tag}.json")
        out = tmp_path / tag / "r.json"
        out.parent.mkdir()
        assert main(["check-gcr", str(tmp_path / f"{tag}.json"),
                     "-o", str(out)]) == 0
        texts.append(b"".join(
            f.read_bytes().replace(str(out.parent).encode(), b"OUT")
            for f in sorted(out.parent.iterdir())))
    assert texts[0] == texts[1]


# =============================================================================
# Algebra files: the connection is Koszul(c), a file's gamma is checked
# =============================================================================

def _deviating_gamma(gamma):
    gamma[0][1][2], gamma[0][2][1] = 0.3, -0.3
    return gamma


def _set_entry(value):
    def mutate(gamma):
        gamma[0][1][2] = value
        return gamma
    return mutate


# ways to break the all-zero gamma of the sphere-r3 algebra (c = 0)
_BAD_GAMMAS = {
    "deviating": _deviating_gamma,
    "ragged": lambda g: [g[0][:-1]] + g[1:],
    "non-numeric": _set_entry("x"),
    "non-finite": _set_entry(float("inf")),
    "broadcast": lambda g: g[0],
    "numeric-string": _set_entry("0"),
}


@pytest.mark.parametrize("command,how", [
    (command, how)
    for command in ("solve", "reconstruct", "check-gcr", "check-frame",
                    "check-algebra")
    for how in sorted(_BAD_GAMMAS)
    if (command, how) != ("check-algebra", "deviating")])
def test_a_gamma_other_than_koszul_of_c_is_input_error(tmp_path, capsys,
                                                       command, how):
    fx = fixtures.sphere_r3(17)
    blob = problem_to_dict(fx.data, fx.alg, base_point=fx.F[0, 0])
    blob["algebra"]["gamma"] = _BAD_GAMMAS[how](blob["algebra"]["gamma"])
    path = tmp_path / "in.json"
    dump_json(blob["algebra"] if command == "check-algebra" else blob, path)
    code, err = _main_err([command, str(path),
                           "-o", str(tmp_path / "r.json")], capsys)
    assert code == 3
    assert err.startswith("input error: ") and "algebra.gamma" in err


def test_check_algebra_reports_on_the_files_own_gamma(tmp_path):
    alg = la.algebra_to_dict(la.rn(3))
    bad = _deviating_gamma(json.loads(json.dumps(alg["gamma"])))
    huge = np.zeros((3, 3, 3))
    huge[0, 1, 2] = huge[0, 2, 1] = 1e308      # gamma + gamma^T overflows
    cases = [({k: v for k, v in alg.items() if k != "gamma"}, 0,
              {"koszul_deviation": 0.0, "torsion": 0.0}),
             ({**alg, "gamma": bad}, 2,
              {"koszul_deviation": 0.3, "torsion": 0.3,
               "metric_compatibility": 0.0}),
             ({**alg, "gamma": huge.tolist()}, 2,
              {"metric_compatibility": float("inf")})]
    for blob, code, want in cases:
        path = tmp_path / "alg.json"
        dump_json(blob, path)
        out = tmp_path / "report.json"
        assert main(["check-algebra", str(path), "-o", str(out)]) == code
        report = load_json(out)
        assert {key: report[key] for key in want} == want


@pytest.mark.parametrize("command", ["check-gcr", "solve", "reconstruct"])
def test_a_numeric_string_in_an_array_is_input_error(tmp_path, capsys,
                                                     command):
    fx = fixtures.sphere_r3(9)
    blob = problem_to_dict(fx.data, fx.alg)
    blob["frames"][0][0][0][0] = repr(blob["frames"][0][0][0][0])
    path = tmp_path / "in.json"
    dump_json(blob, path)
    code, err = _main_err([command, str(path),
                           "-o", str(tmp_path / "r.json")], capsys)
    assert code == 3
    assert err.startswith("input error: frames is not a numeric array")


def test_custom_algebra_without_gamma_loads(tmp_path):
    fx = fixtures.sol3_plane(9)
    blob = problem_to_dict(fx.data, fx.alg)
    del blob["algebra"]["gamma"]
    blob["algebra"]["tag"] = "custom"
    path = tmp_path / "p.json"
    dump_json(blob, path)
    assert main(["check-gcr", str(path),
                 "-o", str(tmp_path / "r.json")]) == 0


# =============================================================================
# Fixture registry
# =============================================================================

def test_every_surface_fixture_carries_its_algebras_model():
    for name, make in SURFACE_FIXTURES.items():
        fx = make(5)
        want = model_for(fx.alg)
        assert type(fx.model) is type(want), name
        assert model_params(fx.model) == model_params(want), name
        assert fx.grid is fx.data.grid, name


# =============================================================================
# --pole is judged before any work, and only an S^3 surface reads it
# =============================================================================

NOT_S3 = ("input error: a projection pole is read only for S^3 surfaces, "
          "not abelian")


def _cmc_s3_file(tmp_path):
    """The cmc-sphere Gauss map with the S^3 potential mu = (1, 1, 1)."""
    from spinorforge.cmc import HPotential
    data, _ = fixtures.cmc_sphere(9)
    path = tmp_path / "cmc-s3.json"
    dump_json(cmc_to_dict(data, HPotential(1.0, (1.0, 1.0, 1.0))), path)
    return path


@pytest.mark.parametrize("pole,message", [
    (["nan"] * 4, OFF_S3 + "nan > 1e-08"),
    (["2", "0", "0", "0"], OFF_S3 + "1.000e+00 > 1e-08"),
], ids=["nan", "norm-two"])
def test_reconstruct_judges_the_pole_before_the_solve(
        tmp_path, capsys, monkeypatch, pole, message):
    calls = []
    solve = spinor.solve_killing
    monkeypatch.setattr(spinor, "solve_killing",
                        lambda *a, **k: calls.append(1) or solve(*a, **k))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["reconstruct", "--fixture", "s3-sphere", "--grid-n", "9",
                 "--pole", *pole, "-o", str(out / "r.json")]) == 3
    assert capsys.readouterr().err.splitlines() == [message]
    assert calls == [] and list(out.iterdir()) == []


@pytest.mark.parametrize("argv,message", [
    (["reconstruct", "--fixture", "sphere-r3", "--grid-n", "9",
      "--pole", "1", "0", "0", "0"], NOT_S3),
    (["cmc", "--fixture", "cmc-sphere", "--grid-n", "9",
      "--pole", "1", "0", "0", "0"], NOT_S3),
    (["cmc", "CMC_S3", "--pole", "nan", "nan", "nan", "nan"],
     OFF_S3 + "nan > 1e-08"),
    (["export", "R3_SURFACE", "--pole", "1", "0", "0", "0"], NOT_S3),
], ids=["reconstruct-r3", "cmc-r3", "cmc-s3-nan", "export-r3"])
def test_a_bad_or_misplaced_pole_exits_three_and_writes_nothing(
        tmp_path, capsys, argv, message):
    fx = fixtures.sphere_r3(9)
    surface = tmp_path / "surface.json"
    dump_json(surface_to_dict(fx.F, fx.model), surface)
    inputs = {"CMC_S3": str(_cmc_s3_file(tmp_path)),
              "R3_SURFACE": str(surface)}
    out = tmp_path / "out"
    out.mkdir()
    argv = [inputs.get(word, word) for word in argv]
    assert main(argv + ["-o", str(out / "r.json")]) == 3
    assert capsys.readouterr().err.splitlines() == [message]
    assert list(out.iterdir()) == []


def test_cmc_on_s3_projects_from_a_given_pole(tmp_path):
    path = _cmc_s3_file(tmp_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["cmc", str(path), "-o", str(a)]) == 0
    assert main(["cmc", str(path), "--pole", "0", "0", "0", "1",
                 "-o", str(b)]) == 0
    va = read_obj_vertices(tmp_path / "a.surface.obj")
    vb = read_obj_vertices(tmp_path / "b.surface.obj")
    assert np.all(np.isfinite(vb)) and np.max(np.abs(va - vb)) > 1e-3


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_export_mesh_rejects_a_non_finite_s3_payload(tmp_path, bad):
    fx = fixtures.s3_equator(9)
    F = np.array(fx.F)
    F[2, 3, 1] = bad
    path = tmp_path / "m.obj"
    with pytest.raises(ValueError,
                       match=r"S\^3 payload at node \(2, 3\) is not finite"):
        export_mesh(F, fx.model, "obj", path)
    assert not path.exists()


@pytest.mark.parametrize("pole", [["nan"] * 4, ["1", "0", "0", "0"]],
                         ids=["nan", "unit"])
def test_cmc_without_a_group_model_rejects_a_pole_before_any_work(
        tmp_path, capsys, monkeypatch, pole):
    from spinorforge import cli
    from spinorforge.cmc import HPotential
    data, _ = fixtures.cmc_sphere(9)
    path = tmp_path / "cmc.json"
    dump_json(cmc_to_dict(data, HPotential(1.0, (0.4, -0.7, 1.3))), path)
    calls = []
    weier = cli.weier_f_from_g
    monkeypatch.setattr(cli, "weier_f_from_g",
                        lambda *a: calls.append(1) or weier(*a))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["cmc", str(path), "--pole", *pole,
                 "-o", str(out / "r.json")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "input error: a projection pole is read only for S^3 surfaces, and "
        "this potential's group has no model to integrate a surface in"]
    assert calls == [] and list(out.iterdir()) == []


@pytest.mark.parametrize("make,node", [
    (fixtures.sphere_r3, (1, 2)), (fixtures.sol3_plane, (4, 0)),
    (fixtures.horosphere_h3, (0, 3)), (fixtures.s3_equator, (2, 3)),
], ids=["R3", "Sol3", "H3", "S3"])
def test_export_mesh_rejects_a_non_finite_payload_of_any_model(
        tmp_path, make, node):
    fx = make(5)
    F = np.array(fx.F)
    F[node][0] = np.nan
    path = tmp_path / "m.obj"
    with pytest.raises(ValueError, match=f"node {re.escape(str(node))} is "
                                         f"not finite"):
        export_mesh(F, fx.model, "obj", path)
    assert not path.exists()


# =============================================================================
# The grid-step gate, the fixed spin-norm tolerance, the structure gate's node
# =============================================================================

def _spaced_inputs(tmp_path, h):
    """A sphere-r3 problem and the cmc-sphere Gauss map on 9 x 9 grids of
    spacing h, keeping each fixture's mu (max mu = 2 for both)."""
    from spinorforge.cmc import HPotential, WeierstrassData
    from spinorforge.immersion import ImmersionData
    fx = fixtures.sphere_r3(9)
    data = ImmersionData(ParamGrid(9, 9, h, mu=fx.grid.mu), fx.data.frames,
                         S=fx.data.S)
    problem = tmp_path / "problem.json"
    dump_json(problem_to_dict(data, fx.alg, base_point=fx.F[0, 0]), problem)
    gauss, _ = fixtures.cmc_sphere(9)
    cmc = tmp_path / "cmc.json"
    dump_json(cmc_to_dict(WeierstrassData(ParamGrid(9, 9, h, mu=gauss.grid.mu),
                                          gauss.g),
                          HPotential(1.0, (0.0, 0.0, 0.0))), cmc)
    return problem, cmc


GRID_COMMANDS = ["check-frame", "check-gcr", "solve", "reconstruct", "cmc"]


@pytest.mark.parametrize("command", GRID_COMMANDS)
def test_an_absurd_grid_step_exits_three_before_any_work(tmp_path, capsys,
                                                        command):
    problem, cmc = _spaced_inputs(tmp_path, 1e150)
    out = tmp_path / "out"
    out.mkdir()
    path = cmc if command == "cmc" else problem
    assert main([command, str(path), "-o", str(out / "r.json")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "input error: the grid step h max(mu) = 2e+150 exceeds 1: the "
        "O(h^2) tolerances need a step short against the metric"]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", GRID_COMMANDS)
def test_a_grid_step_of_one_is_judged_by_the_gates(tmp_path, command):
    problem, cmc = _spaced_inputs(tmp_path, 0.5)     # h max(mu) = 1
    path = cmc if command == "cmc" else problem
    assert main([command, str(path), "-o", str(tmp_path / "r.json")]) != 3


# each fixture's exit at 5 nodes per axis, as before the step gate
FIVE_NODE_EXITS = {("s3-sphere", "check-gcr"): 2,
                   ("sphere-r4-twisted", "reconstruct"): 3}


def test_every_fixture_at_five_nodes_exits_as_before(tmp_path):
    for name in SURFACE_FIXTURES:
        for command in GRID_COMMANDS[:4]:
            out = str(tmp_path / f"{name}.{command}.json")
            assert main([command, "--fixture", name, "--grid-n", "5",
                         "-o", out]) == FIVE_NODE_EXITS.get((name, command),
                                                            0), (name, command)
    assert main(["cmc", "--fixture", "cmc-sphere", "--grid-n", "5",
                 "-o", str(tmp_path / "cmc.json")]) == 0


def test_the_spin_norm_tolerance_is_not_an_option(tmp_path, capsys):
    code, err = _main_err(["solve", "--fixture", "sphere-r3", "--grid-n", "9",
                           "--spin-norm-tol", "1e-8",
                           "-o", str(tmp_path / "r.json")], capsys)
    assert code == 3
    assert len(err.splitlines()) == 1
    assert err.startswith("input error: unrecognized arguments: "
                          "--spin-norm-tol")
    assert list(tmp_path.iterdir()) == []


def test_the_structure_gate_names_the_worst_node(tmp_path, monkeypatch):
    out = tmp_path / "r.json"
    monkeypatch.setattr(spinor, "structure_tolerance", lambda grid: 1e-30)
    assert main(["reconstruct", "--fixture", "sphere-r3", "--grid-n", "9",
                 "-o", str(out)]) == 2
    report = load_json(out)
    fx = fixtures.sphere_r3(9)
    problem = spinor.KillingProblem(fx.data, fx.alg)
    field, _ = spinor.solve_killing(problem)
    xi, _ = spinor.xi_from_spinor(spinor.normalize_spinor(field, problem),
                                  problem)
    sres = spinor.structure_residual(xi, fx.alg)
    i, j = np.unravel_index(np.argmax(sres), sres.shape)
    assert report["error"].endswith(f"above threshold 1.000e-30 at node "
                                    f"({i}, {j})")
    assert sorted(report) == ["error", "holonomy", "holonomy_argmax",
                              "holonomy_tol", "integrable", "renorm_drift",
                              "structure_max", "structure_tol"]


# =============================================================================
# Catalog params build c and are not kept
# =============================================================================

@pytest.mark.parametrize("name,params", [
    ("sol3-plane", {"A": [[-1.0, 0.0], {"a": 1}]}),
    ("horosphere-h3", {"n": "x"}),
], ids=["sol3-A-row-object", "hn-string-n"])
@pytest.mark.parametrize("command", ["solve", "reconstruct"])
def test_params_beside_c_are_neither_read_nor_kept(tmp_path, name, params,
                                                    command):
    blob = json.loads(_surface_problem_text(name))
    blob["algebra"]["params"] = params
    path = tmp_path / "problem.json"
    dump_json(blob, path)
    assert main([command, str(path), "-o", str(tmp_path / "r.json")]) == 0
    loaded = problem_from_dict(load_json(path))
    assert "params" not in problem_to_dict(*loaded)["algebra"]


def test_catalog_prints_the_params_it_resolved_and_writes_none(tmp_path,
                                                               capsys):
    out = tmp_path / "f.json"
    assert main(["catalog", "--group", "EKappaTau", "-o", str(out)]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == 'EKappaTau  (n = 3, params = {"kappa": -1.0, "tau": 0.5})'
    assert sorted(load_json(out)) == ["c", "gamma", "tag"]


# =============================================================================
# Floating-point trouble, oversized inputs
# =============================================================================

def _set_nested(blob, path, value):
    *parents, leaf = path
    for key in parents:
        blob = blob[key]
    blob[leaf] = value


def _fp_problem(name):
    fx = SURFACE_FIXTURES[name](9)
    return problem_to_dict(fx.data, fx.alg, u_field=fx.extras.get("u_field"))


def _fp_s3_surface():
    fx = fixtures.s3_sphere(9)
    F, _, _ = spinor.reconstruct_immersion(spinor.KillingProblem(fx.data,
                                                                 fx.alg))
    return surface_to_dict(F, model_for(fx.alg))


def _fp_cmc():
    return cmc_to_dict(*fixtures.cmc_sphere(9))


# (command, input file blob, entry set, value, exit code)
_FP_CASES = {
    "gcr-overflow": ("check-gcr", lambda: _fp_problem("sphere-r3"),
                     ("S", 3, 2, 0, 0), -1e308, 2),
    "frame-overflow": ("check-frame", lambda: _fp_problem("sphere-r4-twisted"),
                       ("theta_x", 3, 8, 0, 0), 1e308, 3),
    "solve-overflow": ("solve", lambda: _fp_problem("sphere-r4-twisted"),
                       ("theta_x", 3, 8, 0, 0), 1e308, 3),
    "u-field-overflow": ("check-frame", lambda: _fp_problem("horosphere-h3"),
                         ("u_field", 1, 7, 0), 1e308, 3),
    "s3-payload-overflow": ("export", _fp_s3_surface, ("payload", 10),
                            1e308, 3),
    "cmc-zero-g": ("cmc", _fp_cmc, ("g", 0, 0, 0), 0.0, 2),
    "cmc-huge-g": ("cmc", _fp_cmc, ("g", 2, 3, 0), 1e300, 4),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", _FP_CASES)
def test_floating_point_trouble_is_judged_without_warnings(tmp_path, capsys,
                                                           case):
    command, make, entry, value, want = _FP_CASES[case]
    blob = make()
    _set_nested(blob, entry, value)
    path = tmp_path / "input.json"
    dump_json(blob, path)
    code, err = _main_err([command, str(path),
                           "-o", str(tmp_path / "r.json")], capsys)
    assert code == want
    assert len(err.splitlines()) <= 1
    assert "Warning" not in err and "Traceback" not in err


# 10^7 x 10^7 float64 nodes are 728 TiB, more than any 48-bit address
# space: the allocation fails at once, touching no memory
_HUGE_N = 10_000_000


@pytest.mark.parametrize("how", ["fixture", "file"])
def test_an_input_too_large_to_allocate_exits_three(tmp_path, capsys, how):
    out = tmp_path / "out"
    out.mkdir()
    if how == "fixture":
        argv = ["solve", "--fixture", "sphere-r3", "--grid-n", str(_HUGE_N)]
    else:
        path = tmp_path / "huge.json"
        dump_json({"grid": {"nx": _HUGE_N, "ny": _HUGE_N, "h": 1e-7},
                   "algebra": {"tag": "Rn"}, "frames": [], "S": []}, path)
        argv = ["check-gcr", str(path)]
    code, err = _main_err(argv + ["-o", str(out / "r.json")], capsys)
    assert code == 3
    assert len(err.splitlines()) == 1 and err.startswith("input error: ")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("entry", [("H",), ("mu", 1)], ids=["H", "mu"])
def test_a_cmc_potential_beyond_the_float_range_exits_three(tmp_path, capsys,
                                                            entry):
    blob = json.loads(_cmc_text(9))
    _set_nested(blob["potential"], entry, 10 ** 400)
    path = tmp_path / "cmc.json"
    with open(path, "w") as fh:
        json.dump(blob, fh)
    code, err = _main_err(["cmc", str(path), "-o", str(tmp_path / "r.json")],
                          capsys)
    assert code == 3
    assert len(err.splitlines()) == 1
    assert err.startswith("input error: ") and "float range" in err


# =============================================================================
# -o is judged before any work; exits 3 and 4 write no files
# =============================================================================

def _every_command_argv(inputs):
    """One argv per command, without -o, on fixtures at 5 nodes per axis or
    on files written to `inputs`."""
    algebra, surface = inputs / "alg.json", inputs / "surface.json"
    dump_json(la.algebra_to_dict(la.sol3()), algebra)
    dump_json({"model": {"name": "abelian"}, "nx": 2, "ny": 2,
               "payload": [0.5] * 12}, surface)
    grid = ["--grid-n", "5"]
    return {"catalog": ["catalog", "--group", "sol3"],
            "check-algebra": ["check-algebra", str(algebra)],
            "check-frame": ["check-frame", "--fixture", "sphere-r3", *grid],
            "check-gcr": ["check-gcr", "--fixture", "sphere-r3", *grid],
            "solve": ["solve", "--fixture", "sphere-r3", *grid],
            "reconstruct": ["reconstruct", "--fixture", "sphere-r3", *grid],
            "cmc": ["cmc", "--fixture", "cmc-sphere", *grid],
            "export": ["export", str(surface)]}


@pytest.mark.parametrize("output", ["", "d", "d/", "missing/r.json"],
                         ids=["empty", "directory", "directory-slash",
                              "missing-parent"])
@pytest.mark.parametrize("command", list(COMMAND_OPTIONS))
def test_a_bad_output_path_exits_three_before_any_work(
        tmp_path, capsys, monkeypatch, command, output):
    inputs, work = tmp_path / "in", tmp_path / "work"
    inputs.mkdir()
    (work / "d").mkdir(parents=True)
    argv = _every_command_argv(inputs)[command] + ["-v", "-o", output]
    monkeypatch.chdir(work)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 3
    assert len(err.splitlines()) == 1 and err.startswith("input error: -o ")
    assert out == ""
    assert [p.name for p in work.rglob("*")] == ["d"]


def test_export_judges_its_default_path(tmp_path, capsys, monkeypatch):
    argv = _every_command_argv(tmp_path)["export"] + ["--format", "ply"]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "surface.ply").mkdir()
    code, err = _main_err(argv, capsys)
    assert code == 3
    assert err == "input error: -o must name a file; got 'surface.ply'\n"
    assert list((tmp_path / "surface.ply").iterdir()) == []


@pytest.mark.parametrize("argv, directory", [
    (["check-gcr", "--fixture", "sphere-r3", "-o", "x.json"],
     "x.codazzi.json"),
    (["check-frame", "--fixture", "sphere-r3", "-o", "w.json"],
     "w.normal.json"),
    (["reconstruct", "--fixture", "sphere-r3", "-o", "y.json"],
     "y.surface.json"),
    (["cmc", "--fixture", "cmc-sphere", "-o", "z.json"], "z.structure.json"),
], ids=["check-gcr", "check-frame", "reconstruct", "cmc"])
def test_a_side_file_that_is_a_directory_exits_three_and_writes_nothing(
        tmp_path, capsys, monkeypatch, argv, directory):
    """Every side file is named, and judged, before the first is written."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / directory).mkdir()
    code = main(argv + ["--grid-n", "9", "-v"])
    out, err = capsys.readouterr()
    assert code == 3
    assert err == f"input error: cannot write {directory}: it is a directory\n"
    assert out == ""
    assert [p.name for p in tmp_path.rglob("*")] == [directory]


def test_a_failing_cmc_surface_leaves_no_files(tmp_path, capsys):
    diverging = tmp_path / "cmc-diverging.json"
    blob = cmc_to_dict(*fixtures.cmc_sphere(9))
    blob["g"][2][3][0] = 1e300
    dump_json(blob, diverging)
    out = tmp_path / "out"
    out.mkdir()
    for argv, code, message in [
            ([str(diverging)], 4, "numerical failure: Darboux integration "
                                  "diverged at cell (2, 3)"),
            ([str(_cmc_s3_file(tmp_path)), "--pole", "1", "0", "0", "0"], 3,
             "input error: surface touches the projection pole; "
             "choose another")]:
        assert _main_err(["cmc", *argv, "-o", str(out / "r.json")],
                         capsys) == (code, message + "\n")
        assert list(out.iterdir()) == []
