"""JSON and mesh writers, the built-in schema check, group-model params, the
non-finite gates at the input boundary and reads with the collector paused."""

import contextlib
import functools
import gc
import json
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinorforge
from spinorforge import fixtures, lie_algebra as la
from spinorforge.cli import SURFACE_FIXTURES
from spinorforge.cmc import HPotential, WeierstrassData
from spinorforge.grid import ParamGrid
from spinorforge.immersion import ImmersionData
from spinorforge.lie_group import (MODELS, IntegrationError, LieValuedOneForm,
                                   darboux_integrate, model_for,
                                   model_from_params, model_params)
from spinorforge import serialization
from spinorforge.meshexport import embed_r3, grid_faces, write_obj, write_ply
from spinorforge.serialization import (SCHEMA_KEYWORDS, SCHEMAS,
                                       dump_json, load_json, problem_from_dict,
                                       problem_to_dict, read_json,
                                       schema_violation, surface_from_dict,
                                       surface_to_dict, write_surface)


# =============================================================================
# JSON writer
# =============================================================================

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                  2.2250738585072014e-308, 1e-310, 1e308, -1e308,
                  1.7976931348623157e308, 0.1, 1.0 / 3.0, math.pi,
                  float("nan"), float("inf"), float("-inf")]


def same_float_bits(a, b):
    return (math.isnan(a) and math.isnan(b)) \
        or struct.pack("<d", a) == struct.pack("<d", b)


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                          allow_subnormal=True), max_size=30))
@settings(max_examples=50, deadline=None)
def test_dump_load_round_trips_floats_bit_exactly(tmp_path_factory, floats):
    path = tmp_path_factory.mktemp("json") / "floats.json"
    values = SPECIAL_FLOATS + floats
    dump_json({"z": values, "a": {"y": values[::-1]}}, path)
    back = load_json(path)
    assert all(map(same_float_bits, back["z"], values))
    assert all(map(same_float_bits, back["a"]["y"], values[::-1]))


def test_dump_json_is_one_sorted_line_that_parses_like_the_indented_file(
        tmp_path):
    payload = {"b": [1, 2.5, -0.0, float("nan")], "a": {"d": True, "c": None},
               "s": "text"}
    path = tmp_path / "out.json"
    dump_json(payload, path)
    text = path.read_text()
    assert text == ('{"a": {"c": null, "d": true}, "b": [1, 2.5, -0.0, NaN], '
                    '"s": "text"}\n')
    # the indented form the writer used to produce parses to the same value
    indented = json.dumps(payload, sort_keys=True, indent=1)
    assert json.dumps(json.loads(indented), sort_keys=True) + "\n" == text


def test_cli_import_leaves_jsonschema_unloaded():
    code = "import sys, spinorforge.cli; print('jsonschema' in sys.modules)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(spinorforge.__path__[0]),
                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


# =============================================================================
# Mesh writers against the per-row writers they replaced
# =============================================================================

def reference_write_obj(path, vertices, faces):
    with open(path, "w") as fh:
        for v in vertices:
            # shortest round-trip decimals, exact on re-parse
            fh.write(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for f in faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


def reference_write_ply(path, vertices, faces):
    header = (
        "ply\n"
        "format binary_little_endian 1.0\n"
        f"element vertex {len(vertices)}\n"
        "property double x\nproperty double y\nproperty double z\n"
        f"element face {len(faces)}\n"
        "property list uchar int vertex_indices\n"
        "end_header\n")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.asarray(vertices, dtype="<f8").tobytes())
        for f in faces:
            fh.write(struct.pack("<B3i", 3, int(f[0]), int(f[1]), int(f[2])))


def _fixture_mesh(name, n):
    fx = SURFACE_FIXTURES[name](n)
    # the R^4 payload has no R^3 embedding; its first three coordinates
    # still exercise the writers
    F = fx.F[..., :3] if fx.model.name == "abelian" else fx.F
    return embed_r3(F, fx.model).reshape(-1, 3), grid_faces(n, n)


@pytest.mark.parametrize("name", ["sphere-r3", "s3-sphere",
                                  "sphere-r4-twisted"])
@pytest.mark.parametrize("n", [2, 33])
def test_mesh_writers_match_the_per_row_writers(tmp_path, name, n):
    vertices, faces = _fixture_mesh(name, n)
    for write, reference in ((write_obj, reference_write_obj),
                             (write_ply, reference_write_ply)):
        write(tmp_path / "new", vertices, faces)
        reference(tmp_path / "old", vertices, faces)
        assert (tmp_path / "new").read_bytes() == \
            (tmp_path / "old").read_bytes(), write.__name__


def write_obj_texts(path, vertices, faces):
    """write_obj given the repr texts of the vertices, as a surface's OBJ."""
    write_obj(path, list(map(repr, vertices.reshape(-1).tolist())), faces)


def test_mesh_writers_match_on_extreme_coordinates(tmp_path):
    vertices = np.array([SPECIAL_FLOATS[i:i + 3] for i in range(0, 12, 3)])
    faces = np.array([[0, 1, 2], [0, 2, 3]])
    for write, reference in ((write_obj, reference_write_obj),
                             (write_obj_texts, reference_write_obj),
                             (write_ply, reference_write_ply)):
        write(tmp_path / "new", vertices, faces)
        reference(tmp_path / "old", vertices, faces)
        assert (tmp_path / "new").read_bytes() == \
            (tmp_path / "old").read_bytes(), write.__name__


# =============================================================================
# The surface writer against the JSON and mesh writers it replaced
# =============================================================================

def former_write_surface(F, model, path, fmt, mesh_path, pole=None):
    """The mesh, then the surface JSON, as the writers before
    `write_surface` wrote them: each file formats F on its own."""
    vertices = embed_r3(F, model, pole).reshape(-1, 3)
    write = reference_write_obj if fmt == "obj" else reference_write_ply
    write(mesh_path, vertices, grid_faces(*F.shape[:2]))
    dump_json(surface_to_dict(F, model), path)


def assert_written_as_before(tmp_path, F, model, fmt, pole=None):
    new, old = tmp_path / "new", tmp_path / "old"
    for out, write in ((new, write_surface), (old, former_write_surface)):
        out.mkdir()
        write(F, model, out / "s.json", fmt, out / f"s.{fmt}", pole)
    for name in ("s.json", f"s.{fmt}"):
        assert (new / name).read_bytes() == (old / name).read_bytes(), name


# every surface fixture whose group model has an R^3 mesh
EMBEDDED = [name for name, make in sorted(SURFACE_FIXTURES.items())
            if make(5).model.name == "s3" or make(5).F.shape[-1] == 3]
S3_POLE = np.array([0.0, 0.0, 0.0, 1.0])


@pytest.mark.parametrize("fmt", ["obj", "ply"])
@pytest.mark.parametrize("name,pole", [(name, None) for name in EMBEDDED] + [
    (name, S3_POLE) for name in EMBEDDED
    if SURFACE_FIXTURES[name](5).model.name == "s3"],
    ids=lambda v: "pole" if isinstance(v, np.ndarray) else v)
def test_write_surface_writes_the_former_bytes(tmp_path, name, pole, fmt):
    fx = SURFACE_FIXTURES[name](17)
    assert_written_as_before(tmp_path, fx.F, fx.model, fmt, pole)


def test_the_surface_fixtures_cover_every_model_with_a_mesh():
    models = {SURFACE_FIXTURES[name](5).model.name for name in EMBEDDED}
    assert models == {"abelian", "semidirect", "hn", "s3"}


@pytest.mark.parametrize("fmt", ["obj", "ply"])
def test_write_surface_writes_the_former_bytes_on_extreme_coordinates(
        tmp_path, fmt):
    finite = [x for x in SPECIAL_FLOATS if math.isfinite(x)][:12]
    F = np.array(finite).reshape(2, 2, 3)
    assert_written_as_before(tmp_path, F, model_for(la.rn(3)), fmt)


@pytest.mark.parametrize("fmt", ["obj", "ply"])
def test_the_cmc_surface_is_written_as_before(tmp_path, fmt):
    from spinorforge.cli import main
    out = tmp_path / "cmc.json"
    assert main(["cmc", "--fixture", "cmc-sphere", "--grid-n", "17",
                 "--format", fmt, "-o", str(out)]) == 0
    # the payload reads back bit-exactly, so the former writers can
    # rewrite both files from it
    F, model = read_json(tmp_path / "cmc.surface.json", surface_from_dict)
    former_write_surface(F, model, tmp_path / "old.json", fmt,
                         tmp_path / f"old.{fmt}")
    for new, old in (("cmc.surface.json", "old.json"),
                     (f"cmc.surface.{fmt}", f"old.{fmt}")):
        assert (tmp_path / new).read_bytes() == (tmp_path / old).read_bytes()


@pytest.mark.parametrize("name,shared", [("sphere-r3", True),
                                         ("sol3-plane", True),
                                         ("horosphere-h3", True),
                                         ("s3-sphere", False)])
def test_an_obj_of_the_payload_reuses_the_payload_texts(
        tmp_path, monkeypatch, name, shared):
    fx = SURFACE_FIXTURES[name](5)
    given = []
    write_mesh = serialization.write_mesh
    monkeypatch.setattr(serialization, "write_mesh",
                        lambda path, fmt, vertices, nx, ny: given.append(
                            vertices) or write_mesh(path, fmt, vertices, nx, ny))
    write_surface(fx.F, fx.model, tmp_path / "s.json", "obj", tmp_path / "s.obj")
    (vertices,) = given
    if shared:
        assert vertices == list(map(repr, fx.F.reshape(-1).tolist()))
    else:     # S^3 vertices are projected, so formatted on their own
        assert isinstance(vertices, np.ndarray) and vertices.shape == (25, 3)


@pytest.mark.parametrize("name,node,match", [
    ("sphere-r3", (1, 2), r"^the vertex at node \(1, 2\) is not finite$"),
    ("sol3-plane", (4, 0), r"^the vertex at node \(4, 0\) is not finite$"),
    ("s3-sphere", (2, 3), r"^S\^3 payload at node \(2, 3\) is not finite$"),
])
@pytest.mark.parametrize("fmt", ["obj", "ply"])
def test_a_non_finite_payload_writes_neither_file(tmp_path, name, node, match,
                                                  fmt):
    fx = SURFACE_FIXTURES[name](5)
    F = np.array(fx.F)
    F[node][0] = np.nan
    with pytest.raises(ValueError, match=match):
        write_surface(F, fx.model, tmp_path / "s.json", fmt,
                      tmp_path / f"s.{fmt}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,fixture", [("reconstruct", "sphere-r3"),
                                             ("reconstruct", "s3-sphere"),
                                             ("cmc", "cmc-sphere")])
def test_a_non_finite_surface_exits_three_and_writes_no_surface(
        tmp_path, capsys, monkeypatch, command, fixture):
    from spinorforge import cli
    if command == "reconstruct":
        solve = cli.reconstruct_immersion

        def spoiled(*args, **kwargs):
            F, field, report = solve(*args, **kwargs)
            F = np.array(F)
            F[2, 3, 0] = np.inf
            return F, field, report
        monkeypatch.setattr(cli, "reconstruct_immersion", spoiled)
    else:
        integrate = cli.darboux_integrate
        monkeypatch.setattr(cli, "darboux_integrate",
                            lambda *a: integrate(*a) + np.where(
                                np.arange(3) == 0, np.inf, 0.0))
    assert cli.main([command, "--fixture", fixture, "--grid-n", "9",
                     "-o", str(tmp_path / "r.json")]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("input error: ") and "not finite" in line
    assert not list(tmp_path.glob("r.surface.*"))
    assert not (tmp_path / "r.json").exists()


# =============================================================================
# Built-in schema check against jsonschema
# =============================================================================

def _schemas_in(schema):
    """`schema` and every subschema below it."""
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _schemas_in(sub)
    if "items" in schema:
        yield from _schemas_in(schema["items"])


def test_schemas_use_only_implemented_keywords():
    used = {keyword for schema in SCHEMAS.values()
            for sub in _schemas_in(schema) for keyword in sub}
    assert used <= set(SCHEMA_KEYWORDS), used - set(SCHEMA_KEYWORDS)


_ANY = st.sampled_from([None, True, False, 0, 1, -1, 1.0, 2.0, 2.5, -0.0,
                        float("nan"), float("inf"), "s3", "", [], [1.0], {},
                        {"n": 3}])


def _near_miss(schema):
    """Values just outside (and on) the rules of `schema`: both sides of
    each bound, booleans, integral and fractional floats, lists one item
    too short or too long, and enum look-alikes."""
    out = [True, False, 2.0, 2.5]
    for key in ("minimum", "exclusiveMinimum"):
        if key in schema:
            b = schema[key]
            out += [b - 1, b - 0.5, b, float(b), -0.0, b + 0.5]
    for key in ("minItems", "maxItems"):
        if key in schema:
            out += [[1.0] * max(schema[key] - 1, 0), [1.0] * (schema[key] + 1),
                    [1.0, "x", 1.0], [1.0, True, 1.0]]
    if "enum" in schema:
        out += [e.upper() for e in schema["enum"]] + [[schema["enum"][0]], 1]
    return st.sampled_from(out)


@st.composite
def documents(draw, schema, p):
    """A document for `schema` whose every node is, with probability `p`,
    replaced by a near miss or a value of another type; with p = 0 it is
    valid and sits on the bounds (nx = 2, 2.0, h just above 0, ...)."""
    if draw(st.integers(0, 99)) < 100 * p:
        return draw(st.one_of(_ANY, _near_miss(schema)))
    if "enum" in schema:
        return draw(st.sampled_from(schema["enum"]))
    types = schema.get("type", "object")
    kind = draw(st.sampled_from([types] if isinstance(types, str) else types))
    if kind == "object":
        out = {}
        required = schema.get("required", [])
        for key, sub in schema.get("properties", {}).items():
            keep = draw(st.integers(0, 99)) >= 100 * p if key in required \
                else draw(st.booleans())
            if keep:
                out[key] = draw(documents(sub, p))
        if draw(st.booleans()):
            out["extra"] = draw(_ANY)
        return out
    if kind == "array":
        low = schema.get("minItems", 0)
        high = schema.get("maxItems", low + 3)
        size = draw(st.integers(max(low - 1, 0), high + 1) if p
                    else st.integers(low, high))
        item = schema.get("items", {"type": "number"})
        return [draw(documents(item, p)) for _ in range(size)]
    if "minimum" in schema:
        b = schema["minimum"]
        return draw(st.sampled_from([b, float(b), b + 1, b + 40]))
    if "exclusiveMinimum" in schema:
        b = schema["exclusiveMinimum"]
        return draw(st.sampled_from([b + 5e-324, b + 0.5, b + 1, 1e300]))
    if kind == "integer":
        return draw(st.one_of(st.integers(-3, 3),
                              st.sampled_from([-1.0, 4.0])))
    if kind == "number":
        return draw(st.one_of(st.integers(-3, 3),
                              st.floats(allow_nan=True, allow_infinity=True)))
    if kind == "string":
        return draw(st.text(max_size=3))
    if kind == "boolean":
        return draw(st.booleans())
    return None


@functools.lru_cache(maxsize=None)
def _oracle(name):
    """The validator jsonschema.validate builds for SCHEMAS[name] (the class
    it picks for a schema without "$schema", after checking the schema),
    built once instead of once per document."""
    jsonschema = pytest.importorskip("jsonschema")
    cls = jsonschema.validators.validator_for(SCHEMAS[name])
    cls.check_schema(SCHEMAS[name])
    return cls(SCHEMAS[name])


@pytest.mark.parametrize("name", sorted(SCHEMAS))
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_schema_check_agrees_with_jsonschema(name, data):
    oracle = _oracle(name)
    p = data.draw(st.sampled_from([0.0, 0.02, 0.1, 0.3]))
    doc = data.draw(documents(SCHEMAS[name], p))
    message = schema_violation(doc, SCHEMAS[name])
    assert (message is None) == oracle.is_valid(doc), message


@pytest.mark.parametrize("doc,message", [
    ({"nx": 1, "ny": 5, "h": 0.1}, "nx: 1 is less than the minimum of 2"),
    ({"nx": 5, "ny": 5, "h": 0}, "h: 0 is less than or equal to the minimum"),
    ({"nx": 5.0, "ny": True, "h": 0.1}, "ny: True is not of type 'integer'"),
    ({"nx": 5, "ny": 5}, "'h' is a required property"),
    ({"nx": 5, "ny": 5, "h": 0.1, "mu": 1}, "mu: 1 is not of type 'array' or"),
])
def test_schema_messages_name_path_and_rule(doc, message):
    assert message in schema_violation(doc, SCHEMAS["grid"])


def test_schema_message_reaches_the_caller():
    fx = fixtures.sphere_r3(5)
    blob = problem_to_dict(fx.data, fx.alg)
    blob["grid"]["nx"] = 1
    with pytest.raises(ValueError, match=r"problem does not match its "
                       r"schema: grid\.nx: 1 is less than the minimum of 2"):
        problem_from_dict(blob)
    assert "potential.mu[1]: 'x' is not of type 'number'" in schema_violation(
        {"grid": {"nx": 5, "ny": 5, "h": 0.1}, "g": [],
         "potential": {"H": 1.0, "mu": [0.0, "x", 0.0]}}, SCHEMAS["cmc"])


def test_enum_tells_true_from_one():
    schema = {"enum": [1, [0, True]]}
    assert schema_violation(1.0, schema) is None
    assert schema_violation(True, schema) is not None
    assert schema_violation([0, True], schema) is None
    assert schema_violation([False, 1], schema) is not None


# =============================================================================
# Group models by name and params
# =============================================================================

@pytest.mark.parametrize("alg", [la.rn(3), la.rn(4), la.s3(), la.sol3(),
                                 la.h2xr(), la.hn(3), la.hn(2),
                                 la.semidirect([[0.4, -0.3], [1.1, 0.2]])],
                         ids=lambda a: f"{a.catalog_tag}{a.n}")
def test_model_params_round_trip(alg):
    model = model_for(alg)
    again = model_from_params(model.name, model_params(model))
    assert type(again) is type(model)
    assert again.payload_dim == model.payload_dim
    if model.name == "semidirect":
        assert np.array_equal(again.A, model.A)
    F = np.broadcast_to(model.identity(), (2, 2, model.payload_dim))
    blob = json.loads(json.dumps(surface_to_dict(F, model)))
    G, same = surface_from_dict(blob)
    assert type(same) is type(model) and np.array_equal(F, G)


@pytest.mark.parametrize("name,params,match", [
    ("abelian", {"n": 0}, "dimension must be 1..8"),
    ("hn", {"n": -2}, "dimension must be 1..8"),
    ("semidirect", {}, "params.A is required"),
    ("semidirect", {"A": [[1.0, float("inf")], [0.0, 1.0]]}, "finite 2x2"),
    ("semidirect", {"A": [1.0, 2.0, 3.0]}, "params.A must be 2-deep lists"),
    ("sol3", {}, "unknown model"),
    ("semidirect", {"A": [["1", "0"], ["0", "-1"]]},
     "params.A must be 2-deep lists"),
    ("semidirect", {"A": [[True, False], [False, True]]},
     "params.A must be 2-deep lists"),
    # a key that the model does not read is named, not dropped
    ("abelian", {"n": 3, "m": 1}, "^the abelian model reads no params 'm'$"),
    ("s3", {"n": 7}, "^the s3 model reads no params 'n'$"),
    ("semidirect", {"A": [[1.0, 0.0], [0.0, 1.0]], "a": 1, "B": 2},
     "^the semidirect model reads no params 'B', 'a'$"),
], ids=[  # each names the rule its case breaks
    "abelian-params0-positive", "hn-params1-positive",
    "semidirect-params2-needs params.A", "semidirect-params3-finite 2x2",
    "semidirect-params4-finite 2x2", "sol3-params5-unknown model",
    "semidirect-params6-finite 2x2", "semidirect-params7-finite 2x2",
    "abelian-params8-unread", "s3-params9-unread",
    "semidirect-params10-unread"])
def test_model_from_params_gates(name, params, match):
    with pytest.raises(ValueError, match=match):
        model_from_params(name, params)


def test_model_names_match_the_surface_schema():
    names = SCHEMAS["surface"]["properties"]["model"]["properties"]["name"]
    assert sorted(names["enum"]) == sorted(MODELS)


def test_semidirect_algebra_without_A_reads_A_from_c():
    alg = la.algebra_from_dict({**la.algebra_to_dict(la.sol3()), "params": {}})
    assert np.array_equal(model_for(alg).A, [[-1.0, 0.0], [0.0, 1.0]])


# =============================================================================
# Non-finite input is rejected where it enters, naming the array
# =============================================================================

def test_immersion_data_names_the_non_finite_array():
    fx = fixtures.sphere_r3(5)
    S = np.array(fx.data.S)
    S[2, 3, 0, 1] = np.inf
    with pytest.raises(ValueError, match="^S has non-finite entries"):
        ImmersionData(fx.grid, fx.data.frames, S=S)
    r4 = fixtures.sphere_r4_twisted(5)
    theta = np.array(r4.data.theta_y)
    theta[1, 1, 0, 1] = -np.inf
    with pytest.raises(ValueError, match="^theta_y has non-finite entries"):
        ImmersionData(r4.grid, r4.data.frames, B=r4.data.B,
                      theta_x=r4.data.theta_x, theta_y=theta)


def test_weierstrass_data_rejects_non_finite_g():
    g = np.zeros((5, 5), dtype=complex)
    g[3, 1] = complex(0.0, np.nan)
    with pytest.raises(ValueError, match="g has non-finite entries"):
        WeierstrassData(ParamGrid(5, 5, 0.1), g)


@pytest.mark.parametrize("point,match", [
    ([0.0, 0.0], "base_point must be a point of 3 coordinates"),
    ([[0.0, 0.0, 1.0]], "base_point must be a point of 3 coordinates"),
    ([0.0, float("inf"), 1.0], "base_point has non-finite entries"),
])
def test_problem_base_point_is_checked(point, match):
    fx = fixtures.sphere_r3(5)
    blob = problem_to_dict(fx.data, fx.alg)
    blob["base_point"] = point
    with pytest.raises(ValueError, match=match):
        problem_from_dict(blob)


def _ekt_problem(point):
    """A problem file on E(kappa, tau), which has no group model, with
    `point` as its base point."""
    fx = fixtures.sphere_r3(9)
    blob = problem_to_dict(fx.data, fx.alg)
    blob["algebra"] = {"tag": "EKappaTau",
                       "params": {"kappa": -1.0, "tau": 0.5}}
    blob["base_point"] = point
    return blob


def test_a_flat_base_point_loads_for_an_algebra_without_a_group_model():
    point = problem_from_dict(_ekt_problem([0.0, 0.0, 1.0, 2.0]))[3]
    assert np.array_equal(point, [0.0, 0.0, 1.0, 2.0])


def test_a_nested_base_point_without_a_group_model_exits_three(tmp_path,
                                                               capsys):
    from spinorforge.cli import main
    path = tmp_path / "ekt.json"
    dump_json(_ekt_problem([[0.0, 0.0], [1.0, 2.0]]), path)
    assert main(["reconstruct", str(path), "-o", str(tmp_path / "r.json")]) \
        == 3
    assert capsys.readouterr().err.splitlines() == [
        "input error: base_point must be a flat list of coordinates; got "
        "shape (2, 2)"]
    assert [p.name for p in tmp_path.iterdir()] == ["ekt.json"]


OFF_GROUP = [("s3", [1.0 + 1e-7, 0.0, 0.0, 0.0],
              r"^S\^3 points must be unit quaternions: \|q\| is off 1 by"),
             ("s3", [0.0, 0.0, 0.0, 0.0],
              r"^S\^3 points must be unit quaternions: \|q\| is off 1 by"),
             ("hn", [0.0, 0.0, -1.0], r"^H\^n payload left the half space")]


@pytest.mark.parametrize("name,point,match", OFF_GROUP,
                         ids=["s3-off-1e-7", "s3-zero", "h3-below"])
def test_problem_base_point_off_the_group_is_an_input_error(name, point,
                                                            match):
    fx = (fixtures.s3_sphere if name == "s3" else fixtures.horosphere_h3)(5)
    blob = problem_to_dict(fx.data, fx.alg, base_point=point)
    with pytest.raises(ValueError, match=match):
        problem_from_dict(blob)


@pytest.mark.parametrize("name,point,match", OFF_GROUP,
                         ids=["s3-off-1e-7", "s3-zero", "h3-below"])
def test_surface_payload_off_the_group_is_an_input_error(name, point, match):
    model = model_for(la.s3() if name == "s3" else la.hn(3))
    F = np.broadcast_to(model.identity(), (2, 2, model.payload_dim)).copy()
    F[1, 0] = point
    blob = json.loads(json.dumps(surface_to_dict(F, model)))
    with pytest.raises(ValueError, match=match):
        surface_from_dict(blob)


def test_integration_error_names_cell_with_plain_integers():
    grid = ParamGrid(3, 3, 0.5)
    xi_x = np.zeros((3, 3, 3))
    xi_x[1, 0, 2] = np.inf
    xi = LieValuedOneForm(grid, xi_x, np.zeros((3, 3, 3)))
    with pytest.raises(IntegrationError, match=r"at cell \(1, 0\)$"):
        darboux_integrate(xi, la.rn(3))


# =============================================================================
# One rule for the numbers of an input: ParamGrid, HPotential, real_param
# =============================================================================

@pytest.mark.parametrize("build,message", [
    (lambda: ParamGrid(3.7, 3, 0.1),
     "grid nx must be an integral number; got 3.7"),
    (lambda: ParamGrid("5", 5, 0.1), "grid nx must be a real number; got '5'"),
    (lambda: ParamGrid(5, 5, 0.1, x0=None),
     "grid x0 must be a real number; got None"),
    (lambda: ParamGrid(5, 5, True), "grid h must be a real number; got True"),
    (lambda: ParamGrid(5, 10 ** 400, 0.1),
     "grid ny must be within the float range"),
    (lambda: HPotential(1.0, "123"),
     "potential mu must be 1-deep lists of reals; got '123'"),
    (lambda: HPotential("1", (0, 0, 0)),
     "potential H must be a real number; got '1'"),
    (lambda: HPotential(True, (0, 0, 0)),
     "potential H must be a real number; got True"),
    (lambda: HPotential(1.0, (0, 10 ** 400, 0)),
     "potential mu must be within the float range"),
    (lambda: la.catalog_build("EKappaTau", {"kappa": 10 ** 400, "tau": 1}),
     "params.kappa must be within the float range"),
], ids=["grid-non-integral-nx", "grid-string-nx", "grid-none-x0",
        "grid-bool-h", "grid-huge-ny", "potential-string-mu",
        "potential-string-H", "potential-bool-H", "potential-huge-mu",
        "catalog-huge-kappa"])
def test_input_numbers_are_value_errors_that_name_them(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=3), st.integers(-1, 6),
    st.sampled_from([3.7, 10 ** 400, float("nan"), float("inf"),
                     float("-inf"), 0.25, 2.0]))
_GRID_ARGS = {"nx": st.integers(2, 6) | st.just(4.0),
              "ny": st.integers(2, 6) | st.just(4.0),
              "h": st.sampled_from([0.1, 0.25, 1]),
              "x0": st.sampled_from([0, -0.75, 2.5]),
              "y0": st.sampled_from([0, -0.75, 2.5])}
_POTENTIAL_ARGS = {"H": st.sampled_from([0, 1.0, -2]),
                   "mu": st.lists(st.sampled_from([0, 1.0, -0.5]),
                                  min_size=3, max_size=3)}


@st.composite
def _arguments(draw, valid):
    """Arguments drawn from `valid`, with none, one or two of them replaced
    by a JSON-like scalar (or, for mu, a list of three)."""
    args = {key: draw(values) for key, values in valid.items()}
    for key in draw(st.lists(st.sampled_from(sorted(valid)), max_size=2)):
        args[key] = draw(_SCALARS | st.lists(_SCALARS, min_size=3,
                                              max_size=3)
                         if key == "mu" else _SCALARS)
    return args


@given(_arguments(_GRID_ARGS), _arguments(_POTENTIAL_ARGS))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_grid_and_potential_numbers_build_or_are_value_errors(grid_args,
                                                              pot_args):
    try:
        grid = ParamGrid(**grid_args)
    except ValueError:
        pass
    else:
        assert (grid.nx, grid.ny) == (grid_args["nx"], grid_args["ny"])
        assert type(grid.nx) is int and type(grid.ny) is int
    try:
        pot = HPotential(**pot_args)
    except ValueError:
        pass
    else:
        assert (pot.H, pot.mu) == (pot_args["H"], tuple(pot_args["mu"]))


# =============================================================================
# Reads with the cyclic garbage collector paused
# =============================================================================

# deeper than the C decoder's recursion limit
TOO_DEEP = "[" * 100000 + "]" * 100000


@contextlib.contextmanager
def counted_collections():
    """The generations of the collections that start inside the block."""
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(hook)
    try:
        yield started
    finally:
        gc.callbacks.remove(hook)


def test_read_json_runs_no_collection(tmp_path):
    fx = fixtures.sphere_r3(65)
    path = tmp_path / "sphere-r3.json"
    dump_json(problem_to_dict(fx.data, fx.alg, base_point=fx.F[0, 0]), path)
    assert gc.isenabled()
    # the mechanism: decoding and converting the same file with the
    # collector running starts collections that walk the decoded tree
    with counted_collections() as running:
        problem_from_dict(load_json(path))
    with counted_collections() as paused:
        data, *_ = read_json(path, problem_from_dict)
    assert len(running) > 0
    assert paused == []
    assert gc.isenabled()
    np.testing.assert_array_equal(data.frames, fx.data.frames)


@pytest.mark.parametrize("text,fails", [
    ("[1, 2]", None),
    ("[1, 2", "cannot read JSON"),
    (TOO_DEEP, "cannot read JSON"),
    ("[1, 2]", "rejected by convert"),
], ids=["success", "decode-error", "too-deep", "convert-error"])
def test_read_json_restores_the_collector(tmp_path, text, fails):
    path = tmp_path / "in.json"
    path.write_text(text)
    paused = []

    def convert(value):
        paused.append(not gc.isenabled())
        if fails:
            raise ValueError("rejected by convert")
        return value

    assert gc.isenabled()
    if fails is None:
        assert read_json(path, convert) == [1, 2]
    else:
        with pytest.raises(ValueError, match=fails):
            read_json(path, convert)
    assert gc.isenabled()
    # convert ran, and with the collector paused, unless the decode failed
    assert paused == ([] if fails == "cannot read JSON" else [True])


@pytest.mark.parametrize("text", ["[1, 2]", "[1, 2"])
def test_read_json_leaves_a_disabled_collector_disabled(tmp_path, text):
    path = tmp_path / "in.json"
    path.write_text(text)
    gc.disable()
    try:
        with contextlib.suppress(ValueError):
            read_json(path, list)
        assert not gc.isenabled()
    finally:
        gc.enable()
