"""JSON and mesh writers, the built-in schema check, group-model params and
the non-finite gates at the input boundary."""

import functools
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
from spinorforge.cmc import WeierstrassData
from spinorforge.grid import ParamGrid
from spinorforge.immersion import ImmersionData
from spinorforge.lie_group import (MODELS, IntegrationError, LieValuedOneForm,
                                   darboux_integrate, model_for,
                                   model_from_params, model_params)
from spinorforge.meshexport import embed_r3, grid_faces, write_obj, write_ply
from spinorforge.serialization import (SCHEMA_KEYWORDS, SCHEMAS, InputError,
                                       dump_json, load_json, problem_from_dict,
                                       problem_to_dict, schema_violation,
                                       surface_from_dict, surface_to_dict)


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


def test_mesh_writers_match_on_extreme_coordinates(tmp_path):
    vertices = np.array([SPECIAL_FLOATS[i:i + 3] for i in range(0, 12, 3)])
    faces = np.array([[0, 1, 2], [0, 2, 3]])
    for write, reference in ((write_obj, reference_write_obj),
                             (write_ply, reference_write_ply)):
        write(tmp_path / "new", vertices, faces)
        reference(tmp_path / "old", vertices, faces)
        assert (tmp_path / "new").read_bytes() == \
            (tmp_path / "old").read_bytes(), write.__name__


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
    with pytest.raises(InputError, match=r"problem does not match its "
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
    ("abelian", {"n": 0}, "positive"),
    ("hn", {"n": -2}, "positive"),
    ("semidirect", {}, "needs params.A"),
    ("semidirect", {"A": [[1.0, float("inf")], [0.0, 1.0]]}, "finite 2x2"),
    ("semidirect", {"A": [1.0, 2.0, 3.0]}, "finite 2x2"),
    ("sol3", {}, "unknown model"),
    ("semidirect", {"A": [["1", "0"], ["0", "-1"]]}, "finite 2x2"),
    ("semidirect", {"A": [[True, False], [False, True]]}, "finite 2x2"),
])
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
    with pytest.raises(InputError, match=match):
        problem_from_dict(blob)


def test_integration_error_names_cell_with_plain_integers():
    grid = ParamGrid(3, 3, 0.5)
    xi_x = np.zeros((3, 3, 3))
    xi_x[1, 0, 2] = np.inf
    xi = LieValuedOneForm(grid, xi_x, np.zeros((3, 3, 3)))
    with pytest.raises(IntegrationError, match=r"at cell \(1, 0\)$"):
        darboux_integrate(xi, la.rn(3))
