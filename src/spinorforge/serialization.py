"""JSON input/output: schemas, loaders, residual reports.

All structured I/O is JSON.  `dump_json` writes one compact line with sorted
keys through the C encoder of the standard library, so identical inputs
produce byte-identical outputs; floats are written with `float.__repr__`
(shortest round-trip digits) and read back bit-exactly, and NaN / Infinity
use the standard library's literals.  `write_surface` writes the same
bytes for a surface with the payload joined by hand: a surface coordinate's
text is its `repr`, made once and shared by the surface JSON and an OBJ
whose vertices are the payload (`meshexport`).

Inputs are checked against the JSON schemas in `SCHEMAS` (also printed by
the command line's --schema flag) by a small built-in checker.  The schemas
state an input's shape, which keys it has and what kind of value each
holds, with the keywords `type`, `properties` and `required`
(`SCHEMA_KEYWORDS`) and JSON Schema semantics: an `integer` may be written
`2.0`, and booleans are neither numbers nor integers.  A violation is
reported with its path and rule, e.g.
`grid.mu: 1 is not of type 'array' or 'null'`.  The values are judged by
the constructors the loaders call (`ParamGrid`, `HPotential`, the group
models, ...), which hold each bound and count, and judge their numbers
with `grid.real_numbers`.  Malformed input of any kind, an integer beyond
the float range included, and a file that cannot be read or written, raises
`ValueError`; the command line's `main` reports it as an input error, exit 3.

`read_json` reads an input file and converts it with the cyclic garbage
collector paused.  A problem file decodes into some 10^5 small lists, and
each few hundred of those allocations would start a collection that walks
the live tree although a decoded JSON tree has no cycles and so nothing to
free.  The conversion runs inside the pause too, so that the tree is freed
by reference counting before the collector resumes and the first collection
after it does not walk the tree either.  The collector is re-enabled only if
it was enabled on entry, whatever the outcome of the read.
"""

import gc
import json

import numpy as np

from . import lie_algebra as la
from .clifford import Multivector, SpinElement
from .grid import ParamGrid, node_count, short_repr
from .immersion import ImmersionData, checked_u_field
from .lie_group import (AbelianModel, model_for, model_from_params,
                        model_params)
from .meshexport import embed_r3, write_mesh


_NUM = {"type": "number"}
_INT = {"type": "integer"}
_ARRAY = {"type": "array"}

GRID_SCHEMA = {
    "type": "object",
    "properties": {
        "nx": _INT,
        "ny": _INT,
        "h": _NUM,
        "x0": _NUM,
        "y0": _NUM,
        "mu": {"type": ["array", "null"]},
    },
    "required": ["nx", "ny", "h"],
}

ALGEBRA_SCHEMA = {
    "type": "object",
    "properties": {
        "tag": {"type": "string"},
        "params": {"type": "object"},
        "c": _ARRAY,
        "gamma": _ARRAY,
    },
    "required": ["tag"],
}

PROBLEM_SCHEMA = {
    "type": "object",
    "properties": {
        "grid": GRID_SCHEMA,
        "algebra": ALGEBRA_SCHEMA,
        "frames": _ARRAY,
        "S": _ARRAY,
        "B": _ARRAY,
        "theta_x": _ARRAY,
        "theta_y": _ARRAY,
        "u_field": _ARRAY,
        "base_spinor": _ARRAY,
        "base_point": _ARRAY,
    },
    "required": ["grid", "algebra", "frames"],
}

CMC_SCHEMA = {
    "type": "object",
    "properties": {
        "grid": GRID_SCHEMA,
        "potential": {
            "type": "object",
            "properties": {
                "H": _NUM,
                "mu": _ARRAY,
            },
            "required": ["H", "mu"],
        },
        # complex samples as [re, im] pairs, row-major over the grid
        "g": _ARRAY,
    },
    "required": ["grid", "potential", "g"],
}

SURFACE_SCHEMA = {
    "type": "object",
    "properties": {
        "model": {
            "type": "object",
            "properties": {
                "name": {"type": "string"},
                "params": {"type": "object"},
            },
            "required": ["name"],
        },
        "nx": _INT,
        "ny": _INT,
        "payload": _ARRAY,
    },
    "required": ["model", "nx", "ny", "payload"],
}

REPORT_FIELD_SCHEMA = {
    "type": "object",
    "properties": {
        "max": _NUM,
        "mean": _NUM,
        "field_path": {"type": "string"},
    },
    "required": ["max", "mean", "field_path"],
}

SCHEMAS = {
    "grid": GRID_SCHEMA,
    "algebra": ALGEBRA_SCHEMA,
    "problem": PROBLEM_SCHEMA,
    "cmc": CMC_SCHEMA,
    "surface": SURFACE_SCHEMA,
    "report-field": REPORT_FIELD_SCHEMA,
}


# =============================================================================
# Schema check
# =============================================================================

def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int)
                                            or v.is_integer()),
}


# Each keyword yields (path, message) per violation; the type-specific ones
# ignore values of other types, as in JSON Schema.

def _check_type(value, types, path):
    types = [types] if isinstance(types, str) else types
    if not any(_TYPES[t](value) for t in types):
        yield path, (f"{short_repr.repr(value)} is not of type "
                     f"{' or '.join(map(repr, types))}")


def _check_properties(value, properties, path):
    if isinstance(value, dict):
        for key, schema in properties.items():
            if key in value:
                yield from _violations(value[key], schema, path + (key,))


def _check_required(value, keys, path):
    if isinstance(value, dict):
        for key in keys:
            if key not in value:
                yield path, f"{key!r} is a required property"


SCHEMA_KEYWORDS = {
    "type": _check_type,
    "properties": _check_properties,
    "required": _check_required,
}


def _violations(value, schema, path=()):
    for keyword, rule in schema.items():
        yield from SCHEMA_KEYWORDS[keyword](value, rule, path)


def schema_violation(payload, schema):
    """The first rule of `schema` that `payload` breaks, as
    "path: message", or None when the payload conforms."""
    for path, message in _violations(payload, schema):
        where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}"
                        for p in path).lstrip(".")
        return f"{where}: {message}" if where else message
    return None


def _validated(payload, schema, what):
    problem = schema_violation(payload, schema)
    if problem is not None:
        raise ValueError(f"{what} does not match its schema: {problem}")
    return payload


def load_json(path):
    """The JSON value in the file at `path`; ValueError when the file
    cannot be read or decoded, nesting too deep for the decoder included.
    An array that holds a bool comes back a `la.BoolArray`."""
    try:
        with open(path) as fh:
            text = fh.read()
        value = json.loads(text)
        return _mark_bools(value) if _has_a_literal(text) else value
    except (OSError, json.JSONDecodeError, RecursionError) as err:
        raise ValueError(f"cannot read JSON from {path}: {err}")


def _has_a_literal(text):
    """Whether `true` or `false` is in `text`.  Their first letters are
    found by memchr, and a file of numbers has them only in its keys."""
    for word in ("true", "false"):
        i = -1
        while (i := text.find(word[0], i + 1)) >= 0:
            if text.startswith(word, i):
                return True
    return False


def _mark_bools(value):
    """`value` with each array (a list in no list) that holds a bool a BoolArray."""
    if isinstance(value, dict):
        return {key: _mark_bools(item) for key, item in value.items()}
    stack = [value] if isinstance(value, list) else []
    while stack:
        item = stack.pop()
        if isinstance(item, bool):
            return la.BoolArray(value)
        stack += item if isinstance(item, list) else []
    return value


def read_json(path, convert):
    """`convert(load_json(path))` with the cyclic garbage collector paused
    (see the module docstring)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return convert(load_json(path))
    finally:
        if enabled:
            gc.enable()


def _write_text(text, path):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as err:
        raise ValueError(f"cannot write {path}: {err}")


def dump_json(payload, path):
    """Write `payload` as one line of JSON with sorted keys.  Without
    `indent`, `json.dumps` runs the standard library's C encoder."""
    _write_text(json.dumps(payload, sort_keys=True) + "\n", path)


# =============================================================================
# Domain objects <-> dicts
# =============================================================================

def _finite(arr, name):
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")


def grid_from_dict(d):
    _validated(d, GRID_SCHEMA, "grid")
    mu = d.get("mu")
    if mu is not None:
        mu = la.real_array(mu, "grid.mu")
    return ParamGrid(d["nx"], d["ny"], d["h"], mu=mu,
                     x0=d.get("x0", 0.0), y0=d.get("y0", 0.0))


def grid_to_dict(grid):
    return {"nx": grid.nx, "ny": grid.ny, "h": grid.h, "x0": grid.x0,
            "y0": grid.y0, "mu": grid.mu.tolist()}


def algebra_and_gamma(d):
    """The algebra of an algebra blob, built from `c` or the tag, and the
    blob's own finite (n, n, n) `gamma`, Koszul(c) when it has none."""
    _validated(d, ALGEBRA_SCHEMA, "algebra")
    try:
        alg = la.algebra_from_dict(d) if "c" in d else \
            la.catalog_build(d["tag"], d.get("params"))
    except ValueError as err:
        raise ValueError(f"invalid algebra: {err}")
    gamma = la.real_array(d.get("gamma", alg.gamma), "algebra.gamma")
    if gamma.shape != alg.gamma.shape or not np.all(np.isfinite(gamma)):
        raise ValueError(f"algebra.gamma must be a finite {alg.gamma.shape} "
                         f"array; got shape {gamma.shape}")
    return alg, gamma


def algebra_from_dict(d):
    """The algebra of a blob, whose `gamma`, if any, must be Koszul(c)."""
    alg, gamma = algebra_and_gamma(d)
    with np.errstate(over="ignore"):    # an overflow is inf: it fails too
        deviation = float(np.max(np.abs(gamma - alg.gamma)))
    if not deviation <= la.KOSZUL_TOL:
        raise ValueError(f"algebra.gamma deviates from Koszul(c) by "
                         f"{deviation:.3e} > {la.KOSZUL_TOL:g}")
    return alg


def problem_from_dict(d):
    """(ImmersionData, algebra, base_spinor, base_point, u_field) from a
    problem blob."""
    _validated(d, PROBLEM_SCHEMA, "problem")
    grid = grid_from_dict(d["grid"])
    alg = algebra_from_dict(d["algebra"])
    arrays = {key: la.real_array(d[key], key)
              for key in ("frames", "S", "B", "theta_x", "theta_y",
                          "base_spinor", "base_point", "u_field") if key in d}
    try:
        data = ImmersionData(grid, arrays["frames"], S=arrays.get("S"),
                             B=arrays.get("B"), theta_x=arrays.get("theta_x"),
                             theta_y=arrays.get("theta_y"))
    except ValueError as err:
        raise ValueError(f"invalid immersion data: {err}")
    base_spinor = None
    if "base_spinor" in arrays:
        coeffs = arrays["base_spinor"]
        try:
            if coeffs.ndim != 1:
                raise ValueError("coefficients must be a flat list")
            base_spinor = SpinElement(Multivector(alg.n, coeffs))
        except ValueError as err:
            raise ValueError(f"invalid base spinor: {err}")
    base_point = arrays.get("base_point")
    if base_point is not None:
        _finite(base_point, "base_point")
        try:
            model = model_for(alg)
        except ValueError:
            # no group model: only reconstruct uses the point, and it
            # rejects the algebra itself; here a point is any flat list
            if base_point.ndim != 1:
                raise ValueError(f"base_point must be a flat list of "
                                 f"coordinates; got shape {base_point.shape}")
            model = AbelianModel(base_point.size)
        dim = model.payload_dim
        if base_point.shape != (dim,):
            raise ValueError(f"base_point must be a point of {dim} "
                             f"coordinates; got shape {base_point.shape}")
        model.normalize(base_point)
    u_field = arrays.get("u_field")
    if u_field is not None:
        _finite(u_field, "u_field")
        checked_u_field(data, u_field, alg)
    return data, alg, base_spinor, base_point, u_field


def problem_to_dict(data, alg, base_spinor=None, base_point=None, u_field=None):
    out = {
        "grid": grid_to_dict(data.grid),
        "algebra": la.algebra_to_dict(alg),
        "frames": data.frames.tolist(),
    }
    if data.q == 1:
        out["S"] = data.S.tolist()
    else:
        out["B"] = data.B.tolist()
        out["theta_x"], out["theta_y"] = (
            data.theta[:, :, a].tolist() for a in range(2))
    if base_spinor is not None:
        coeffs = base_spinor.value.coeffs if isinstance(base_spinor, SpinElement) \
            else np.asarray(base_spinor)
        out["base_spinor"] = coeffs.tolist()
    if base_point is not None:
        out["base_point"] = np.asarray(base_point).tolist()
    if u_field is not None:
        out["u_field"] = np.asarray(u_field).tolist()
    return out


def cmc_from_dict(d):
    from .cmc import HPotential, WeierstrassData
    _validated(d, CMC_SCHEMA, "cmc problem")
    grid = grid_from_dict(d["grid"])
    g = la.real_array(d["g"], "g")
    if g.shape != grid.shape + (2,):
        raise ValueError("g samples must be (nx, ny, 2) re/im pairs")
    _finite(g, "g")     # before 1j * inf makes an inf * 0
    pot = HPotential(d["potential"]["H"], d["potential"]["mu"])
    return WeierstrassData(grid, g[..., 0] + 1j * g[..., 1]), pot


def cmc_to_dict(data, pot):
    g = np.stack([np.real(data.g), np.imag(data.g)], axis=-1)
    return {"grid": grid_to_dict(data.grid),
            "potential": {"H": pot.H, "mu": list(pot.mu)},
            "g": g.tolist()}


def _surface_head(F, model):
    nx, ny = F.shape[:2]
    return {"model": {"name": model.name, "params": model_params(model)},
            "nx": nx, "ny": ny}


def surface_to_dict(F, model):
    return {**_surface_head(F, model),
            "payload": np.asarray(F).reshape(-1).tolist()}


def write_surface(F, model, path, fmt, mesh_path, pole=None):
    """Write the surface grid F as a mesh at `mesh_path` (OBJ or binary PLY,
    as `meshexport.export_mesh` writes it), then as surface JSON at `path`,
    byte for byte `dump_json(surface_to_dict(F, model), path)`.

    Each coordinate of F is formatted once, by repr, after `embed_r3` has
    judged every vertex finite: repr writes nan and inf, which are not JSON.
    The JSON is its head from the C encoder with the joined texts after it,
    as `payload` is the last key in sorted order, and an OBJ whose vertices
    are F itself, as for every model but S^3, writes the same texts."""
    F = np.asarray(F, dtype=np.float64)
    vertices = embed_r3(F, model, pole)
    texts = list(map(repr, F.reshape(-1).tolist()))
    shared = fmt == "obj" and vertices is F
    write_mesh(mesh_path, fmt, texts if shared else vertices.reshape(-1, 3),
               *F.shape[:2])
    head = json.dumps(_surface_head(F, model), sort_keys=True)
    _write_text(f'{head[:-1]}, "payload": [{", ".join(texts)}]}}\n', path)


def surface_from_dict(d):
    """(F, model) of a surface blob: F as read, once `model.normalize`
    accepts it (S^3: unit quaternions, H^n: the half space)."""
    _validated(d, SURFACE_SCHEMA, "surface")
    try:
        model = model_from_params(d["model"]["name"],
                                  d["model"].get("params", {}))
    except ValueError as err:
        raise ValueError(f"invalid surface: {err}")
    payload = la.real_array(d["payload"], "payload")
    if payload.ndim != 1:
        raise ValueError(f"payload must be a flat list of coordinates; got "
                         f"shape {payload.shape}")
    shape = (node_count(d["nx"], "surface nx"),
             node_count(d["ny"], "surface ny"), model.payload_dim)
    try:
        F = payload.reshape(shape)
    except ValueError:
        raise ValueError("surface payload length does not match the grid")
    _finite(F, "surface payload")
    model.normalize(F)
    return F, model


# =============================================================================
# Residual reports
# =============================================================================

def field_report(field, field_path):
    """{"max", "mean", "field_path"} with the field dumped flat to field_path."""
    field = np.asarray(field, dtype=np.float64)
    dump_json(field.reshape(-1).tolist(), field_path)
    return {"max": float(np.max(field)), "mean": float(np.mean(field)),
            "field_path": str(field_path)}
