"""JSON input/output: schemas, loaders, residual reports.

All structured I/O is JSON.  Floating point numbers round-trip exactly
(shortest-repr doubles both ways) and every writer sorts keys, so identical
inputs produce byte-identical outputs.  The schemas are available
programmatically and through the command line's --schema flag.
"""

import json

import numpy as np
from jsonschema import ValidationError, validate

from . import lie_algebra as la
from .clifford import Multivector, SpinElement
from .grid import ParamGrid
from .immersion import ImmersionData


class InputError(ValueError):
    """Malformed or schema-violating input."""


_NUM = {"type": "number"}
_ARRAY = {"type": "array"}

GRID_SCHEMA = {
    "type": "object",
    "properties": {
        "nx": {"type": "integer", "minimum": 2},
        "ny": {"type": "integer", "minimum": 2},
        "h": {"type": "number", "exclusiveMinimum": 0},
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
                "mu": {"type": "array", "items": _NUM,
                       "minItems": 3, "maxItems": 3},
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
                "name": {"enum": ["abelian", "s3", "semidirect", "hn"]},
                "params": {"type": "object"},
            },
            "required": ["name"],
        },
        "nx": {"type": "integer", "minimum": 2},
        "ny": {"type": "integer", "minimum": 2},
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


def _validated(payload, schema, what):
    try:
        validate(payload, schema)
    except ValidationError as err:
        raise InputError(f"{what} does not match its schema: {err.message}")
    return payload


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise InputError(f"cannot read JSON from {path}: {err}")


def dump_json(payload, path):
    try:
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
    except OSError as err:
        raise InputError(f"cannot write {path}: {err}")


# =============================================================================
# Domain objects <-> dicts
# =============================================================================

def grid_from_dict(d):
    _validated(d, GRID_SCHEMA, "grid")
    mu = d.get("mu")
    try:
        return ParamGrid(d["nx"], d["ny"], d["h"],
                         mu=None if mu is None else np.array(mu),
                         x0=d.get("x0", 0.0), y0=d.get("y0", 0.0))
    except ValueError as err:
        raise InputError(str(err))


def grid_to_dict(grid):
    return {"nx": grid.nx, "ny": grid.ny, "h": grid.h, "x0": grid.x0,
            "y0": grid.y0, "mu": grid.mu.tolist()}


def algebra_from_dict(d):
    _validated(d, ALGEBRA_SCHEMA, "algebra")
    try:
        if "c" in d:
            return la.algebra_from_dict(d)
        return la.catalog_build(d["tag"], d.get("params"))
    except (ValueError, KeyError) as err:
        raise InputError(f"invalid algebra: {err}")


def problem_from_dict(d):
    """(ImmersionData, algebra, base_spinor, base_point) from a problem blob."""
    _validated(d, PROBLEM_SCHEMA, "problem")
    grid = grid_from_dict(d["grid"])
    alg = algebra_from_dict(d["algebra"])
    try:
        data = ImmersionData(
            grid, np.array(d["frames"], dtype=np.float64),
            S=None if "S" not in d else np.array(d["S"], dtype=np.float64),
            B=None if "B" not in d else np.array(d["B"], dtype=np.float64),
            theta_x=None if "theta_x" not in d else np.array(d["theta_x"]),
            theta_y=None if "theta_y" not in d else np.array(d["theta_y"]))
    except ValueError as err:
        raise InputError(f"invalid immersion data: {err}")
    base_spinor = None
    if "base_spinor" in d:
        try:
            base_spinor = SpinElement(Multivector(alg.n, d["base_spinor"]))
        except ValueError as err:
            raise InputError(f"invalid base spinor: {err}")
    base_point = np.array(d["base_point"]) if "base_point" in d else None
    u_field = np.array(d["u_field"]) if "u_field" in d else None
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
        out["theta_x"] = data.theta_x.tolist()
        out["theta_y"] = data.theta_y.tolist()
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
    g = np.array(d["g"], dtype=np.float64)
    if g.shape != grid.shape + (2,):
        raise InputError("g samples must be (nx, ny, 2) re/im pairs")
    pot = HPotential(d["potential"]["H"], d["potential"]["mu"])
    try:
        data = WeierstrassData(grid, g[..., 0] + 1j * g[..., 1])
    except ValueError as err:
        raise InputError(str(err))
    return data, pot


def cmc_to_dict(data, pot):
    g = np.stack([np.real(data.g), np.imag(data.g)], axis=-1)
    return {"grid": grid_to_dict(data.grid),
            "potential": {"H": pot.H, "mu": list(pot.mu)},
            "g": g.tolist()}


def surface_to_dict(F, model):
    params = {}
    if model.name == "semidirect":
        params["A"] = model.A.tolist()
    if model.name in ("abelian", "hn"):
        params["n"] = model.n
    nx, ny = F.shape[:2]
    return {"model": {"name": model.name, "params": params},
            "nx": nx, "ny": ny,
            "payload": np.asarray(F).reshape(-1).tolist()}


def _model_dimension(params):
    """The `n` of an abelian / H^n surface model, 3 when absent."""
    n = int(params.get("n", 3))
    if n < 1:
        raise ValueError(f"model dimension n must be positive, got {n}")
    return n


def surface_from_dict(d):
    from .lie_group import AbelianModel, HnModel, S3Model, SemidirectModel
    _validated(d, SURFACE_SCHEMA, "surface")
    name = d["model"]["name"]
    params = d["model"].get("params", {})
    try:
        if name == "abelian":
            model = AbelianModel(_model_dimension(params))
        elif name == "s3":
            model = S3Model()
        elif name == "semidirect":
            if "A" not in params:
                raise ValueError("the semidirect model needs params.A")
            A = np.array(params["A"], dtype=np.float64)
            if A.size != 4 or not np.all(np.isfinite(A)):
                raise ValueError("params.A must be a finite 2x2 matrix")
            model = SemidirectModel(A)
        elif name == "hn":
            model = HnModel(_model_dimension(params))
        else:
            raise ValueError(f"unknown model {name!r}")
        payload = np.array(d["payload"], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as err:
        raise InputError(f"invalid surface: {err}")
    try:
        F = payload.reshape(int(d["nx"]), int(d["ny"]), model.payload_dim)
    except ValueError:
        raise InputError("surface payload length does not match the grid")
    if not np.all(np.isfinite(F)):
        raise InputError("surface payload has non-finite entries")
    if name == "hn" and np.any(F[..., -1] <= 0):
        raise InputError("H^n payload must lie in the half space a_n > 0")
    if name == "s3" and np.max(np.abs(np.linalg.norm(F, axis=-1) - 1)) > 1e-6:
        raise InputError("S^3 payload must be unit quaternions")
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
