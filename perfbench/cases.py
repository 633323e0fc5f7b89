"""Running one case through a public entry point, and the correctness gate.

A case runs either `spinorforge.cli.main` on files (forward, semidirect)
or `spinorforge.spinor.spinor_of_immersion` on arrays (converse).  Both
are looked up at call time, so a traced process sees its wrappers.  The
gate runs after the timed pass: a case fails on an unexpected exit code, an
exception or a failed check, and a failure is counted, never dropped.
"""

import contextlib
import io
import json
import traceback
from pathlib import Path

import numpy as np

from spinorforge import cli, spinor
from spinorforge.grid import ParamGrid
from spinorforge.lie_algebra import algebra_from_dict

# The one failure the program has today on these workloads: the R^4
# reconstruction has no R^3 mesh embedding and exits 3 after the full
# solve and verify.  It is counted as failed; `known_failure` only lets a
# run whose every failure is this one still read as correct.
KNOWN_FAILURE = ("sphere-r4-twisted.reconstruct", 3,
                 "no R^3 embedding for abelian payloads of dimension 4")

# Extracted mu and |B| must lie within BAND * h^2 of the fixture values
# (the converse is second-order accurate).
BAND = 25.0

# report key -> accuracy metric, each divided by h^2
ACCURACY_KEYS = {"holonomy": "err.holonomy", "structure_max": "err.structure",
                 "isometry_error": "err.isometry",
                 "second_fundamental_error": "err.sff"}


def prepare(case):
    """A no-argument callable running the case; returns (rc, stderr, result)."""
    if case["kind"] == "converse":
        alg = algebra_from_dict(case["algebra"])
        g = case["grid"]
        grid = ParamGrid(g["n"], g["n"], g["h"], x0=g["x0"], y0=g["y0"])
        F = np.load(case["arrays"]["F"])

        def run():
            return 0, "", spinor.spinor_of_immersion(F, alg, grid)
        return run
    argv = list(case["argv"])

    def run():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, err.getvalue(), None
    return run


def execute(run):
    """Run a prepared case; an exception becomes an outcome, not a crash."""
    try:
        rc, stderr, result = run()
        return {"rc": rc, "stderr": stderr, "result": result, "error": None}
    except Exception:
        return {"rc": None, "stderr": "", "result": None,
                "error": traceback.format_exc()}


def known_failure(case_id, outcome):
    cid, rc, message = KNOWN_FAILURE
    return (case_id == cid and outcome["rc"] == rc
            and message in outcome["stderr"])


def check(case, outcome):
    """Gate one case: {"id", "ok", "reason", "accuracy"}."""
    accuracy = {}
    try:
        if outcome["error"] is not None:
            raise GateError(f"exception: {outcome['error'].strip()}")
        if outcome["rc"] != 0:
            raise GateError(f"exit code {outcome['rc']}: "
                            f"{outcome['stderr'].strip()}")
        checker = {"cli": _check_cli, "export": _check_export,
                   "converse": _check_converse}[case["kind"]]
        checker(case, outcome, accuracy)
        return {"id": case["id"], "ok": True, "reason": "",
                "accuracy": accuracy}
    except GateError as err:
        return {"id": case["id"], "ok": False, "reason": str(err),
                "accuracy": accuracy}


class GateError(Exception):
    """A failed correctness check."""


def _require(condition, message):
    if not condition:
        raise GateError(message)


def _load(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as err:
        raise GateError(f"cannot read {path}: {err}")


def obj_vertex_count(path):
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.startswith(b"v "))


def ply_vertices(path):
    with open(path, "rb") as fh:
        header = b""
        while not header.endswith(b"end_header\n"):
            line = fh.readline()
            _require(line, f"{path}: truncated PLY header")
            header += line
        count = [int(ln.split()[-1]) for ln in header.decode().splitlines()
                 if ln.startswith("element vertex")]
        _require(count, f"{path}: no vertex element")
        return np.frombuffer(fh.read(24 * count[0]), dtype="<f8").reshape(-1, 3)


def _check_cli(case, outcome, accuracy):
    report = _load(case["report"])
    missing = [k for k in case["keys"] if k not in report]
    _require(not missing, f"report lacks {missing}")
    for flag in case["flags"]:
        _require(report[flag] is True, f"report flag {flag} is not true")
    h2 = case["h"] ** 2
    for key, metric in ACCURACY_KEYS.items():
        if key in report:
            accuracy[metric] = report[key] / h2
    if "pde" in report:
        accuracy["err.pde"] = report["pde"]["max"] / h2
        accuracy["err.structure"] = report["structure"]["max"] / h2
    if case["mesh"]:
        count = obj_vertex_count(report["mesh_path"])
        _require(count == case["nodes"],
                 f"mesh has {count} vertices, want {case['nodes']}")


def _check_export(case, outcome, accuracy):
    vertices = ply_vertices(case["mesh_path"])
    _require(len(vertices) == case["nodes"],
             f"PLY has {len(vertices)} vertices, want {case['nodes']}")
    payload = np.array(_load(case["surface"])["payload"]).reshape(-1, 3)
    _require(np.array_equal(vertices, payload),
             "PLY vertices differ from the surface JSON payload")


def _check_converse(case, outcome, accuracy):
    field, data = outcome["result"]
    mu, b_norm = (np.load(case["arrays"][k]) for k in ("mu", "B_norm"))
    h2 = case["h"] ** 2
    _require(field.values.shape[:2] == mu.shape, "wrong field shape")
    mu_err = float(np.max(np.abs(data.grid.mu - mu)))
    b_err = float(np.max(np.abs(np.linalg.norm(data.B, axis=-1) - b_norm)))
    accuracy["err.metric"] = mu_err / h2
    accuracy["err.sff"] = b_err / h2
    _require(mu_err <= BAND * h2, f"extracted mu off by {mu_err:.3e}")
    _require(b_err <= BAND * h2, f"extracted |B| off by {b_err:.3e}")
