"""Seeded inputs and case lists for the three workloads.

Everything here runs before any timing starts.  The seed chooses base
spinors, base points, the converse rigid motions and fixture parameters
(radius, rho, twist, Gauss-map phase) inside ranges where every case stays
integrable; grid sizes are fixed, so the seed changes the inputs but not
the amount of work.  The program only ever sees the files written here
(problem and cmc JSON, .npy arrays for the library-only converse).
"""

import hashlib
import zlib
from pathlib import Path

import numpy as np

from spinorforge import fixtures
from spinorforge.clifford import spin_lift
from spinorforge.cmc import HPotential, WeierstrassData
from spinorforge.grid import ParamGrid
from spinorforge.lie_algebra import algebra_to_dict
from spinorforge.lie_group import model_for
from spinorforge.serialization import cmc_to_dict, dump_json, problem_to_dict

WORKLOADS = ("forward", "semidirect", "converse")

# Grid sizes are half the prototype sizes of the benchmark's design (257,
# 129, 65) so that one run of the fixed length holds about ten passes.
SIZES = {
    "forward": {"sphere-r3": 129, "s3-sphere": 65, "sphere-r4-twisted": 65,
                "cmc-sphere": 129},
    "semidirect": {"sol3-plane": 65, "h2xr-slice": 65},
    "converse": {"sphere-r3": 33, "sphere-r4-twisted": 33, "sol3-plane": 33},
}

# Reconstruct report keys, shared by every reconstruct case.
RECONSTRUCT_KEYS = ["holonomy", "holonomy_tol", "integrable", "renorm_drift",
                    "structure_max", "structure_tol", "isometry_error",
                    "second_fundamental_error", "normal_connection_error",
                    "mesh_path", "surface_path"]


def _rng(workload, seed):
    return np.random.default_rng([int(seed), zlib.crc32(workload.encode())])


def _rotation(rng, n):
    """A random matrix of SO(n)."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _base_spinor(rng, n):
    return spin_lift(_rotation(rng, n))


def _near(model, point, rng, scale):
    """`point` left-translated by exp of a random algebra element of size
    at most `scale`, so the surface stays in the chart the export uses."""
    v = rng.uniform(-scale, scale, size=model.n)
    return model.multiply(point, model.exp(v))


def _write_problem(path, fx, rng):
    model = fx.model
    base_point = _near(model, fx.F[0, 0], rng, 0.2)
    dump_json(problem_to_dict(fx.data, fx.alg,
                              base_spinor=_base_spinor(rng, fx.alg.n),
                              base_point=base_point), str(path))


def _cli_case(case_id, argv, h, nodes, report, keys, flags, mesh=True):
    return {"id": case_id, "kind": "cli", "argv": argv, "h": h,
            "nodes": nodes, "report": report, "keys": keys, "flags": flags,
            "mesh": mesh}


def _forward(work, out, rng, sizes):
    n = sizes["sphere-r3"]
    sr3 = fixtures.sphere_r3(n, radius=rng.uniform(0.97, 1.03))
    _write_problem(work / "sphere-r3.json", sr3, rng)
    n_s3 = sizes["s3-sphere"]
    s3 = fixtures.s3_sphere(n_s3, rho=np.pi / 4 + rng.uniform(-0.015, 0.015))
    _write_problem(work / "s3-sphere.json", s3, rng)
    n_r4 = sizes["sphere-r4-twisted"]
    r4 = fixtures.sphere_r4_twisted(n_r4, radius=rng.uniform(0.97, 1.03),
                                    twist=rng.uniform(0.95, 1.05))
    _write_problem(work / "sphere-r4-twisted.json", r4, rng)
    n_cmc = sizes["cmc-sphere"]
    _write_cmc(work / "cmc-sphere.json", n_cmc, rng.uniform(0.0, 2.0 * np.pi))

    def o(name):
        return str(out / name)

    return [
        _cli_case("sphere-r3.check-gcr",
                  ["check-gcr", str(work / "sphere-r3.json"), "-o", o("gcr.json")],
                  sr3.grid.h, n * n, o("gcr.json"),
                  ["residuals", "tolerance", "pass"], ["pass"], mesh=False),
        _cli_case("sphere-r3.reconstruct",
                  ["reconstruct", str(work / "sphere-r3.json"), "-o", o("sr3.json")],
                  sr3.grid.h, n * n, o("sr3.json"), RECONSTRUCT_KEYS,
                  ["integrable"]),
        _cli_case("s3-sphere.reconstruct",
                  ["reconstruct", str(work / "s3-sphere.json"), "-o", o("s3.json")],
                  s3.grid.h, n_s3 * n_s3, o("s3.json"), RECONSTRUCT_KEYS,
                  ["integrable"]),
        _cli_case("sphere-r4-twisted.solve",
                  ["solve", str(work / "sphere-r4-twisted.json"), "-o",
                   o("r4-solve.json")],
                  r4.grid.h, n_r4 * n_r4, o("r4-solve.json"),
                  ["holonomy", "holonomy_tol", "integrable", "renorm_drift",
                   "spinor_path"], ["integrable"], mesh=False),
        # Known failure: no R^3 embedding for the R^4 payload, exit 3 after
        # the full solve and verify.  Kept exactly as a user would run it.
        _cli_case("sphere-r4-twisted.reconstruct",
                  ["reconstruct", str(work / "sphere-r4-twisted.json"), "-o",
                   o("r4.json")],
                  r4.grid.h, n_r4 * n_r4, o("r4.json"), RECONSTRUCT_KEYS,
                  ["integrable"]),
        _cli_case("cmc-sphere.cmc",
                  ["cmc", str(work / "cmc-sphere.json"), "-o", o("cmc.json")],
                  2 * 0.75 / (n_cmc - 1), n_cmc * n_cmc, o("cmc.json"),
                  ["pde", "dirac_companion", "structure",
                   "structure_tolerance", "pass", "mesh_path", "surface_path"],
                  ["pass"]),
        {"id": "sphere-r3.export", "kind": "export",
         "argv": ["export", o("sr3.surface.json"), "-o", o("sr3.ply"),
                  "--format", "ply"],
         "surface": o("sr3.surface.json"), "mesh_path": o("sr3.ply"),
         "nodes": n * n},
    ]


def _write_cmc(path, n, phase):
    """The unit CMC sphere in R^3 from its Gauss map, rotated about the
    vertical axis by `phase` (g = e^{i phase} z)."""
    half = 0.75
    h = 2 * half / (n - 1)
    X, Y = ParamGrid(n, n, h, x0=-half, y0=-half).mesh()
    z = X + 1j * Y
    grid = ParamGrid(n, n, h, mu=2.0 / (1.0 + np.abs(z) ** 2),
                     x0=-half, y0=-half)
    data = WeierstrassData(grid, np.exp(1j * phase) * z)
    dump_json(cmc_to_dict(data, HPotential(1.0, (0.0, 0.0, 0.0))), str(path))


def _semidirect(work, out, rng, sizes):
    cases = []
    for name, make in (("sol3-plane", fixtures.sol3_plane),
                       ("h2xr-slice", fixtures.h2xr_slice)):
        n = sizes[name]
        fx = make(n)
        _write_problem(work / f"{name}.json", fx, rng)
        report = str(out / f"{name}.json")
        cases.append(_cli_case(
            f"{name}.reconstruct",
            ["reconstruct", str(work / f"{name}.json"), "-o", report],
            fx.grid.h, n * n, report, RECONSTRUCT_KEYS, ["integrable"]))
    return cases


def _converse(work, out, rng, sizes):
    cases = []
    for name, make, kwargs in (
            ("sphere-r3", fixtures.sphere_r3,
             {"radius": rng.uniform(0.97, 1.03)}),
            ("sphere-r4-twisted", fixtures.sphere_r4_twisted,
             {"radius": rng.uniform(0.97, 1.03),
              "twist": rng.uniform(0.95, 1.05)}),
            ("sol3-plane", fixtures.sol3_plane, {})):
        fx = make(sizes[name], **kwargs)
        model = model_for(fx.alg)
        if model.name == "abelian":
            # rotation plus translation of R^n
            F = fx.F @ _rotation(rng, fx.alg.n).T \
                + rng.uniform(-1.0, 1.0, size=fx.alg.n)
        else:
            # left translation: an isometry of the left-invariant metric
            F = model.multiply(_near(model, model.identity(), rng, 1.0), fx.F)
        arrays = {"F": F, "mu": fx.grid.mu,
                  "B_norm": np.linalg.norm(fx.data.B, axis=-1)}
        for key, value in arrays.items():
            np.save(work / f"{name}.{key}.npy", value)
        g = fx.grid
        cases.append({"id": f"{name}.converse", "kind": "converse",
                      "arrays": {k: str(work / f"{name}.{k}.npy")
                                 for k in arrays},
                      "algebra": algebra_to_dict(fx.alg),
                      "grid": {"n": g.nx, "h": g.h, "x0": g.x0, "y0": g.y0},
                      "h": g.h, "nodes": g.nx * g.ny})
    return cases


def digest(paths):
    """sha256 over the names and bytes of the input files, in name order."""
    sha = hashlib.sha256()
    for path in sorted(Path(p) for p in paths):
        sha.update(path.name.encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def generate(workload, seed, work, out, sizes=None):
    """Write the workload's inputs under `work` and return its plan: the
    case list (outputs go under `out`), the seed and the input digest."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    work, out = Path(work), Path(out)
    work.mkdir(parents=True, exist_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    make = {"forward": _forward, "semidirect": _semidirect,
            "converse": _converse}[workload]
    cases = make(work, out, _rng(workload, seed), sizes or SIZES[workload])
    inputs = sorted(str(p) for p in work.iterdir())
    return {"workload": workload, "seed": int(seed), "cases": cases,
            "out": str(out), "inputs": inputs, "digest": digest(inputs)}
