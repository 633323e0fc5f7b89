"""Command-line front end.

Commands: catalog, check-algebra, check-frame, check-gcr, solve,
reconstruct, cmc, export.  All structured I/O is JSON against the schemas
in `serialization` (print them with --schema); meshes are OBJ or binary
PLY.  Exit codes: 0 success, 2 residual above tolerance / not integrable,
3 input error, 4 numerical failure.  Outputs are deterministic for fixed
inputs.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import fixtures, lie_algebra as la
from .cmc import (SingularPotentialError, dirac2_residual,
                  gauss_map_pde_residual, weier_f_from_g, xi_from_weierstrass)
from .immersion import frame_compat_residuals, gcr_residuals, hn_u_residual
from .lie_group import (IntegrationError, darboux_integrate, model_for,
                        structure_residual)
from .meshexport import FORMATS, export_mesh
from .serialization import (InputError, SCHEMAS, cmc_from_dict, dump_json,
                            field_report, load_json, problem_from_dict,
                            surface_from_dict, surface_to_dict)
from .serialization import algebra_from_dict as _algebra_from_dict
from .spinor import (KillingProblem, NotIntegrableError, reconstruct_immersion,
                     solve_killing)

EXIT_OK = 0
EXIT_RESIDUAL = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4

GROUPS = {
    "rn": ("Rn", {"n": 3}),
    "hn": ("Hn", {"n": 3}),
    "s3": ("S3", {}),
    "ekt": ("EKappaTau", {"kappa": -1.0, "tau": 0.5}),
    "semidirect": ("SemiDirect", {"A": [[1.0, 0.0], [0.0, 1.0]]}),
    "sol3": ("Sol3", {}),
    "h2xr": ("H2xR", {}),
    "unimodular": ("Unimodular", {"mu": [1.0, 1.0, 1.0]}),
}

SURFACE_FIXTURES = {
    "sphere-r3": fixtures.sphere_r3,
    "sphere-r3-broken": lambda n: fixtures.sphere_r3(n, codazzi_eps=1e-2),
    "sphere-r4-twisted": fixtures.sphere_r4_twisted,
    "s3-sphere": fixtures.s3_sphere,
    "s3-equator": fixtures.s3_equator,
    "sol3-plane": fixtures.sol3_plane,
    "h2xr-slice": fixtures.h2xr_slice,
    "horosphere-h3": fixtures.horosphere_h3,
}


@dataclass
class RunConfig:
    """Validated run parameters shared by the file-driven commands."""
    command: str
    input_path: str = None
    output_path: str = None
    fixture: str = None
    grid_n: int = 33
    tolerances: dict = field(default_factory=dict)
    export_format: str = "obj"
    pole: tuple = None
    verbose: bool = False

    def __post_init__(self):
        for name, value in self.tolerances.items():
            if value is not None and not value > 0:
                raise InputError(f"tolerance {name} must be positive")
        needs_input = self.command in ("check-algebra", "check-frame",
                                       "check-gcr", "solve", "reconstruct",
                                       "cmc", "export")
        if needs_input and not self.input_path and not self.fixture:
            raise InputError(f"{self.command} needs an input file or --fixture")
        if self.export_format not in FORMATS:
            raise InputError(f"format must be one of {FORMATS}")


def _say(cfg, message):
    if cfg.verbose:
        print(message)


def _out(cfg, default_name):
    if cfg.output_path:
        return cfg.output_path
    return default_name


# One minimum for every grid command, so that a problem file one command
# accepts the others accept too: the order-4 verification stencils of
# reconstruct need five nodes per axis (the order-2 stencils, four).
MIN_GRID_NODES = 5


def _check_grid(cfg, grid):
    if min(grid.shape) < MIN_GRID_NODES:
        raise InputError(f"{cfg.command} needs at least {MIN_GRID_NODES} "
                         f"nodes per axis; got a {grid.nx} x {grid.ny} grid")


def _load_problem(cfg):
    if cfg.fixture:
        if cfg.fixture not in SURFACE_FIXTURES:
            raise InputError(f"unknown fixture {cfg.fixture!r}; known: "
                             f"{sorted(SURFACE_FIXTURES)}")
        fx = SURFACE_FIXTURES[cfg.fixture](cfg.grid_n)
        loaded = fx.data, fx.alg, None, fx.F[0, 0], fx.extras.get("u_field")
    else:
        loaded = problem_from_dict(load_json(cfg.input_path))
    _check_grid(cfg, loaded[0].grid)
    return loaded


def _tol(cfg, name, default):
    value = cfg.tolerances.get(name)
    return default if value is None else value


# =============================================================================
# Commands
# =============================================================================

def cmd_catalog(cfg, args):
    key = args.group.lower()
    if key not in GROUPS:
        raise InputError(f"unknown group {args.group!r}; known: {sorted(GROUPS)}")
    tag, defaults = GROUPS[key]
    params = dict(defaults)
    if args.params:
        try:
            params.update(json.loads(args.params))
        except json.JSONDecodeError as err:
            raise InputError(f"--params is not valid JSON: {err}")
    alg = la.catalog_build(tag, params)
    print(f"{tag}  (n = {alg.n}, params = "
          f"{json.dumps(alg.params, sort_keys=True)})")
    print("nonzero structure constants [e_i, e_j] = sum c_ijk e_k:")
    for i in range(alg.n):
        for j in range(i + 1, alg.n):
            terms = [f"{alg.c[i, j, k]:+g} e{k + 1}" for k in range(alg.n)
                     if alg.c[i, j, k] != 0.0]
            if terms:
                print(f"  [e{i + 1}, e{j + 1}] = {' '.join(terms)}")
    print("nonzero connection coefficients Gamma_ij^k:")
    for i in range(alg.n):
        for j in range(alg.n):
            for k in range(alg.n):
                if alg.gamma[i, j, k] != 0.0:
                    print(f"  Gamma[{i + 1},{j + 1}]^{k + 1} = "
                          f"{alg.gamma[i, j, k]:g}")
    if cfg.output_path:
        dump_json(la.algebra_to_dict(alg), cfg.output_path)
    return EXIT_OK


def cmd_check_algebra(cfg, args):
    alg = _algebra_from_dict(load_json(cfg.input_path))
    tol = _tol(cfg, "residual", 1e-10)
    jac = la.jacobi_residual(alg.c)
    compat = float(np.max(np.abs(alg.gamma + np.swapaxes(alg.gamma, 1, 2))))
    koszul_dev = float(np.max(np.abs(la.koszul_connection(alg) - alg.gamma)))
    # torsion is bilinear: basis pairs decide it
    torsion = 0.0
    eye = np.eye(alg.n)
    for i in range(alg.n):
        for j in range(alg.n):
            torsion = max(torsion, float(np.max(np.abs(
                la.torsion_residual(alg, eye[i], eye[j])))))
    report = {"jacobi": jac, "metric_compatibility": compat,
              "koszul_deviation": koszul_dev, "torsion": torsion,
              "tolerance": tol,
              "pass": bool(max(jac, compat, koszul_dev, torsion) <= tol)}
    dump_json(report, _out(cfg, "algebra-report.json"))
    _say(cfg, f"jacobi {jac:.3e}  compat {compat:.3e}  torsion {torsion:.3e}")
    return EXIT_OK if report["pass"] else EXIT_RESIDUAL


def _residual_command(cfg, fields):
    out = _out(cfg, "report.json")
    base, _ = os.path.splitext(out)
    report = {"residuals": {name: field_report(fld, f"{base}.{name}.json")
                            for name, fld in fields.items()}}
    # np.max, unlike max(), keeps a NaN worst so that it fails the gate
    worst = float(np.max([r["max"] for r in report["residuals"].values()]))
    return report, worst, out


def cmd_check_frame(cfg, args):
    data, alg, _, _, u_field = _load_problem(cfg)
    rT, rf = frame_compat_residuals(data, alg)
    fields = {"tangent": rT, "normal": rf}
    if u_field is not None:
        fields["structure_field"] = hn_u_residual(data, u_field, alg)
    tol = _tol(cfg, "residual", 10.0 * data.grid.h ** 2)
    report, worst, out = _residual_command(cfg, fields)
    report.update({"tolerance": tol, "pass": bool(worst <= tol)})
    dump_json(report, out)
    _say(cfg, f"frame residuals max {worst:.3e} vs tolerance {tol:.3e}")
    return EXIT_OK if report["pass"] else EXIT_RESIDUAL


def cmd_check_gcr(cfg, args):
    data, alg, _, _, _ = _load_problem(cfg)
    fields = dict(zip(("gauss", "codazzi", "ricci"), gcr_residuals(data, alg)))
    tol = _tol(cfg, "residual", 10.0 * data.grid.h ** 2)
    report, worst, out = _residual_command(cfg, fields)
    report.update({"tolerance": tol, "pass": bool(worst <= tol)})
    dump_json(report, out)
    _say(cfg, f"gcr residuals max {worst:.3e} vs tolerance {tol:.3e}")
    return EXIT_OK if report["pass"] else EXIT_RESIDUAL


def cmd_solve(cfg, args):
    data, alg, base_spinor, _, _ = _load_problem(cfg)
    problem = KillingProblem(data, alg, base_spinor=base_spinor)
    field, report = solve_killing(problem,
                                  holonomy_tol=cfg.tolerances.get("holonomy"),
                                  spin_tol=_tol(cfg, "spin_norm", 1e-8))
    out = _out(cfg, "solve-report.json")
    base, _ = os.path.splitext(out)
    spin_path = f"{base}.spinor.json"
    dump_json(field.values.reshape(-1).tolist(), spin_path)
    report = dict(report)
    report["spinor_path"] = spin_path
    dump_json(report, out)
    _say(cfg, f"holonomy {report['holonomy']:.3e} "
              f"(tolerance {report['holonomy_tol']:.3e})")
    return EXIT_OK if report["integrable"] else EXIT_RESIDUAL


def cmd_reconstruct(cfg, args):
    data, alg, base_spinor, base_point, _ = _load_problem(cfg)
    problem = KillingProblem(data, alg, base_spinor=base_spinor)
    out = _out(cfg, "reconstruct-report.json")
    base, _ = os.path.splitext(out)
    try:
        F, _, report = reconstruct_immersion(
            problem, base_point=base_point,
            holonomy_tol=cfg.tolerances.get("holonomy"),
            structure_tol=cfg.tolerances.get("structure"))
    except NotIntegrableError as err:
        report = dict(err.report)
        report["error"] = str(err)
        dump_json(report, out)
        _say(cfg, f"NOT-INTEGRABLE: {err}")
        return EXIT_RESIDUAL
    model = model_for(alg)
    mesh_path = f"{base}.surface.{cfg.export_format}"
    export_mesh(F, model, cfg.export_format, mesh_path, pole=cfg.pole)
    surf_path = f"{base}.surface.json"
    dump_json(surface_to_dict(F, model), surf_path)
    report = dict(report)
    report["mesh_path"] = mesh_path
    report["surface_path"] = surf_path
    dump_json(report, out)
    _say(cfg, f"isometry error {report['isometry_error']:.3e}, "
              f"|B_F - B| {report['second_fundamental_error']:.3e}")
    return EXIT_OK


def cmd_cmc(cfg, args):
    if cfg.fixture:
        if cfg.fixture != "cmc-sphere":
            raise InputError("the cmc command knows the fixture 'cmc-sphere'")
        from .grid import ParamGrid
        from .cmc import HPotential, WeierstrassData
        n = cfg.grid_n
        half = 0.75
        h = 2 * half / (n - 1)
        base_grid = ParamGrid(n, n, h, x0=-half, y0=-half)
        X, Y = base_grid.mesh()
        z = X + 1j * Y
        mu = 2.0 / (1.0 + np.abs(z) ** 2)
        grid = ParamGrid(n, n, h, mu=mu, x0=-half, y0=-half)
        data, pot = WeierstrassData(grid, z), HPotential(1.0, (0.0, 0.0, 0.0))
    else:
        data, pot = cmc_from_dict(load_json(cfg.input_path))
    _check_grid(cfg, data.grid)
    out = _out(cfg, "cmc-report.json")
    base, _ = os.path.splitext(out)
    f = weier_f_from_g(data, pot)
    pde = gauss_map_pde_residual(data, pot)
    companion = dirac2_residual(data, pot, f)
    xi = xi_from_weierstrass(data, pot, f)
    alg = la.unimodular(*pot.mu)
    sres = structure_residual(xi, alg)
    tol = _tol(cfg, "structure",
               10.0 * data.grid.h ** 2 * max(1.0, float(np.max(data.grid.mu)) ** 2))
    try:
        model = model_for(alg)
    except ValueError:
        model = None    # no closed-form group model: report only
    report = {
        "pde": field_report(pde, f"{base}.pde.json"),
        "dirac_companion": field_report(companion, f"{base}.companion.json"),
        "structure": field_report(sres, f"{base}.structure.json"),
        "structure_tolerance": tol,
        "pass": bool(np.max(sres) <= tol),
    }
    if model is not None:
        F = darboux_integrate(xi, model, base=model.identity())
        mesh_path = f"{base}.surface.{cfg.export_format}"
        export_mesh(F, model, cfg.export_format, mesh_path, pole=cfg.pole)
        surf_path = f"{base}.surface.json"
        dump_json(surface_to_dict(F, model), surf_path)
        report["mesh_path"] = mesh_path
        report["surface_path"] = surf_path
    dump_json(report, out)
    _say(cfg, f"pde {report['pde']['max']:.3e}  "
              f"structure {report['structure']['max']:.3e}")
    return EXIT_OK if report["pass"] else EXIT_RESIDUAL


def cmd_export(cfg, args):
    F, model = surface_from_dict(load_json(cfg.input_path))
    out = _out(cfg, f"surface.{cfg.export_format}")
    export_mesh(F, model, cfg.export_format, out, pole=cfg.pole)
    _say(cfg, f"wrote {out}")
    return EXIT_OK


COMMANDS = {
    "catalog": cmd_catalog,
    "check-algebra": cmd_check_algebra,
    "check-frame": cmd_check_frame,
    "check-gcr": cmd_check_gcr,
    "solve": cmd_solve,
    "reconstruct": cmd_reconstruct,
    "cmc": cmd_cmc,
    "export": cmd_export,
}


# =============================================================================
# Argument parsing
# =============================================================================

def build_parser():
    parser = argparse.ArgumentParser(
        prog="spinorforge",
        description="Submanifolds of metric Lie groups through spin geometry")
    parser.add_argument("--schema", choices=sorted(SCHEMAS),
                        help="print a JSON schema and exit")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="stream per-stage residual summaries")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-v", "--verbose", action="store_true",
                        help="stream per-stage residual summaries")
    sub = parser.add_subparsers(dest="command")

    cat = sub.add_parser("catalog", parents=[common],
                         help="print a catalog algebra's tables")
    cat.add_argument("--group", required=True,
                     help=f"one of {sorted(GROUPS)}")
    cat.add_argument("--params", help="JSON dict of variant parameters")
    cat.add_argument("-o", "--output", help="also write the algebra JSON here")

    def file_command(name, help_text, fixture=True):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("input", nargs="?", help="input JSON path")
        p.add_argument("-o", "--output", help="report/output path")
        if fixture:
            p.add_argument("--fixture", help="named analytic fixture instead "
                                             "of an input file")
            p.add_argument("--grid-n", type=int, default=33,
                           help="fixture grid resolution (default 33)")
        p.add_argument("--tol", type=float, dest="tol",
                       help="residual tolerance (default 10 h^2)")
        p.add_argument("--holonomy-tol", type=float)
        p.add_argument("--structure-tol", type=float)
        p.add_argument("--spin-norm-tol", type=float)
        p.add_argument("--format", choices=FORMATS, default="obj")
        p.add_argument("--pole", type=float, nargs=4, metavar=("W", "X", "Y", "Z"),
                       help="stereographic pole for S^3 export")
        return p

    file_command("check-algebra", "validate an algebra JSON", fixture=False)
    file_command("check-frame", "frame-equation residuals (q = 1)")
    file_command("check-gcr", "Gauss-Codazzi-Ricci residuals")
    file_command("solve", "transport the Killing spinor and report holonomy")
    file_command("reconstruct", "solve, integrate and export the surface")
    file_command("cmc", "run the Weierstrass pipeline on Gauss-map data")
    file_command("export", "convert a saved surface JSON to OBJ/PLY",
                 fixture=False)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.schema:
        print(json.dumps(SCHEMAS[args.schema], indent=1, sort_keys=True))
        return EXIT_OK
    if not args.command:
        parser.print_help()
        return EXIT_INPUT
    try:
        cfg = RunConfig(
            command=args.command,
            input_path=getattr(args, "input", None),
            output_path=getattr(args, "output", None),
            fixture=getattr(args, "fixture", None),
            grid_n=getattr(args, "grid_n", 33),
            tolerances={
                "residual": getattr(args, "tol", None),
                "holonomy": getattr(args, "holonomy_tol", None),
                "structure": getattr(args, "structure_tol", None),
                "spin_norm": getattr(args, "spin_norm_tol", None),
            },
            export_format=getattr(args, "format", "obj"),
            pole=tuple(args.pole) if getattr(args, "pole", None) else None,
            verbose=args.verbose,
        )
        return COMMANDS[args.command](cfg, args)
    except InputError as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (SingularPotentialError, IntegrationError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except NotIntegrableError as err:
        print(f"not integrable: {err}", file=sys.stderr)
        return EXIT_RESIDUAL
    except ValueError as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
