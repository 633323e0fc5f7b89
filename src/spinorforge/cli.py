"""Command-line front end.

Commands: catalog, check-algebra, check-frame, check-gcr, solve,
reconstruct, cmc, export.  Each command takes only the options it reads,
as listed in `COMMANDS`.  All structured I/O is JSON against the schemas
in `serialization` (print them with --schema); meshes are OBJ or binary
PLY.  Exit codes: 0 success, 2 residual above tolerance / not integrable,
3 input error (usage errors included), 4 numerical failure.  Outputs are
deterministic for fixed inputs.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import fixtures, lie_algebra as la
from .cmc import (SingularPotentialError, dirac2_residual,
                  gauss_map_pde_residual, weier_f_from_g, xi_from_weierstrass)
from .grid import (STENCILS, check_step, nodes_needed, residual_tolerance,
                   structure_tolerance)
from .immersion import frame_compat_residuals, gcr_residuals, hn_u_residual
from .lie_group import (IntegrationError, darboux_integrate, model_for,
                        structure_residual)
from .meshexport import FORMATS, check_r3_embedding, export_mesh
from .serialization import (InputError, SCHEMAS, algebra_and_gamma,
                            algebra_from_dict, cmc_from_dict, dump_json,
                            field_report, problem_from_dict, read_json,
                            surface_from_dict, write_surface)
from .spinor import (KillingProblem, NotIntegrableError, reconstruct_immersion,
                     solve_killing)

EXIT_OK = 0
EXIT_RESIDUAL = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4

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


# a fixture's grid size when --grid-n is not given
GRID_N = 33


def _say(args, message):
    if args.verbose:
        print(message)


# One minimum for every grid command, so that a problem file one command
# accepts the others accept too: the widest reach of any stencil's edge rows
# (the order-4 verification stencils of reconstruct).
MIN_GRID_NODES = max(nodes_needed(edges) for _, edges in STENCILS.values())


def _check_grid(args, shape):
    if min(shape) < MIN_GRID_NODES:
        raise InputError(f"{args.command} needs at least {MIN_GRID_NODES} "
                         f"nodes per axis; got a {shape[0]} x {shape[1]} grid")


def _check_loaded(args, grid):
    """Judge a loaded grid before any work: its size, then its step."""
    _check_grid(args, grid.shape)
    check_step(grid)


def _fixture_n(args):
    """The grid size of args.fixture, or None to read args.input.  Exactly
    one of the two is given, and --grid-n only with --fixture."""
    if args.fixture and args.input:
        raise InputError(f"{args.command} takes an input file or --fixture, "
                         f"not both")
    if not args.fixture and not args.input:
        raise InputError(f"{args.command} needs an input file or --fixture")
    if not args.fixture:
        if args.grid_n is not None:
            raise InputError("--grid-n sizes a fixture; it needs --fixture")
        return None
    n = GRID_N if args.grid_n is None else args.grid_n
    _check_grid(args, (n, n))     # before a fixture divides by n - 1
    return n


def _load_problem(args):
    n = _fixture_n(args)
    if n is None:
        loaded = read_json(args.input, problem_from_dict)
    elif args.fixture not in SURFACE_FIXTURES:
        raise InputError(f"unknown fixture {args.fixture!r}; known: "
                         f"{sorted(SURFACE_FIXTURES)}")
    else:
        fx = SURFACE_FIXTURES[args.fixture](n)
        loaded = fx.data, fx.alg, None, fx.F[0, 0], fx.extras.get("u_field")
    _check_loaded(args, loaded[0].grid)
    return loaded


def _residual_report(args, data, fields, what):
    """Dump each residual field beside the report and gate the worst one
    at --tol, by default 10 h^2."""
    tol = args.tol or residual_tolerance(data.grid)    # a given --tol is > 0
    base, _ = os.path.splitext(args.output)
    report = {"residuals": {name: field_report(fld, f"{base}.{name}.json")
                            for name, fld in fields.items()}}
    # np.max, unlike max(), keeps a NaN worst so that it fails the gate
    worst = float(np.max([r["max"] for r in report["residuals"].values()]))
    report.update({"tolerance": tol, "pass": bool(worst <= tol)})
    dump_json(report, args.output)
    _say(args, f"{what} residuals max {worst:.3e} vs tolerance {tol:.3e}")
    return EXIT_OK if report["pass"] else EXIT_RESIDUAL


def _write_surface(args, F, model, report):
    """Write F as a mesh and as surface JSON beside the report, and name
    both files in it."""
    base, _ = os.path.splitext(args.output)
    report["mesh_path"] = f"{base}.surface.{args.format}"
    report["surface_path"] = f"{base}.surface.json"
    write_surface(F, model, report["surface_path"], args.format,
                  report["mesh_path"], pole=args.pole)


# =============================================================================
# Commands
# =============================================================================

def cmd_catalog(args):
    params = la.CATALOG[args.group][1]
    if args.params:
        try:
            given = json.loads(args.params)
        except json.JSONDecodeError as err:
            raise InputError(f"--params is not valid JSON: {err}")
        # a non-object is left for the algebra schema to reject
        params = {**params, **given} if isinstance(given, dict) else given
    alg = algebra_from_dict({"tag": args.group, "params": params})
    print(f"{args.group}  (n = {alg.n}, params = "
          f"{json.dumps(params, sort_keys=True)})")
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
    if args.output:
        dump_json(la.algebra_to_dict(alg), args.output)
    return EXIT_OK


def cmd_check_algebra(args):
    alg, gamma = read_json(args.input, algebra_and_gamma)
    tol = args.tol or la.KOSZUL_TOL
    jac = la.jacobi_residual(alg.c)
    compat = float(np.max(np.abs(gamma + np.swapaxes(gamma, 1, 2))))
    koszul_dev = float(np.max(np.abs(alg.gamma - gamma)))
    # torsion T(e_i, e_j) = gamma[i, j] - gamma[j, i] - c[i, j]
    torsion = float(np.max(np.abs(gamma - gamma.swapaxes(0, 1) - alg.c)))
    report = {"jacobi": jac, "metric_compatibility": compat,
              "koszul_deviation": koszul_dev, "torsion": torsion,
              "tolerance": tol,
              "pass": bool(max(jac, compat, koszul_dev, torsion) <= tol)}
    dump_json(report, args.output)
    _say(args, f"jacobi {jac:.3e}  compat {compat:.3e}  torsion {torsion:.3e}")
    return EXIT_OK if report["pass"] else EXIT_RESIDUAL


def cmd_check_frame(args):
    data, alg, _, _, u_field = _load_problem(args)
    rT, rf = frame_compat_residuals(data, alg)
    fields = {"tangent": rT, "normal": rf}
    if u_field is not None:
        fields["structure_field"] = hn_u_residual(data, u_field, alg)
    return _residual_report(args, data, fields, "frame")


def cmd_check_gcr(args):
    data, alg, _, _, _ = _load_problem(args)
    fields = dict(zip(("gauss", "codazzi", "ricci"), gcr_residuals(data, alg)))
    return _residual_report(args, data, fields, "gcr")


def cmd_solve(args):
    data, alg, base_spinor, _, _ = _load_problem(args)
    problem = KillingProblem(data, alg, base_spinor=base_spinor)
    field, report = solve_killing(problem, holonomy_tol=args.holonomy_tol)
    base, _ = os.path.splitext(args.output)
    spin_path = f"{base}.spinor.json"
    dump_json(field.values.reshape(-1).tolist(), spin_path)
    report = dict(report)
    report["spinor_path"] = spin_path
    dump_json(report, args.output)
    _say(args, f"holonomy {report['holonomy']:.3e} "
               f"(tolerance {report['holonomy_tol']:.3e})")
    return EXIT_OK if report["integrable"] else EXIT_RESIDUAL


def cmd_reconstruct(args):
    data, alg, base_spinor, base_point, _ = _load_problem(args)
    # before any work: the surface needs a group model with an R^3 mesh
    model = model_for(alg)
    check_r3_embedding(model, model.payload_dim, args.pole)
    problem = KillingProblem(data, alg, base_spinor=base_spinor)
    try:
        F, _, report = reconstruct_immersion(
            problem, base_point=base_point, holonomy_tol=args.holonomy_tol,
            structure_tol=args.structure_tol)
    except NotIntegrableError as err:
        report = dict(err.report)
        report["error"] = str(err)
        dump_json(report, args.output)
        _say(args, f"NOT-INTEGRABLE: {err}")
        return EXIT_RESIDUAL
    report = dict(report)
    _write_surface(args, F, model, report)
    dump_json(report, args.output)
    _say(args, f"isometry error {report['isometry_error']:.3e}, "
               f"|B_F - B| {report['second_fundamental_error']:.3e}")
    return EXIT_OK


def cmd_cmc(args):
    n = _fixture_n(args)
    if n is None:
        data, pot = read_json(args.input, cmc_from_dict)
    elif args.fixture != "cmc-sphere":
        raise InputError("the cmc command knows the fixture 'cmc-sphere'")
    else:
        data, pot = fixtures.cmc_sphere(n)
    _check_loaded(args, data.grid)
    alg = la.unimodular(*pot.mu)
    try:
        model = model_for(alg)
    except ValueError:
        model = None    # no closed-form group model: report only
    if model is not None:    # before any work, as in reconstruct
        check_r3_embedding(model, model.payload_dim, args.pole)
    elif args.pole is not None:
        raise InputError("a projection pole is read only for S^3 surfaces, "
                         "and this potential's group has no model to "
                         "integrate a surface in")
    base, _ = os.path.splitext(args.output)
    f = weier_f_from_g(data, pot)
    pde = gauss_map_pde_residual(data, pot)
    companion = dirac2_residual(data, pot, f)
    xi = xi_from_weierstrass(data, pot, f)
    sres = structure_residual(xi, alg)
    tol = args.structure_tol or structure_tolerance(data.grid)
    report = {
        "pde": field_report(pde, f"{base}.pde.json"),
        "dirac_companion": field_report(companion, f"{base}.companion.json"),
        "structure": field_report(sres, f"{base}.structure.json"),
        "structure_tolerance": tol,
        "pass": bool(np.max(sres) <= tol),
    }
    if model is not None:
        F = darboux_integrate(xi, alg)
        _write_surface(args, F, model, report)
    dump_json(report, args.output)
    _say(args, f"pde {report['pde']['max']:.3e}  "
               f"structure {report['structure']['max']:.3e}")
    return EXIT_OK if report["pass"] else EXIT_RESIDUAL


def cmd_export(args):
    out = args.output or f"surface.{args.format}"
    F, model = read_json(args.input, surface_from_dict)
    export_mesh(F, model, args.format, out, pole=args.pole)
    _say(args, f"wrote {out}")
    return EXIT_OK


# =============================================================================
# Argument parsing
# =============================================================================

class Parser(argparse.ArgumentParser):
    """argparse whose usage errors are input errors (exit 3): its own exit
    code 2 would read as a residual above tolerance."""

    def error(self, message):
        raise InputError(message)


def tolerance(text):
    """The type of the tolerance options: a float > 0, so not NaN."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive; got {text}")
    return value


# Every option of every command; `COMMANDS` says which command takes which.
OPTIONS = {
    "input": {"help": "input JSON path"},
    "--fixture": {"help": "named analytic fixture instead of an input file"},
    "--grid-n": {"type": int,
                 "help": f"fixture grid resolution (default {GRID_N})"},
    "--group": {"required": True, "type": la.catalog_tag,
                "choices": sorted(la.CATALOG),
                "help": "catalog tag, in any case"},
    "--params": {"help": "JSON object of variant parameters"},
    "--tol": {"type": tolerance, "help": "residual tolerance (default 10 h^2; "
                                         "1e-10 for check-algebra)"},
    "--holonomy-tol": {"type": tolerance,
                       "help": "plaquette holonomy tolerance (default 10 h^2)"},
    "--structure-tol": {"type": tolerance,
                        "help": "structure-equation residual tolerance "
                                "(default 10 h^2 max(1, max mu)^2)"},
    "--format": {"choices": FORMATS, "default": "obj",
                 "help": "mesh format (default obj)"},
    "--pole": {"type": float, "nargs": 4, "metavar": ("W", "X", "Y", "Z"),
               "help": "stereographic pole for S^3 meshes"},
}

SOURCE = ("input", "--fixture", "--grid-n")
MESH = ("--format", "--pole")

# name: (function, help, default -o path, the options it reads)
COMMANDS = {
    "catalog": (cmd_catalog, "print a catalog algebra's tables; -o also "
                             "writes its JSON", None, ("--group", "--params")),
    "check-algebra": (cmd_check_algebra, "validate an algebra JSON",
                      "algebra-report.json", ("input", "--tol")),
    "check-frame": (cmd_check_frame, "frame-equation residuals",
                    "report.json", SOURCE + ("--tol",)),
    "check-gcr": (cmd_check_gcr, "Gauss-Codazzi-Ricci residuals",
                  "report.json", SOURCE + ("--tol",)),
    "solve": (cmd_solve, "transport the Killing spinor and report holonomy",
              "solve-report.json", SOURCE + ("--holonomy-tol",)),
    "reconstruct": (cmd_reconstruct, "solve, integrate and export the surface",
                    "reconstruct-report.json",
                    SOURCE + ("--holonomy-tol", "--structure-tol") + MESH),
    "cmc": (cmd_cmc, "run the Weierstrass pipeline on Gauss-map data",
            "cmc-report.json", SOURCE + ("--structure-tol",) + MESH),
    "export": (cmd_export, "convert a saved surface JSON to OBJ/PLY "
                           "(default -o surface.FORMAT)", None,
               ("input",) + MESH),
}


def build_parser():
    parser = Parser(
        prog="spinorforge",
        description="Submanifolds of metric Lie groups through spin geometry")
    parser.add_argument("--schema", choices=sorted(SCHEMAS),
                        help="print a JSON schema and exit")
    sub = parser.add_subparsers(dest="command")
    for name, (_, help_text, output, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-v", "--verbose", action="store_true",
                       help="print a one-line summary")
        p.add_argument("-o", "--output", default=output,
                       help="output path" + (f" (default {output})"
                                             if output else ""))
        for option in options:
            kwargs = OPTIONS[option]
            if option == "input" and "--fixture" in options:
                kwargs = dict(kwargs, nargs="?")    # a fixture replaces it
            p.add_argument(option, **kwargs)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.schema:
            print(json.dumps(SCHEMAS[args.schema], indent=1, sort_keys=True))
            return EXIT_OK
        if not args.command:
            parser.print_help()
            return EXIT_INPUT
        # an overflow or a division by zero is an inf or a NaN, which the
        # gates fail, and not a warning
        with np.errstate(all="ignore"):
            return COMMANDS[args.command][0](args)
    except (SingularPotentialError, IntegrationError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, MemoryError) as err:    # InputError included
        # a MemoryError is an input too large to allocate
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
