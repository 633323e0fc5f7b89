"""Command-line front end.

Commands: catalog, check-algebra, check-frame, check-gcr, solve,
reconstruct, cmc, export.  Each command takes only the options it reads,
as listed in `COMMANDS`.  A command writes only its side files (residual
fields, the spinor, the mesh and surface JSON) and returns (exit code,
report, -v line); `main` judges the -o path before the command runs, then
writes the report to -o and prints the line under -v.  All structured I/O
is JSON against the schemas in `serialization` (print them with --schema);
meshes are OBJ or binary PLY.  Exit codes: 0 success, 2 residual above
tolerance / not integrable, 3 input error (usage errors included), 4
numerical failure.  No option sets a gate: residual fields and the
holonomy are judged at `grid.residual_tolerance` (10 h^2), the structure
equation at `grid.structure_tolerance` and a given gamma at
`lie_algebra.KOSZUL_TOL`, and each report states the value it used.
Malformed input raises `ValueError` wherever it is found, and `main`
reports it as exit 3.  A command names each side file with `_side`, which
rejects a directory, before it writes the first one, so exits 3 and 4 write
no files, unless a write itself fails.  Outputs are deterministic for fixed
inputs.
"""

import argparse
import functools
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
from .serialization import (SCHEMAS, algebra_and_gamma, algebra_from_dict,
                            cmc_from_dict, dump_json, field_report,
                            problem_from_dict, read_json, surface_from_dict,
                            write_surface)
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


# One minimum for every grid command, so that a problem file one command
# accepts the others accept too: the widest reach of any stencil's edge rows
# (the order-4 stencils that every group map is differentiated with).
MIN_GRID_NODES = max(nodes_needed(edges) for _, edges in STENCILS.values())


def _check_grid(args, shape):
    if min(shape) < MIN_GRID_NODES:
        raise ValueError(f"{args.command} needs at least {MIN_GRID_NODES} "
                         f"nodes per axis; got a {shape[0]} x {shape[1]} grid")


def _check_loaded(args, grid):
    """Judge a loaded grid before any work: its size, then its step."""
    _check_grid(args, grid.shape)
    check_step(grid)


def _fixture_n(args):
    """The grid size of args.fixture, or None to read args.input.  Exactly
    one of the two is given, and --grid-n only with --fixture."""
    if args.fixture and args.input:
        raise ValueError(f"{args.command} takes an input file or --fixture, "
                         f"not both")
    if not args.fixture and not args.input:
        raise ValueError(f"{args.command} needs an input file or --fixture")
    if not args.fixture:
        if args.grid_n is not None:
            raise ValueError("--grid-n sizes a fixture; it needs --fixture")
        return None
    n = GRID_N if args.grid_n is None else args.grid_n
    _check_grid(args, (n, n))     # before a fixture divides by n - 1
    return n


def _load_problem(args):
    n = _fixture_n(args)
    if n is None:
        loaded = read_json(args.input, problem_from_dict)
    elif args.fixture not in SURFACE_FIXTURES:
        raise ValueError(f"unknown fixture {args.fixture!r}; known: "
                         f"{sorted(SURFACE_FIXTURES)}")
    else:
        fx = SURFACE_FIXTURES[args.fixture](n)
        loaded = fx.data, fx.alg, None, fx.F[0, 0], fx.extras.get("u_field")
    _check_loaded(args, loaded[0].grid)
    return loaded


def _residual_report(args, data, fields, what):
    """Dump each residual field beside the report and gate the worst one
    at `residual_tolerance`, 10 h^2."""
    tol = residual_tolerance(data.grid)
    paths = {name: _side(args, f"{name}.json") for name in fields}
    report = {"residuals": {name: field_report(fields[name], path)
                            for name, path in paths.items()}}
    # np.max, unlike max(), keeps a NaN worst so that it fails the gate
    worst = float(np.max([r["max"] for r in report["residuals"].values()]))
    report.update({"tolerance": tol, "pass": bool(worst <= tol)})
    return (EXIT_OK if report["pass"] else EXIT_RESIDUAL, report,
            f"{what} residuals max {worst:.3e} vs tolerance {tol:.3e}")


def _check_output(path):
    """Judge -o, which also names the side files, before any work: a file
    in a directory that exists.  None is catalog without -o."""
    if path is None:
        return
    if not path or os.path.isdir(path):
        raise ValueError(f"-o must name a file; got {path!r}")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"-o {path}: no such directory")


def _side(args, suffix):
    """The side file `suffix` beside the report (-o with its extension
    replaced); a directory there is an input error, raised before a write."""
    path = f"{os.path.splitext(args.output)[0]}.{suffix}"
    if os.path.isdir(path):
        raise ValueError(f"cannot write {path}: it is a directory")
    return path


def _surface_paths(args):
    """The mesh and the surface JSON beside the report, as the report
    names them."""
    return {"mesh_path": _side(args, f"surface.{args.format}"),
            "surface_path": _side(args, "surface.json")}


# =============================================================================
# Commands
# =============================================================================

def cmd_catalog(args):
    params = la.CATALOG[args.group][1]
    if args.params:
        try:
            given = json.loads(args.params)
        except json.JSONDecodeError as err:
            raise ValueError(f"--params is not valid JSON: {err}")
        # a non-object is left for the algebra schema to reject
        params = {**params, **given} if isinstance(given, dict) else given
    alg = algebra_from_dict({"tag": args.group, "params": params})
    print(f"{args.group}  (n = {alg.n}, params = "
          f"{json.dumps(params, sort_keys=True)})")
    print("nonzero structure constants [e_i, e_j] = sum c_ijk e_k:")
    for i, j in zip(*np.triu_indices(alg.n, 1)):
        terms = [f"{alg.c[i, j, k]:+g} e{k + 1}" for k in range(alg.n)
                 if alg.c[i, j, k] != 0.0]
        if terms:
            print(f"  [e{i + 1}, e{j + 1}] = {' '.join(terms)}")
    print("nonzero connection coefficients Gamma_ij^k:")
    for i, j, k in np.argwhere(alg.gamma != 0.0):
        print(f"  Gamma[{i + 1},{j + 1}]^{k + 1} = {alg.gamma[i, j, k]:g}")
    return EXIT_OK, la.algebra_to_dict(alg) if args.output else None, None


def cmd_check_algebra(args):
    alg, gamma = read_json(args.input, algebra_and_gamma)
    tol = la.KOSZUL_TOL
    jac = la.jacobi_residual(alg.c)
    compat = float(np.max(np.abs(gamma + np.swapaxes(gamma, 1, 2))))
    koszul_dev = float(np.max(np.abs(alg.gamma - gamma)))
    # torsion T(e_i, e_j) = gamma[i, j] - gamma[j, i] - c[i, j]
    torsion = float(np.max(np.abs(gamma - gamma.swapaxes(0, 1) - alg.c)))
    report = {"jacobi": jac, "metric_compatibility": compat,
              "koszul_deviation": koszul_dev, "torsion": torsion,
              "tolerance": tol,
              "pass": bool(max(jac, compat, koszul_dev, torsion) <= tol)}
    return (EXIT_OK if report["pass"] else EXIT_RESIDUAL, report,
            f"jacobi {jac:.3e}  compat {compat:.3e}  torsion {torsion:.3e}")


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
    spin_path = _side(args, "spinor.json")
    problem = KillingProblem(data, alg, base_spinor=base_spinor)
    field, report = solve_killing(problem)
    dump_json(field.values.reshape(-1).tolist(), spin_path)
    report["spinor_path"] = spin_path
    return (EXIT_OK if report["integrable"] else EXIT_RESIDUAL, report,
            f"holonomy {report['holonomy']:.3e} "
            f"(tolerance {report['holonomy_tol']:.3e})")


def cmd_reconstruct(args):
    data, alg, base_spinor, base_point, _ = _load_problem(args)
    # before any work: the surface needs a group model with an R^3 mesh
    model = model_for(alg)
    check_r3_embedding(model, model.payload_dim, args.pole)
    paths = _surface_paths(args)
    problem = KillingProblem(data, alg, base_spinor=base_spinor)
    try:
        F, _, report = reconstruct_immersion(problem, base_point=base_point)
    except NotIntegrableError as err:
        return (EXIT_RESIDUAL, {**err.report, "error": str(err)},
                f"NOT-INTEGRABLE: {err}")
    write_surface(F, model, paths["surface_path"], args.format,
                  paths["mesh_path"], pole=args.pole)
    report.update(paths)
    return (EXIT_OK, report,
            f"isometry error {report['isometry_error']:.3e}, "
            f"|B_F - B| {report['second_fundamental_error']:.3e}")


def cmd_cmc(args):
    n = _fixture_n(args)
    if n is None:
        data, pot = read_json(args.input, cmc_from_dict)
    elif args.fixture != "cmc-sphere":
        raise ValueError("the cmc command knows the fixture 'cmc-sphere'")
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
        raise ValueError("a projection pole is read only for S^3 surfaces, "
                         "and this potential's group has no model to "
                         "integrate a surface in")
    report = {} if model is None else _surface_paths(args)
    paths = {name: _side(args, f"{name}.json")
             for name in ("pde", "companion", "structure")}
    f = weier_f_from_g(data, pot)
    xi = xi_from_weierstrass(data, pot, f)
    if model is not None:    # first, as its integration or mesh may fail
        F = darboux_integrate(xi, alg)
        write_surface(F, model, report["surface_path"], args.format,
                      report["mesh_path"], pole=args.pole)
    pde = gauss_map_pde_residual(data, pot)
    companion = dirac2_residual(data, pot, f)
    sres = structure_residual(xi, alg)
    tol = structure_tolerance(data.grid)
    report.update({
        "pde": field_report(pde, paths["pde"]),
        "dirac_companion": field_report(companion, paths["companion"]),
        "structure": field_report(sres, paths["structure"]),
        "structure_tolerance": tol,
        "pass": bool(np.max(sres) <= tol),
    })
    return (EXIT_OK if report["pass"] else EXIT_RESIDUAL, report,
            f"pde {report['pde']['max']:.3e}  "
            f"structure {report['structure']['max']:.3e}")


def cmd_export(args):
    F, model = read_json(args.input, surface_from_dict)
    export_mesh(F, model, args.format, args.output, pole=args.pole)
    return EXIT_OK, None, f"wrote {args.output}"


# =============================================================================
# Argument parsing
# =============================================================================

class Parser(argparse.ArgumentParser):
    """argparse whose usage errors are input errors (exit 3): its own exit
    code 2 would read as a residual above tolerance."""

    def error(self, message):
        raise ValueError(message)


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
                      "algebra-report.json", ("input",)),
    "check-frame": (cmd_check_frame, "frame-equation residuals",
                    "report.json", SOURCE),
    "check-gcr": (cmd_check_gcr, "Gauss-Codazzi-Ricci residuals",
                  "report.json", SOURCE),
    "solve": (cmd_solve, "transport the Killing spinor and report holonomy",
              "solve-report.json", SOURCE),
    "reconstruct": (cmd_reconstruct, "solve, integrate and export the surface",
                    "reconstruct-report.json", SOURCE + MESH),
    "cmc": (cmd_cmc, "run the Weierstrass pipeline on Gauss-map data",
            "cmc-report.json", SOURCE + MESH),
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


@functools.cache
def _parser():
    """The process's one `build_parser()`, built on the first `main` and
    not at import: a parse leaves no state in it."""
    return build_parser()


def main(argv=None):
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            # the value argparse gave `input` may be an unknown option's
            given = getattr(args, "input", None)
            i = argv.index(given) if given in argv else 0
            if i and argv[i - 1] in extra:
                extra.insert(extra.index(argv[i - 1]) + 1, given)
            raise ValueError(f"unrecognized arguments: {' '.join(extra)}")
        if args.schema:
            print(json.dumps(SCHEMAS[args.schema], indent=1, sort_keys=True))
            return EXIT_OK
        if not args.command:
            parser.print_help()
            return EXIT_INPUT
        if args.command == "export" and args.output is None:
            args.output = f"surface.{args.format}"
        _check_output(args.output)
        # an overflow or a division by zero is an inf or a NaN, which the
        # gates fail, and not a warning
        with np.errstate(all="ignore"):
            code, report, line = COMMANDS[args.command][0](args)
        if report is not None:
            dump_json(report, args.output)
        if args.verbose and line:
            print(line)
        return code
    except (SingularPotentialError, IntegrationError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, MemoryError) as err:
        # a MemoryError is an input too large to allocate
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
