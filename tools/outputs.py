"""Record what the CLI writes, and compare it.

    python3 tools/outputs.py                   # check against tests/golden/
    python3 tools/outputs.py --write           # regenerate tests/golden/
    python3 tools/outputs.py --measure         # the moves behind BOUNDS
    python3 tools/outputs.py --digest SRC OUT  # list a sweep's outputs
    python3 tools/outputs.py --compare OUT_A OUT_B

Run the first three from the repository root with `src` on PYTHONPATH.
Every CLI run is `spinorforge.cli.main` in this process (`run_cli`), in a
working directory of its own; the runs on a fixture come from one table
(`fixture_runs`), and one reader (`leaves`) reads every output file.

Golden records (`runs`, `record`): check-frame, check-gcr, solve and
reconstruct on every surface fixture, and cmc on cmc-sphere, at --grid-n
17.  `tests/test_golden.py` re-runs every record and holds it to
`compare`: exit codes, stderr, file names, shapes, bools and integers
exactly, floats within the bound of their quantity in `BOUNDS`.  A
regeneration that moves a value is a change of output: name every moved
value in CHANGES.md.  Never widen a bound to absorb a change.

The digest sweep: `--digest SRC OUT` imports the package from SRC, the
`src` directory of a checkout (exit 3 when it cannot), and runs
`full_sweep_runs`, then `follow_up_runs`, in the new directory OUT, so
every path a run names is relative.  It prints one line per run, `run EXIT SHA(stdout) SHA(stderr)
ARGV`, with OUT masked, then one line per file in OUT, `file SHA PATH`, in
sorted order, then the `converse_lines` of the library converse, which no
command runs, at 17 and 33 nodes and then at 9, saving its outputs in
OUT/converse.  Two checkouts that compute the same outputs give
byte-identical listings, and so does one checkout run twice.  An exception
that escapes `main` is a defect: it stops the sweep (exit 1) and names the
argv.  `--compare` sizes what moved between two such directories
(`compare_dirs`).
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden"
GRID_N = 17                 # the golden runs' grid size
GRID_SIZES = (17, 33)       # the sweep's
COMMANDS = ("check-frame", "check-gcr", "solve", "reconstruct")
FILE_SIZE = 17
FILE_COMMANDS = ("solve", "reconstruct")
POLE = ["--pole", "0", "0", "0", "1"]
SAMPLES = 12
ULP1 = float(np.spacing(1.0))


# =============================================================================
# The run table and the runner
# =============================================================================

def fixture_runs(fixtures, sizes, commands=COMMANDS):
    """`COMMAND --fixture NAME --grid-n N` for every fixture name, size and
    command, in that order of nesting."""
    return [[command, "--fixture", name, "--grid-n", str(n)]
            for name in fixtures for n in sizes for command in commands]


def runs():
    """(name, argv) of every golden run, in a fixed order."""
    from spinorforge.cli import SURFACE_FIXTURES
    table = (fixture_runs(sorted(SURFACE_FIXTURES), (GRID_N,))
             + fixture_runs(["cmc-sphere"], (GRID_N,), ("cmc",)))
    return [(f"{argv[2]}.{argv[0]}", argv) for argv in table]


def grid_runs(fixtures, sizes=GRID_SIZES, commands=COMMANDS):
    """The argv of every grid-command run of the sweep on the fixtures."""
    return [argv + ["-v", "-o", f"{argv[2]}-{argv[4]}.{argv[0]}.json"]
            for argv in fixture_runs(fixtures, sizes, commands)]


def run_cli(argv, workdir):
    """`spinorforge.cli.main(argv)` in this process with workdir as the
    working directory: (exit code, stdout, stderr).  A warning is shown on
    every run, as in a fresh interpreter."""
    from spinorforge.cli import main
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err), warnings.catch_warnings():
            code = main(argv)
    finally:
        os.chdir(home)
    return code, out.getvalue(), err.getvalue()


def _json_leaves(node, path, out):
    """The numbers and bools of decoded JSON into out, keyed by dotted path;
    a list of numbers (nested or not) is one array."""
    if isinstance(node, (int, float)):     # bool included
        out[path] = node
    elif isinstance(node, dict):
        for key, child in node.items():
            _json_leaves(child, f"{path}.{key}" if path else key, out)
    elif isinstance(node, list) and node:
        try:
            values = np.asarray(node)
        except ValueError:                 # ragged
            values = None
        if values is not None and values.dtype.kind in "if":
            out[path] = values
        else:
            for i, child in enumerate(node):
                _json_leaves(child, f"{path}.{i}", out)


def leaves(path):
    """The numbers of an output file in file order, keyed by their path
    within it, each a number, a bool or a numeric array: a JSON document's
    (see `_json_leaves`), an OBJ file's vertices `v` and faces `f`, a PLY
    file's vertex doubles `v` and a `.npy` array (key ""); None for any
    other file."""
    path = Path(path)
    out = {}
    if path.suffix == ".json":
        _json_leaves(json.loads(path.read_text()), "", out)
    elif path.suffix == ".obj":
        rows = {"v": [], "f": []}
        for line in path.read_text().splitlines():
            kind, _, rest = line.partition(" ")
            if kind in rows:
                rows[kind].append([float(w) if kind == "v" else int(w)
                                   for w in rest.split()])
        out = {kind: np.asarray(values) for kind, values in rows.items()}
    elif path.suffix == ".ply":     # as meshexport writes it: x, y, z doubles
        data = path.read_bytes()
        end = data.index(b"end_header\n") + len(b"end_header\n")
        count = next(int(line.split()[-1]) for line in
                     data[:end].decode("ascii").splitlines()
                     if line.startswith("element vertex "))
        out["v"] = np.frombuffer(data, "<f8", 3 * count, end).reshape(-1, 3)
    elif path.suffix == ".npy":
        out[""] = np.load(path)
    else:
        return None
    return out


def file_numbers(path):
    """The numbers `--compare` sizes, in file order, as floats: those of
    `leaves` but the bools and an OBJ file's face indices; None for a file
    `leaves` does not read."""
    path = Path(path)
    found = leaves(path)
    if found is None:
        return None
    return [float(x) for key, value in found.items()
            if not isinstance(value, bool)
            and not (path.suffix == ".obj" and key == "f")
            for x in np.ravel(value).tolist()]


# =============================================================================
# Golden records and their bounds
# =============================================================================

# The bound of a float, by the quantity it measures: (unit, multiple).  The
# units, for a value w at spacing h:
#   "ulp"      ulp(|w|): values no stencil or march touches (tolerances);
#   "march"    ulp(1)/h max(1, |w|): products along a march of ~1/h steps
#              (the transported spinor, the Darboux-integrated surface);
#   "stencil"  ulp(1)/h^2 max(1, |w|): values that difference stencils
#              divide by h or h^2 (every residual, holonomy and verification
#              error);
#   "absolute" a plain bound: values made of rounding noise alone.
# Each multiple is the smallest power of two, at least 4, that is at least
# twice the largest move of the quantity that `--measure` finds over all
# runs (rounding every input entry of the fixture up, down or not by one
# ulp, four times).
BOUNDS = {
    "tolerance": ("ulp", 4), "holonomy_tol": ("ulp", 4),
    "structure_tol": ("ulp", 4), "structure_tolerance": ("ulp", 8),
    "A": ("ulp", 4),
    "spinor": ("march", 4), "payload": ("march", 4), "v": ("march", 4),
    "tangent": ("stencil", 4), "normal": ("stencil", 4),
    "structure_field": ("stencil", 4), "codazzi": ("stencil", 4),
    "ricci": ("stencil", 4), "normal_connection_error": ("stencil", 4),
    "holonomy": ("stencil", 8), "structure": ("stencil", 16),
    "structure_max": ("stencil", 8), "pde": ("stencil", 8),
    "companion": ("stencil", 8), "dirac_companion": ("stencil", 4),
    "isometry_error": ("stencil", 16),
    "second_fundamental_error": ("stencil", 32), "gauss": ("stencil", 128),
    # the unit drift of the transport: measured moves below 6e-16, values
    # below 2.2e-15 at --grid-n 17 and below 1.6e-14 up to --grid-n 257
    "renorm_drift": ("absolute", 1e-14),
}
UNITS = {
    "ulp": lambda w, h: float(np.spacing(abs(w))),
    "march": lambda w, h: ULP1 / h * max(1.0, abs(w)),
    "stencil": lambda w, h: ULP1 / h ** 2 * max(1.0, abs(w)),
    "absolute": lambda w, h: 1.0,
}


def quantity(key):
    """The quantity a value key names: the last part of its path within
    the file, past a report field's max or mean, or else the file's middle
    name (out.gauss.json: is "gauss")."""
    name, _, path = key.partition(":")
    if not path:
        return name.split(".")[1]
    parts = path.split(".")
    if parts[-1] in ("max", "mean") and len(parts) > 1:
        parts.pop()
    return parts[-1]


def bound(key, want, h):
    unit, multiple = BOUNDS[quantity(key)]
    return multiple * UNITS[unit](want, h)


def spacing(argv):
    """The grid spacing h of a golden run's fixture."""
    from spinorforge import fixtures
    from spinorforge.cli import SURFACE_FIXTURES
    name = argv[argv.index("--fixture") + 1]
    if name == "cmc-sphere":
        return fixtures.cmc_sphere(GRID_N)[0].grid.h
    return SURFACE_FIXTURES[name](GRID_N).grid.h


def _array_summary(values):
    flat = values.reshape(-1)
    if flat.size <= SAMPLES:
        return {"shape": list(values.shape), "values": flat.tolist()}
    at = np.linspace(0, flat.size - 1, SAMPLES).round().astype(int)
    return {"shape": list(values.shape), "max": flat.max().item(),
            "mean": flat.mean().item(), "sample": flat[at].tolist()}


def record(argv, workdir):
    """Run argv -o out.json through the CLI in the empty directory workdir.
    Its record holds the argv, exit code and stderr text, the grid spacing
    h, and the numbers of every written file, keyed `FILE:PATH`: each
    number and bool as it is, each array (a JSON list, a residual field or
    spinor file, an OBJ file's `v` and `f`) as its shape, max and mean, and
    its values at SAMPLES fixed flat indices (all of them when fewer)."""
    code, _, err = run_cli(argv + ["-o", "out.json"], workdir)
    written = sorted(Path(workdir).iterdir())
    values = {}
    for path in written:
        found = leaves(path)
        if found is None:
            raise ValueError(f"no reader for the golden output {path.name}")
        values.update({f"{path.name}:{key}": _array_summary(value)
                       if isinstance(value, np.ndarray) else value
                       for key, value in found.items()})
    return {"argv": argv, "exit": code, "stderr": err, "h": spacing(argv),
            "files": [path.name for path in written], "values": values}


def _same(want, got):
    return want == got or (isinstance(want, float) and isinstance(got, float)
                           and math.isnan(want) and math.isnan(got))


def _float_faults(key, part, want, got, h):
    """Where the floats got differ from want beyond the key's bound."""
    faults = []
    for i, (w, g) in enumerate(zip(want, got)):
        if not _same(w, g) and not abs(g - w) <= bound(key, w, h):
            faults.append(f"{key}{part}[{i}]: {g!r} against {w!r}, off by "
                          f"{abs(g - w):.3g} > {bound(key, w, h):.3g}")
    return faults


def _integers(summary):
    """Whether an array summary is of an integer array (OBJ faces, argmax)."""
    return isinstance(summary.get("max", summary.get("values", [0.0])[0]),
                      int)


def _summary_faults(key, want, got, h):
    if set(want) != set(got) or want["shape"] != got["shape"]:
        return [f"{key}: shape {got.get('shape')} against {want['shape']}"]
    if _integers(want):
        return [] if want == got else [f"{key}: {got} against {want}"]
    faults = []
    for part, w in want.items():
        if part != "shape":
            w, g = (w, got[part]) if part in ("sample", "values") \
                else ([w], [got[part]])
            faults += _float_faults(key, f".{part}", w, g, h)
    return faults


def compare(want, got):
    """Every difference of the record got from the golden record want that
    exceeds its bound, as lines; empty when got matches."""
    faults = [f"{field}: {got[field]!r} against {want[field]!r}"
              for field in ("argv", "exit", "stderr", "files")
              if got[field] != want[field]]
    h = want["h"]
    wv, gv = want["values"], got["values"]
    faults += [f"{key}: missing" for key in sorted(set(wv) - set(gv))]
    faults += [f"{key}: not recorded" for key in sorted(set(gv) - set(wv))]
    for key in sorted(set(wv) & set(gv)):
        w, g = wv[key], gv[key]
        if isinstance(w, dict) and isinstance(g, dict):
            faults += _summary_faults(key, w, g, h)
        elif isinstance(w, dict) or isinstance(g, dict):
            faults.append(f"{key}: {g!r} against {w!r}")
        elif isinstance(w, float) and isinstance(g, float):
            faults += _float_faults(key, "", [w], [g], h)
        elif type(w) is not type(g) or w != g:        # ints and bools
            faults.append(f"{key}: {g!r} against {w!r}")
    return faults


def golden_path(name):
    return GOLDEN / f"{name}.json"


# =============================================================================
# --measure: how far rounding noise in the inputs moves each quantity
# =============================================================================

def _ulp_noise(x, rng):
    """x with each entry rounded up, down or not by one ulp, at random."""
    x = np.asarray(x, dtype=np.float64)
    step = rng.integers(-1, 2, size=x.shape)
    return np.where(step > 0, np.nextafter(x, np.inf),
                    np.where(step < 0, np.nextafter(x, -np.inf), x))


@contextlib.contextmanager
def _noisy_fixtures(rng):
    """Every fixture the golden runs read, with ulp noise in each input
    entry: mu, frames, B, theta, the base point and u_field, or g."""
    from spinorforge import cli, fixtures
    from spinorforge.cmc import WeierstrassData
    from spinorforge.fixtures import SurfaceFixture
    from spinorforge.grid import ParamGrid
    from spinorforge.immersion import ImmersionData

    def grid_of(g):
        return ParamGrid(g.nx, g.ny, g.h, mu=_ulp_noise(g.mu, rng),
                         x0=g.x0, y0=g.y0)

    def surface(make):
        def noisy(n):
            fx = make(n)
            d = fx.data
            data = ImmersionData(grid_of(d.grid), _ulp_noise(d.frames, rng),
                                 B=_ulp_noise(d.B, rng),
                                 theta_x=_ulp_noise(d.theta[:, :, 0], rng),
                                 theta_y=_ulp_noise(d.theta[:, :, 1], rng))
            extras = {k: _ulp_noise(v, rng) if k == "u_field" else v
                      for k, v in fx.extras.items()}
            return SurfaceFixture(fx.alg, data, _ulp_noise(fx.F, rng), extras)
        return noisy

    def cmc(n):
        data, pot = cmc_sphere(n)
        g = _ulp_noise(data.g.real, rng) + 1j * _ulp_noise(data.g.imag, rng)
        return WeierstrassData(grid_of(data.grid), g), pot

    surfaces, cmc_sphere = dict(cli.SURFACE_FIXTURES), fixtures.cmc_sphere
    cli.SURFACE_FIXTURES.update({k: surface(v) for k, v in surfaces.items()})
    fixtures.cmc_sphere = cmc
    try:
        yield
    finally:
        cli.SURFACE_FIXTURES.update(surfaces)
        fixtures.cmc_sphere = cmc_sphere


def _floats(values):
    """(key, float) for every float of a record's values."""
    for key, value in values.items():
        if isinstance(value, dict) and not _integers(value):
            for part, w in value.items():
                for x in (w if isinstance(w, list) else [w]):
                    if isinstance(x, float):
                        yield key, x
        elif isinstance(value, float):
            yield key, value


def measure(tmp, repeats=4, seed=7):
    """The largest move of each quantity over every run and `repeats`
    noisy inputs, in the unit of its bound: {quantity: move}."""
    rng = np.random.default_rng(seed)
    worst = {}
    for name, argv in runs():
        (Path(tmp) / name).mkdir()
        want = record(argv, Path(tmp) / name)
        for i in range(repeats):
            (Path(tmp) / f"{name}.{i}").mkdir()
            with _noisy_fixtures(rng):
                got = record(argv, Path(tmp) / f"{name}.{i}")
            for (key, w), (_, g) in zip(_floats(want["values"]),
                                        _floats(got["values"])):
                q = quantity(key)
                move = 0.0 if _same(w, g) else abs(g - w)
                unit = UNITS[BOUNDS[q][0]](w, want["h"])
                worst[q] = max(worst.get(q, 0.0), move / unit)
    return worst


# =============================================================================
# The digest sweep
# =============================================================================

def _sha(data):
    return hashlib.sha256(data).hexdigest()


def catalog_runs(tags):
    return [["catalog", "--group", tag, "-o", f"algebra-{tag}.json"]
            for tag in tags]


LEAK_SIZE = 9
LEAK_DIR = "existing-dir"
# command: (fixture, the side file that is made a directory)
SIDE_DIRS = {"check-gcr": ("sphere-r3", "codazzi.json"),
             "reconstruct": ("sphere-r3", "surface.json"),
             "cmc": ("cmc-sphere", "structure.json")}


def leak_runs(out):
    """Runs that exit 3 or 4 and must write no file, so a leaked file shows
    up as a `file` line: cmc on the cmc-sphere Gauss map at LEAK_SIZE with
    g[2][3][0] = 1e300 (the Darboux integration diverges), and with the S^3
    potential mu = (1, 1, 1) projected from the pole (1, 0, 0, 0), which
    the surface touches (both files written to out with `cmc_to_dict`);
    check-gcr and reconstruct with -o '' and with -o LEAK_DIR, a directory
    made in out; each SIDE_DIRS command on its fixture with -o
    COMMAND-side.json, whose side file SIDE_DIRS names is a directory made
    in out."""
    from spinorforge.cmc import HPotential
    from spinorforge.fixtures import cmc_sphere
    from spinorforge.serialization import cmc_to_dict
    n = LEAK_SIZE
    data, pot = cmc_sphere(n)
    diverging = cmc_to_dict(data, pot)
    diverging["g"][2][3][0] = 1e300
    runs = [["cmc", _write(out, f"{name}-{n}.cmc-input.json", blob), *pole,
             "-v", "-o", f"{name}-{n}.leak-cmc.json"]
            for name, blob, pole in (
                ("cmc-diverging", diverging, []),
                ("cmc-s3-pole",
                 cmc_to_dict(data, HPotential(1.0, (1.0, 1.0, 1.0))),
                 ["--pole", "1", "0", "0", "0"]))]
    (Path(out) / LEAK_DIR).mkdir(exist_ok=True)
    runs += [argv + ["-v", "-o", output] for argv in
             fixture_runs(["sphere-r3"], (n,), ("check-gcr", "reconstruct"))
             for output in ("", LEAK_DIR)]
    for command, (fixture, side) in SIDE_DIRS.items():
        (Path(out) / f"{command}-side.{side}").mkdir(exist_ok=True)
        runs += [argv + ["-v", "-o", f"{command}-side.json"]
                 for argv in fixture_runs([fixture], (n,), (command,))]
    return runs


def follow_up_runs(out):
    """check-algebra on every written algebra and export of every written
    surface, in sorted order of the files."""
    out = Path(out)
    runs = [["check-algebra", path.name, "-v",
             "-o", f"{path.stem}.check-algebra.json"]
            for path in sorted(out.glob("algebra-*.json"))]
    runs += [["export", path.name, "--format", "ply", "-v",
              "-o", path.name[:-len(".json")] + ".export.ply"]
             for path in sorted(out.glob("*.surface.json"))
             if path.is_file()]     # not a SIDE_DIRS directory
    return runs


def run(out, argv):
    """One CLI run in out: its listing line."""
    try:
        code, stdout, stderr = run_cli(argv, out)
    except Exception as err:
        raise RuntimeError(f"an exception escaped spinorforge.cli.main on "
                           f"{' '.join(argv)}") from err
    mask = str(Path(out).resolve())
    stdout, stderr = (text.replace(mask, "OUT").encode()
                      for text in (stdout, stderr))
    return f"run {code} {_sha(stdout)} {_sha(stderr)} {' '.join(argv)}"


def file_lines(out):
    out = Path(out)
    return [f"file {_sha(path.read_bytes())} {path.relative_to(out)}"
            for path in sorted(out.rglob("*")) if path.is_file()]


def check_package(src):
    """Raise ImportError unless this process imports spinorforge from src."""
    import spinorforge
    found = Path(spinorforge.__file__).resolve().parents[1]
    if found != Path(src).resolve():
        raise ImportError(f"spinorforge is imported from {found}, not {src}")


def sweep(src, out, runs):
    """Run `runs` in out with the package from src, then the follow-up runs
    on what they wrote; returns the listing lines."""
    check_package(src)
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    lines = [run(out, argv) for argv in runs]
    lines += [run(out, argv) for argv in follow_up_runs(out)]
    return lines + file_lines(out)


def converse_lines(fixtures, sizes=GRID_SIZES, save=None):
    """Digest the converse `spinor_of_immersion` of each fixture's immersion
    at each size: its spinor values, frames, mu, B and theta as raw float
    bytes, one line `converse SHA NAME-N PART` each; a converse that fails
    is one line `converse error SHA(message) NAME-N`.  With a directory
    `save`, each part is also written there as NAME-N.PART.npy, for
    `--compare`."""
    from spinorforge.spinor import spinor_of_immersion
    if save is not None:
        Path(save).mkdir(parents=True, exist_ok=True)
    lines = []
    for name, make in fixtures.items():
        for n in sizes:
            fx = make(n)
            try:
                field, data = spinor_of_immersion(fx.F, fx.alg, fx.data.grid)
            except (ValueError, RuntimeError) as err:
                lines.append(f"converse error {_sha(str(err).encode())} "
                             f"{name}-{n}")
                continue
            parts = {"values": field.values, "frames": data.frames,
                     "mu": data.grid.mu, "B": data.B,
                     "theta_x": data.theta[:, :, 0],
                     "theta_y": data.theta[:, :, 1]}
            lines += [f"converse {_sha(array.tobytes())} {name}-{n} {part}"
                      for part, array in parts.items()]
            if save is not None:
                for part, array in parts.items():
                    np.save(Path(save) / f"{name}-{n}.{part}.npy", array)
    return lines


def _write(out, name, blob):
    """Write the JSON blob to out as name; name."""
    from spinorforge.serialization import dump_json
    dump_json(blob, Path(out) / name)
    return name


def full_sweep_runs(out):
    """The runs of the sweep on the fixtures and catalog tags of the
    imported package, in order; writes the files they read to out:

      * check-frame, check-gcr, solve and reconstruct, each with -v, on
        every surface fixture at --grid-n 17 and 33;
      * solve and reconstruct, each with -v, on a problem file of every
        surface fixture at FILE_SIZE, with its own base point;
      * export to OBJ from the pole (0, 0, 0, 1) of every S^3 surface JSON
        those reconstruct runs write;
      * cmc on the cmc-sphere fixture, and with -v on a file of its Gauss
        map at FILE_SIZE, once with its own potential and once with the
        S^3 potential mu = (1, 1, 1), projected from the pole (0, 0, 0, 1);
      * reconstruct --format ply, with -v, on every surface fixture at
        FILE_SIZE, and again from the pole (0, 0, 0, 1) on the S^3 ones;
        cmc --format ply on the cmc-sphere fixture and on both cmc files;
      * catalog -o for every catalog tag, then the `leak_runs`."""
    from spinorforge import cli, lie_algebra
    from spinorforge.cmc import HPotential
    from spinorforge.fixtures import cmc_sphere
    from spinorforge.serialization import cmc_to_dict, problem_to_dict
    fixtures = dict(sorted(cli.SURFACE_FIXTURES.items()))
    n = FILE_SIZE
    s3 = [name for name, make in fixtures.items()
          if make(n).model.name == "s3"]
    Path(out).mkdir(parents=True, exist_ok=True)
    runs = grid_runs(fixtures)
    for name, make in fixtures.items():
        fx = make(n)
        path = _write(out, f"{name}-{n}.problem.json", problem_to_dict(
            fx.data, fx.alg, base_point=fx.F[0, 0]))
        runs += [[command, path, "-v", "-o", f"{name}-{n}.file-{command}.json"]
                 for command in FILE_COMMANDS]
    surfaces = ([f"{name}-{size}.reconstruct.surface.json"
                 for name in s3 for size in GRID_SIZES]
                + [f"{name}-{n}.file-reconstruct.surface.json" for name in s3])
    runs += [["export", path, *POLE, "-v",
              "-o", path[:-len(".json")] + ".pole.obj"] for path in surfaces]
    runs.append(["cmc", "--fixture", "cmc-sphere", "-v", "-o", "cmc.json"])
    data, pot = cmc_sphere(n)
    cmc_files = [(_write(out, f"{name}-{n}.cmc-input.json",
                         cmc_to_dict(data, potential)), name, pole)
                 for name, potential, pole in (
                     ("cmc-sphere", pot, []),
                     ("cmc-s3", HPotential(1.0, (1.0, 1.0, 1.0)), POLE))]
    runs += [["cmc", path, *pole, "-v", "-o", f"{name}-{n}.file-cmc.json"]
             for path, name, pole in cmc_files]
    for argv in fixture_runs(fixtures, (n,), ("reconstruct",)):
        name = argv[2]
        runs.append(argv + ["--format", "ply", "-v",
                            "-o", f"{name}-{n}.ply-reconstruct.json"])
        if name in s3:
            runs.append(argv + ["--format", "ply", *POLE, "-v",
                                "-o", f"{name}-{n}.ply-pole-reconstruct.json"])
    runs.append(["cmc", "--fixture", "cmc-sphere", "--format", "ply", "-v",
                 "-o", "cmc-ply.json"])
    runs += [["cmc", path, *pole, "--format", "ply", "-v",
              "-o", f"{name}-{n}.ply-file-cmc.json"]
             for path, name, pole in cmc_files]
    return runs + catalog_runs(sorted(lie_algebra.CATALOG)) + leak_runs(out)


def digest(src, out):
    """--digest: the listing of the full sweep with the package from src."""
    sys.path.insert(0, str(Path(src).resolve()))
    try:
        check_package(src)
    except ImportError as err:
        print(f"outputs.py --digest: {err}", file=sys.stderr)
        return 3
    from spinorforge import cli
    lines = sweep(src, out, full_sweep_runs(out))
    fixtures = dict(sorted(cli.SURFACE_FIXTURES.items()))
    lines += converse_lines(fixtures, save=Path(out) / "converse")
    # last, so that the lines before keep their places: at 9 nodes the
    # edge stencils are most of the grid
    lines += converse_lines(fixtures, sizes=(9,), save=Path(out) / "converse")
    for line in lines:
        print(line)
    return 0


def compare_dirs(out_a, out_b):
    """The lines of `--compare`, one per file that differs between the
    output directories out_a and out_b, in sorted order of the paths:
    `moved DELTA PATH`, the largest |difference| of the two files' numbers
    (exact: the shortest repr of the float); `count N_A N_B PATH` when they
    hold different numbers of values; `differs PATH` when their numbers are
    equal (a bool, a string or an OBJ face moved); `unread PATH` for a file
    `leaves` does not read; `only DIR PATH` for a file in one alone."""
    out_a, out_b = Path(out_a), Path(out_b)

    def files(out):
        return {path.relative_to(out) for path in out.rglob("*")
                if path.is_file()}
    in_a, in_b = files(out_a), files(out_b)
    lines = []
    for rel in sorted(in_a | in_b):
        if rel not in in_a or rel not in in_b:
            lines.append(f"only {out_a if rel in in_a else out_b} {rel}")
            continue
        a, b = out_a / rel, out_b / rel
        if a.read_bytes() == b.read_bytes():
            continue
        xa, xb = file_numbers(a), file_numbers(b)
        if xa is None:
            lines.append(f"unread {rel}")
        elif len(xa) != len(xb):
            lines.append(f"count {len(xa)} {len(xb)} {rel}")
        else:
            xa, xb = np.array(xa), np.array(xb)
            with np.errstate(invalid="ignore"):     # inf - inf
                delta = np.where((xa == xb) | (np.isnan(xa) & np.isnan(xb)),
                                 0.0, np.abs(xa - xb))
            moved = float(np.max(delta, initial=0.0))
            lines.append(f"moved {moved!r} {rel}" if moved
                         else f"differs {rel}")
    return lines


USAGE = """\
usage: python3 tools/outputs.py [--write | --measure]
       python3 tools/outputs.py --digest SRC OUT
       python3 tools/outputs.py --compare OUT_A OUT_B"""


def golden(mode):
    """Check this tree against tests/golden/ (mode None), --write or
    --measure."""
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        if mode == "--measure":
            for q, move in sorted(measure(tmp).items()):
                unit, multiple = BOUNDS[q]
                print(f"{q:26s} {unit:8s} largest move {move:9.3g}, "
                      f"bound {multiple:g}")
            return 0
        GOLDEN.mkdir(parents=True, exist_ok=True)
        for name, argv in runs():
            workdir = Path(tmp) / name
            workdir.mkdir()
            got = record(argv, workdir)
            if mode == "--write":
                golden_path(name).write_text(
                    json.dumps(got, indent=1, sort_keys=True) + "\n")
                continue
            faults = compare(json.loads(golden_path(name).read_text()), got)
            failed += bool(faults)
            for line in faults:
                print(f"{name}: {line}")
    return 1 if failed else 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv in ([], ["--write"], ["--measure"]):
        return golden(argv[0] if argv else None)
    if len(argv) == 3 and argv[0] == "--digest":
        return digest(*argv[1:])
    if len(argv) == 3 and argv[0] == "--compare":
        for line in compare_dirs(*argv[1:]):
            print(line)
        return 0
    print(USAGE, file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
