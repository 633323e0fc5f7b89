"""Record the outputs of a fixed set of CLI runs, and compare a tree with them.

    python3 tools/golden.py --write    # regenerate tests/golden/
    python3 tools/golden.py            # compare this tree with tests/golden/

Run it from the repository root with `src` on PYTHONPATH.  The runs are
check-frame, check-gcr, solve and reconstruct on every surface fixture at
--grid-n 17, and cmc on the cmc-sphere fixture at --grid-n 17, each through
`spinorforge.cli.main` in this process, in an empty directory of its own.
One JSON file per run holds its argv, exit code and stderr text, the grid
spacing h, and the numeric content of every file it wrote, keyed
`FILE:PATH`:

  * each number and bool of a JSON file (a report) as it is;
  * each numeric array (a JSON list, a residual field or spinor file, an
    OBJ file's vertices `v` and faces `f`) as its shape, max and mean, and
    its values at SAMPLES fixed flat indices (all of them when fewer).

`tests/test_golden.py` re-runs every record and holds it to `compare`:
exit codes, stderr, file names, shapes, bools and integers exactly, floats
within the bound of their key's class in `BOUNDS`.  A regeneration that
moves a value is a change of output: name every moved value in CHANGES.md.
Never widen a bound to absorb a change.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden"
GRID_N = 17
COMMANDS = ("check-frame", "check-gcr", "solve", "reconstruct")
SAMPLES = 12
ULP1 = float(np.spacing(1.0))

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
    "companion": ("stencil", 8), "dirac_companion": ("stencil", 8),
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


def runs():
    """(name, argv) of every golden run, in a fixed order."""
    from spinorforge.cli import SURFACE_FIXTURES
    grid = ["--grid-n", str(GRID_N)]
    out = [(f"{fixture}.{command}",
            [command, "--fixture", fixture] + grid)
           for fixture in sorted(SURFACE_FIXTURES) for command in COMMANDS]
    out.append(("cmc-sphere.cmc", ["cmc", "--fixture", "cmc-sphere"] + grid))
    return out


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


def _is_number(x):
    return isinstance(x, (int, float))     # bool included


def _leaves(obj, path, out):
    """The numeric leaves of decoded JSON into out, keyed by dotted path;
    a list of numbers (nested or not) is one array leaf."""
    if _is_number(obj):
        out[path] = obj
    elif isinstance(obj, dict):
        for key in sorted(obj):
            _leaves(obj[key], f"{path}.{key}" if path else key, out)
    elif isinstance(obj, list) and obj:
        values = np.asarray(obj)
        if values.dtype.kind in "if":
            out[path] = _array_summary(values)
        else:
            for i, item in enumerate(obj):
                _leaves(item, f"{path}.{i}", out)


def _obj_leaves(text, out):
    rows = {"v": [], "f": []}
    for line in text.splitlines():
        kind, _, rest = line.partition(" ")
        if kind in rows:
            rows[kind].append([float(w) if kind == "v" else int(w)
                               for w in rest.split()])
    for kind, values in rows.items():
        out[kind] = _array_summary(np.asarray(values))


def file_values(path):
    """The numeric content of one written file, keyed by path within it."""
    out = {}
    if path.suffix == ".json":
        _leaves(json.loads(path.read_text()), "", out)
    elif path.suffix == ".obj":
        _obj_leaves(path.read_text(), out)
    else:
        raise ValueError(f"no reader for the golden output {path.name}")
    return out


def record(argv, workdir):
    """Run argv -o out.json through the CLI in the empty directory workdir;
    its record."""
    from spinorforge.cli import main
    workdir = Path(workdir)
    err = io.StringIO()
    with contextlib.chdir(workdir), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv + ["-o", "out.json"])
    values = {}
    for path in sorted(workdir.iterdir()):
        for key, value in file_values(path).items():
            values[f"{path.name}:{key}"] = value
    return {"argv": argv, "exit": code, "stderr": err.getvalue(),
            "h": spacing(argv), "files": sorted(p.name for p in
                                                workdir.iterdir()),
            "values": values}


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
                                 theta_x=_ulp_noise(d.theta_x, rng),
                                 theta_y=_ulp_noise(d.theta_y, rng))
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


def main(argv=None):
    import tempfile
    argv = sys.argv[1:] if argv is None else argv
    if argv not in ([], ["--write"], ["--measure"]):
        print("usage: python3 tools/golden.py [--write | --measure]",
              file=sys.stderr)
        return 3
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        if argv == ["--measure"]:
            for q, move in sorted(measure(tmp).items()):
                unit, multiple = BOUNDS[q]
                print(f"{q:26s} {unit:8s} largest move {move:9.3g}, "
                      f"bound {multiple:g}")
            return 0
        GOLDEN.mkdir(parents=True, exist_ok=True)
        for name, run_argv in runs():
            workdir = Path(tmp) / name
            workdir.mkdir()
            got = record(run_argv, workdir)
            if argv == ["--write"]:
                golden_path(name).write_text(
                    json.dumps(got, indent=1, sort_keys=True) + "\n")
                continue
            faults = compare(json.loads(golden_path(name).read_text()), got)
            failed += bool(faults)
            for line in faults:
                print(f"{name}: {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
