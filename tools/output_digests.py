"""Digest every output of a fixed sweep of CLI runs, to compare two trees.

    python3 tools/output_digests.py SRC OUT > listing.txt

SRC is the `src` directory of a checkout and OUT a new output directory.
Each run is a fresh `python -m spinorforge.cli` with PYTHONPATH set to SRC
and OUT as its working directory, so every path it names is relative.
The sweep is:

  * check-frame, check-gcr, solve and reconstruct, each with -v, on every
    surface fixture at --grid-n 17 and 33;
  * solve and reconstruct, each with -v, on a problem file of every surface
    fixture at --grid-n 17, written with SRC's `problem_to_dict` and the
    fixture's own base point (the file is listed too);
  * export to OBJ from the pole (0, 0, 0, 1) of every S^3 surface JSON
    the reconstruct runs above write;
  * cmc on the cmc-sphere fixture;
  * cmc, with -v, on a file of the cmc-sphere Gauss map at --grid-n 17,
    written with SRC's `cmc_to_dict`, once with the fixture's potential and
    once with the S^3 potential mu = (1, 1, 1), projected from the pole
    (0, 0, 0, 1) (both files are listed too);
  * reconstruct --format ply, with -v, on every surface fixture at
    --grid-n 17, and again from the pole (0, 0, 0, 1) on the S^3 ones;
    cmc --format ply on the cmc-sphere fixture and on both cmc files;
  * catalog -o for every catalog tag, then check-algebra on each algebra
    file written;
  * runs that must write no file: cmc on two files of the cmc-sphere Gauss
    map at --grid-n 9 whose surface fails (see `leak_runs`), check-gcr
    and reconstruct with -o '' and with -o an existing directory, and
    check-gcr, reconstruct and cmc with one side file an existing directory;
  * export to PLY of every surface JSON written;
  * the library converse `spinor_of_immersion`, which no command runs, on
    every surface fixture at --grid-n 17 and 33, in this process with
    SRC's package.

The listing has one line per run, `run EXIT SHA(stdout) SHA(stderr) ARGV`,
with OUT masked in stdout and stderr, then one line per file in OUT,
`file SHA PATH`, in sorted order, then one line per converse output,
`converse SHA NAME-N PART`.  Two checkouts that compute the same outputs
give byte-identical listings, and so does one checkout run twice.  After
the files are listed, each converse output is also saved as
OUT/converse/NAME-N.PART.npy, for `--compare`.

    python3 tools/output_digests.py --compare OUT_A OUT_B

sizes what moved between two such output directories.  For each file whose
bytes differ it prints `moved DELTA PATH`, the largest |difference| of the
two files' numbers (exact: the shortest repr of the float), or
`count N_A N_B PATH` when they hold different numbers of values.  Numbers
are read as JSON numbers in document order, OBJ `v` coordinates, PLY
vertex doubles and the entries of a `.npy` array; another differing file
is `unread PATH`, and a file in one directory alone is `only DIR PATH`.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

GRID_SIZES = (17, 33)
GRID_COMMANDS = ("check-frame", "check-gcr", "solve", "reconstruct")
FILE_SIZE = 17
FILE_COMMANDS = ("solve", "reconstruct")


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def grid_runs(fixtures, sizes=GRID_SIZES, commands=GRID_COMMANDS):
    """The argv of every grid-command run on the surface fixtures."""
    return [[command, "--fixture", name, "--grid-n", str(n), "-v",
             "-o", f"{name}-{n}.{command}.json"]
            for name in fixtures for n in sizes for command in commands]


def problem_file_runs(out, fixtures):
    """Write each fixture's problem at grid size FILE_SIZE to out, with its
    own base point, and return the argv of the FILE_COMMANDS runs on it."""
    from spinorforge.serialization import dump_json, problem_to_dict
    n = FILE_SIZE
    runs = []
    for name, make in fixtures.items():
        fx = make(n)
        path = f"{name}-{n}.problem.json"
        dump_json(problem_to_dict(fx.data, fx.alg, base_point=fx.F[0, 0]),
                  Path(out) / path)
        runs += [[command, path, "-v", "-o", f"{name}-{n}.file-{command}.json"]
                 for command in FILE_COMMANDS]
    return runs


def pole_runs(fixtures):
    """Export to OBJ from the pole (0, 0, 0, 1) of every surface JSON that
    the grid and problem-file reconstruct runs write for an S^3 fixture."""
    s3 = [name for name, make in fixtures.items()
          if make(FILE_SIZE).model.name == "s3"]
    surfaces = ([f"{name}-{n}.reconstruct.surface.json"
                 for name in s3 for n in GRID_SIZES]
                + [f"{name}-{FILE_SIZE}.file-reconstruct.surface.json"
                   for name in s3])
    return [["export", path, "--pole", "0", "0", "0", "1", "-v",
             "-o", path[:-len(".json")] + ".pole.obj"] for path in surfaces]


def cmc_file_runs(out):
    """Write the cmc-sphere Gauss map at grid size FILE_SIZE to out, with its
    own potential and with the S^3 potential, and return the argv of the cmc
    runs on them; the S^3 surface is projected from the pole (0, 0, 0, 1)."""
    from spinorforge.cmc import HPotential
    from spinorforge.fixtures import cmc_sphere
    from spinorforge.serialization import cmc_to_dict, dump_json
    data, pot = cmc_sphere(FILE_SIZE)
    runs = []
    for name, potential, pole in (
            ("cmc-sphere", pot, []),
            ("cmc-s3", HPotential(1.0, (1.0, 1.0, 1.0)),
             ["--pole", "0", "0", "0", "1"])):
        path = f"{name}-{FILE_SIZE}.cmc-input.json"
        dump_json(cmc_to_dict(data, potential), Path(out) / path)
        runs.append(["cmc", path, *pole, "-v",
                     "-o", f"{name}-{FILE_SIZE}.file-cmc.json"])
    return runs


def ply_runs(fixtures):
    """The PLY branch of the reconstruct and cmc surface writer: reconstruct
    on every surface fixture at FILE_SIZE, and from the pole (0, 0, 0, 1) on
    the S^3 ones; cmc on the cmc-sphere fixture and on the two files that
    `cmc_file_runs` writes."""
    n = FILE_SIZE
    pole = ["--pole", "0", "0", "0", "1"]
    runs = []
    for name, make in fixtures.items():
        runs.append(["reconstruct", "--fixture", name, "--grid-n", str(n),
                     "--format", "ply", "-v",
                     "-o", f"{name}-{n}.ply-reconstruct.json"])
        if make(n).model.name == "s3":
            runs.append(["reconstruct", "--fixture", name, "--grid-n", str(n),
                         "--format", "ply", *pole, "-v",
                         "-o", f"{name}-{n}.ply-pole-reconstruct.json"])
    runs.append(["cmc", "--fixture", "cmc-sphere", "--format", "ply", "-v",
                 "-o", "cmc-ply.json"])
    runs += [["cmc", f"{name}-{n}.cmc-input.json", *p, "--format", "ply",
              "-v", "-o", f"{name}-{n}.ply-file-cmc.json"]
             for name, p in (("cmc-sphere", []), ("cmc-s3", pole))]
    return runs


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
    the surface touches (both files written with SRC's `cmc_to_dict`);
    check-gcr and reconstruct with -o '' and with -o LEAK_DIR, a directory
    made in out; each SIDE_DIRS command on its fixture with -o
    COMMAND-side.json, whose side file SIDE_DIRS names is a directory made
    in out."""
    from spinorforge.cmc import HPotential
    from spinorforge.fixtures import cmc_sphere
    from spinorforge.serialization import cmc_to_dict, dump_json
    n = LEAK_SIZE
    data, pot = cmc_sphere(n)
    diverging = cmc_to_dict(data, pot)
    diverging["g"][2][3][0] = 1e300
    runs = []
    for name, blob, pole in (
            ("cmc-diverging", diverging, []),
            ("cmc-s3-pole", cmc_to_dict(data, HPotential(1.0, (1.0, 1.0, 1.0))),
             ["--pole", "1", "0", "0", "0"])):
        path = f"{name}-{n}.cmc-input.json"
        dump_json(blob, Path(out) / path)
        runs.append(["cmc", path, *pole, "-v",
                     "-o", f"{name}-{n}.leak-cmc.json"])
    (Path(out) / LEAK_DIR).mkdir(exist_ok=True)
    runs += [[command, "--fixture", "sphere-r3", "--grid-n", str(n),
              "-v", "-o", output]
             for command in ("check-gcr", "reconstruct")
             for output in ("", LEAK_DIR)]
    for command, (fixture, side) in SIDE_DIRS.items():
        (Path(out) / f"{command}-side.{side}").mkdir(exist_ok=True)
        runs.append([command, "--fixture", fixture, "--grid-n", str(n), "-v",
                     "-o", f"{command}-side.json"])
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


def run(src, out, argv):
    """One CLI run in out: its listing line."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    done = subprocess.run([sys.executable, "-m", "spinorforge.cli", *argv],
                          cwd=out, env=env, capture_output=True, timeout=600)
    mask = str(Path(out).resolve()).encode()
    stdout, stderr = (s.replace(mask, b"OUT")
                      for s in (done.stdout, done.stderr))
    return (f"run {done.returncode} {_sha(stdout)} {_sha(stderr)} "
            f"{' '.join(argv)}")


def file_lines(out):
    out = Path(out)
    return [f"file {_sha(path.read_bytes())} {path.relative_to(out)}"
            for path in sorted(out.rglob("*")) if path.is_file()]


def sweep(src, out, runs):
    """Run `runs` in out, then the follow-up runs on what they wrote;
    returns the listing lines."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    lines = [run(src, out, argv) for argv in runs]
    lines += [run(src, out, argv) for argv in follow_up_runs(out)]
    return lines + file_lines(out)


def converse_lines(fixtures, sizes=GRID_SIZES, save=None):
    """Digest the converse `spinor_of_immersion` of each fixture's immersion
    at each size: its spinor values, frames, mu, B and theta as raw float
    bytes, one line `converse SHA NAME-N PART` each; a converse that fails
    is one line `converse error SHA(message) NAME-N`.  With a directory
    `save`, each part is also written there as NAME-N.PART.npy."""
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
                     "theta_x": data.theta_x, "theta_y": data.theta_y}
            lines += [f"converse {_sha(array.tobytes())} {name}-{n} {part}"
                      for part, array in parts.items()]
            if save is not None:
                for part, array in parts.items():
                    np.save(Path(save) / f"{name}-{n}.{part}.npy", array)
    return lines


def file_numbers(path):
    """The numbers of an output file in file order, as floats: a JSON
    document's numbers (not its booleans), an OBJ file's `v` coordinates,
    a PLY file's vertex doubles or a `.npy` array's entries; None for any
    other file."""
    path = Path(path)
    if path.suffix == ".npy":
        return np.load(path).ravel().tolist()
    if path.suffix == ".json":
        numbers = []

        def walk(node):
            if isinstance(node, (dict, list)):
                for child in node.values() if isinstance(node, dict) else node:
                    walk(child)
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                numbers.append(float(node))
        walk(json.loads(path.read_text()))
        return numbers
    if path.suffix == ".obj":
        return [float(t) for line in path.read_text().splitlines()
                if line.startswith("v ") for t in line.split()[1:]]
    if path.suffix == ".ply":     # as meshexport writes it: x, y, z doubles
        data = path.read_bytes()
        end = data.index(b"end_header\n") + len(b"end_header\n")
        count = next(int(line.split()[-1]) for line in
                     data[:end].decode("ascii").splitlines()
                     if line.startswith("element vertex "))
        return np.frombuffer(data, "<f8", 3 * count, end).tolist()
    return None


def compare(out_a, out_b):
    """The lines of `--compare`, one per file that differs between the
    output directories out_a and out_b, in sorted order of the paths."""
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
            lines.append(f"moved {float(np.max(delta, initial=0.0))!r} {rel}")
    return lines


def full_sweep_runs(src, out):
    """The runs of the full sweep, naming the fixtures and catalog tags of
    the checkout at src; writes its problem files to out."""
    sys.path.insert(0, str(Path(src).resolve()))
    from spinorforge import cli, lie_algebra
    fixtures = dict(sorted(cli.SURFACE_FIXTURES.items()))
    Path(out).mkdir(parents=True, exist_ok=True)
    return (grid_runs(fixtures) + problem_file_runs(out, fixtures)
            + pole_runs(fixtures)
            + [["cmc", "--fixture", "cmc-sphere", "-v", "-o", "cmc.json"]]
            + cmc_file_runs(out)
            + ply_runs(fixtures)
            + catalog_runs(sorted(lie_algebra.CATALOG))
            + leak_runs(out))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "--compare":
        for line in compare(*argv[1:]):
            print(line)
        return 0
    if len(argv) != 2:
        print("usage: python3 tools/output_digests.py SRC OUT\n"
              "       python3 tools/output_digests.py --compare OUT_A OUT_B",
              file=sys.stderr)
        return 3
    src, out = argv
    lines = sweep(src, out, full_sweep_runs(src, out))
    from spinorforge import cli     # SRC's, as full_sweep_runs put it first
    lines += converse_lines(dict(sorted(cli.SURFACE_FIXTURES.items())),
                            save=Path(out) / "converse")
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
