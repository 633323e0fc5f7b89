"""OBJ / binary-PLY export of reconstructed surface grids.

Vertices come from the group model's R^3 embedding: abelian R^3, semidirect
coordinates (x1, x2, z) and the H^3 half-space coordinates are the payload
itself; S^3 points are stereographically projected from a configurable pole
(default the antipode of the identity).  Quad cells of the structured grid
are split into two triangles.  OBJ writes each coordinate as its `repr`,
the shortest round-trip decimal, and PLY stores float64, so the two formats
carry identical coordinates.  A surface coordinate's text is made once and
shared: when the vertices are the payload, `serialization.write_surface`
hands `write_obj` the same texts that make the surface JSON.  Each writer
formats or packs a whole file section in one call (one %-format of all
vertex lines, one structured-array `tobytes` of all PLY faces).
"""

import numpy as np

from .lie_group import first_non_finite

FORMATS = ("obj", "ply")


def grid_faces(nx, ny):
    """Triangle index array (2 (nx-1) (ny-1), 3), vertices in row-major
    (i * ny + j) order."""
    i, j = np.meshgrid(np.arange(nx - 1), np.arange(ny - 1), indexing="ij")
    a = i * ny + j
    b = (i + 1) * ny + j
    c = (i + 1) * ny + (j + 1)
    d = i * ny + (j + 1)
    t1 = np.stack([a, b, c], axis=-1).reshape(-1, 3)
    t2 = np.stack([a, c, d], axis=-1).reshape(-1, 3)
    return np.concatenate([t1, t2], axis=0)


def stereographic_s3(F, model, pole=None):
    """Project unit quaternions to R^3 from `pole` (default (-1, 0, 0, 0)),
    a pole `check_r3_embedding` has passed: first rotate the pole to
    -identity by a left translation, then apply v / (1 + w).  A non-finite
    payload, or one at the projection pole, is a ValueError."""
    cell = first_non_finite(F)
    if cell is not None:
        raise ValueError(f"S^3 payload at node {cell} is not finite")
    if pole is not None:
        F = model.multiply(-model.inverse(pole), F)
    denom = 1.0 + F[..., 0]
    if np.min(denom) <= 1e-12:
        raise ValueError("surface touches the projection pole; choose another")
    return F[..., 1:] / denom[..., None]


def check_r3_embedding(model, dim, pole=None):
    """ValueError unless the model's payloads of dimension `dim` have an R^3
    embedding from `pole`: S^3 points project stereographically from any
    pole `model.normalize` passes (the antipode of the identity when None),
    and payloads of dimension 3 are their own coordinates, with no pole."""
    if model.name != "s3" and dim != 3:
        raise ValueError(f"no R^3 embedding for {model.name} payloads of "
                         f"dimension {dim}")
    if pole is None:
        return
    if model.name != "s3":
        raise ValueError(f"a projection pole is read only for S^3 surfaces, "
                         f"not {model.name}")
    if np.shape(pole) != (4,):
        raise ValueError("the projection pole must be a unit quaternion")
    model.normalize(pole)


def embed_r3(F, model, pole=None):
    """The model's R^3 vertex coordinates for a payload grid: F itself, as a
    float64 array, for every model but S^3.  A vertex that is not finite is
    a ValueError naming its node."""
    F = np.asarray(F, dtype=np.float64)
    check_r3_embedding(model, F.shape[-1], pole)
    vertices = stereographic_s3(F, model, pole) if model.name == "s3" else F
    cell = first_non_finite(vertices)
    if cell is not None:
        raise ValueError(f"the vertex at node {cell} is not finite")
    return vertices


def write_obj(path, vertices, faces):
    """`vertices` are (m, 3) floats, or the flat list of their 3m texts.
    %s of a Python float is its repr, the shortest round-trip decimal and
    exact on re-parse, so both forms write the same bytes."""
    coords = vertices if isinstance(vertices, list) else \
        np.asarray(vertices, dtype=np.float64).reshape(-1).tolist()
    corners = (np.asarray(faces) + 1).reshape(-1).tolist()
    with open(path, "w") as fh:
        fh.write(("v %s %s %s\n" * (len(coords) // 3)) % tuple(coords))
        fh.write(("f %d %d %d\n" * (len(corners) // 3)) % tuple(corners))


# one PLY face record: the corner count, then three little-endian int32
_PLY_FACE = np.dtype([("count", "u1"), ("corners", "<i4", (3,))])


def write_ply(path, vertices, faces):
    header = (
        "ply\n"
        "format binary_little_endian 1.0\n"
        f"element vertex {len(vertices)}\n"
        "property double x\nproperty double y\nproperty double z\n"
        f"element face {len(faces)}\n"
        "property list uchar int vertex_indices\n"
        "end_header\n")
    records = np.empty(len(faces), dtype=_PLY_FACE)
    records["count"] = 3
    records["corners"] = faces
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.asarray(vertices, dtype="<f8").tobytes())
        fh.write(records.tobytes())


def write_mesh(path, fmt, vertices, nx, ny):
    """Write an nx x ny vertex grid as OBJ or binary PLY: `vertices` are
    (nx ny, 3) floats, or for OBJ the flat list of their texts."""
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}")
    (write_obj if fmt == "obj" else write_ply)(path, vertices,
                                               grid_faces(nx, ny))


def export_mesh(F, model, fmt, path, pole=None):
    """Write the surface grid as OBJ or binary PLY; returns the vertex array."""
    F = np.asarray(F, dtype=np.float64)
    vertices = embed_r3(F, model, pole=pole).reshape(-1, 3)
    write_mesh(path, fmt, vertices, *F.shape[:2])
    return vertices
