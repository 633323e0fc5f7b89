"""Killing-type spinor fields: transport, holonomy, and reconstruction.

The spinor representative [phi] lives in Spin(n) inside Cl_n, expressed in
the spinorial frame over the adapted frame (e1, e2, n_1, ..., n_q).  The
equation solved is the parallel-transport problem of the modified flat
connection: in frame representation

    d_X [phi] = eta(X) [phi],
    eta(X) = -1/2 spin_conn(X) - 1/2 sum_j e_j B(X, e_j) + 1/2 Gamma(X),

where spin_conn(X) is the bivector of the Levi-Civita + normal connection
matrix `immersion.frame_connection`, B enters as the bivector of
`immersion.shape_matrix(B, X)` = [[0, -B(X)*], [B(X), 0]], and Gamma(X) is
the catalog connection pulled back through the frame.  The connection is
flat exactly when the Gauss-Codazzi-Ricci equations hold; the solver
reports the discrete holonomy, max |L - 1| per unit coordinate area over
the plaquettes with L the transport around one, and flags the solution
NOT-INTEGRABLE above `grid.residual_tolerance`, 10 h^2.
Every spinor field is even and unit to the one fixed SPIN_NORM_TOL, a gate
that also measures the transport's unit drift, which nothing corrects.

Spinor fields, edge rotors and holonomy loops are kept as their 2**(n-1)
even coefficients, blade-major (`clifford.to_even`), and multiplied with
the one product kernel `clifford.gp_blades`; reversal is a fixed sign per
row.  The connection fields eta_a and edge rotors are lists over the tangent
axis a = 0, 1 (dx, dy), xi one array (nx, ny, 2, n).  From the connection
fields to xi no array of 2**n coefficients is formed: those appear only in
`SpinorField.values`, for the file writer.

The 1-form xi(X) = <<X phi, phi>> = rev([phi]) [X] [phi] maps adapted-frame
coordinates to Lie-algebra coordinates, read off Ad(rev [phi]) in closed
form for n = 3, 4 (`clifford.adjoint_even`); after right-multiplying the field
by the spin lift of the orthogonal matrix xi o frame^{-1} measured at the
base node, xi coincides with the frame isometry and its Darboux integral
is the immersion.

For n = 3 the even subalgebra is the quaternions and spinors carry the
complex-pair coordinates [phi] = z1 + j z2 used by the surface theory; the
dictionary is e1 ~ j, e2 ~ -ji, e3 ~ i on vectors, hence (e1 e2, e2 e3,
e3 e1) ~ (i, j, k) on bivectors, and quaternions are stored as pairs
(a, b) = a + j b with (a, b)(c, d) = (ac - conj(b) d, conj(a) d + b c).
"""

import math

import numpy as np

from .clifford import (
    PURITY_TOL, Multivector, SpinElement, adjoint_even, bivector_array,
    bivector_even, bivector_exp_even, even_unit_defect, from_even, gp_array,
    gp_blades, non_grade_norm, reverse_even, spin_lift_even, to_even,
    vector_array, worst_node,
)
from .lie_group import (
    IntegrationError, LieValuedOneForm, darboux_integrate,
    first_fundamental_form, first_non_finite, maurer_cartan_pullback,
    model_for, normal_connection, second_fundamental_form,
    structure_residual,
)
from .grid import residual_tolerance, structure_tolerance
from .immersion import ImmersionData, frame_connection, shape_matrix


class NotIntegrableError(RuntimeError):
    """Holonomy or structure residual above threshold; carries the report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report or {}


# =============================================================================
# Problem and field containers
# =============================================================================

class KillingProblem:
    """Surface data + ambient algebra + base value for the transport."""

    __slots__ = ("data", "alg", "base_spinor")

    def __init__(self, data, alg, base_spinor=None):
        if alg.n != data.n:
            raise ValueError("ambient dimension of the algebra does not match "
                             "the data")
        if base_spinor is None:
            base_spinor = SpinElement.identity(alg.n)
        if not isinstance(base_spinor, SpinElement):
            base_spinor = SpinElement(base_spinor)
        if base_spinor.n != alg.n:
            raise ValueError(f"base spinor of Cl_{base_spinor.n} for an "
                             f"algebra of Cl_{alg.n}")
        self.data = data
        self.alg = alg
        self.base_spinor = base_spinor

    @property
    def grid(self):
        return self.data.grid


# the largest odd part and |rev(phi) phi - 1| of a spinor: six orders above
# the transport's unit drift (<= 1.6e-14 on every surface fixture, N <= 257)
SPIN_NORM_TOL = 1e-8


class SpinorField:
    """Grid of spin-group representatives in the adapted spinorial frame,
    each even and unit to SPIN_NORM_TOL, off by `unit_drift`.

    The field is kept as its even coefficients, blade-major: `even` is
    (2**(n-1), nx, ny).  It is built from that layout or from the full one,
    (nx, ny, 2**n), whose odd coefficients must vanish; `values` gives the
    full layout back.
    """

    __slots__ = ("grid", "n", "even", "unit_drift")

    def __init__(self, grid, n, values):
        values = np.asarray(values, dtype=np.float64)
        if values.shape == grid.shape + (1 << n,):
            odd = non_grade_norm(values, n, range(0, n + 1, 2))
            if not odd <= SPIN_NORM_TOL:
                raise ValueError("spinor representatives must be even")
            values = np.ascontiguousarray(to_even(values, n))
        elif values.shape != (1 << (n - 1),) + grid.shape:
            raise ValueError("spinor values must be (nx, ny, 2**n) or "
                             "(2**(n-1), nx, ny)")
        unit = even_unit_defect(values, n)
        if not unit <= SPIN_NORM_TOL:
            raise ValueError(f"rev(phi) phi = 1 violated by {unit:.3e}")
        self.grid = grid
        self.n = n
        self.even = values
        self.unit_drift = unit

    @property
    def values(self):
        """The full-layout coefficients (nx, ny, 2**n)."""
        return from_even(self.even, self.n)

    def at(self, vertex):
        return SpinElement(Multivector(self.n, from_even(
            self.even[(slice(None),) + tuple(vertex)], self.n)),
            tol=SPIN_NORM_TOL)

    def right_multiplied(self, a):
        """The field phi . a for a spin element a of Cl_n; a Multivector a
        is judged as SpinElement(a, tol=SPIN_NORM_TOL) first."""
        if not isinstance(a, SpinElement):
            a = SpinElement(a, tol=SPIN_NORM_TOL)
        if a.n != self.n:
            raise ValueError(f"spin element of Cl_{a.n} for a spinor field "
                             f"of Cl_{self.n}")
        return SpinorField(self.grid, self.n, gp_blades(
            self.even, to_even(a.value.coeffs, self.n), self.n))

    def psi_pairs(self):
        if self.n != 3:
            raise ValueError("the complex-pair form exists for n = 3 only")
        return phi_to_pair(self.values)


# ---- n = 3 quaternion dictionary -------------------------------------------

_E12, _E13, _E23 = 0b011, 0b101, 0b110


def phi_to_pair(values):
    """Even Cl_3 coefficients -> (z1, z2) with [phi] = z1 + j z2."""
    values = np.asarray(values)
    z1 = values[..., 0] + 1j * values[..., _E12]
    z2 = values[..., _E23] + 1j * values[..., _E13]
    return z1, z2


def pair_to_phi(z1, z2):
    out = np.zeros(np.broadcast(z1, z2).shape + (8,))
    out[..., 0] = np.real(z1)
    out[..., _E12] = np.imag(z1)
    out[..., _E23] = np.real(z2)
    out[..., _E13] = np.imag(z2)
    return out


# =============================================================================
# Connection assembly
# =============================================================================

def gamma_frame_matrix(alg, frames, X):
    """U^T Gamma(f(X)) U: the catalog connection along the frame image of X
    (tangent frame components (..., 2)), pulled back to frame coordinates;
    skew up to rounding; exactly 0 for the flat connection of R^n.  The two
    matmuls stay dense: sparse sums over Gamma's terms would move the last
    bit of U^T Gamma U."""
    if not alg.gamma_terms:
        return np.zeros(np.broadcast_shapes(frames.shape[:-2],
                                            np.shape(X)[:-1])
                        + frames.shape[-2:])
    fX = np.einsum("...ia,...a->...i", frames[..., :2], X)
    return np.swapaxes(frames, -1, -2) @ alg.gamma_op(fX) @ frames


def eta_matrix(alg, frames, B, X, spin=0.0):
    """Skew-matrix form of eta(X) = -1/2 spin - 1/2 sum_j e_j B(X, e_j)
    + 1/2 Gamma(X) for X in tangent frame components (..., 2), broadcast over
    the leading node axes of frames (..., n, n) and B (..., 2, 2, q)."""
    return -0.5 * spin - 0.5 * shape_matrix(B, X) \
        + 0.5 * gamma_frame_matrix(alg, frames, X)


def connection_coefficient_fields(problem):
    """[eta(dx), eta(dy)], one blade-major even bivector field
    (2**(n-1), nx, ny) per tangent axis a: d_a [phi] = eta_a [phi], eta_a
    taken at d_a = mu e_a in tangent frame components."""
    data, alg = problem.data, problem.alg
    return [bivector_even(eta_matrix(
        alg, data.frames, data.B, data.grid.mu[..., None] * np.eye(2)[a],
        spin)) for a, spin in enumerate(frame_connection(data))]


# =============================================================================
# Transport and holonomy
# =============================================================================

def _edge_operators(eta, h, axis, n):
    """exp(h (eta_i + eta_{i+1}) / 2) along a grid axis, for all edges, of
    a blade-major even field eta (2**(n-1), nx, ny)."""
    e = np.moveaxis(eta, axis + 1, 1)
    mid = 0.5 * (e[:, :-1] + e[:, 1:]) * h
    return np.moveaxis(bivector_exp_even(mid, n), 1, axis + 1)


def _transport_row(start, E, n):
    """start, E[0] start, E[1] E[0] start, ...: the prefix products along
    one row of blade-major even rotors E (2**(n-1), nx - 1) by doubling
    (Hillis-Steele), ceil(log2 nx) products of whole row slices."""
    row = np.concatenate([start[:, None], E], axis=1)
    d = 1
    while d < row.shape[1]:
        row[:, d:] = gp_blades(row[:, d:], row[:, :-d], n)
        d *= 2
    return row


def solve_killing(problem):
    """Integrate the flat-connection transport over the spanning tree
    (bottom row, then columns) and measure plaquette holonomy.

    The edge rotors are exact exponentials, unit to rounding, and the
    transport multiplies them uncorrected.

    Returns (SpinorField, report) where report carries the holonomy (max
    loop-transport defect per unit coordinate area), the worst plaquette
    `holonomy_argmax` as [i, j] of its lower-left node, the threshold
    `holonomy_tol` = `residual_tolerance(grid)`, the NOT-INTEGRABLE flag and
    the unit drift `renorm_drift`, max |rev(phi) phi - 1| of the field.
    """
    data, alg = problem.data, problem.alg
    grid = problem.grid
    n = alg.n
    h = grid.h
    ny = grid.shape[1]
    # E[a]: the rotors of the edges along grid axis a
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        E = [_edge_operators(eta, h, a, n)
             for a, eta in enumerate(connection_coefficient_fields(problem))]
    for rotors in E:
        cell = first_non_finite(np.moveaxis(rotors, 0, -1))
        if cell is not None:
            raise IntegrationError("spin transport diverged", cell=cell)
    values = np.zeros((1 << (n - 1),) + grid.shape)
    values[:, :, 0] = _transport_row(
        to_even(problem.base_spinor.value.coeffs, n), E[0][:, :, 0], n)
    for j in range(ny - 1):
        values[:, :, j + 1] = gp_blades(E[1][:, :, j], values[:, :, j], n)

    # plaquette holonomy: A -> B -> C -> D -> A, defect per unit area
    # the edge operators are exponentials of bivectors: rev(exp(b)) = exp(-b)
    loop = gp_blades(E[1][:, 1:, :], E[0][:, :, :-1], n)          # BC after AB
    loop = gp_blades(reverse_even(E[0][:, :, 1:], n), loop, n)    # CD
    loop = gp_blades(reverse_even(E[1][:, :-1, :], n), loop, n)   # DA
    # |L phi - phi| = |L - 1|: right multiplication by a unit spinor is an
    # isometry of the coefficient space, so the field drops out
    loop[0] -= 1.0
    defect = np.linalg.norm(loop, axis=0)
    # the worst plaquette, named by its lower-left node (first NaN if any)
    worst = worst_node(defect)
    holonomy = float(defect[worst]) / (h * h)
    holonomy_tol = float(residual_tolerance(grid))
    field = SpinorField(grid, n, values)
    report = {
        "holonomy": holonomy,
        "holonomy_argmax": list(worst),
        "holonomy_tol": holonomy_tol,
        "integrable": bool(holonomy <= holonomy_tol),
        "renorm_drift": field.unit_drift,
    }
    return field, report


# =============================================================================
# xi, normalization, reconstruction
# =============================================================================

ORTH_TOL = 1e-6         # largest defect of xi o frame^-1 at the base node


def xi_from_spinor(field, problem):
    """xi(d_a) = rev([phi]) [X] [phi] plus the normal-direction values
    xi(n_r); raises if the output fails grade-1 purity (spinor corruption).

    Returns (LieValuedOneForm, normals) with normals shaped (nx, ny, q, n).
    """
    grid = field.grid
    n = field.n
    mu = grid.mu
    adj, impurity = adjoint_even(reverse_even(field.even, n), n)
    if not impurity <= PURITY_TOL:
        raise ValueError(f"xi output is not a vector: off-grade mass "
                         f"{impurity:.3e} signals spinor corruption")
    results = np.swapaxes(adj, 2, 3)          # (nx, ny, frame index, G index)
    xi = mu[..., None, None] * results[:, :, :2]
    return LieValuedOneForm(grid, xi), results[:, :, 2:]


def frame_map_at(field, problem, vertex):
    """The matrix xi o frame^{-1} at a node: columns are xi(underline-e_i)
    against the distinguished basis; orthogonal for a clean solve."""
    n = field.n
    adj, _ = adjoint_even(reverse_even(
        field.even[(slice(None),) + tuple(vertex)], n), n)
    return adj @ problem.data.frames[vertex].T


def normalize_spinor(field, problem):
    """Right-multiply the whole field by the spin lift of T = xi o frame^{-1}
    measured at the base node, after which xi matches the frame isometry.

    T is checked orthogonal to ORTH_TOL (discretization-level), projected
    to the nearest rotation, and lifted with the deterministic sign rule
    (`spin_lift_even`); the product passes the field's own gate.
    """
    T = frame_map_at(field, problem, (0, 0))
    dev = np.max(np.abs(T.T @ T - np.eye(field.n)))
    if not dev <= ORTH_TOL:
        raise ValueError(f"xi o frame^-1 is not orthogonal (deviation "
                         f"{dev:.3e}); the solve did not produce a spin field")
    if np.linalg.det(T) < 0:
        raise ValueError("xi o frame^-1 is orientation reversing")
    u, _, vt = np.linalg.svd(T)
    return SpinorField(field.grid, field.n, gp_blades(
        field.even, spin_lift_even(u @ vt), field.n))


def mean_curvature_vector(data):
    """(1/2) trace of B in the normal frame, per node: (nx, ny, q)."""
    return 0.5 * (data.B[:, :, 0, 0, :] + data.B[:, :, 1, 1, :])


def reconstruct_immersion(problem, base_point=None):
    """Full pipeline: solve, normalize, build xi, check the structure
    equation, Darboux-integrate, and verify the result against the data.

    Returns (F, field, report).  A holonomy above `residual_tolerance` or a
    structure residual above `structure_tolerance` (`structure_tol` in the
    report) raises NotIntegrableError carrying the report so far.
    """
    field, report = solve_killing(problem)
    if not report["integrable"]:
        i, j = report["holonomy_argmax"]
        raise NotIntegrableError(
            f"holonomy {report['holonomy']:.3e} above threshold "
            f"{report['holonomy_tol']:.3e} at plaquette ({i}, {j})", report)
    field = normalize_spinor(field, problem)
    xi, xi_normals = xi_from_spinor(field, problem)
    sres = structure_residual(xi, problem.alg)
    report["structure_max"] = float(np.max(sres))
    report["structure_tol"] = float(structure_tolerance(problem.grid))
    if not report["structure_max"] <= report["structure_tol"]:
        raise NotIntegrableError(
            f"structure residual {report['structure_max']:.3e} above "
            f"threshold {report['structure_tol']:.3e} at node "
            f"{worst_node(sres)}", report)
    stats = {}
    F = darboux_integrate(xi, problem.alg, base=base_point, stats=stats)
    report.update(verify_reconstruction(F, problem, xi_normals))
    report["renorm_drift"] = max(report["renorm_drift"],
                                 stats.get("renorm_drift", 0.0))
    return F, field, report


def verify_reconstruction(F, problem, xi_normals):
    """Isometry, second-fundamental-form and normal-connection errors of a
    reconstructed immersion, via fourth-order discrete differentiation of F
    (the instrument must resolve the O(h^2) errors it measures)."""
    data, alg = problem.data, problem.alg
    grid = problem.grid
    q = data.q
    mu2 = grid.mu ** 2
    model = model_for(alg)
    z = maurer_cartan_pullback(F, model, grid)
    g = first_fundamental_form(z)
    # isometry defect on unit tangent frames: |<F_* e_a, F_* e_b> - delta_ab|
    iso = max(float(np.max(np.abs(g[..., a, b] / mu2 - float(a == b))))
              for a, b in ((0, 0), (0, 1), (1, 1)))
    # normal frame of the reconstruction: the xi-images of n_r projected off
    # the reconstructed tangent plane and re-orthonormalized
    tangents = np.ascontiguousarray(np.swapaxes(z, 2, 3)) \
        / grid.mu[..., None, None]
    normals = np.swapaxes(xi_normals, 2, 3).copy()    # (nx, ny, G, r)
    for r in range(q):
        v = normals[..., r]
        v = v - np.einsum("xyia,xya->xyi", tangents,
                          np.einsum("xyia,xyi->xya", tangents, v))
        for s in range(r):
            v -= np.einsum("xyi,xyi->xy", normals[..., s], v)[..., None] \
                * normals[..., s]
        normals[..., r] = v / np.linalg.norm(v, axis=-1, keepdims=True)
    B = second_fundamental_form(z, normals, grid, alg) \
        / mu2[..., None, None, None]
    B_err = float(np.max(np.abs(B - data.B)))
    theta_err = 0.0
    if q > 1:
        # per axis, so that a NaN on one axis leaves the other's error
        gap = np.abs(normal_connection(z, normals, grid, alg) - data.theta)
        theta_err = max(theta_err, *map(float, np.max(gap, axis=(0, 1, 3, 4))))
    return {"isometry_error": iso, "second_fundamental_error": B_err,
            "normal_connection_error": theta_err}


# =============================================================================
# Converse: immersion -> data + spinor
# =============================================================================

def _norm(v):
    """|v| along the last axis, in `np.linalg.norm`'s own arithmetic."""
    return np.sqrt(np.add.reduce(v * v, axis=-1))


def _continuous_normal_frames(z, n):
    """Orthonormal frames [e1 | e2 | n_1 ... n_q] with det +1, the normal
    part chosen continuously along the spanning tree from the origin node
    (the bottom row, then the columns).

    The discrete tangents are only conformal to O(h^2), so they are
    Gram-Schmidt orthonormalized exactly; the frame stays O(h^2) from the
    true one and satisfies the strict orthonormality invariant.

    Each normal is its own chain down the tree, n_r = P_r n_r(parent) / |.|
    with P_r = I - e1 e1^T - e2 e2^T - sum_{s<r} n_s n_s^T at the node: the
    modified Gram-Schmidt step of the parent's frame, from a QR completion
    at the origin.  The last normal is flipped afterwards for det +1 (its
    chain is odd in its seed, and no other normal depends on it).  Any
    normalizer |P_r v| below 1e-8 (a normal turning into the tangent plane)
    raises "degenerate normal completion" at the node of the smallest one
    (a nan one comes only after it, down the tree).
    """
    nx, ny = z.shape[:2]
    q = n - 2
    e1 = z[:, :, 0] / _norm(z[:, :, 0])[..., None]
    e2 = z[:, :, 1] - np.einsum("xyi,xyi->xy", z[:, :, 1], e1)[..., None] * e1
    e2 = e2 / _norm(e2)[..., None]
    frames = np.zeros((nx, ny, n, n))
    frames[..., 0] = e1
    frames[..., 1] = e2
    if n == 3:
        # e1 x e2 in np.cross's operand order, which keeps its bits
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            frames[..., i, 2] = (e1[..., j] * e2[..., k]
                                 - e1[..., k] * e2[..., j])
        return frames

    seed = np.linalg.qr(np.column_stack([e1[0, 0], e2[0, 0], np.eye(n)]))[0]
    P = np.eye(n) - np.einsum("xyi,xyj->xyij", e1, e1)
    P -= np.einsum("xyi,xyj->xyij", e2, e2)
    norms = np.empty((q, nx, ny))
    with np.errstate(divide="ignore", invalid="ignore"):
        for r in range(q):
            c = np.empty((nx, ny, n))
            v = seed[:, 2 + r]
            for i in range(nx):
                v = P[i, 0] @ v
                norms[r, i, 0] = nv = math.sqrt(v @ v)
                v = c[i, 0] = v / nv
            for j in range(1, ny):
                v = np.einsum("xij,xj->xi", P[:, j], c[:, j - 1])
                nv = norms[r, :, j] = _norm(v)
                c[:, j] = v / nv[:, None]
            frames[..., 2 + r] = c
            if r + 1 < q:
                P -= np.einsum("xyi,xyj->xyij", c, c)
    if not np.min(norms) >= 1e-8:
        least = np.fmin.reduce(norms, axis=0)     # nan only down the tree
        worst = worst_node(-np.nan_to_num(least, nan=np.inf))
        raise ValueError(f"degenerate normal completion; immersion nearly "
                         f"tangent to the seed frame at node {worst}")
    if np.linalg.det(frames[0, 0]) < 0:
        frames[..., n - 1] *= -1.0
    return frames


# a reconstructed F is conformal only to O(h^2): gate the conformality
# defect at max(25 h^2, 1e-4), well above that but far below order-one
# anisotropy
CONFORMAL_TOL_H2, CONFORMAL_TOL_MIN = 25.0, 1e-4


def spinor_of_immersion(F, alg, grid):
    """Extract (SpinorField, ImmersionData) from an immersed grid F.

    The pullback of the Maurer-Cartan form gives the induced metric (checked
    conformal), the adapted frames (normal part marched continuously), the
    second fundamental form and normal connection by discrete ambient
    differentiation, and the spinor as the reversed continuous spin lift of
    the frame rotation.  The pullback and the second fundamental form take
    the fourth-order stencils, as `verify_reconstruction` does, so F needs
    at least 5 nodes per axis.  The result satisfies the Killing equation to
    O(h^2) and round-trips with the reconstruction up to a rigid motion.
    """
    model = model_for(alg)
    shape = grid.shape + (model.payload_dim,)
    if np.shape(F) != shape:
        raise ValueError(f"the immersion F has shape {np.shape(F)}; the grid "
                         f"and the group need {shape}")
    cell = first_non_finite(F)
    if cell is not None:
        raise ValueError(f"the immersion F is not finite at node {cell}")
    n = alg.n
    q = n - 2
    conformal_tol = max(CONFORMAL_TOL_H2 * grid.h ** 2, CONFORMAL_TOL_MIN)
    z = maurer_cartan_pullback(F, model, grid)
    g = first_fundamental_form(z)
    cell = first_non_finite(g.reshape(grid.shape + (4,)))
    if cell is not None:
        raise ValueError(f"the first fundamental form of F is not finite "
                         f"at node {cell}")
    diag = np.diagonal(g, axis1=2, axis2=3)        # <z_a, z_a>, (nx, ny, 2)
    if not np.min(diag) > 0:
        raise ValueError(f"degenerate immersion: vanishing coordinate "
                         f"tangent at node "
                         f"{worst_node(-np.min(diag, axis=-1))}")
    scale = float(np.max(diag[..., 0]))
    skew = np.maximum(np.abs(g[..., 0, 1]),
                      np.abs(diag[..., 0] - diag[..., 1]))
    if not float(np.max(skew)) <= conformal_tol * scale:
        raise ValueError(f"the parametrization is not conformal; the grid "
                         f"machinery requires mu^2 (dx^2 + dy^2) metrics "
                         f"at node {worst_node(skew)}")
    mu = np.sqrt(0.5 * (diag[..., 0] + diag[..., 1]))
    out_grid = type(grid)(grid.nx, grid.ny, grid.h, mu=mu, x0=grid.x0,
                          y0=grid.y0)
    frames = _continuous_normal_frames(z, n)
    normals = frames[..., 2:]
    B = second_fundamental_form(z, normals, out_grid, alg) \
        / mu[..., None, None, None] ** 2
    blocks = np.moveaxis(normal_connection(z, normals, out_grid, alg), 2, 0) \
        if q > 1 else (None, None)
    data = ImmersionData(out_grid, frames, B=B, theta_x=blocks[0],
                         theta_y=blocks[1])
    values = _continuous_spin_lift(frames)
    field = SpinorField(out_grid, n, values)
    return field, data


def _continuous_spin_lift(frames):
    """Reversed spin lifts of the frame rotations, blade-major even,
    sign-matched along the spanning tree so the field is continuous: a node
    flips when its dot product with its tree parent is negative; the flips
    compose down it."""
    n = frames.shape[-1]
    values = reverse_even(spin_lift_even(frames), n)
    flip = np.ones(frames.shape[:2])
    flip[1:, 0] = np.where(np.einsum(
        "kx,kx->x", values[:, 1:, 0], values[:, :-1, 0]) < 0, -1.0, 1.0)
    flip[:, 1:] = np.where(np.einsum(
        "kxy,kxy->xy", values[:, :, 1:], values[:, :, :-1]) < 0, -1.0, 1.0)
    flip[:, 0] = np.cumprod(flip[:, 0])
    return values * np.cumprod(flip, axis=1)


# =============================================================================
# Dirac operators
# =============================================================================

def dirac_residual(field, problem):
    """Per-node norm of D phi - (H + gamma) phi with D = sum_j e_j nabla_{e_j},
    gamma = (1/2) sum_j e_j Gamma(e_j) and H the mean curvature vector of
    the data (the trace of its B)."""
    data, alg = problem.data, problem.alg
    grid = problem.grid
    n = alg.n
    mu = grid.mu
    vals = field.values
    # per tangent axis a, mu times the terms of e_a = d_a / mu
    D, gamma = [], []
    for a, spin in enumerate(frame_connection(data)):
        e = vector_array(np.eye(n)[a], n)
        nab = grid.partial(vals, a) \
            + 0.5 * gp_array(bivector_array(spin), vals, n)
        D.append(gp_array(e, nab, n))
        gamma.append(gp_array(e, bivector_array(gamma_frame_matrix(
            alg, data.frames, mu[..., None] * np.eye(2)[a])), n))
    D = sum(D[1:], D[0]) / mu[..., None]
    gamma_el = 0.5 * sum(gamma[1:], gamma[0]) / mu[..., None]
    Hcoords = np.zeros(grid.shape + (n,))
    Hcoords[..., 2:] = mean_curvature_vector(data)
    rhs = gp_array(vector_array(Hcoords, n) + gamma_el, vals, n)
    return np.linalg.norm(D - rhs, axis=-1)


def pair_dirac_residual(field, problem, H=0.0):
    """n = 3 surface Dirac residual |D psi - H psi + i psi-bar| per node, in
    the complex-pair picture [psi] = p + j q.

    The half-spinor splitting labels the j slot as the positive one, so
    psi-bar = psi^+ - psi^- = -p + j q, and the complex scalar i acts by
    right quaternion multiplication; with these choices a Killing solution
    satisfies D psi = H psi - i psi-bar, i.e. the classical unit-sphere
    characterization, and this evaluator agrees with the Clifford-side
    dirac_residual to rounding.
    """
    grid = problem.grid
    mu = grid.mu
    z1, z2 = field.psi_pairs()
    p, q = z1, -1j * z2         # [psi] = z1 - j i z2
    beta = grid.dy(mu) / (2.0 * mu)
    alpha = grid.dx(mu) / (2.0 * mu)
    P = grid.dx(p) - 1j * beta * p
    Q = grid.dx(q) + 1j * beta * q
    Pp = grid.dy(p) + 1j * alpha * p
    Qp = grid.dy(q) - 1j * alpha * q
    # D psi = (1/mu) [ j (P + j Q) + k (P' + j Q') ], with j (a + j b) = -b + j a
    # and k (a + j b) = -i b + j (-i a)
    d1 = (-Q - 1j * Qp) / mu
    d2 = (P - 1j * Pp) / mu
    r1 = d1 - H * p - 1j * p      # + i psi-bar contributes (-i p, +i q)
    r2 = d2 - H * q + 1j * q
    return np.sqrt(np.abs(r1) ** 2 + np.abs(r2) ** 2)
