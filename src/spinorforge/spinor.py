"""Killing-type spinor fields: transport, holonomy, and reconstruction.

The spinor representative [phi] lives in Spin(n) inside Cl_n, expressed in
the spinorial frame over the adapted frame (e1, e2, n_1, ..., n_q).  The
equation solved is the parallel-transport problem of the modified flat
connection: in frame representation

    d_X [phi] = eta(X) [phi],
    eta(X) = -1/2 spin_conn(X) - 1/2 sum_j e_j B(X, e_j) + 1/2 Gamma(X),

where spin_conn(X) is the bivector of the Levi-Civita + normal connection
matrix of the grid data, B enters as the mixed bivector of its off-diagonal
operator, and Gamma(X) is the catalog connection pulled back through the
frame.  The connection is flat exactly when the Gauss-Codazzi-Ricci
equations hold; the solver reports the discrete holonomy, max |L - 1| per
unit coordinate area over the plaquettes with L the transport around one,
and flags the solution NOT-INTEGRABLE above threshold (default 10 h^2).

The 1-form xi(X) = <<X phi, phi>> = rev([phi]) [X] [phi] maps adapted-frame
coordinates to Lie-algebra coordinates; after right-multiplying the field
by the spin lift of the orthogonal matrix xi o frame^{-1} measured at the
base node, xi coincides with the frame isometry and its Darboux integral
is the immersion.

For n = 3 the even subalgebra is the quaternions and spinors carry the
complex-pair coordinates [phi] = z1 + j z2 used by the surface theory; the
dictionary is e1 ~ j, e2 ~ -ji, e3 ~ i on vectors, hence (e1 e2, e2 e3,
e3 e1) ~ (i, j, k) on bivectors, and quaternions are stored as pairs
(a, b) = a + j b with (a, b)(c, d) = (ac - conj(b) d, conj(a) d + b c).
"""

import numpy as np

from .clifford import (
    Multivector, SpinElement, adjoint_array, bivector_array,
    bivector_exp_array, gp_array, offdiag_skew_array, reverse_array,
    spin_defects, spin_lift, spin_lift_array, unit_defect, vector_array,
)
from .lie_group import (
    IntegrationError, LieValuedOneForm, darboux_integrate,
    first_fundamental_form, first_non_finite, maurer_cartan_pullback,
    model_for, normal_connection, second_fundamental_form,
    structure_residual, structure_tolerance,
)
from .immersion import ImmersionData


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
        self.data = data
        self.alg = alg
        self.base_spinor = base_spinor

    @property
    def grid(self):
        return self.data.grid


class SpinorField:
    """Grid of spin-group representatives in the adapted spinorial frame."""

    __slots__ = ("grid", "n", "values")

    def __init__(self, grid, n, values, tol=1e-8):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != grid.shape + (1 << n,):
            raise ValueError("spinor values must be (nx, ny, 2**n)")
        odd, unit = spin_defects(values, n)
        if not odd <= tol:
            raise ValueError("spinor representatives must be even")
        if not unit <= tol:
            raise ValueError(f"rev(phi) phi = 1 violated by {unit:.3e}")
        self.grid = grid
        self.n = n
        self.values = values

    def at(self, vertex):
        return SpinElement(Multivector(self.n, self.values[vertex]), tol=1e-7)

    def right_multiplied(self, a):
        """The field phi . a for a spin element a."""
        if isinstance(a, SpinElement):
            a = a.value
        return SpinorField(self.grid, self.n,
                           gp_array(self.values, a.coeffs, self.n))

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


def psi_from_phi_pair(z1, z2):
    """[psi] = z1 - j i z2 = (z1, -i z2) in complex-pair form."""
    return z1, -1j * z2


def phi_from_psi_pair(p, q):
    return p, 1j * q


# =============================================================================
# Connection assembly
# =============================================================================

def spin_connection_matrices(data):
    """Skew matrices of the (Levi-Civita + normal) connection along the
    coordinate directions dx, dy."""
    grid = data.grid
    n = data.n
    wx, wy = grid.rotation_coefficients()
    out = []
    for w, theta in ((wx, data.theta_x), (wy, data.theta_y)):
        m = np.zeros(grid.shape + (n, n))
        m[..., 1, 0] = w
        m[..., 0, 1] = -w
        m[..., 2:, 2:] = theta
        out.append(m)
    return out[0], out[1]


def gamma_frame_matrix(alg, frames, X):
    """U^T Gamma(f(X)) U: the catalog connection along the frame image of X
    (tangent frame components (..., 2)), pulled back to frame coordinates;
    skew up to rounding."""
    fX = np.einsum("...ia,...a->...i", frames[..., :2], X)
    return np.swapaxes(frames, -1, -2) @ alg.gamma_op(fX) @ frames


def eta_matrix(alg, frames, B, X, spin=0.0):
    """Skew-matrix form of eta(X) = -1/2 spin - 1/2 sum_j e_j B(X, e_j)
    + 1/2 Gamma(X) for X in tangent frame components (..., 2), broadcast over
    the leading node axes of frames (..., n, n) and B (..., 2, 2, q)."""
    BX = np.einsum("...a,...ajr->...rj", X, B)     # B(X, .): R^2 -> R^q
    return -0.5 * spin - 0.5 * offdiag_skew_array(BX) \
        + 0.5 * gamma_frame_matrix(alg, frames, X)


def _coordinate_direction(mu, a):
    """Tangent frame components mu e_a of the coordinate vector d_a."""
    X = np.zeros(mu.shape + (2,))
    X[..., a] = mu
    return X


def connection_coefficient_fields(problem):
    """eta(dx), eta(dy) as coefficient arrays: d_a [phi] = eta_a [phi]."""
    data, alg = problem.data, problem.alg
    etas = []
    for a, spin in enumerate(spin_connection_matrices(data)):
        X = _coordinate_direction(data.grid.mu, a)
        etas.append(bivector_array(eta_matrix(alg, data.frames, data.B, X,
                                              spin)))
    return etas[0], etas[1]


def killing_rhs(problem, phi, X, vertex):
    """Right-hand side -1/2 sum_j e_j B(X, e_j) phi + 1/2 Gamma(X) phi of the
    covariant spinor equation, at one node, X in tangent frame components."""
    data = problem.data
    if isinstance(phi, SpinElement):
        phi = phi.value
    m = eta_matrix(problem.alg, data.frames[vertex], data.B[vertex],
                   np.asarray(X, dtype=np.float64))
    return Multivector(data.n, bivector_array(m)) * phi


# =============================================================================
# Transport and holonomy
# =============================================================================

def _renormalize(values, n):
    """One Newton-Schulz step g (3 - rev(g) g) / 2 toward rev(g) g = 1;
    returns (values, drift), drift being the deviation before the step."""
    dev = unit_defect(values, n)
    drift = float(np.max(np.abs(dev)))
    corr = -0.5 * dev
    corr[..., 0] += 1.0
    return gp_array(values, corr, n), drift


def _edge_operators(eta, h, axis, n):
    """exp(h (eta_i + eta_{i+1}) / 2) along an axis, for all edges."""
    e = np.moveaxis(eta, axis, 0)
    mid = 0.5 * (e[:-1] + e[1:]) * h
    return np.moveaxis(bivector_exp_array(mid, n), 0, axis)


def _transport_row(start, E, n):
    """start, E[0] start, E[1] E[0] start, ...: the prefix products along
    one row by doubling (Hillis-Steele), ceil(log2 len) products of whole
    row slices, then one renormalization; returns (row, drift)."""
    row = np.concatenate([start[None], E])
    d = 1
    while d < len(row):
        row[d:] = gp_array(row[d:], row[:-d], n)
        d *= 2
    row[1:], drift = _renormalize(row[1:], n)
    return row, drift


def solve_killing(problem, holonomy_tol=None, spin_tol=1e-8):
    """Integrate the flat-connection transport over the spanning tree
    (bottom row, then columns) and measure plaquette holonomy.

    The edge rotors are unit to rounding, so the bottom row and the column
    sweep each get one renormalization of all the nodes they produced.

    Returns (SpinorField, report) where report carries the holonomy (max
    loop-transport defect per unit coordinate area), the threshold used,
    the NOT-INTEGRABLE flag and the unit-norm drift before renormalization.
    """
    data, alg = problem.data, problem.alg
    grid = problem.grid
    n = alg.n
    h = grid.h
    ny = grid.shape[1]
    if holonomy_tol is None:
        holonomy_tol = 10.0 * h * h
    eta_x, eta_y = connection_coefficient_fields(problem)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        Ex = _edge_operators(eta_x, h, 0, n)      # (nx-1, ny, 2^n)
        Ey = _edge_operators(eta_y, h, 1, n)      # (nx, ny-1, 2^n)
    for E in (Ex, Ey):
        cell = first_non_finite(E)
        if cell is not None:
            raise IntegrationError("spin transport diverged", cell=cell)
    values = np.zeros(grid.shape + (1 << n,))
    values[:, 0], drift = _transport_row(problem.base_spinor.value.coeffs,
                                         Ex[:, 0], n)
    for j in range(ny - 1):
        values[:, j + 1] = gp_array(Ey[:, j], values[:, j], n)
    values[:, 1:], d = _renormalize(values[:, 1:], n)
    drift = max(drift, d)

    # plaquette holonomy: A -> B -> C -> D -> A, defect per unit area
    # the edge operators are exponentials of bivectors: rev(exp(b)) = exp(-b)
    loop = gp_array(Ey[1:, :], Ex[:, :-1], n)                 # BC after AB
    loop = gp_array(reverse_array(Ex[:, 1:], n), loop, n)     # CD
    loop = gp_array(reverse_array(Ey[:-1, :], n), loop, n)    # DA
    # |L phi - phi| = |L - 1|: right multiplication by a unit spinor is an
    # isometry of the coefficient space, so the field drops out
    loop[..., 0] -= 1.0
    holonomy = float(np.max(np.linalg.norm(loop, axis=-1))) / (h * h)
    field = SpinorField(grid, n, values, tol=spin_tol)
    report = {
        "holonomy": holonomy,
        "holonomy_tol": float(holonomy_tol),
        "integrable": bool(holonomy <= holonomy_tol),
        "renorm_drift": drift,
    }
    return field, report


# =============================================================================
# xi, normalization, reconstruction
# =============================================================================

PURITY_TOL = 1e-10      # off-grade mass of xi that signals spinor corruption
ORTH_TOL = 1e-6         # largest defect of xi o frame^-1 at the base node


def xi_from_spinor(field, problem):
    """xi(dx), xi(dy) = rev([phi]) [X] [phi] plus the normal-direction values
    xi(n_r); raises if the output fails grade-1 purity (spinor corruption).

    Returns (LieValuedOneForm, normals) with normals shaped (nx, ny, q, n).
    """
    grid = field.grid
    n = field.n
    mu = grid.mu
    adj, impurity = adjoint_array(reverse_array(field.values, n), n)
    if not impurity <= PURITY_TOL:
        raise ValueError(f"xi output is not a vector: off-grade mass "
                         f"{impurity:.3e} signals spinor corruption")
    results = np.swapaxes(adj, 2, 3)          # (nx, ny, frame index, G index)
    xi_x = mu[..., None] * results[:, :, 0]
    xi_y = mu[..., None] * results[:, :, 1]
    return LieValuedOneForm(grid, xi_x, xi_y), results[:, :, 2:]


def frame_map_at(field, problem, vertex):
    """The matrix xi o frame^{-1} at a node: columns are xi(underline-e_i)
    against the distinguished basis; orthogonal for a clean solve."""
    adj, _ = adjoint_array(reverse_array(field.values[vertex], field.n),
                           field.n)
    return adj @ problem.data.frames[vertex].T


def normalize_spinor(field, problem):
    """Right-multiply the whole field by the spin lift of T = xi o frame^{-1}
    measured at the base node, after which xi matches the frame isometry.

    T is checked orthogonal to ORTH_TOL (discretization-level), projected
    to the nearest rotation, and lifted with the deterministic sign rule.
    """
    T = frame_map_at(field, problem, (0, 0))
    dev = np.max(np.abs(T.T @ T - np.eye(field.n)))
    if dev > ORTH_TOL:
        raise ValueError(f"xi o frame^-1 is not orthogonal (deviation "
                         f"{dev:.3e}); the solve did not produce a spin field")
    if np.linalg.det(T) < 0:
        raise ValueError("xi o frame^-1 is orientation reversing")
    u, _, vt = np.linalg.svd(T)
    a = spin_lift(u @ vt)
    return field.right_multiplied(a)


def mean_curvature_vector(data):
    """(1/2) trace of B in the normal frame, per node: (nx, ny, q)."""
    return 0.5 * (data.B[:, :, 0, 0, :] + data.B[:, :, 1, 1, :])


def reconstruct_immersion(problem, base_point=None, holonomy_tol=None,
                          structure_tol=None, strict=True):
    """Full pipeline: solve, normalize, build xi, check the structure
    equation, Darboux-integrate, and verify the result against the data.

    Returns (F, field, report).  With strict=True a holonomy or structure
    residual above threshold raises NotIntegrableError carrying the report.
    """
    field, report = solve_killing(problem, holonomy_tol=holonomy_tol)
    if strict and not report["integrable"]:
        raise NotIntegrableError(
            f"holonomy {report['holonomy']:.3e} above threshold "
            f"{report['holonomy_tol']:.3e}", report)
    field = normalize_spinor(field, problem)
    xi, xi_normals = xi_from_spinor(field, problem)
    sres = structure_residual(xi, problem.alg)
    if structure_tol is None:
        structure_tol = structure_tolerance(problem.grid)
    report["structure_max"] = float(np.max(sres))
    report["structure_tol"] = float(structure_tol)
    if strict and not report["structure_max"] <= structure_tol:
        raise NotIntegrableError(
            f"structure residual {report['structure_max']:.3e} above "
            f"threshold {structure_tol:.3e}", report)
    model = model_for(problem.alg)
    stats = {}
    F = darboux_integrate(xi, model, base=base_point, stats=stats)
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
    zx, zy = maurer_cartan_pullback(F, model, grid, order=4)
    gxx, gxy, gyy = first_fundamental_form(zx, zy)
    # isometry defect on unit tangent frames: |<F_* e_a, F_* e_b> - delta_ab|
    iso = max(float(np.max(np.abs(gxx / mu2 - 1.0))),
              float(np.max(np.abs(gxy / mu2))),
              float(np.max(np.abs(gyy / mu2 - 1.0))))
    # normal frame of the reconstruction: the xi-images of n_r projected off
    # the reconstructed tangent plane and re-orthonormalized
    tangents = np.stack([zx, zy], axis=-1) / grid.mu[..., None, None]
    normals = np.swapaxes(xi_normals, 2, 3).copy()    # (nx, ny, G, r)
    for r in range(q):
        v = normals[..., r]
        v = v - np.einsum("xyia,xya->xyi", tangents,
                          np.einsum("xyia,xyi->xya", tangents, v))
        for s in range(r):
            v -= np.einsum("xyi,xyi->xy", normals[..., s], v)[..., None] \
                * normals[..., s]
        normals[..., r] = v / np.linalg.norm(v, axis=-1, keepdims=True)
    B = second_fundamental_form(zx, zy, normals, grid, alg, 4) \
        / mu2[..., None, None, None]
    B_err = float(np.max(np.abs(B - data.B)))
    theta_err = 0.0
    if q > 1:
        for got, want in zip(normal_connection(zx, zy, normals, grid, alg),
                             (data.theta_x, data.theta_y)):
            theta_err = max(theta_err, float(np.max(np.abs(got - want))))
    return {"isometry_error": iso, "second_fundamental_error": B_err,
            "normal_connection_error": theta_err}


# =============================================================================
# Converse: immersion -> data + spinor
# =============================================================================

def _continuous_normal_frames(zx, zy, mu, n):
    """Orthonormal frames [e1 | e2 | n_1 ... n_q] with det +1, the normal
    part chosen continuously by marching from the origin node.

    The discrete tangents are only conformal to O(h^2), so they are
    Gram-Schmidt orthonormalized exactly; the frame stays O(h^2) from the
    true one and satisfies the strict orthonormality invariant.
    """
    nx, ny = mu.shape
    q = n - 2
    e1 = zx / np.linalg.norm(zx, axis=-1, keepdims=True)
    e2 = zy - np.einsum("xyi,xyi->xy", zy, e1)[..., None] * e1
    e2 = e2 / np.linalg.norm(e2, axis=-1, keepdims=True)
    frames = np.zeros((nx, ny, n, n))
    frames[..., 0] = e1
    frames[..., 1] = e2
    if n == 3:
        frames[..., 2] = np.cross(e1, e2)
        return frames

    def complete(t1, t2, seed):   # over a slice of nodes
        cols = []
        for r in range(q):
            v = seed[..., r]
            for b in [t1, t2] + cols:
                v = v - np.einsum("...i,...i->...", b, v)[..., None] * b
            nv = np.linalg.norm(v, axis=-1, keepdims=True)
            if np.any(nv < 1e-8):
                raise ValueError("degenerate normal completion; immersion "
                                 "nearly tangent to the seed frame")
            cols.append(v / nv)
        return np.stack(cols, axis=-1)

    # seed at the origin: complete the tangent pair by QR, fix orientation
    A = np.column_stack([e1[0, 0], e2[0, 0], np.eye(n)])
    qmat, _ = np.linalg.qr(A)
    seed = qmat[:, 2:2 + q].copy()
    frames[0, 0, :, 2:] = complete(e1[0, 0], e2[0, 0], seed)
    if np.linalg.det(frames[0, 0]) < 0:
        frames[0, 0, :, n - 1] *= -1.0
    for i in range(1, nx):
        frames[i, 0, :, 2:] = complete(e1[i, 0], e2[i, 0],
                                       frames[i - 1, 0, :, 2:])
    for j in range(1, ny):
        frames[:, j, :, 2:] = complete(e1[:, j], e2[:, j],
                                       frames[:, j - 1, :, 2:])
    return frames


# the discrete pullback of an exactly conformal chart deviates by O(h^2):
# gate the conformality defect at max(25 h^2, 1e-4), well above that but far
# below order-one anisotropy
CONFORMAL_TOL_H2, CONFORMAL_TOL_MIN = 25.0, 1e-4


def spinor_of_immersion(F, alg, grid):
    """Extract (SpinorField, ImmersionData) from an immersed grid F.

    The pullback of the Maurer-Cartan form gives the induced metric (checked
    conformal), the adapted frames (normal part marched continuously), the
    second fundamental form and normal connection by discrete ambient
    differentiation, and the spinor as the reversed continuous spin lift of
    the frame rotation.  The result satisfies the Killing equation to O(h^2)
    and round-trips with the reconstruction up to a rigid motion.
    """
    model = model_for(alg)
    n = alg.n
    q = n - 2
    conformal_tol = max(CONFORMAL_TOL_H2 * grid.h ** 2, CONFORMAL_TOL_MIN)
    zx, zy = maurer_cartan_pullback(F, model, grid)
    gxx, gxy, gyy = first_fundamental_form(zx, zy)
    if np.min(gxx) <= 0 or np.min(gyy) <= 0:
        raise ValueError("degenerate immersion: vanishing coordinate tangent")
    scale = float(np.max(gxx))
    if float(np.max(np.abs(gxy))) > conformal_tol * scale or \
            float(np.max(np.abs(gxx - gyy))) > conformal_tol * scale:
        raise ValueError("the parametrization is not conformal; the grid "
                         "machinery requires mu^2 (dx^2 + dy^2) metrics")
    mu = np.sqrt(0.5 * (gxx + gyy))
    out_grid = type(grid)(grid.nx, grid.ny, grid.h, mu=mu, x0=grid.x0,
                          y0=grid.y0)
    frames = _continuous_normal_frames(zx, zy, mu, n)
    normals = frames[..., 2:]
    B = second_fundamental_form(zx, zy, normals, out_grid, alg, 2) \
        / mu[..., None, None, None] ** 2
    if q > 1:
        theta_x, theta_y = normal_connection(zx, zy, normals, out_grid, alg)
        data = ImmersionData(out_grid, frames, B=B, theta_x=theta_x,
                             theta_y=theta_y)
    else:
        data = ImmersionData(out_grid, frames, S=B[..., 0])
    values = _continuous_spin_lift(frames)
    field = SpinorField(out_grid, n, values)
    return field, data


def _continuous_spin_lift(frames):
    """Reversed spin lifts of the frame rotations, sign-matched along the
    spanning tree so the field is continuous: a node flips when its dot
    product with its tree parent is negative; the flips compose down it."""
    n = frames.shape[-1]
    values = reverse_array(spin_lift_array(frames), n)
    flip = np.ones(frames.shape[:2])
    flip[1:, 0] = np.where(np.einsum(
        "xk,xk->x", values[1:, 0], values[:-1, 0]) < 0, -1.0, 1.0)
    flip[:, 1:] = np.where(np.einsum(
        "xyk,xyk->xy", values[:, 1:], values[:, :-1]) < 0, -1.0, 1.0)
    flip[:, 0] = np.cumprod(flip[:, 0])
    return values * np.cumprod(flip, axis=1)[..., None]


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
    sx, sy = map(bivector_array, spin_connection_matrices(data))
    gx, gy = (bivector_array(gamma_frame_matrix(
        alg, data.frames, _coordinate_direction(mu, a))) for a in range(2))
    vals = field.values
    e1 = vector_array(np.eye(n)[0], n)
    e2 = vector_array(np.eye(n)[1], n)
    nab_x = grid.dx(vals) + 0.5 * gp_array(sx, vals, n)
    nab_y = grid.dy(vals) + 0.5 * gp_array(sy, vals, n)
    D = (gp_array(e1, nab_x, n) + gp_array(e2, nab_y, n)) / mu[..., None]
    gamma_el = 0.5 * (gp_array(e1, gx, n) + gp_array(e2, gy, n)) \
        / mu[..., None]
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
    p, q = psi_from_phi_pair(z1, z2)
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
