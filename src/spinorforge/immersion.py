"""Discretized submanifold data and its integrability residuals.

An `ImmersionData` bundle carries, per grid node, the adapted frame rows
U[i, :] = (T_i^1, T_i^2, f_i^1, ..., f_i^q): the i-th distinguished ambient
direction written in the frame (e1, e2, n_1, ..., n_q) with e1 = dx/mu,
e2 = dy/mu the metric tangent frame and n_r the normal frame.  U is
orthogonal with det +1; its rows are the tangent/normal splittings
T_i + f_i nu familiar from the hypersurface case q = 1.

The second fundamental form is stored in frame components,
B[a, b, r] = <B(e_a, e_b), n_r> (for q = 1 this is the shape operator S),
and rank-q normal bundles additionally carry per-node skew connection
coefficients theta (nx, ny, 2, q, q) on the tangent axis a = 0, 1 (dx, dy),
(nabla^N_{d_a} n)_r = d_a n_r + theta[a, r, s] n_s, whose blocks the files
and the constructor name theta_x and theta_y.

The frame moves by one matrix rule: nabla^G_X eps_c = sum_d
(Omega(X) + shape_matrix(B, X))[d, c] eps_d on eps = (e1, e2, n_1, ...,
n_q), Omega the Levi-Civita + normal connection (`frame_connection`) and
shape_matrix(B, X) = [[0, -B(X)*], [B(X), 0]].  These two functions are
the only code that places w, theta or B(X, .) into n x n matrices; the
residuals below and the spinor connection (`spinor`) are built from them.

Residual evaluators implemented here:

  * frame_compat_residuals -- the frame equations nabla^G_X E_j =
    Gamma(X) E_j of the rows of U, for any corank; for q = 1 they read
        nabla_X T_j = sum_{i,k} Gamma_ij^k <X, T_i> T_k + f_j S(X)
        d f_j (X)   = sum_{i,k} Gamma_ij^k f_k <X, T_i> - h(X, T_j)
  * ekt_compat_residuals   -- the E(kappa, tau) reduction in terms of a
    single tangent field T and function f with |T|^2 + f^2 = 1
  * gcr_residuals          -- Gauss, Codazzi and Ricci equations with the
    ambient curvature pulled back through the frame
  * hn_u_residual          -- the distinguished-field equation of H^n

All residuals are per-node max norms over the frame directions involved;
derivatives use the grid's second-order stencils.
"""

import numpy as np

from . import lie_algebra as la
from .clifford import offdiag_skew_array, worst_node
from .grid import tangent_stack

FRAME_TOL = 1e-10
# how far |U| of an H^n structure field may stray from |l|
U_NORM_TOL = 1e-8


# =============================================================================
# Data bundles
# =============================================================================

def frame_determinants(frames):
    """det U per node of a frame field (nx, ny, n, n), n >= 3: written out
    for n = 3 (the triple product of the rows) and n = 4 (the Laplace
    expansion in the 2 x 2 minors of rows 0, 1 and of rows 2, 3), the split
    `spin_lift_even` makes; LAPACK for larger n."""
    n = frames.shape[-1]
    if n > 4:
        return np.linalg.det(frames)

    def minor(u, v, i, j):
        return u[..., i] * v[..., j] - u[..., j] * v[..., i]

    rows = [frames[:, :, i] for i in range(n)]
    if n == 3:                                  # a . (b x c)
        a, b, c = rows
        return (a[..., 0] * minor(b, c, 1, 2) - a[..., 1] * minor(b, c, 0, 2)
                + a[..., 2] * minor(b, c, 0, 1))
    a, b, c, d = rows
    return (minor(a, b, 0, 1) * minor(c, d, 2, 3)
            - minor(a, b, 0, 2) * minor(c, d, 1, 3)
            + minor(a, b, 0, 3) * minor(c, d, 1, 2)
            + minor(a, b, 1, 2) * minor(c, d, 0, 3)
            - minor(a, b, 1, 3) * minor(c, d, 0, 2)
            + minor(a, b, 2, 3) * minor(c, d, 0, 1))


class ImmersionData:
    """Adapted frames, second fundamental form and normal connection theta
    (its blocks theta_x, theta_y zero when not given) on a conformal grid.

    The frames are judged as whole node fields: orthonormality by one
    stacked product U U^T against the identity, to FRAME_TOL, and
    orientation by the sign of `frame_determinants`; a failed gate names
    its worst node, the orientation gate its first reflection."""

    __slots__ = ("grid", "n", "q", "frames", "B", "theta")

    def __init__(self, grid, frames, B=None, S=None, theta_x=None,
                 theta_y=None):
        frames = np.array(frames, dtype=np.float64)
        # named here: the gates below would only report a broken property
        for name, arr, gate in (("frames", frames, "orthonormality"),
                                ("S", S, "symmetric-form"),
                                ("B", B, "symmetric-form"),
                                ("theta_x", theta_x, "skew"),
                                ("theta_y", theta_y, "skew")):
            if arr is not None and not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} has non-finite entries, so it "
                                 f"fails the {gate} check")
        nx, ny = grid.shape
        n = frames.shape[-1]
        if frames.shape != (nx, ny, n, n):
            raise ValueError(f"frames must be (nx, ny, n, n); got {frames.shape}")
        q = n - 2
        if q < 1:
            raise ValueError("ambient dimension must be at least 3")
        # U U^T: the product on the transposed view takes a slower loop
        transposed = np.ascontiguousarray(np.swapaxes(frames, 2, 3))
        defect = np.abs(frames @ transposed - np.eye(n))
        dev = np.max(defect)
        if not dev <= FRAME_TOL:
            raise ValueError(f"frame orthonormality violated by {dev:.3e} at "
                             f"node {worst_node(np.max(defect, axis=(2, 3)))}")
        reflected = frame_determinants(frames) < 0
        if np.any(reflected):
            raise ValueError(f"frames must be positively oriented (det +1) "
                             f"at node {worst_node(reflected)}")
        if (B is None) == (S is None):
            raise ValueError("provide exactly one of B (general q) or S (q = 1)")
        if S is not None:
            S = np.asarray(S, dtype=np.float64)
            if q != 1:
                raise ValueError("the shape-operator form S is for q = 1 only")
            if S.shape != (nx, ny, 2, 2):
                raise ValueError("S must be (nx, ny, 2, 2)")
            B = S[..., None]
        else:
            B = np.asarray(B, dtype=np.float64)
            if B.shape != (nx, ny, 2, 2, q):
                raise ValueError(f"B must be (nx, ny, 2, 2, {q})")
        if not np.max(np.abs(B[:, :, 0, 1] - B[:, :, 1, 0])) <= FRAME_TOL:
            raise ValueError("second fundamental form must be symmetric")
        blocks = [np.zeros((nx, ny, q, q)) if th is None
                  else np.asarray(th, dtype=np.float64)
                  for th in (theta_x, theta_y)]
        for th in blocks:
            if th.shape != (nx, ny, q, q):
                raise ValueError("normal connection coefficients must be (nx, ny, q, q)")
            if not np.max(np.abs(th + np.swapaxes(th, 2, 3))) <= FRAME_TOL:
                raise ValueError("normal connection coefficients must be skew")
        theta = tangent_stack(blocks)
        # immutable value semantics: residual evaluators never mutate data
        B = np.array(B, dtype=np.float64)
        for arr in (frames, B, theta):
            arr.flags.writeable = False
        self.grid = grid
        self.n = n
        self.q = q
        self.frames = frames
        self.B = B
        self.theta = theta

    # tangent / normal parts of the distinguished directions
    @property
    def T(self):
        return self.frames[..., :2]

    @property
    def f(self):
        return self.frames[..., 2:]

    @property
    def S(self):
        if self.q != 1:
            raise ValueError("shape operator view requires q = 1")
        return self.B[..., 0]


class EKTData:
    """E(kappa, tau) reduction: tangent field T, function f, shape operator S."""

    __slots__ = ("grid", "T", "f", "S", "kappa", "tau")

    def __init__(self, grid, T, f, S, kappa, tau):
        T = np.asarray(T, dtype=np.float64)
        f = np.asarray(f, dtype=np.float64)
        S = np.asarray(S, dtype=np.float64)
        nx, ny = grid.shape
        if T.shape != (nx, ny, 2) or f.shape != (nx, ny) or S.shape != (nx, ny, 2, 2):
            raise ValueError("EKTData fields must be T:(nx,ny,2), f:(nx,ny), "
                             "S:(nx,ny,2,2)")
        dev = np.max(np.abs(np.sum(T * T, axis=-1) + f * f - 1.0))
        if not dev <= FRAME_TOL:
            raise ValueError(f"|T|^2 + f^2 = 1 violated by {dev:.3e}")
        self.grid = grid
        self.T = T
        self.f = f
        self.S = S
        self.kappa = float(kappa)
        self.tau = float(tau)


def _rotJ(v):
    """Rotation by +pi/2 of tangent frame components (..., 2)."""
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


# =============================================================================
# Frame motion and frame compatibility
# =============================================================================

def frame_connection(data):
    """[Omega_0, Omega_1]: skew matrices of the Levi-Civita + normal
    connection along the coordinate directions d_0 = dx, d_1 = dy, acting
    on frame components: nabla_{d_a} eps_c = sum_d Omega_a[d, c] eps_d,
    with nabla e1 = w e2 and the normal block theta[:, :, a]."""
    m = np.zeros((2,) + data.grid.shape + (data.n, data.n))
    m[..., 1, 0] = data.grid.rotation_coefficients()
    m[..., 0, 1] = -m[..., 1, 0]
    m[..., 2:, 2:] = np.moveaxis(data.theta, 2, 0)
    return list(m)


def shape_matrix(B, X):
    """[[0, -B(X)*], [B(X), 0]] with B(X)[r, b] = <B(X, e_b), n_r>: the
    second fundamental form's part of nabla^G_X on frame components, for X
    in tangent frame components (..., 2) broadcast against B (..., 2, 2, q)."""
    return offdiag_skew_array(np.einsum("...a,...ajr->...rj", X, B))


def frame_compat_residual_fields(data, alg):
    """Signed residuals of the frame equations nabla^G_{e_a} E_j =
    Gamma(e_a) E_j, row j of U being E_j in frame components:

        R_a = (d_a U + U Omega_a^T) / mu + G_a U + U shape_matrix(B, e_a)^T

    with G_a = Gamma(e_a) on G-coordinates, skew, so that G_a U = -G_a^T U.
    Returns the tangent and normal columns, indexed [node, j, b, a] and
    [node, j, r, a]."""
    if alg.n != data.n:
        raise ValueError("algebra dimension does not match the data")
    grid = data.grid
    mu = grid.mu[..., None, None]
    U = data.frames
    columns = np.swapaxes(U, 2, 3)
    R = np.empty(U.shape + (2,))
    for a, omega in enumerate(frame_connection(data)):
        # column a of U holds the G-coordinates of e_a; G_a U is Gamma(e_a)
        # applied to each column of U
        GU = np.swapaxes(alg.connection(U[:, :, None, :, a], columns), 2, 3)
        shape = shape_matrix(data.B, np.eye(2)[a])
        # U M^T moves each row E_j by M
        R[..., a] = (grid.partial(U, a)
                     + np.einsum("xyjc,xydc->xyjd", U, omega)) / mu \
            + GU + np.einsum("xyjc,xydc->xyjd", U, shape)
    return R[..., :2, :], R[..., 2:, :]


def frame_compat_residuals(data, alg):
    """Per-node max residuals of the frame equations over the distinguished
    directions and the metric frame; returns (res_T, res_f)."""
    res_T, res_f = frame_compat_residual_fields(data, alg)
    return (np.max(np.abs(res_T), axis=(2, 3, 4)),
            np.max(np.abs(res_f), axis=(2, 3, 4)))


def ekt_compat_residuals(data):
    """Per-node residual triple for the E(kappa, tau) reduction:
    (norm constraint, T equation, f equation)."""
    grid = data.grid
    mu = grid.mu
    T, f, S, tau = data.T, data.f, data.S, data.tau
    norm_res = np.abs(np.sum(T * T, axis=-1) + f * f - 1.0)
    res_T = np.empty(T.shape + (2,))
    res_f = np.empty(f.shape + (2,))
    for a in range(2):
        drive = S[..., :, a] - tau * _rotJ(np.eye(2)[a])  # S e_a - tau J e_a
        res_T[..., a] = grid.covariant(T, a) / mu[..., None] \
            - f[..., None] * drive
        res_f[..., a] = grid.partial(f, a) / mu + np.sum(drive * T, axis=-1)
    return (norm_res,
            np.max(np.abs(res_T), axis=(2, 3)),
            np.max(np.abs(res_f), axis=2))


# =============================================================================
# Gauss / Codazzi / Ricci
# =============================================================================

def ambient_curvature_frame(data, alg):
    """R^G(e1, e2) pulled back through the frame, as per-node skew matrices
    acting on frame components."""
    U = data.frames
    if not alg.gamma_terms:         # R^n is flat
        return np.zeros(U.shape)
    # the G-coordinates of f(e1), f(e2) are the columns 0 and 1
    Rhat = la.curvature_array(alg, U[..., 0], U[..., 1])
    return np.swapaxes(U, 2, 3) @ Rhat @ U


def _covariant_B(data):
    """(tilde nabla_{e_a} B)(e_b, e_c) for all a, b, c: (nx, ny, a, b, c, q)."""
    grid, mu = data.grid, data.grid.mu
    B = data.B
    out = np.empty(B.shape[:2] + (2,) + B.shape[2:])
    for a, w in enumerate(grid.rotation_coefficients()):
        term = grid.partial(B, a) + np.einsum("xyrs,xybcs->xybcr",
                                              data.theta[:, :, a], B)
        w = w[..., None]
        # -B(nabla e_b, e_c) - B(e_b, nabla e_c); nabla_{d_a} e1 = w e2, e2 -> -w e1
        corr = np.empty_like(term)
        corr[:, :, 0, 0] = -w * (B[:, :, 1, 0] + B[:, :, 0, 1])
        corr[:, :, 0, 1] = -w * (B[:, :, 1, 1] - B[:, :, 0, 0])
        corr[:, :, 1, 0] = w * (B[:, :, 0, 0] - B[:, :, 1, 1])
        corr[:, :, 1, 1] = w * (B[:, :, 0, 1] + B[:, :, 1, 0])
        out[:, :, a] = (term + corr) / mu[..., None, None, None]
    return out


def gcr_residual_fields(data, alg):
    """Signed residual fields of the Gauss, Codazzi and Ricci equations for
    X = e1, Y = e2:

      gauss[..., z, b]   tangential components, Z = e_z
      codazzi[..., z, r] normal components, Z = e_z
      ricci[..., r, s]   normal components, N = n_r (zeros for q = 1)

    R^G comes from the catalog curvature pulled back through the frame, R^T
    from the grid metric's discrete Gaussian curvature, R^N from the normal
    connection coefficients.
    """
    if alg.n != data.n:
        raise ValueError("algebra dimension does not match the data")
    grid = data.grid
    # RG[..., c, d] = <R^G(e1, e2) eps_c, eps_d>
    RG = np.swapaxes(ambient_curvature_frame(data, alg), 2, 3)
    K = grid.gauss_curvature()
    RT = np.zeros(grid.shape + (2, 2))           # [z, b] of R^T(e1,e2) e_z
    RT[..., 0, 1] = -K
    RT[..., 1, 0] = K
    covB = _covariant_B(data)
    # The B products run on the nodes-last copy Bt, Bt[a] = B(e_a, .), where
    # einsum's inner loop is over the nodes and not over a length-q axis.
    Bt = np.ascontiguousarray(np.moveaxis(data.B, (0, 1), (3, 4)))
    # B*(X, B(Y, Z)) - B*(Y, B(X, Z)) = M - M^T with B*(e_a, N)_b =
    # sum_r B[a, b, r] N_r
    M = np.moveaxis(np.einsum("brxy,zrxy->zbxy", *Bt), (2, 3), (0, 1))
    gauss = RG[..., :2, :2] - RT + M - np.swapaxes(M, 2, 3)
    codazzi = RG[..., :2, 2:] - covB[:, :, 0, 1] + covB[:, :, 1, 0]
    if data.q == 1:
        ricci = np.zeros(grid.shape + (1, 1))
    else:
        th = [data.theta[:, :, a] for a in range(2)]
        RN = (grid.partial(th[1], 0) - grid.partial(th[0], 1)
              + th[0] @ th[1] - th[1] @ th[0]) / grid.mu[..., None, None] ** 2
        # B(e1, B*(e2, n_r)) - B(e2, B*(e1, n_r)) = P - P^T
        P = np.moveaxis(np.einsum("bsxy,brxy->rsxy", *Bt), (2, 3),
                        (0, 1))
        ricci = RG[..., 2:, 2:] - RN + (P - np.swapaxes(P, 2, 3))
    return gauss, codazzi, ricci


def gcr_residuals(data, alg):
    """Per-node (gauss, codazzi, ricci) max-norm residual fields.

    The Ricci residual is identically zero for q = 1: a rank-1 normal
    bundle is flat and the B terms cancel in pairs.
    """
    gauss, codazzi, ricci = gcr_residual_fields(data, alg)
    return tuple(np.max(np.abs(r), axis=(2, 3))
                 for r in (gauss, codazzi, ricci))


def ekt_integrability_residuals(data):
    """Signed residuals of the reduced E(kappa, tau) integrability system:

      gauss  = K - det S - tau^2 - (kappa - 4 tau^2) f^2
      codazzi[..., b] = (nabla_{e1}(S e2) - nabla_{e2}(S e1) - S [e1, e2]
                         - (kappa - 4 tau^2) f (<e2,T> e1 - <e1,T> e2))_b

    computed with the same discrete operators as the general machinery so
    the two routes agree to rounding on identical inputs.
    """
    grid = data.grid
    mu = grid.mu
    S, T, f = data.S, data.T, data.f
    kt = data.kappa - 4.0 * data.tau ** 2
    K = grid.gauss_curvature()
    gauss = K - np.linalg.det(S) - data.tau ** 2 - kt * f ** 2
    d1 = grid.covariant(S[..., :, 1], 0) / mu[..., None]     # nabla_1 (S e2)
    d2 = grid.covariant(S[..., :, 0], 1) / mu[..., None]     # nabla_2 (S e1)
    # [e1, e2] = nabla_{e1} e2 - nabla_{e2} e1 = -(w_a / mu) e_a summed
    br = np.stack([-w / mu for w in grid.rotation_coefficients()], axis=-1)
    Sbr = np.einsum("xyab,xyb->xya", S, br)
    drive = -(kt * f)[..., None] * _rotJ(T)
    codazzi = d1 - d2 - Sbr - drive
    return gauss, codazzi


# =============================================================================
# H^n distinguished field
# =============================================================================

def checked_u_field(data, u_field, alg):
    """u_field as floats, once it is an H^n structure field U of data: frame
    components (nx, ny, 2 + q) with |U| = |l| to U_NORM_TOL, l read off c
    as l_i = c[i, j, j] for any j != i; a ValueError otherwise."""
    l = np.where(np.arange(alg.n) < alg.n - 1, alg.c[:, -1, -1],
                 alg.c[:, 0, 0])
    if not (np.any(l) and np.array_equal(alg.c, la.hn_constants(l))):
        raise ValueError("hn_u_residual expects an H^n algebra")
    u = np.asarray(u_field, dtype=np.float64)
    if u.shape != data.grid.shape + (2 + data.q,):
        raise ValueError("u_field must have frame components (nx, ny, 2 + q)")
    norms = np.linalg.norm(u, axis=-1)
    dev = np.max(np.abs(norms - np.linalg.norm(l)))
    if not dev <= U_NORM_TOL:
        raise ValueError(f"|U| must equal |l| everywhere; off by {dev:.3e}")
    return u


def hn_u_residual(data, u_field, alg):
    """Residual of the H^n structure-field equation

        nabla_X U + |U|^2 X - <X, U> U + B(X, U^T) - B*(X, U^N) = 0

    per node, maxed over the metric frame directions, for a u_field that
    `checked_u_field` accepts: the frame components of U.
    """
    u = checked_u_field(data, u_field, alg)
    grid = data.grid
    mu = grid.mu[..., None]
    u2 = np.sum(u * u, axis=-1)
    out = np.zeros(grid.shape)
    for a, omega in enumerate(frame_connection(data)):
        shape = shape_matrix(data.B, np.eye(2)[a])
        res = (grid.partial(u, a) + np.einsum("xycd,xyd->xyc", omega, u)) / mu
        res[..., a] += u2                                  # |U|^2 X
        res -= u[..., a:a + 1] * u                         # -<X,U> U
        res += np.einsum("xycd,xyd->xyc", shape, u)  # B(X, U^T) - B*(X, U^N)
        out = np.maximum(out, np.max(np.abs(res), axis=-1))
    return out
