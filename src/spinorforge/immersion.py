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
coefficients theta_x, theta_y with (nabla^N_{dx} n)_r = dx n_r + theta_x[r,s] n_s.

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
from .clifford import offdiag_skew_array

FRAME_TOL = 1e-10
# how far |U| of an H^n structure field may stray from |l|
U_NORM_TOL = 1e-8


# =============================================================================
# Data bundles
# =============================================================================

class ImmersionData:
    """Adapted frames + second fundamental form on a conformal grid."""

    __slots__ = ("grid", "n", "q", "frames", "B", "theta_x", "theta_y")

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
        gram = np.einsum("xyia,xyja->xyij", frames, frames)
        dev = np.max(np.abs(gram - np.eye(n)))
        if not dev <= FRAME_TOL:
            raise ValueError(f"frame orthonormality violated by {dev:.3e}")
        if np.any(np.linalg.det(frames) < 0):
            raise ValueError("frames must be positively oriented (det +1)")
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
        if not np.max(np.abs(B - np.swapaxes(B, 2, 3))) <= FRAME_TOL:
            raise ValueError("second fundamental form must be symmetric")
        zeros = np.zeros((nx, ny, q, q))
        theta_x = zeros if theta_x is None else np.array(theta_x, dtype=np.float64)
        theta_y = zeros.copy() if theta_y is None else np.array(theta_y, dtype=np.float64)
        for th in (theta_x, theta_y):
            if th.shape != (nx, ny, q, q):
                raise ValueError("normal connection coefficients must be (nx, ny, q, q)")
            if not np.max(np.abs(th + np.swapaxes(th, 2, 3))) <= FRAME_TOL:
                raise ValueError("normal connection coefficients must be skew")
        # immutable value semantics: residual evaluators never mutate data
        B = np.array(B, dtype=np.float64)
        for arr in (frames, B, theta_x, theta_y):
            arr.flags.writeable = False
        self.grid = grid
        self.n = n
        self.q = q
        self.frames = frames
        self.B = B
        self.theta_x = theta_x
        self.theta_y = theta_y

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
    """(Omega_x, Omega_y): skew matrices of the Levi-Civita + normal
    connection along the coordinate directions dx, dy, acting on frame
    components: nabla_{d_a} eps_c = sum_d Omega_a[d, c] eps_d, with
    nabla e1 = w e2 and the normal block theta."""
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
    for a, (d, omega) in enumerate(zip((grid.dx, grid.dy),
                                       frame_connection(data))):
        # column a of U holds the G-coordinates of e_a; G_a U is Gamma(e_a)
        # applied to each column of U
        GU = np.swapaxes(alg.connection(U[:, :, None, :, a], columns), 2, 3)
        shape = shape_matrix(data.B, np.eye(2)[a])
        # U M^T moves each row E_j by M
        R[..., a] = (d(U) + np.einsum("xyjc,xydc->xyjd", U, omega)) / mu \
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
    dT = np.stack([grid.covariant_dx(T), grid.covariant_dy(T)], axis=-1)
    dT /= mu[..., None, None]
    df = np.stack([grid.dx(f), grid.dy(f)], axis=-1) / mu[..., None]
    res_T = np.zeros_like(dT)
    res_f = np.zeros_like(df)
    for a in range(2):
        X = np.zeros((2,))
        X[a] = 1.0
        SX = S[..., :, a]
        JX = _rotJ(np.broadcast_to(X, T.shape))
        drive = SX - tau * JX
        res_T[..., a] = dT[..., a] - f[..., None] * drive
        res_f[..., a] = df[..., a] + np.sum(drive * T, axis=-1)
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
    wx, wy = grid.rotation_coefficients()
    thetas = (data.theta_x, data.theta_y)
    ws = (wx, wy)
    dB = np.stack([grid.dx(B), grid.dy(B)], axis=2)  # (nx,ny,a,b,c,q)
    out = np.empty_like(dB)
    for a in range(2):
        term = dB[:, :, a] + np.einsum("xyrs,xybcs->xybcr", thetas[a], B)
        w = ws[a][..., None]
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
    B0, B1 = data.B[:, :, 0], data.B[:, :, 1]    # B(e1, .), B(e2, .)
    K = grid.gauss_curvature()
    RT = np.zeros(grid.shape + (2, 2))           # [z, b] of R^T(e1,e2) e_z
    RT[..., 0, 1] = -K
    RT[..., 1, 0] = K
    covB = _covariant_B(data)
    # The B products run on nodes-last copies of B0 and B1, where einsum's
    # inner loop is over the nodes and not over a length-q axis.
    Bt0, Bt1 = (np.ascontiguousarray(np.moveaxis(b, (0, 1), (2, 3)))
                for b in (B0, B1))
    # B*(X, B(Y, Z)) - B*(Y, B(X, Z)) = M - M^T with B*(e_a, N)_b =
    # sum_r B[a, b, r] N_r
    M = np.moveaxis(np.einsum("brxy,zrxy->zbxy", Bt0, Bt1), (2, 3), (0, 1))
    gauss = RG[..., :2, :2] - RT + M - np.swapaxes(M, 2, 3)
    codazzi = RG[..., :2, 2:] - covB[:, :, 0, 1] + covB[:, :, 1, 0]
    if data.q == 1:
        ricci = np.zeros(grid.shape + (1, 1))
    else:
        thx, thy = data.theta_x, data.theta_y
        RN = (grid.dx(thy) - grid.dy(thx) + thx @ thy - thy @ thx) \
            / grid.mu[..., None, None] ** 2
        # B(e1, B*(e2, n_r)) - B(e2, B*(e1, n_r)) = P - P^T
        P = np.moveaxis(np.einsum("bsxy,brxy->rsxy", Bt0, Bt1), (2, 3),
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
    Se1 = S[..., :, 0]
    Se2 = S[..., :, 1]
    d1 = grid.covariant_dx(Se2) / mu[..., None]
    d2 = grid.covariant_dy(Se1) / mu[..., None]
    wx, wy = grid.rotation_coefficients()
    # [e1, e2] = nabla_{e1} e2 - nabla_{e2} e1 = -(wx/mu) e1 - (wy/mu) e2
    br = np.stack([-wx / mu, -wy / mu], axis=-1)
    Sbr = np.einsum("xyab,xyb->xya", S, br)
    drive = np.zeros(grid.shape + (2,))
    drive[..., 0] = kt * f * T[..., 1]
    drive[..., 1] = -kt * f * T[..., 0]
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
    for a, (d, omega) in enumerate(zip((grid.dx, grid.dy),
                                       frame_connection(data))):
        shape = shape_matrix(data.B, np.eye(2)[a])
        res = (d(u) + np.einsum("xycd,xyd->xyc", omega, u)) / mu
        res[..., a] += u2                                  # |U|^2 X
        res -= u[..., a:a + 1] * u                         # -<X,U> U
        res += np.einsum("xycd,xyd->xyc", shape, u)  # B(X, U^T) - B*(X, U^N)
        out = np.maximum(out, np.max(np.abs(res), axis=-1))
    return out
