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

Residual evaluators implemented here:

  * frame_compat_residuals -- the q = 1 frame equations
        nabla_X T_j = sum_{i,k} Gamma_ij^k <X, T_i> T_k + f_j S(X)
        d f_j (X)   = sum_{i,k} Gamma_ij^k f_k <X, T_i> - h(X, T_j)
  * ekt_compat_residuals   -- the E(kappa, tau) reduction in terms of a
    single tangent field T and function f with |T|^2 + f^2 = 1
  * gamma_tilde            -- the tangential Clifford representative of the
    ambient connection for hypersurfaces, with the dim-3 shortcut through
    the area element
  * ekt_gamma_bivector     -- the E(kappa, tau) connection bivector
  * gcr_residuals          -- Gauss, Codazzi and Ricci equations with the
    ambient curvature pulled back through the frame
  * hn_u_residual          -- the distinguished-field equation of H^n

All residuals are per-node max norms over the frame directions involved;
derivatives use the grid's second-order stencils.
"""

import numpy as np

from . import lie_algebra as la
from .clifford import Multivector

FRAME_TOL = 1e-10


# =============================================================================
# Data bundles
# =============================================================================

class ImmersionData:
    """Adapted frames + second fundamental form on a conformal grid."""

    __slots__ = ("grid", "n", "q", "frames", "B", "theta_x", "theta_y")

    def __init__(self, grid, frames, B=None, S=None, theta_x=None, theta_y=None,
                 tol=FRAME_TOL):
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
        if not dev <= tol:
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
        if not np.max(np.abs(B - np.swapaxes(B, 2, 3))) <= tol:
            raise ValueError("second fundamental form must be symmetric")
        zeros = np.zeros((nx, ny, q, q))
        theta_x = zeros if theta_x is None else np.array(theta_x, dtype=np.float64)
        theta_y = zeros.copy() if theta_y is None else np.array(theta_y, dtype=np.float64)
        for th in (theta_x, theta_y):
            if th.shape != (nx, ny, q, q):
                raise ValueError("normal connection coefficients must be (nx, ny, q, q)")
            if not np.max(np.abs(th + np.swapaxes(th, 2, 3))) <= tol:
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

    def __init__(self, grid, T, f, S, kappa, tau, tol=FRAME_TOL):
        T = np.asarray(T, dtype=np.float64)
        f = np.asarray(f, dtype=np.float64)
        S = np.asarray(S, dtype=np.float64)
        nx, ny = grid.shape
        if T.shape != (nx, ny, 2) or f.shape != (nx, ny) or S.shape != (nx, ny, 2, 2):
            raise ValueError("EKTData fields must be T:(nx,ny,2), f:(nx,ny), "
                             "S:(nx,ny,2,2)")
        dev = np.max(np.abs(np.sum(T * T, axis=-1) + f * f - 1.0))
        if not dev <= tol:
            raise ValueError(f"|T|^2 + f^2 = 1 violated by {dev:.3e}")
        self.grid = grid
        self.T = T
        self.f = f
        self.S = S
        self.kappa = float(kappa)
        self.tau = float(tau)

    @property
    def sigma(self):
        if self.tau == 0:
            raise ValueError("sigma = kappa / (2 tau) undefined for tau = 0")
        return self.kappa / (2.0 * self.tau)


def _rotJ(v):
    """Rotation by +pi/2 of tangent frame components (..., 2)."""
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


# =============================================================================
# Frame compatibility (q = 1)
# =============================================================================

def frame_compat_residual_fields(data, alg):
    """Signed residuals of the two q = 1 frame equations: arrays indexed
    [node, j, component, direction a] and [node, j, direction a]."""
    if data.q != 1:
        raise ValueError("frame equations require a rank-1 normal bundle; "
                         "use gcr_residuals for general corank")
    if alg.n != data.n:
        raise ValueError("algebra dimension does not match the data")
    grid = data.grid
    mu = grid.mu
    T = data.T                        # (nx, ny, n, 2)
    f = data.f[..., 0]                # (nx, ny, n)
    S = data.S                        # (nx, ny, 2, 2)
    gamma = alg.gamma
    # covariant derivative of each T_j along e_a = d_a / mu
    dT = np.stack([grid.covariant_dx(T), grid.covariant_dy(T)], axis=-1)
    dT /= mu[..., None, None, None]   # (nx, ny, n, 2, a)
    df = np.stack([grid.dx(f), grid.dy(f)], axis=-1) / mu[..., None, None]
    # <e_a, T_i> is the a-th frame component of T_i
    # sum_{i,k} gamma[i,j,k] T_i^a T_k^b  and  sum_{i,k} gamma[i,j,k] f_k T_i^a
    gTT = np.einsum("ijk,xyia,xykb->xyjba", gamma, T, T)
    gTf = np.einsum("ijk,xyia,xyk->xyja", gamma, T, f)
    res_T = dT - gTT - np.einsum("xyj,xyba->xyjba", f, S)
    hXT = np.einsum("xyba,xyjb->xyja", S, T)
    res_f = df - gTf + hXT
    return res_T, res_f


def frame_compat_residuals(data, alg):
    """Per-node max residuals of the two q = 1 frame equations over the
    distinguished directions and the metric frame; returns (res_T, res_f)."""
    res_T, res_f = frame_compat_residual_fields(data, alg)
    return (np.max(np.abs(res_T), axis=(2, 3, 4)),
            np.max(np.abs(res_f), axis=(2, 3)))


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
# Tangential connection representatives
# =============================================================================

def gamma_tilde(data, alg, X, vertex, method="general"):
    """Tangential Clifford representative of the ambient connection at a
    hypersurface node: an element of Cl_2 acting on intrinsic spinors.

    X is a tangent vector in frame components.  `method` picks the general
    tangent/normal expansion or the 3-dimensional shortcut through the area
    element; the two agree and that agreement is a checked property.
    """
    if data.q != 1:
        raise ValueError("gamma_tilde is defined for hypersurfaces (q = 1)")
    i0, j0 = vertex
    X = np.asarray(X, dtype=np.float64)
    n = data.n
    T = data.T[i0, j0]                # (n, 2)
    f = data.f[i0, j0, :, 0]          # (n,)
    XT = T @ X                        # <X, T_i>
    gamma = alg.gamma
    out = Multivector.zero(2)
    if method == "general":
        for i in range(n):
            if XT[i] == 0.0:
                continue
            for j in range(n):
                for k in range(j + 1, n):
                    g = gamma[i, j, k]
                    if g == 0.0:
                        continue
                    Tj = Multivector.from_vector(T[j], 2)
                    Tk = Multivector.from_vector(T[k], 2)
                    term = (Tj * Tk - Tk * Tj) * 0.5 + (f[k] * Tj - f[j] * Tk)
                    out = out + (XT[i] * g) * term
        return out
    if method == "dim3":
        if n != 3:
            raise ValueError("the shortcut form needs ambient dimension 3")
        omega = Multivector.blade(2, 0b11)
        eps = {(0, 1): (2, 1.0), (0, 2): (1, -1.0), (1, 2): (0, 1.0)}
        for i in range(3):
            if XT[i] == 0.0:
                continue
            for (j, k), (l, sgn) in eps.items():
                g = gamma[i, j, k]
                if g == 0.0:
                    continue
                vec = Multivector.from_vector(T[l], 2)
                out = out + (XT[i] * g * sgn) * ((f[l] - vec) * omega)
        return out
    raise ValueError(f"unknown method {method!r}")


def ekt_gamma_bivector(data, X, vertex):
    """E(kappa, tau) connection bivector at a node, in the frame Clifford
    algebra Cl_3 with generators (e1, e2, nu):

        ((2 tau - sigma) <X, T> (T nu - f) - tau X nu) omega.
    """
    sigma = data.sigma  # raises for tau = 0
    tau = data.tau
    i0, j0 = vertex
    X = np.asarray(X, dtype=np.float64)
    T = data.T[i0, j0]
    f = float(data.f[i0, j0])
    nu = Multivector.basis_vector(3, 2)
    omega = Multivector.blade(3, 0b011)
    Tmv = Multivector.from_vector([T[0], T[1], 0.0], 3)
    Xmv = Multivector.from_vector([X[0], X[1], 0.0], 3)
    XdotT = float(X @ T)
    head = (2.0 * tau - sigma) * XdotT * (Tmv * nu - Multivector.scalar(3, f)) \
        - tau * (Xmv * nu)
    return head * omega


# =============================================================================
# Gauss / Codazzi / Ricci
# =============================================================================

def ambient_curvature_frame(data, alg):
    """R^G(e1, e2) pulled back through the frame, as per-node skew matrices
    acting on frame components."""
    U = data.frames
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
    q = data.q
    RG = ambient_curvature_frame(data, alg)      # (nx, ny, n, n)
    B = data.B
    K = grid.gauss_curvature()
    gauss = np.zeros(grid.shape + (2, 2))
    codazzi = np.zeros(grid.shape + (2, q))
    RT = {0: np.stack([np.zeros_like(K), -K], axis=-1),
          1: np.stack([K, np.zeros_like(K)], axis=-1)}  # R^T(e1,e2) e_z
    covB = _covariant_B(data)
    for zi in range(2):
        # B*(X, B(Y,Z)) - B*(Y, B(X,Z)) with X=e1, Y=e2 and
        # B*(e_a, N)_b = sum_r B[a, b, r] N_r
        BYZ = B[:, :, 1, zi, :]                   # B(e2, Z)
        BXZ = B[:, :, 0, zi, :]                   # B(e1, Z)
        BsX = np.einsum("xybr,xyr->xyb", B[:, :, 0], BYZ)
        BsY = np.einsum("xybr,xyr->xyb", B[:, :, 1], BXZ)
        gauss[..., zi, :] = RG[..., :2, zi] - RT[zi] + BsX - BsY
        codazzi[..., zi, :] = RG[..., 2:, zi] \
            - covB[:, :, 0, 1, zi] + covB[:, :, 1, 0, zi]
    if q == 1:
        ricci = np.zeros(grid.shape + (1, 1))
    else:
        thx, thy = data.theta_x, data.theta_y
        RN = (grid.dx(thy) - grid.dy(thx) + thx @ thy - thy @ thx) \
            / grid.mu[..., None, None] ** 2
        ricci = np.zeros(grid.shape + (q, q))
        for r in range(q):
            # B(e1, B*(e2, n_r)) - B(e2, B*(e1, n_r))
            Bs2 = B[:, :, 1, :, r]                # B*(e2, n_r)_b = B[1, b, r]
            Bs1 = B[:, :, 0, :, r]
            term = np.einsum("xybs,xyb->xys", B[:, :, 0], Bs2) \
                - np.einsum("xybs,xyb->xys", B[:, :, 1], Bs1)
            ricci[..., r, :] = RG[..., 2:, 2 + r] - RN[..., r] + term
    return gauss, codazzi, ricci


def gcr_residuals(data, alg):
    """Per-node (gauss, codazzi, ricci) max-norm residual fields.

    The Ricci residual is identically zero for q = 1: a rank-1 normal
    bundle is flat and the B terms cancel in pairs.
    """
    gauss, codazzi, ricci = gcr_residual_fields(data, alg)
    gmax = np.max(np.abs(gauss), axis=(2, 3))
    cmax = np.max(np.abs(codazzi), axis=(2, 3))
    rmax = np.zeros(data.grid.shape) if data.q == 1 \
        else np.max(np.abs(ricci), axis=(2, 3))
    return gmax, cmax, rmax


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

def hn_u_residual(data, u_field, alg, tol=1e-8):
    """Residual of the H^n structure-field equation

        nabla_X U + |U|^2 X - <X, U> U + B(X, U^T) - B*(X, U^N) = 0

    per node, maxed over the metric frame directions.  u_field holds the
    frame components of U (length 2 + q per node); |U| must equal |l|, with
    l read off the structure constants, l_i = c[i, j, j] for any j != i.
    """
    l = np.where(np.arange(alg.n) < alg.n - 1, alg.c[:, -1, -1],
                 alg.c[:, 0, 0])
    if not (np.any(l) and np.array_equal(alg.c, la.hn_constants(l))):
        raise ValueError("hn_u_residual expects an H^n algebra")
    grid, q = data.grid, data.q
    u = np.asarray(u_field, dtype=np.float64)
    if u.shape != grid.shape + (2 + q,):
        raise ValueError("u_field must have frame components (nx, ny, 2 + q)")
    norms = np.linalg.norm(u, axis=-1)
    dev = np.max(np.abs(norms - np.linalg.norm(l)))
    if not dev <= tol:
        raise ValueError(f"|U| must equal |l| everywhere; off by {dev:.3e}")
    mu = grid.mu
    uT = u[..., :2]
    uN = u[..., 2:]
    # direct-sum connection: rotate the tangent part, twist the normal part
    du = np.stack([np.concatenate([grid.covariant_dx(uT),
                                   grid.dx(uN) + np.einsum("xyrs,xys->xyr",
                                                           data.theta_x, uN)],
                                  axis=-1),
                   np.concatenate([grid.covariant_dy(uT),
                                   grid.dy(uN) + np.einsum("xyrs,xys->xyr",
                                                           data.theta_y, uN)],
                                  axis=-1)], axis=-1)
    du /= mu[..., None, None]
    B = data.B
    out = np.zeros(grid.shape)
    u2 = np.sum(u * u, axis=-1)
    for a in range(2):
        res = du[..., a].copy()
        res[..., a] += u2                                  # |U|^2 X
        res -= u[..., a:a + 1] * u                         # -<X,U> U
        res[..., 2:] += np.einsum("xybr,xyb->xyr", B[:, :, a], uT)   # B(X, U^T)
        res[..., :2] -= np.einsum("xybr,xyr->xyb", B[:, :, a], uN)   # -B*(X, U^N)
        out = np.maximum(out, np.max(np.abs(res), axis=-1))
    return out
