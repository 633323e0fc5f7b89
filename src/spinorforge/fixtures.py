"""Closed-form reference surfaces used by tests, demos and the CLI.

Every fixture is analytic: frames, shape operators and conformal factors
come from hand formulas, never from the solvers they are used to check.

  * sphere_r3      -- round sphere in R^3, inverse-stereographic chart,
                      S = Id / r, optional Codazzi-breaking perturbation
  * s3_equator     -- totally geodesic great 2-sphere in S^3 (S = 0)
  * s3_sphere      -- geodesic distance sphere of radius rho in S^3,
                      S = -cot(rho) Id; doubles as E(4, 1) data
  * sol3_plane     -- totally geodesic coordinate plane x2 = 0 in Sol_3,
                      hyperbolic induced metric in horocycle coordinates
  * h2xr_slice     -- H^2 x {0} in the semi-direct model of H^2 x R
  * nil_cylinder   -- vertical cylinder data in E(0, tau) (T parallel, f = 0)
  * horosphere_h3  -- flat horosphere in H^3 with its structure field U
  * random_ekt_data-- smooth random (T, f, S) with |T|^2 + f^2 = 1
  * cmc_sphere     -- Gauss-map data g = z of the unit sphere in R^3 (H = 1)
"""

from dataclasses import dataclass, field

import numpy as np

from . import lie_algebra as la
from .cmc import HPotential, WeierstrassData
from .grid import ParamGrid
from .immersion import EKTData, ImmersionData
from .lie_group import model_for


@dataclass
class SurfaceFixture:
    """Analytic surface bundle: algebra, data, embedding; grid and model
    are derived."""
    alg: object
    data: ImmersionData
    F: np.ndarray                 # (nx, ny, payload_dim) group points
    extras: dict = field(default_factory=dict)

    @property
    def grid(self):
        return self.data.grid

    @property
    def model(self):
        return model_for(self.alg)


def _centered_grid(n_nodes, extent, mu):
    h = extent / (n_nodes - 1)
    return ParamGrid(n_nodes, n_nodes, h, mu=mu,
                     x0=-extent / 2.0, y0=-extent / 2.0)


# =============================================================================
# R^3 sphere
# =============================================================================

def sphere_r3(n_nodes, radius=1.0, extent=0.5, codazzi_eps=0.0):
    """Round sphere via the chart P = r (2u, 2v, rho^2 - 1) / (1 + rho^2).

    The frame normal is the inward unit normal, so S = Id / r exactly.
    `codazzi_eps` adds eps * sin(3u + 1) cos(2v) to S_11, a perturbation
    with order-one gradients that violates the Codazzi equation by O(eps).
    """
    alg = la.rn(3)
    r = float(radius)
    grid = _centered_grid(n_nodes, extent,
                          lambda U, V: 2.0 * r / (1.0 + U ** 2 + V ** 2))
    U, V = grid.mesh()
    d = 1.0 + U ** 2 + V ** 2
    P = np.stack([2.0 * U, 2.0 * V, (U ** 2 + V ** 2) - 1.0], axis=-1) \
        * (r / d)[..., None]
    Pu = np.stack([2.0 * d - 4.0 * U ** 2, -4.0 * U * V, 4.0 * U], axis=-1) \
        * (r / d ** 2)[..., None]
    Pv = np.stack([-4.0 * U * V, 2.0 * d - 4.0 * V ** 2, 4.0 * V], axis=-1) \
        * (r / d ** 2)[..., None]
    e1 = Pu / grid.mu[..., None]
    e2 = Pv / grid.mu[..., None]
    nu = np.cross(e1, e2)             # inward: equals -P / r
    frames = np.stack([e1, e2, nu], axis=-1)
    S = np.zeros(grid.shape + (2, 2))
    S[..., 0, 0] = 1.0 / r
    S[..., 1, 1] = 1.0 / r
    if codazzi_eps:
        S[..., 0, 0] += codazzi_eps * np.sin(3.0 * U + 1.0) * np.cos(2.0 * V)
    data = ImmersionData(grid, frames, S=S)
    return SurfaceFixture(alg=alg, data=data, F=P,
                          extras={"radius": r, "codazzi_eps": codazzi_eps})


def sphere_r4_twisted(n_nodes, radius=1.0, extent=1.0, twist=1.0):
    """The R^3 sphere sitting in R^4 with its rank-2 normal frame rotated
    pointwise by alpha(u, v) = twist * (u + 2v): exercises corank 2 with a
    nonzero (though flat) normal connection.

    B(X, Y) = h(X, Y) (cos a, -sin a), theta_x = twist * J, theta_y = 2 twist * J.
    """
    base = sphere_r3(n_nodes, radius=radius, extent=extent)
    grid = base.grid
    U, V = grid.mesh()
    alpha = twist * (U + 2.0 * V)
    ca, sa = np.cos(alpha), np.sin(alpha)
    z = np.zeros(grid.shape)
    e1 = np.concatenate([base.data.frames[..., 0], z[..., None]], axis=-1)
    e2 = np.concatenate([base.data.frames[..., 1], z[..., None]], axis=-1)
    nu3 = np.concatenate([base.data.frames[..., 2], z[..., None]], axis=-1)
    e4 = np.zeros(grid.shape + (4,))
    e4[..., 3] = 1.0
    n1 = ca[..., None] * nu3 + sa[..., None] * e4
    n2 = -sa[..., None] * nu3 + ca[..., None] * e4
    frames = np.stack([e1, e2, n1, n2], axis=-1)
    h = base.data.S
    B = np.stack([h * ca[..., None, None], -h * sa[..., None, None]], axis=-1)
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    theta_x = np.broadcast_to(twist * J, grid.shape + (2, 2)).copy()
    theta_y = np.broadcast_to(2.0 * twist * J, grid.shape + (2, 2)).copy()
    data = ImmersionData(grid, frames, B=B, theta_x=theta_x, theta_y=theta_y)
    F = np.concatenate([base.F, z[..., None]], axis=-1)
    return SurfaceFixture(alg=la.rn(4), data=data, F=F,
                          extras={"radius": radius, "twist": twist})


# =============================================================================
# Surfaces in S^3
# =============================================================================

def _stereo_sphere_chart(grid):
    """Unit-sphere chart n(u, v) = (2u, 2v, 1 - rho^2)/(1 + rho^2) and its
    derivatives."""
    U, V = grid.mesh()
    d = 1.0 + U ** 2 + V ** 2
    n = np.stack([2.0 * U, 2.0 * V, 1.0 - (U ** 2 + V ** 2)], axis=-1) / d[..., None]
    nu_u = np.stack([2.0 * d - 4.0 * U ** 2, -4.0 * U * V, -4.0 * U],
                    axis=-1) / (d ** 2)[..., None]
    nu_v = np.stack([-4.0 * U * V, 2.0 * d - 4.0 * V ** 2, -4.0 * V],
                    axis=-1) / (d ** 2)[..., None]
    return n, nu_u, nu_v, d


def s3_sphere(n_nodes, rho=np.pi / 4, extent=0.5):
    """Geodesic sphere of radius rho about the identity of S^3:
    q = cos(rho) + sin(rho) n(u, v), pulled-back frame in closed form.

    The left-trivialized outward radial direction is exactly n, the
    orientation-compatible normal turns out to be +n, and S = -cot(rho) Id.
    Through E(4, 1) = S^3 this is also E(kappa, tau) test data with
    T + f nu the splitting of the third distinguished direction.
    """
    alg = la.s3()
    sr, cr = np.sin(rho), np.cos(rho)
    grid = _centered_grid(n_nodes, extent, None)
    n, nu_u, nu_v, d = _stereo_sphere_chart(grid)
    mu = 2.0 * sr / d
    grid = ParamGrid(grid.nx, grid.ny, grid.h, mu=mu, x0=grid.x0, y0=grid.y0)
    # omega_G(F_* du) = sin(rho) (cos(rho) dn - sin(rho) n x dn)
    xi_u = sr * (cr * nu_u - sr * np.cross(n, nu_u))
    xi_v = sr * (cr * nu_v - sr * np.cross(n, nu_v))
    e1 = xi_u / mu[..., None]
    e2 = xi_v / mu[..., None]
    frames = np.stack([e1, e2, n], axis=-1)
    S = np.zeros(grid.shape + (2, 2))
    S[..., 0, 0] = -cr / sr
    S[..., 1, 1] = -cr / sr
    data = ImmersionData(grid, frames, S=S)
    F = np.concatenate([np.full(grid.shape + (1,), cr), sr * n], axis=-1)
    ekt = EKTData(grid, T=frames[..., 2, :2].copy(), f=frames[..., 2, 2].copy(),
                  S=S, kappa=4.0, tau=1.0)
    return SurfaceFixture(alg=alg, data=data, F=F,
                          extras={"rho": rho, "ekt": ekt})


def s3_equator(n_nodes, extent=0.5):
    """Totally geodesic great 2-sphere spanned by (1, e1, e2) in S^3."""
    alg = la.s3()
    grid = _centered_grid(n_nodes, extent, None)
    U, V = grid.mesh()
    d = 1.0 + U ** 2 + V ** 2
    mu = 2.0 / d
    grid = ParamGrid(grid.nx, grid.ny, grid.h, mu=mu, x0=grid.x0, y0=grid.y0)
    w = (1.0 - (U ** 2 + V ** 2)) / d
    q1 = 2.0 * U / d
    q2 = 2.0 * V / d
    F = np.stack([w, q1, q2, np.zeros_like(w)], axis=-1)
    Fu = np.stack([-4.0 * U, 2.0 * d - 4.0 * U ** 2, -4.0 * U * V,
                   np.zeros_like(w)], axis=-1) / (d ** 2)[..., None]
    Fv = np.stack([-4.0 * V, -4.0 * U * V, 2.0 * d - 4.0 * V ** 2,
                   np.zeros_like(w)], axis=-1) / (d ** 2)[..., None]
    model = model_for(alg)
    xi_u = model.multiply(model.inverse(F), Fu)[..., 1:]
    xi_v = model.multiply(model.inverse(F), Fv)[..., 1:]
    e1 = xi_u / mu[..., None]
    e2 = xi_v / mu[..., None]
    nu = np.cross(e1, e2)
    frames = np.stack([e1, e2, nu], axis=-1)
    S = np.zeros(grid.shape + (2, 2))
    data = ImmersionData(grid, frames, S=S)
    return SurfaceFixture(alg=alg, data=data, F=F)


# =============================================================================
# Semi-direct slices
# =============================================================================

def _vertical_slice(alg, n_nodes, v_lo, v_hi, z_of_v, mu_of_v):
    grid_h = (v_hi - v_lo) / (n_nodes - 1)
    grid = ParamGrid(n_nodes, n_nodes, grid_h, x0=0.0, y0=v_lo,
                     mu=lambda U, V: mu_of_v(V))
    U, V = grid.mesh()
    F = np.stack([U, np.zeros_like(U), z_of_v(V)], axis=-1)
    frames = np.zeros(grid.shape + (3, 3))
    frames[..., 0, 0] = 1.0   # first direction = e1 tangent
    frames[..., 1, 2] = -1.0  # second direction = -nu
    frames[..., 2, 1] = 1.0   # third direction = e2 tangent
    S = np.zeros(grid.shape + (2, 2))
    data = ImmersionData(grid, frames, S=S)
    return SurfaceFixture(alg=alg, data=data, F=F)


def sol3_plane(n_nodes):
    """Totally geodesic plane x2 = 0 in Sol_3; conformal chart v in [-2, -1]
    with z = -log(-v) and mu = 1/(-v) (a hyperbolic half plane)."""
    return _vertical_slice(la.sol3(), n_nodes, -2.0, -1.0,
                           z_of_v=lambda V: -np.log(-V),
                           mu_of_v=lambda V: 1.0 / (-V))


def h2xr_slice(n_nodes):
    """The H^2 x {0} slice of H^2 x R; chart v in [1, 2], z = log v,
    mu = 1/v.  As E(-1, 0) data the vertical direction has T = 0, f = -1."""
    fx = _vertical_slice(la.h2xr(), n_nodes, 1.0, 2.0,
                         z_of_v=np.log, mu_of_v=lambda V: 1.0 / V)
    grid = fx.grid
    ekt = EKTData(grid, T=np.zeros(grid.shape + (2,)),
                  f=-np.ones(grid.shape), S=np.zeros(grid.shape + (2, 2)),
                  kappa=-1.0, tau=0.0)
    fx.extras["ekt"] = ekt
    return fx


# =============================================================================
# Other model data
# =============================================================================

def nil_cylinder(n_nodes, tau=0.5, curve_curvature=1.0):
    """Vertical cylinder data in E(0, tau): flat intrinsic metric, parallel
    unit T, f = 0, S = [[k, tau], [tau, 0]].

    The compatibility equations hold identically (every derivative term
    vanishes), for any profile curvature k, so this is an exact fixture.
    """
    grid = ParamGrid(n_nodes, n_nodes, 1.0 / (n_nodes - 1))
    T = np.zeros(grid.shape + (2,))
    T[..., 1] = 1.0
    f = np.zeros(grid.shape)
    S = np.zeros(grid.shape + (2, 2))
    U, _ = grid.mesh()
    S[..., 0, 0] = curve_curvature * (1.0 + 0.3 * np.sin(2.0 * U))
    S[..., 0, 1] = tau
    S[..., 1, 0] = tau
    return EKTData(grid, T, f, S, kappa=0.0, tau=tau)


def horosphere_h3(n_nodes):
    """Horosphere in H^3: flat chart, identity frames, S = Id, U = nu."""
    alg = la.hn(3)
    grid = ParamGrid(n_nodes, n_nodes, 1.0 / (n_nodes - 1))
    frames = np.broadcast_to(np.eye(3), grid.shape + (3, 3)).copy()
    S = np.broadcast_to(np.eye(2), grid.shape + (2, 2)).copy()
    data = ImmersionData(grid, frames, S=S)
    u_field = np.zeros(grid.shape + (3,))
    u_field[..., 2] = 1.0
    U, V = grid.mesh()
    F = np.stack([U, V, np.ones(grid.shape)], axis=-1)
    return SurfaceFixture(alg=alg, data=data, F=F,
                          extras={"u_field": u_field})


def cmc_sphere(n_nodes):
    """(WeierstrassData, HPotential) of the unit sphere in R^3: Gauss map
    g = z on |x|, |y| <= 0.75, mu = 2 / (1 + |z|^2), H = 1, mu_i = 0."""
    grid = ParamGrid(n_nodes, n_nodes, 1.5 / (n_nodes - 1), x0=-0.75,
                     y0=-0.75,
                     mu=lambda X, Y: 2.0 / (1.0 + np.abs(X + 1j * Y) ** 2))
    X, Y = grid.mesh()
    return WeierstrassData(grid, X + 1j * Y), HPotential(1.0, (0.0, 0.0, 0.0))


def random_ekt_data(n_nodes, kappa, tau, seed=0):
    """Smooth random E(kappa, tau) fields with |T|^2 + f^2 = 1 and |T|
    bounded away from zero (so the frame completion is well posed)."""
    rng = np.random.default_rng(seed)
    grid = ParamGrid(n_nodes, n_nodes, 1.0 / (n_nodes - 1),
                     mu=lambda U, V: 1.0 + 0.3 * np.sin(U + 0.5) * np.cos(V))
    U, V = grid.mesh()
    a = rng.uniform(0.5, 2.0, size=6)
    theta = 0.5 + 0.35 * np.sin(a[0] * U + a[1] * V)      # in (0.15, 0.85)
    psi = a[2] * U - a[3] * V
    f = np.cos(theta)
    T = np.stack([np.sin(theta) * np.cos(psi), np.sin(theta) * np.sin(psi)],
                 axis=-1)
    S = np.zeros(grid.shape + (2, 2))
    S[..., 0, 0] = np.sin(a[4] * U) + 0.2
    S[..., 1, 1] = np.cos(a[5] * V)
    S[..., 0, 1] = S[..., 1, 0] = 0.3 * np.sin(U * V)
    return EKTData(grid, T, f, S, kappa=kappa, tau=tau)


def ekt_frame_completion(data):
    """ImmersionData whose third distinguished direction is T + f nu and
    whose first two rows are a pointwise orthonormal completion (det +1)."""
    T, f = data.T, data.f
    u3 = np.concatenate([T, f[..., None]], axis=-1)
    tnorm = np.linalg.norm(T, axis=-1)
    if np.min(tnorm) < 1e-6:
        raise ValueError("frame completion needs |T| bounded away from zero")
    u1 = np.stack([-T[..., 1], T[..., 0], np.zeros_like(f)], axis=-1) \
        / tnorm[..., None]
    u2 = np.cross(u3, u1)
    frames = np.stack([u1, u2, u3], axis=-2)
    return ImmersionData(data.grid, frames, S=data.S)
