"""Closed forms and inverses that tests hold the pipeline to.

None of these runs in a command or in the converse: each is a second route
to a quantity the package computes, kept here so that a test can compare
the two.

  * ekt_gamma_bivector     -- the E(kappa, tau) connection bivector in the
    (T, f) picture, against the spinor connection `spinor.eta_matrix`
  * skew_of_bivector       -- the inverse of `clifford.bivector_of_skew`
  * stereographic          -- the inverse of `cmc.inverse_stereographic`
  * weierstrass_from_pair  -- the inverse of `cmc.pair_from_weierstrass`
  * dirac_system_residual  -- the first-order system of the complex spinor
    pair behind a Weierstrass representation
  * dense_row_gp           -- the geometric product as the dense loop over
    all 2**n rows, which `clifford.gp_blades` and `gp_array` reproduce bit
    for bit
  * bivector_exp_array     -- `clifford.bivector_exp_even` in the full
    layout (..., 2**n), for the tests written on that layout
  * givens_lift_full       -- the Givens spin lift on the full layout, as
    `clifford._givens_lift` computed it before it moved to the even
    kernel, which reproduces it bit for bit
  * padded                 -- a surface fixture in R^n as the same surface
    in R^(n + 1), whose solve and reconstruction embed the R^n ones
  * AxisSemidirect         -- R^2 x_A R for a diagonal A, one node at a
    time in scalar arithmetic (`math.exp`, `math.expm1`)
  * general_semidirect     -- `lie_group.SemidirectModel` on its 2x2 path
    whatever A is, the route every A took before a diagonal A went per axis
"""

import math

import numpy as np

from spinorforge.clifford import (
    Multivector, bivector_exp_even, blade_tables, from_even, gp_array,
    to_even,
)
from spinorforge.cmc import ab_scalars, h_potential
from spinorforge.fixtures import SurfaceFixture
from spinorforge.immersion import ImmersionData
from spinorforge.lie_algebra import rn
from spinorforge.lie_group import SemidirectModel


def ekt_gamma_bivector(data, X, vertex):
    """E(kappa, tau) connection bivector at a node of `EKTData`, in the
    frame Clifford algebra Cl_3 with generators (e1, e2, nu):

        ((2 tau - sigma) <X, T> (T nu - f) - tau X nu) omega,

    sigma = kappa / (2 tau)."""
    tau = data.tau
    if tau == 0:
        raise ValueError("sigma = kappa / (2 tau) undefined for tau = 0")
    sigma = data.kappa / (2.0 * tau)
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


def skew_of_bivector(b):
    """The skew matrix m with bivector_of_skew(m) = b: m[k, j] is the
    coefficient of e_j e_k for j < k."""
    m = np.zeros((b.n, b.n))
    for j, k in zip(*np.triu_indices(b.n, 1)):
        m[k, j] = b.coeffs[(1 << j) | (1 << k)]
        m[j, k] = -m[k, j]
    return m


POLE_TOL = 0.0      # 1 + nu3 at or below which a normal is the south pole


def stereographic(nu):
    """g = (nu1 + i nu2) / (1 + nu3); rejected at the south pole -e3."""
    nu = np.asarray(nu, dtype=np.float64)
    if not np.all(np.isfinite(nu)):
        raise ValueError("the normal nu has non-finite entries")
    denom = 1.0 + nu[..., 2]
    if np.min(denom) <= POLE_TOL:
        raise ValueError("stereographic projection undefined at -e3")
    return (nu[..., 0] + 1j * nu[..., 1]) / denom


def weierstrass_from_pair(z1, z2, mu):
    """Inverse of pair_from_weierstrass: g = i conj(z2)/z1, f = -2 mu conj(z1)^2."""
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    if np.min(np.abs(z1)) == 0.0:
        raise ValueError("the Gauss map leaves the chart where z1 vanishes")
    return 1j * np.conj(z2) / z1, -2.0 * mu * np.conj(z1) ** 2


def dirac_system_residual(z1, z2, data, pot, f):
    """Per-node residual pair of the first-order system satisfied by the
    complex spinor components over a conformal chart:

      (1/sqrt(mu)) d_zbar(sqrt(mu) conj(z1)) = i (mu/2) conj(R)/(1+|g|^2)^2 conj(z2)
                                               + (mu/2)(A+iB) conj(z1)
      (1/sqrt(mu)) d_zbar(sqrt(mu) z2)       = -i (mu/2) conj(R)/(1+|g|^2)^2 z1
                                               + (mu/2)(A+iB) z2.
    """
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    norm_dev = np.max(np.abs(np.abs(z1) ** 2 + np.abs(z2) ** 2 - 1.0))
    if not norm_dev <= 1e-8:
        raise ValueError(f"|z1|^2 + |z2|^2 = 1 violated by {norm_dev:.3e}")
    grid = data.grid
    mu = grid.mu
    sq = np.sqrt(mu)
    R = h_potential(pot, data.g)
    coeff = 0.5j * mu * np.conj(R) / (1.0 + np.abs(data.g) ** 2) ** 2
    ab = ab_scalars(data, pot, f)
    r1 = grid.dzbar(sq * np.conj(z1)) / sq - coeff * np.conj(z2) \
        - 0.5 * mu * ab * np.conj(z1)
    r2 = grid.dzbar(sq * z2) / sq + coeff * z1 - 0.5 * mu * ab * z2
    return np.abs(r1), np.abs(r2)


def dense_row_gp(a, b, n):
    """The geometric product of full-layout arrays (..., 2**n) as the dense
    row loop over all blades, broadcasting leading axes: rows of a that are
    zero at every node are skipped, and each other row adds
    (s(i, j) a_i) b_j onto blade i ^ j."""
    signs, _ = blade_tables(n)
    dim = 1 << n
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    out = np.zeros(shape + (dim,))
    all_idx = np.arange(dim)
    for i in range(dim):
        ai = a[..., i]
        if not np.any(ai):
            continue
        # for fixed i, j -> i ^ j permutes the blades; gather instead of scatter
        contrib = signs[i] * ai[..., None] * b
        out += contrib[..., i ^ all_idx]
    return out


def bivector_exp_array(a, n):
    """exp(b) of full-layout bivector fields b (..., 2**n): the pipeline's
    `bivector_exp_even` between `to_even` and `from_even`."""
    return from_even(bivector_exp_even(to_even(a, n), n), n)


def givens_lift_full(T, n):
    """The product of the half-angle rotors of T's Givens factorization,
    full layout (..., 2**n): `clifford._givens_lift` as it was on that
    layout, verbatim."""
    work = T.copy()
    a = np.zeros(T.shape[:-2] + (1 << n,))
    a[..., 0] = 1.0
    for j in range(n - 1):
        for i in range(n - 1, j, -1):
            # copies: the row update below writes to the entries read here
            x, y = work[..., i - 1, j].copy(), work[..., i, j].copy()
            r = np.hypot(x, y)
            live = r > 1e-300   # a vanishing pair needs no rotation
            c = np.divide(x, r, out=np.ones_like(r), where=live)[..., None]
            s = np.divide(y, r, out=np.zeros_like(r), where=live)[..., None]
            # rotate rows (i-1, i) so that work[i, j] -> 0
            row0, row1 = work[..., i - 1, :].copy(), work[..., i, :].copy()
            work[..., i - 1, :] = c * row0 + s * row1
            work[..., i, :] = -s * row0 + c * row1
            half = np.where(live, np.arctan2(y, x), 0.0) / 2
            rotor = np.zeros_like(a)
            rotor[..., 0] = np.cos(half)
            rotor[..., (1 << (i - 1)) | (1 << i)] = np.sin(half)
            # G_m ... G_1 T = I with G_k = R(i-1, i, -theta_k), so
            # T = R_1 R_2 ... R_m: the rotors multiply in the order applied
            a = gp_array(a, rotor, n)
    # work is now upper triangular and orthogonal => diagonal of +-1;
    # for det +1 input with clean factorization the diagonal is +1.
    if not np.max(np.abs(work - np.eye(n))) <= 1e-8:
        raise ValueError("Givens factorization failed; input not special "
                         "orthogonal within tolerance")
    return a


def padded(fx):
    """A surface fixture in R^n as the same surface in R^(n + 1): e_(n+1)
    is one more normal, with zero B and normal connection entries, and F
    gains a zero coordinate."""
    data, n = fx.data, fx.data.n
    frames = np.zeros(data.frames.shape[:2] + (n + 1, n + 1))
    frames[..., :n, :n] = data.frames
    frames[..., n, n] = 1.0
    B = np.pad(data.B, [(0, 0)] * 4 + [(0, 1)])
    theta_x, theta_y = (np.pad(t, [(0, 0)] * 2 + [(0, 1)] * 2)
                        for t in (data.theta_x, data.theta_y))
    return SurfaceFixture(
        alg=rn(n + 1),
        data=ImmersionData(data.grid, frames, B=B, theta_x=theta_x,
                           theta_y=theta_y),
        F=np.pad(fx.F, [(0, 0)] * 2 + [(0, 1)]))


class AxisSemidirect:
    """R^2 x_A R for A = diag(a), one payload (x1, x2, z) at a time in
    scalar arithmetic: e^{zA} x is e^{z a_i} x_i by `math.exp`, and
    phi(zA) w is ((e^{z a_i} - 1)/(z a_i)) w_i by `math.expm1`, 1 at 0."""

    def __init__(self, a):
        self.a = [float(a_i) for a_i in a]

    def _phi(self, z):
        return [math.expm1(z * a) / (z * a) if z * a else 1.0
                for a in self.a]

    def multiply(self, g, h):
        return [g[i] + math.exp(g[2] * a) * h[i]
                for i, a in enumerate(self.a)] + [g[2] + h[2]]

    def inverse(self, g):
        return [-(math.exp(-g[2] * a) * g[i])
                for i, a in enumerate(self.a)] + [-g[2]]

    def exp(self, v, t=1.0):
        z = t * v[2]
        return [t * (p * v[i]) for i, p in enumerate(self._phi(z))] + [z]

    def log(self, g):
        return [g[i] / p for i, p in enumerate(self._phi(g[2]))] + [g[2]]


def general_semidirect(A):
    """`SemidirectModel(A)` with its diagonal path cleared, so that every
    operation takes the 2x2 forms (`expm`, phi(zA) = alpha I + beta N),
    as every A did before a diagonal A went per axis."""
    model = SemidirectModel(A)
    model._axes = None
    return model
