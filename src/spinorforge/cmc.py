"""CMC surfaces in unimodular 3D metric Lie groups via the Gauss map.

The left-invariant Gauss map g is the stereographic projection of the unit
normal nu (expressed in the distinguished basis) from the south pole -e3;
the H-potential of a group with connection constants (mu1, mu2, mu3) is

    R(g) = H (1 + |g|^2)^2 - (i/2)(mu1 |1-g^2|^2 + mu2 |1+g^2|^2 + 4 mu3 |g|^2).

A conformal CMC immersion is encoded by the pair (g, f) with f = 4 g_z / R(g);
its left-trivialized derivative is the 1-form

    xi = Re( (1/2) f (conj(g)^2 - 1) dz,  (i/2) f (conj(g)^2 + 1) dz,
             f conj(g) dz )

in the distinguished basis, which feeds the structure-equation check and the
Darboux integrator.  The complex-pair spinor behind the same surface is
recovered from conj(z1)^2 = -f / (2 mu), conj(z2) = -i g z1 with
mu = |f| (1 + |g|^2) / 2; the one-form above and the spinorial
rev(phi) X phi evaluator then agree identically.  (Writing the density in
terms of conj(z1) rather than z1 is forced by that agreement; the two
appear interchangeably in the literature depending on the quaternion
conventions in use.)

The Gauss map of a genuine solution satisfies the second-order equation

    g_{z zbar} = (R_g / R) g_z g_zbar
                 + (R_gbar / R - conj(R_g) / conj(R)) |g_z|^2,

whose discrete residual and the companion identity of f (`dirac2_residual`)
are what this module evaluates.  Only unimodular groups are covered;
nothing here solves the PDE, validation and reconstruction only.
"""

import numpy as np

from .grid import real_numbers
from .lie_group import (LieValuedOneForm, first_fundamental_form,
                        maurer_cartan_pullback, model_for,
                        second_fundamental_form)


class SingularPotentialError(ValueError):
    def __init__(self, message, vertex=None):
        super().__init__(message + (f" at vertex {vertex}" if vertex else ""))
        self.vertex = vertex


# =============================================================================
# Potential and inverse stereographic projection
# =============================================================================

class HPotential:
    """Mean curvature H plus the group's connection constants (mu1, mu2, mu3)."""

    __slots__ = ("H", "mu")

    def __init__(self, H, mu):
        self.H = float(real_numbers(H, "potential H"))
        if not np.isfinite(self.H):
            raise ValueError("the mean curvature H must be finite")
        mu = real_numbers(mu, "potential mu", 1)
        if len(mu) != 3 or not all(np.isfinite(mu)):
            raise ValueError("the potential needs three finite constants")
        self.mu = tuple(mu.tolist())


def h_potential(pot, g):
    """R(g) = H (1+|g|^2)^2 - (i/2)(mu1 |1-g^2|^2 + mu2 |1+g^2|^2 + 4 mu3 |g|^2).

    The |g|^2 power of the third term is forced by the surface Dirac
    operator: it is the unique choice under which

        H nu + (1/2)(e1 Gamma(e1) + e2 Gamma(e2))
          = (Re R - Im R e1 e2) nu / (1+|g|^2)^2 + A e1 + B e2

    holds as a Clifford-algebra identity (checked on random frames in the
    tests), and the only one making the round case mu1 = mu2 = mu3 give the
    space-form potential (H - i)(1+|g|^2)^2.  The |g|^4 variant sometimes
    seen in print fails both checks.
    """
    g = np.asarray(g, dtype=complex)
    m1, m2, m3 = pot.mu
    a2 = np.abs(g) ** 2
    return pot.H * (1.0 + a2) ** 2 - 0.5j * (
        m1 * np.abs(1.0 - g ** 2) ** 2 + m2 * np.abs(1.0 + g ** 2) ** 2
        + 4.0 * m3 * a2)


def h_potential_wirtinger(pot, g):
    """Closed-form Wirtinger derivatives (R_g, R_gbar), treating g and
    conj(g) as independent variables."""
    g = np.asarray(g, dtype=complex)
    gb = np.conj(g)
    m1, m2, m3 = pot.mu
    common = 2.0 * pot.H * (1.0 + g * gb)
    R_g = common * gb - 0.5j * (-2.0 * m1 * g * (1.0 - gb ** 2)
                                + 2.0 * m2 * g * (1.0 + gb ** 2)
                                + 4.0 * m3 * gb)
    R_gb = common * g - 0.5j * (-2.0 * m1 * gb * (1.0 - g ** 2)
                                + 2.0 * m2 * gb * (1.0 + g ** 2)
                                + 4.0 * m3 * g)
    return R_g, R_gb


def inverse_stereographic(g):
    g = np.asarray(g, dtype=complex)
    a2 = np.abs(g) ** 2
    d = 1.0 + a2
    return np.stack([2.0 * np.real(g) / d, 2.0 * np.imag(g) / d,
                     (1.0 - a2) / d], axis=-1)


# =============================================================================
# Data bundle
# =============================================================================

POLE_ANGLE = 1e-3


class WeierstrassData:
    """Grid + Gauss map g; the unit normal nu is derived from g alone, as
    its inverse stereographic projection.

    Charts whose normal comes within angle ~1e-3 of the south pole are
    rejected: the chart swap for g = infinity is not implemented.
    """

    __slots__ = ("grid", "g", "nu")

    def __init__(self, grid, g):
        g = np.asarray(g, dtype=complex)
        if not np.all(np.isfinite(g)):
            raise ValueError("the Gauss map g has non-finite entries")
        if g.shape != grid.shape:
            raise ValueError("Gauss map samples must match the grid")
        nu = inverse_stereographic(g)
        if np.min(1.0 + nu[..., 2]) < 0.5 * POLE_ANGLE ** 2:
            raise ValueError("the normal field approaches the south pole; "
                             "chart swap is not supported")
        self.grid = grid
        self.g = g
        self.nu = nu


# =============================================================================
# Density, auxiliary scalars, 1-form
# =============================================================================

R_MIN = 1e-10       # |R(g)| below which the H-potential is singular


def _regular_potential(data, pot):
    """R(g) at every node; raises on a singular potential, naming the first
    vertex where |R| < R_MIN."""
    R = h_potential(pot, data.g)
    small = np.abs(R) < R_MIN
    if np.any(small):
        vertex = tuple(int(v) for v in np.argwhere(small)[0])
        raise SingularPotentialError(
            f"H-potential magnitude below {R_MIN:g}", vertex=vertex)
    return R


def weier_f_from_g(data, pot):
    """f = 4 g_z / R(g) with discrete Wirtinger g_z; raises on a singular
    potential, naming the first offending vertex."""
    return 4.0 * data.grid.dz(data.g) / _regular_potential(data, pot)


def ab_scalars(data, pot, f):
    """The tangential drift A + iB of the surface Dirac operator,
    -(i/(4 mu)) conj(f) (mu1 nu1 (g^2-1) - i mu2 nu2 (g^2+1) + 2 mu3 nu3 g)."""
    g = data.g
    nu = data.nu
    m1, m2, m3 = pot.mu
    return -0.25j / data.grid.mu * np.conj(f) * (
        m1 * nu[..., 0] * (g ** 2 - 1.0)
        - 1j * m2 * nu[..., 1] * (g ** 2 + 1.0)
        + 2.0 * m3 * nu[..., 2] * g)


def dirac2_residual(data, pot, f):
    """Residual of the companion first-order identity
    f_zbar / f + 2 g conj(g)_zbar / (1 + |g|^2) - mu (A + iB)."""
    grid = data.grid
    g = data.g
    ab = ab_scalars(data, pot, f)
    return np.abs(grid.dzbar(f) / f
                  + 2.0 * g * grid.dzbar(np.conj(g)) / (1.0 + np.abs(g) ** 2)
                  - grid.mu * ab)


def xi_from_weierstrass(data, pot, f=None):
    """The Lie-algebra-valued 1-form of the representation, expanded into
    (xi(dx), xi(dy)) via dz = dx + i dy."""
    if f is None:
        f = weier_f_from_g(data, pot)
    gb2 = np.conj(data.g) ** 2
    V = np.stack([0.5 * f * (gb2 - 1.0),
                  0.5j * f * (gb2 + 1.0),
                  f * np.conj(data.g)], axis=-1)
    return LieValuedOneForm(data.grid, np.real(V), np.real(1j * V))


def gauss_map_pde_residual(data, pot):
    """Residual of the structure equation of the Gauss map,
    g_{z zbar} - (R_g/R) g_z g_zbar - (R_gbar/R - conj(R_g)/conj(R)) |g_z|^2."""
    grid = data.grid
    g = data.g
    R = _regular_potential(data, pot)
    R_g, R_gb = h_potential_wirtinger(pot, g)
    gz = grid.dz(g)
    gzb = grid.dzbar(g)
    gzzb = grid.dzbar(gz)
    rhs = (R_g / R) * gz * gzb \
        + (R_gb / R - np.conj(R_g) / np.conj(R)) * np.abs(gz) ** 2
    return np.abs(gzzb - rhs)


# =============================================================================
# Spinor identification
# =============================================================================

def pair_from_weierstrass(g, f):
    """(z1, z2, mu) with conj(z1)^2 = -f/(2 mu), conj(z2) = -i g z1 and
    mu = |f| (1 + |g|^2) / 2; the per-node square-root branch is arbitrary
    (the represented surface is quadratic in the spinor)."""
    g = np.asarray(g, dtype=complex)
    f = np.asarray(f, dtype=complex)
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(f))):
        raise ValueError("g and f must be finite for the identification")
    mu = 0.5 * np.abs(f) * (1.0 + np.abs(g) ** 2)
    if np.min(mu) <= 0:
        raise ValueError("the density must be nonzero for the identification")
    z1 = np.conj(np.sqrt(-f / (2.0 * mu)))
    z2 = 1j * np.conj(g) * np.conj(z1)
    return z1, z2, mu


# =============================================================================
# Mesh mean curvature (verification instrument)
# =============================================================================

def mesh_mean_curvature(F, alg, grid, orient_to=None):
    """Discrete mean curvature of an immersed grid in a 3D metric Lie group,
    from the first and second fundamental forms of the mesh itself.

    orient_to, when given, is a reference normal field in the distinguished
    basis; the measured normal is flipped nodewise to match it so the sign
    of H is well defined.
    """
    model = model_for(alg)
    zx, zy = maurer_cartan_pullback(F, model, grid)
    E, Ff, G = first_fundamental_form(zx, zy)
    nu = np.cross(zx, zy)
    nu /= np.linalg.norm(nu, axis=-1, keepdims=True)
    if orient_to is not None:
        flip = np.sign(np.einsum("xyi,xyi->xy", nu, orient_to))
        nu *= flip[..., None]
    B = second_fundamental_form(zx, zy, nu[..., None], grid, alg)[..., 0]
    L, M, N = B[..., 0, 0], B[..., 0, 1], B[..., 1, 1]
    return (G * L - 2.0 * Ff * M + E * N) / (2.0 * (E * G - Ff ** 2))
