"""H-potential, Gauss-map PDE, Dirac system, Weierstrass 1-form."""

import numpy as np
import pytest

from spinorforge import fixtures, lie_algebra as la
from spinorforge.cmc import (
    HPotential, SingularPotentialError, WeierstrassData, dirac2_residual,
    gauss_map_pde_residual, h_potential, h_potential_wirtinger,
    inverse_stereographic, mesh_mean_curvature, pair_from_weierstrass,
    weier_f_from_g, xi_from_weierstrass,
)
from spinorforge.grid import ParamGrid
from spinorforge.immersion import ImmersionData
from spinorforge.lie_group import darboux_integrate, structure_residual
from spinorforge.spinor import (
    KillingProblem, SpinorField, pair_to_phi, spinor_of_immersion,
    xi_from_spinor,
)

from oracles import (dirac_system_residual, stereographic,
                     weierstrass_from_pair)

rng = np.random.default_rng(424242)


def unit_sphere_chart(n, half=0.75):
    h = 2 * half / (n - 1)
    base = ParamGrid(n, n, h, x0=-half, y0=-half)
    X, Y = base.mesh()
    z = X + 1j * Y
    mu = 2.0 / (1.0 + np.abs(z) ** 2)
    grid = ParamGrid(n, n, h, mu=mu, x0=-half, y0=-half)
    return grid, z


# =============================================================================
# Potential
# =============================================================================

def test_potential_special_values():
    assert h_potential(HPotential(0.7, (0, 0, 0)), 0.3 + 0.4j) == \
        pytest.approx(0.7 * (1 + 0.25) ** 2)
    pot = HPotential(0.9, (0.2, 0.5, 7.0))
    assert h_potential(pot, 0.0) == pytest.approx(0.9 - 0.5j * 0.7)
    assert h_potential(HPotential(1.0, (1, 1, 1)), 0.0) == pytest.approx(1 - 1j)


def test_wirtinger_closed_forms():
    pot = HPotential(1.3, (0, 0, 0))
    for _ in range(20):
        g = rng.normal() + 1j * rng.normal()
        R_g, R_gb = h_potential_wirtinger(pot, g)
        c = 2 * 1.3 * (1 + abs(g) ** 2)
        assert R_g == pytest.approx(c * np.conj(g))
        assert R_gb == pytest.approx(c * g)
    # at g = 0 the quadratic terms' derivatives vanish (in particular when
    # mu1 = mu2, the case singled out by the first-order expansion)
    pot2 = HPotential(0.4, (0.8, 0.8, -1.0))
    R_g, R_gb = h_potential_wirtinger(pot2, 0.0)
    assert abs(R_g) == 0.0 and abs(R_gb) == 0.0


def test_wirtinger_matches_finite_differences():
    for _ in range(500):
        pot = HPotential(rng.normal(), rng.normal(size=3))
        g = rng.normal() + 1j * rng.normal()
        R_g, R_gb = h_potential_wirtinger(pot, g)
        e = 1e-5
        dx = (h_potential(pot, g + e) - h_potential(pot, g - e)) / (2 * e)
        dy = (h_potential(pot, g + 1j * e) - h_potential(pot, g - 1j * e)) \
            / (2 * e)
        num_g = 0.5 * (dx - 1j * dy)
        num_gb = 0.5 * (dx + 1j * dy)
        scale = max(1.0, abs(num_g), abs(num_gb))
        assert abs(R_g - num_g) <= 1e-6 * scale
        assert abs(R_gb - num_gb) <= 1e-6 * scale


# =============================================================================
# Stereographic dictionary
# =============================================================================

def test_stereographic_special_points():
    assert stereographic(np.array([0.0, 0.0, 1.0])) == 0.0
    assert stereographic(np.array([1.0, 0.0, 0.0])) == 1.0
    with pytest.raises(ValueError):
        stereographic(np.array([0.0, 0.0, -1.0]))


def test_stereographic_roundtrip():
    v = rng.normal(size=(500, 3))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    v = v[v[:, 2] > -0.99]
    g = stereographic(v)
    back = inverse_stereographic(g)
    assert np.max(np.abs(back - v)) <= 1e-12
    gs = rng.normal(size=200) + 1j * rng.normal(size=200)
    assert np.max(np.abs(stereographic(inverse_stereographic(gs)) - gs)) <= 1e-12


def test_data_rejects_the_south_pole():
    grid = ParamGrid(4, 4, 0.1)
    g = np.full(grid.shape, 1e5 + 0j)   # normal essentially at -e3
    with pytest.raises(ValueError):
        WeierstrassData(grid, g)


# =============================================================================
# R^3 CMC sphere
# =============================================================================

def test_constant_gauss_map_gives_zero_density():
    grid, _ = unit_sphere_chart(9)
    data = WeierstrassData(grid, np.full(grid.shape, 0.2 + 0.1j))
    f = weier_f_from_g(data, HPotential(1.0, (0, 0, 0)))
    assert np.max(np.abs(f)) <= 1e-14


def test_r3_sphere_density_and_pde():
    grid, z = unit_sphere_chart(33)
    pot = HPotential(1.0, (0.0, 0.0, 0.0))
    data = WeierstrassData(grid, z)
    f = weier_f_from_g(data, pot)
    assert np.max(np.abs(f - 4.0 / (1 + np.abs(z) ** 2) ** 2)) <= 1e-10
    assert np.max(gauss_map_pde_residual(data, pot)) <= 1e-12


def test_r3_gauss_map_any_mean_curvature():
    grid, z = unit_sphere_chart(17)
    for H in (0.5, 2.0, -1.0):
        data = WeierstrassData(grid, z)
        assert np.max(gauss_map_pde_residual(data, HPotential(H, (0, 0, 0)))) \
            <= 1e-12


def test_perturbed_gauss_map_detected():
    grid, z = unit_sphere_chart(17)
    pot = HPotential(1.0, (0.0, 0.0, 0.0))
    for eps in (1e-3, 2e-3):
        data = WeierstrassData(grid, z + eps * np.conj(z))
        res = np.max(gauss_map_pde_residual(data, pot))
        assert res >= 0.3 * eps


def test_singular_potential_reported_with_vertex():
    grid, z = unit_sphere_chart(9)
    data = WeierstrassData(grid, z)
    with pytest.raises(SingularPotentialError) as err:
        weier_f_from_g(data, HPotential(0.0, (0.0, 0.0, 0.0)))
    assert err.value.vertex is not None
    # the PDE residual applies the same gate, with the same message
    with pytest.raises(SingularPotentialError) as pde_err:
        gauss_map_pde_residual(data, HPotential(0.0, (0.0, 0.0, 0.0)))
    assert str(pde_err.value) == str(err.value)


def test_r3_sphere_reconstruction_mean_curvature():
    grid, z = unit_sphere_chart(65)
    pot = HPotential(1.0, (0.0, 0.0, 0.0))
    data = WeierstrassData(grid, z)
    f = weier_f_from_g(data, pot)
    xi = xi_from_weierstrass(data, pot, f)
    alg = la.rn(3)
    F = darboux_integrate(xi, alg, np.zeros(3))
    H = mesh_mean_curvature(F, alg, grid, orient_to=data.nu)
    assert np.max(np.abs(H - 1.0)) <= 0.01
    # the integrated surface is a unit sphere up to translation
    nu = inverse_stereographic(z)
    center = F + nu          # center = point + inward-ish normal (radius 1)
    dev = np.max(np.linalg.norm(center - center[0, 0], axis=-1))
    assert dev <= 5 * grid.h ** 2 * 10


def test_structure_residual_refines():
    pot = HPotential(1.0, (0.0, 0.0, 0.0))
    res = []
    for n in (17, 33):
        grid, z = unit_sphere_chart(n)
        data = WeierstrassData(grid, z)
        xi = xi_from_weierstrass(data, pot)
        res.append(np.max(structure_residual(xi, la.rn(3))))
    assert 2.5 <= res[0] / res[1] <= 6.5


# =============================================================================
# Spinor identification
# =============================================================================

def test_pair_identification_roundtrip():
    for _ in range(100):
        g = rng.normal() + 1j * rng.normal()
        f = rng.normal() + 1j * rng.normal()
        if abs(f) < 1e-3:
            continue
        z1, z2, mu = pair_from_weierstrass(g, f)
        assert abs(abs(z1) ** 2 + abs(z2) ** 2 - 1.0) <= 1e-12
        g2, f2 = weierstrass_from_pair(z1, z2, mu)
        assert abs(g2 - g) <= 1e-12 * max(1, abs(g))
        assert abs(f2 - f) <= 1e-12 * max(1, abs(f))


def test_weierstrass_xi_equals_spinorial_xi():
    grid, z = unit_sphere_chart(17)
    pot = HPotential(1.0, (0.0, 0.0, 0.0))
    data = WeierstrassData(grid, z)
    f = weier_f_from_g(data, pot)
    xiW = xi_from_weierstrass(data, pot, f)
    z1, z2, mu = pair_from_weierstrass(data.g, f)
    assert np.max(np.abs(mu - grid.mu)) <= 1e-12
    frames = np.broadcast_to(np.eye(3), grid.shape + (3, 3)).copy()
    prob = KillingProblem(
        ImmersionData(grid, frames, S=np.zeros(grid.shape + (2, 2))), la.rn(3))
    field = SpinorField(grid, 3, pair_to_phi(z1, z2))
    xiS, _ = xi_from_spinor(field, prob)
    assert np.max(np.abs(xiS.xi_x - xiW.xi_x)) <= 1e-10
    assert np.max(np.abs(xiS.xi_y - xiW.xi_y)) <= 1e-10


# =============================================================================
# S^3 minimal equator through the Gauss-map formalism
# =============================================================================

def equator_weierstrass(n):
    fx = fixtures.s3_equator(n)
    field, data = spinor_of_immersion(fx.F, fx.alg, fx.grid)
    z1, z2 = field.psi_pairs()
    g, f = weierstrass_from_pair(z1, z2, data.grid.mu)
    pot = HPotential(0.0, (1.0, 1.0, 1.0))
    wdata = WeierstrassData(data.grid, g)
    return wdata, pot, f, (z1, z2)


def test_equator_density_matches_dirac_relation():
    # O(h^4) from the converse's fourth-order pullback: measured 8.4e-6,
    # 4.5e-7 and 2.5e-8 (ratios 18.9, 17.5)
    devs = []
    for n in (17, 33, 65):
        wdata, pot, f, _ = equator_weierstrass(n)
        f2 = weier_f_from_g(wdata, pot)
        devs.append(np.max(np.abs(f - f2)))
    for coarse, fine in zip(devs, devs[1:]):
        assert 10.0 <= coarse / fine <= 26.0


def test_equator_gauss_map_solves_pde():
    # the equator's Gauss map is an exact solution whose discrete Wirtinger
    # derivatives cancel to rounding, so the residual is noise, not O(h^2)
    for n in (17, 33):
        wdata, pot, _, _ = equator_weierstrass(n)
        assert np.max(gauss_map_pde_residual(wdata, pot)) <= 1e-8


def test_equator_dirac_system_and_companion():
    devs, devs2 = [], []
    for n in (17, 33):
        wdata, pot, f, (z1, z2) = equator_weierstrass(n)
        r1, r2 = dirac_system_residual(z1, z2, wdata, pot, f)
        devs.append(max(np.max(r1), np.max(r2)))
        devs2.append(np.max(dirac2_residual(wdata, pot, f)))
    assert 2.5 <= devs[0] / devs[1] <= 6.5
    assert 2.5 <= devs2[0] / devs2[1] <= 6.5


def test_equator_weierstrass_xi_matches_spinorial():
    fx = fixtures.s3_equator(17)
    field, data = spinor_of_immersion(fx.F, fx.alg, fx.grid)
    z1, z2 = field.psi_pairs()
    g, f = weierstrass_from_pair(z1, z2, data.grid.mu)
    wdata = WeierstrassData(data.grid, g)
    xiW = xi_from_weierstrass(wdata, HPotential(0.0, (1, 1, 1)), f)
    prob = KillingProblem(data, fx.alg)
    xiS, _ = xi_from_spinor(field, prob)
    assert np.max(np.abs(xiS.xi_x - xiW.xi_x)) <= 1e-10
    assert np.max(np.abs(xiS.xi_y - xiW.xi_y)) <= 1e-10


def test_constant_spinor_flat_chart_zero_residual():
    # constant unit spinor over a flat chart in R^3 with H = 0: every term
    # of the system vanishes
    grid = ParamGrid(9, 9, 0.125)
    z1 = np.full(grid.shape, 1.0 + 0.0j)
    z2 = np.zeros(grid.shape, dtype=complex)
    g = np.zeros(grid.shape, dtype=complex)
    data = WeierstrassData(grid, g)
    r1, r2 = dirac_system_residual(z1, z2, data, HPotential(0.0, (0, 0, 0)),
                                   f=np.zeros(grid.shape, dtype=complex))
    assert np.max(r1) <= 1e-14 and np.max(r2) <= 1e-14


# =============================================================================
# Non-finite inputs are rejected where they enter
# =============================================================================

def test_dirac_system_residual_rejects_a_nan_spinor():
    data, pot = fixtures.cmc_sphere(9)
    f = weier_f_from_g(data, pot)
    z1, z2, _ = pair_from_weierstrass(data.g, f)
    z1[4, 4] = np.nan
    with pytest.raises(ValueError, match=r"\|z1\|\^2 \+ \|z2\|\^2 = 1 "
                                         r"violated by nan"):
        dirac_system_residual(z1, z2, data, pot, f)


@pytest.mark.parametrize("which", ["g", "f"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_pair_from_weierstrass_rejects_non_finite_input(which, bad):
    gf = {"g": np.array([0.1 + 0.2j, 0.3j]), "f": np.array([1.0, 2.0 - 1j])}
    gf[which][1] = bad
    with pytest.raises(ValueError, match="g and f must be finite"):
        pair_from_weierstrass(gf["g"], gf["f"])


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("axis", [0, 2])
def test_stereographic_rejects_a_non_finite_normal(bad, axis):
    nu = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8]])
    nu[1, axis] = bad
    with pytest.raises(ValueError, match="the normal nu has non-finite"):
        stereographic(nu)
