"""Killing transport, holonomy, xi, normalization, reconstruction, Dirac."""

import math
import warnings

import numpy as np
import pytest

from spinorforge import fixtures, lie_algebra as la, spinor
from spinorforge.cli import SURFACE_FIXTURES
from spinorforge.clifford import (
    Multivector, OffDiagOperator, SpinElement, bivector_array,
    bivector_of_offdiag, bivector_of_skew, exp_array,
    from_even, gp_array, grade_indices, reverse_array, spin_lift, to_even,
    vector_array, vector_part_array, worst_node,
)
from spinorforge.grid import ParamGrid
from spinorforge.immersion import ImmersionData
from spinorforge.lie_group import (
    first_fundamental_form, maurer_cartan_pullback, model_for,
    structure_residual,
)
from spinorforge.spinor import (
    KillingProblem, NotIntegrableError, SpinorField,
    _continuous_normal_frames, _edge_operators, _transport_row,
    connection_coefficient_fields,
    dirac_residual, eta_matrix, mean_curvature_vector, pair_dirac_residual,
    normalize_spinor, pair_to_phi, phi_to_pair, reconstruct_immersion,
    solve_killing, spinor_of_immersion, xi_from_spinor,
)

from oracles import (bivector_exp_array, ekt_gamma_bivector, padded,
                     unit_defect, written_out_dirac_residual)

rng = np.random.default_rng(271828)


def random_spin(n):
    m = rng.normal(size=(n, n))
    return SpinElement(Multivector(n, exp_array(
        bivector_of_skew(m - m.T).coeffs, n)), tol=1e-9)


def flat_problem(n_nodes=9, n=3):
    grid = ParamGrid(n_nodes, n_nodes, 0.1)
    frames = np.broadcast_to(np.eye(n), grid.shape + (n, n)).copy()
    if n == 3:
        data = ImmersionData(grid, frames, S=np.zeros(grid.shape + (2, 2)))
    else:
        data = ImmersionData(grid, frames,
                             B=np.zeros(grid.shape + (2, 2, n - 2)))
    return KillingProblem(data, la.rn(n))


def analytic_problem(fx):
    """Problem seeded with the analytic spinor of the fixture's embedding."""
    afield, _ = spinor_of_immersion(fx.F, fx.alg, fx.grid)
    return KillingProblem(fx.data, fx.alg, base_spinor=afield.at((0, 0))), afield


# =============================================================================
# Right-hand side
# =============================================================================

def killing_rhs(problem, phi, X, vertex):
    """eta(X) phi at one node, X in tangent frame components: the right-hand
    side -1/2 sum_j e_j B(X, e_j) phi + 1/2 Gamma(X) phi of the covariant
    spinor equation, with eta as the transport assembles it."""
    data = problem.data
    m = eta_matrix(problem.alg, data.frames[vertex], data.B[vertex],
                   np.asarray(X, dtype=np.float64))
    return Multivector(data.n, bivector_array(m)) * phi


def test_rhs_vanishes_for_flat_data():
    prob = flat_problem()
    phi = random_spin(3).value
    out = killing_rhs(prob, phi, [0.3, -0.7], (2, 2))
    assert out.allclose(Multivector.scalar(3, 0.0), tol=0.0)


def test_rhs_hypersurface_reduction():
    # sum_j e_j B(X, e_j) equals S(X) nu for q = 1, checked through the rhs
    grid = ParamGrid(3, 3, 0.5)
    frames = np.broadcast_to(np.eye(3), grid.shape + (3, 3)).copy()
    for _ in range(40):
        m = rng.normal(size=(2, 2))
        S = np.broadcast_to(0.5 * (m + m.T), grid.shape + (2, 2)).copy()
        data = ImmersionData(grid, frames, S=S)
        prob = KillingProblem(data, la.rn(3))
        X = rng.normal(size=2)
        phi = random_spin(3).value
        got = killing_rhs(prob, phi, X, (1, 1))
        SX = S[1, 1] @ X
        nu = Multivector.basis_vector(3, 2)
        want = (-0.5) * (Multivector.from_vector([SX[0], SX[1], 0.0], 3)
                         * nu * phi)
        assert got.allclose(want, tol=1e-12)


def test_rhs_matches_ekt_bivector_form():
    # on E(kappa, tau) data the connection part of the rhs is the reduced
    # bivector of the (T, f) picture
    kappa, tau = 1.3, 0.6
    data = fixtures.random_ekt_data(5, kappa, tau, seed=3)
    full = fixtures.ekt_frame_completion(data)
    prob = KillingProblem(full, la.e_kappa_tau(kappa, tau))
    for _ in range(20):
        X = rng.normal(size=2)
        v = (2, 3)
        phi = random_spin(3).value
        got = killing_rhs(prob, phi, X, v)
        SX = full.S[v] @ X
        nu = Multivector.basis_vector(3, 2)
        want = (-0.5) * (Multivector.from_vector([SX[0], SX[1], 0.0], 3) * nu
                         * phi) + 0.5 * (ekt_gamma_bivector(data, X, v) * phi)
        assert got.allclose(want, tol=1e-11)


@pytest.mark.parametrize("make", [fixtures.s3_sphere,
                                  fixtures.sphere_r4_twisted])
def test_connection_fields_match_node_assembly(make):
    # eta_a = -1/2 spin_a - 1/2 sum_j e_j B(mu e_a, e_j) + 1/2 Gamma(mu e_a),
    # assembled node by node through the scalar dictionaries; the rhs at a
    # node is sum_a X_a (eta_a + 1/2 spin_a) / mu applied to phi
    fx = make(9)
    data, grid, alg = fx.data, fx.grid, fx.alg
    n, q = data.n, data.q
    prob = KillingProblem(data, alg)
    etas = [from_even(eta, n) for eta in connection_coefficient_fields(prob)]
    ws = grid.rotation_coefficients()
    thetas = (data.theta[:, :, 0], data.theta[:, :, 1])
    phi = random_spin(n).value
    for idx in np.ndindex(grid.shape):
        U, mu = data.frames[idx], grid.mu[idx]
        X = rng.normal(size=2)
        eta_X = np.zeros(1 << n)
        for a in range(2):
            spin = np.zeros((n, n))
            spin[1, 0], spin[0, 1] = ws[a][idx], -ws[a][idx]
            theta = thetas[a][idx]
            spin[2:, 2:] = 0.5 * (theta - theta.T)
            spin = bivector_of_skew(spin).coeffs
            bb = bivector_of_offdiag(
                OffDiagOperator(2, q, mu * data.B[idx][a].T)).coeffs
            g = U.T @ alg.gamma_op(mu * U[:, a]) @ U
            gb = bivector_of_skew(0.5 * (g - g.T)).coeffs
            want = -0.5 * spin - 0.5 * bb + 0.5 * gb
            assert np.max(np.abs(etas[a][idx] - want)) <= 1e-14
            eta_X += X[a] * (etas[a][idx] + 0.5 * spin) / mu
        got = killing_rhs(prob, phi, X, idx)
        assert got.allclose(Multivector(n, eta_X) * phi, tol=1e-14)


# =============================================================================
# Transport
# =============================================================================

def test_flat_transport_is_constant():
    prob = flat_problem()
    field, report = solve_killing(prob)
    one = np.zeros(8)
    one[0] = 1.0
    assert np.max(np.abs(field.values - one)) <= 1e-14
    assert report["holonomy"] <= 1e-12
    assert report["integrable"]


@pytest.mark.parametrize("make", [fixtures.sphere_r3, fixtures.s3_sphere,
                                  fixtures.s3_equator, fixtures.sol3_plane,
                                  fixtures.h2xr_slice])
def test_solve_matches_analytic_spinor(make):
    devs = []
    for n in (17, 33):
        fx = make(n)
        prob, afield = analytic_problem(fx)
        field, report = solve_killing(prob)
        assert report["integrable"]
        devs.append(np.max(np.linalg.norm(field.values - afield.values,
                                          axis=-1)))
    assert 2.5 <= devs[0] / devs[1] <= 6.5
    assert devs[1] <= 2e-3


def test_holonomy_order_and_breakage():
    hol = []
    for n in (17, 33):
        fx = fixtures.sphere_r3(n)
        _, rep = solve_killing(KillingProblem(fx.data, fx.alg))
        hol.append(rep["holonomy"])
        assert rep["integrable"]
    assert 2.8 <= hol[0] / hol[1] <= 5.2
    for n in (17, 33, 65):
        fx = fixtures.sphere_r3(n, codazzi_eps=1e-2)
        _, rep = solve_killing(KillingProblem(fx.data, fx.alg))
        assert rep["holonomy"] > 1e-3


def loop_bottom_row(Ex, values, n):
    """The bottom row of solve_killing before the doubling scan: one
    product per node."""
    for i in range(values.shape[0] - 1):
        values[i + 1, 0] = gp_array(Ex[i, 0], values[i, 0], n)
    return values


def random_edge_rotors(n, count, max_norm=0.3):
    idx = grade_indices(n, 2)
    b = np.zeros((count, 1 << n))
    b[:, idx] = rng.uniform(-max_norm, max_norm, size=(count, len(idx)))
    return bivector_exp_array(b, n)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("nx", [5, 6, 17, 33, 100])
def test_row_scan_matches_the_loop(n, nx):
    Ex = random_edge_rotors(n, nx - 1)[:, None]
    start = random_spin(n).value.coeffs
    values = np.zeros((nx, 1, 1 << n))
    values[0, 0] = start
    want = loop_bottom_row(Ex, values, n)
    got = from_even(_transport_row(to_even(start, n), to_even(Ex[:, 0], n), n),
                    n)
    assert np.array_equal(got[0], start)
    assert np.max(np.abs(got - want[:, 0])) <= 1e-13


@pytest.mark.parametrize("make", [fixtures.sphere_r3, fixtures.s3_sphere,
                                  fixtures.sphere_r4_twisted,
                                  fixtures.sol3_plane])
def test_renorm_drift_stays_at_rounding(make):
    fx = make(33)
    _, report = solve_killing(KillingProblem(fx.data, fx.alg))
    assert report["renorm_drift"] <= 1e-13


@pytest.mark.parametrize("make", [fixtures.sphere_r3, fixtures.s3_sphere,
                                  fixtures.sphere_r4_twisted,
                                  fixtures.sol3_plane])
def test_renorm_drift_is_the_unit_defect_of_the_field(make):
    fx = make(17)
    field, report = solve_killing(KillingProblem(fx.data, fx.alg))
    assert report["renorm_drift"] == float(np.max(np.abs(
        unit_defect(field.values, fx.alg.n))))


@pytest.mark.parametrize("make", [fixtures.sphere_r3, fixtures.s3_sphere,
                                  fixtures.sphere_r4_twisted,
                                  fixtures.sol3_plane])
def test_uncorrected_transport_stays_unit_at_257_nodes(make):
    # the products of exact rotors drift by rounding only: the README's
    # 1.6e-14 up to 257 nodes per axis, six orders below SPIN_NORM_TOL
    fx = make(257)
    _, report = solve_killing(KillingProblem(fx.data, fx.alg))
    assert report["renorm_drift"] <= 2e-14


def test_edge_operators_take_no_geometric_product(gp_calls):
    for n in (2, 3, 4):
        eta = np.zeros((9, 7, 1 << n))
        eta[..., grade_indices(n, 2)] = rng.normal(
            size=(9, 7, len(grade_indices(n, 2))))
        for axis in (0, 1):
            _edge_operators(to_even(eta, n), 0.1, axis, n)
    assert gp_calls == []
    # the series for n >= 5 is seen by the counter
    eta = np.zeros((3, 3, 32))
    eta[..., grade_indices(5, 2)] = 0.1
    _edge_operators(to_even(eta, 5), 0.1, 0, 5)
    assert len(gp_calls) >= 18


@pytest.mark.parametrize("nx", [5, 6, 17, 33, 100])
def test_row_scan_takes_log_depth_products(gp_calls, nx):
    start, E = random_spin(3).value.coeffs, random_edge_rotors(3, nx - 1)
    start, E = to_even(start, 3), to_even(E, 3)
    gp_calls.clear()
    _transport_row(start, E, 3)
    assert len(gp_calls) == math.ceil(math.log2(nx))


def per_column_transport(problem):
    """The spin field and holonomy of solve_killing with the plaquette
    defect taken as |L phi - phi|, the form |L - 1| replaced."""
    grid, n, h = problem.grid, problem.alg.n, problem.grid.h
    eta_x, eta_y = connection_coefficient_fields(problem)
    Ex = from_even(_edge_operators(eta_x, h, 0, n), n)
    Ey = from_even(_edge_operators(eta_y, h, 1, n), n)
    values = np.zeros(grid.shape + (1 << n,))
    values[:, 0] = from_even(_transport_row(
        to_even(problem.base_spinor.value.coeffs, n), to_even(Ex[:, 0], n), n),
        n)
    for j in range(grid.shape[1] - 1):
        values[:, j + 1] = gp_array(Ey[:, j], values[:, j], n)
    loop = gp_array(Ey[1:, :], Ex[:, :-1], n)
    loop = gp_array(reverse_array(Ex, n)[:, 1:], loop, n)
    loop = gp_array(reverse_array(Ey, n)[:-1, :], loop, n)
    defect = gp_array(loop, values[:-1, :-1], n) - values[:-1, :-1]
    return values, float(np.max(np.linalg.norm(defect, axis=-1))) / h ** 2


@pytest.mark.parametrize("make", [fixtures.sphere_r3, fixtures.s3_sphere,
                                  fixtures.sphere_r4_twisted,
                                  fixtures.sol3_plane])
def test_column_sweep_takes_one_product_per_step(gp_calls, make):
    fx = make(33)
    problem = KillingProblem(fx.data, fx.alg,
                             base_spinor=random_spin(fx.alg.n))
    nx, ny = fx.grid.shape
    gp_calls.clear()
    field, report = solve_killing(problem)
    # the row scan, one product per column step, three products per
    # plaquette loop, and the unit gate of the finished field
    assert len(gp_calls) == math.ceil(math.log2(nx)) + (ny - 1) + 3 + 1
    values, holonomy = per_column_transport(problem)
    assert np.array_equal(field.values, values)
    # the plaquette defects themselves agree to rounding
    assert abs(report["holonomy"] - holonomy) * fx.grid.h ** 2 <= 1e-15
    assert report["renorm_drift"] <= 1e-13


# =============================================================================
# xi
# =============================================================================

def test_xi_of_identity_spinor_is_frame_map():
    prob = flat_problem()
    one = np.zeros(prob.grid.shape + (8,))
    one[..., 0] = 1.0
    field = SpinorField(prob.grid, 3, one)
    xi, normals = xi_from_spinor(field, prob)
    assert np.max(np.abs(xi.xi_x - np.array([1.0, 0, 0]))) <= 1e-15
    assert np.max(np.abs(xi.xi_y - np.array([0, 1.0, 0]))) <= 1e-15
    assert np.max(np.abs(normals[..., 0, :] - np.array([0, 0, 1.0]))) <= 1e-15


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_spinor_field_gates_non_finite_values_before_any_product(value):
    grid = ParamGrid(4, 4, 0.5)
    vals = np.zeros(grid.shape + (8,))
    vals[..., 0] = 1.0
    vals[2, 1, 0b011] = value
    with pytest.raises(ValueError, match="violated by nan"):
        SpinorField(grid, 3, vals)


@pytest.mark.parametrize("slot", [0, 1], ids=["even", "odd"])
def test_spinor_field_rejects_nan(slot):
    grid = ParamGrid(4, 4, 0.5)
    vals = np.zeros(grid.shape + (8,))
    vals[..., 0] = 1.0
    vals[2, 1, slot] = np.nan
    with pytest.raises(ValueError):
        SpinorField(grid, 3, vals)


def random_unit_field(grid, n):
    vals = np.zeros(grid.shape + (1 << n,))
    for i in range(grid.nx):
        for j in range(grid.ny):
            vals[i, j] = random_spin(n).value.coeffs
    return SpinorField(grid, n, vals)


def test_xi_grade_purity_and_norm_preservation():
    grid = ParamGrid(4, 4, 0.5)
    for n in (3, 4):
        frames = np.broadcast_to(np.eye(n), grid.shape + (n, n)).copy()
        if n == 3:
            data = ImmersionData(grid, frames, S=np.zeros(grid.shape + (2, 2)))
        else:
            data = ImmersionData(grid, frames,
                                 B=np.zeros(grid.shape + (2, 2, n - 2)))
        prob = KillingProblem(data, la.rn(n))
        field = random_unit_field(grid, n)
        xi, normals = xi_from_spinor(field, prob)  # purity enforced inside
        assert np.max(np.abs(np.linalg.norm(xi.xi_x, axis=-1) - 1.0)) <= 1e-8
        assert np.max(np.abs(np.linalg.norm(normals, axis=-1) - 1.0)) <= 1e-8


def test_xi_component_formula_dim3():
    # the complex-pair component formula agrees with the Clifford product
    for _ in range(200):
        g = random_spin(3).value.coeffs
        z1, z2 = phi_to_pair(g)
        X = rng.normal(size=3)
        out = gp_array(gp_array(reverse_array(g, 3), vector_array(X, 3), 3), g, 3)
        got = vector_part_array(out, 3)
        x1, x2, x3 = X
        xi3 = 2 * x1 * np.imag(z1 * np.conj(z2)) \
            - 2 * x2 * np.real(z1 * np.conj(z2)) \
            + x3 * (abs(z1) ** 2 - abs(z2) ** 2)
        beta = x1 * (z1 ** 2 + z2 ** 2) - 1j * x2 * (z1 ** 2 - z2 ** 2) \
            - 2j * x3 * z1 * z2
        want = np.array([np.real(beta), -np.imag(beta), xi3])
        assert np.max(np.abs(got - want)) <= 1e-12


def test_xi_equivariance_under_right_action():
    fx = fixtures.s3_sphere(5)
    prob, afield = analytic_problem(fx)
    xi0, _ = xi_from_spinor(afield, prob)
    for _ in range(100):
        a = random_spin(3)
        xia, _ = xi_from_spinor(afield.right_multiplied(a), prob)
        Ad_inv = a.inverse().adjoint_matrix()
        want = np.einsum("ij,xyj->xyi", Ad_inv, xi0.xi_x)
        assert np.max(np.abs(xia.xi_x - want)) <= 1e-10


def test_xi_sign_invariance():
    fx = fixtures.sphere_r3(5)
    prob, afield = analytic_problem(fx)
    xi0, _ = xi_from_spinor(afield, prob)
    minus = SpinorField(afield.grid, 3, -afield.values)
    xi1, _ = xi_from_spinor(minus, prob)
    assert np.array_equal(xi0.xi_x, xi1.xi_x)
    assert np.array_equal(xi0.xi_y, xi1.xi_y)


def test_xi_corruption_detected():
    # a field given with odd coefficients is refused when it is built, since
    # the even layout the pipeline keeps cannot hold them
    prob = flat_problem(5)
    vals = np.zeros(prob.grid.shape + (8,))
    vals[..., 0] = 1.0
    vals[2, 2, 0b001] = 0.3   # vector junk
    with pytest.raises(ValueError,
                       match="spinor representatives must be even"):
        SpinorField(prob.grid, 3, vals)
    # n = 5: an even coefficient written past validation takes e5 under
    # Ad(rev phi) out of the vectors, which the xi gate catches
    prob = flat_problem(5, n=5)
    one = np.zeros((16,) + prob.grid.shape)
    one[0] = 1.0
    field = SpinorField(prob.grid, 5, one)
    junk = np.zeros(32)
    junk[0b1111] = 0.3        # e1234
    field.even[:, 2, 2] += to_even(junk, 5)
    with pytest.raises(ValueError, match="xi output is not a vector"):
        xi_from_spinor(field, prob)


# =============================================================================
# Normalization
# =============================================================================

def test_normalize_roundtrip_recovers_xi():
    fx = fixtures.s3_sphere(9)
    prob, afield = analytic_problem(fx)
    base = normalize_spinor(afield, prob)
    xi_base, _ = xi_from_spinor(base, prob)
    for _ in range(10):
        scrambled = afield.right_multiplied(random_spin(3))
        renorm = normalize_spinor(scrambled, prob)
        xi_re, _ = xi_from_spinor(renorm, prob)
        assert np.max(np.abs(xi_re.xi_x - xi_base.xi_x)) <= 1e-9
        assert np.max(np.abs(xi_re.xi_y - xi_base.xi_y)) <= 1e-9


def test_right_multiplied_rejects_an_odd_factor():
    _, afield = analytic_problem(fixtures.s3_sphere(9))
    a = random_spin(3).value + Multivector.from_vector([0.0, 1e-6, 0.0], 3)
    with pytest.raises(ValueError, match="spin element has odd-grade "
                                         "coefficients"):
        afield.right_multiplied(a)


@pytest.mark.parametrize("make,m", [(fixtures.sphere_r3, 4),
                                    (fixtures.sphere_r4_twisted, 3)])
def test_a_base_spinor_of_another_dimension_is_rejected(make, m):
    fx = make(9)
    with pytest.raises(ValueError, match=rf"^base spinor of Cl_{m} for an "
                                         rf"algebra of Cl_{fx.alg.n}$"):
        KillingProblem(fx.data, fx.alg, base_spinor=SpinElement.identity(m))


@pytest.mark.parametrize("make,m", [(fixtures.sphere_r3, 4),
                                    (fixtures.sphere_r4_twisted, 3)])
def test_right_multiplied_rejects_a_factor_of_another_dimension(make, m):
    fx = make(9)
    field, _ = solve_killing(KillingProblem(fx.data, fx.alg))
    with pytest.raises(ValueError, match=rf"^spin element of Cl_{m} for a "
                                         rf"spinor field of Cl_{fx.alg.n}$"):
        field.right_multiplied(SpinElement.identity(m))


def test_normalize_rejects_an_even_unit_field_outside_the_spin_group():
    # (1 + e123456)/sqrt(2) is even and unit, but Ad of it maps vectors to
    # 5-vectors: xi o frame^-1 is zero, and the orthogonality gate fires
    fx = padded(padded(padded(fixtures.sphere_r3(5))))
    values = np.zeros(fx.grid.shape + (64,))
    values[..., 0] = values[..., 63] = 1.0 / math.sqrt(2.0)
    field = SpinorField(fx.grid, 6, values)
    with pytest.raises(ValueError, match=r"^xi o frame\^-1 is not orthogonal "
                                         r"\(deviation 1\.000e\+00\); the "
                                         r"solve did not produce a spin "
                                         r"field$"):
        normalize_spinor(field, KillingProblem(fx.data, fx.alg))


def test_normalized_xi_matches_frame_map_at_base():
    fx = fixtures.sol3_plane(9)
    prob, _ = analytic_problem(fx)
    field, _ = solve_killing(prob)
    field = normalize_spinor(field, prob)
    from spinorforge.spinor import frame_map_at
    T = frame_map_at(field, prob, (0, 0))
    assert np.max(np.abs(T - np.eye(3))) <= 1e-10


def test_normalized_structure_residual_quadratic():
    res = []
    for n in (17, 33):
        fx = fixtures.s3_sphere(n)
        prob, _ = analytic_problem(fx)
        field, _ = solve_killing(prob)
        field = normalize_spinor(field, prob)
        xi, _ = xi_from_spinor(field, prob)
        res.append(np.max(structure_residual(xi, prob.alg)))
    assert 2.5 <= res[0] / res[1] <= 6.5


# =============================================================================
# Reconstruction
# =============================================================================

def test_flat_plane_reconstruction_exact():
    prob = flat_problem(9)
    F, _, report = reconstruct_immersion(prob)
    X, Y = prob.grid.mesh()
    want = np.stack([X, Y, np.zeros_like(X)], axis=-1)
    assert np.max(np.abs(F - want)) <= 1e-12
    assert report["isometry_error"] <= 1e-10
    assert report["second_fundamental_error"] <= 1e-10


@pytest.mark.parametrize("make", [fixtures.sphere_r3, fixtures.s3_sphere,
                                  fixtures.s3_equator, fixtures.sol3_plane,
                                  fixtures.h2xr_slice])
def test_reconstruction_recovers_fixture(make):
    for n in (17, 33):
        fx = make(n)
        prob, _ = analytic_problem(fx)
        F, _, report = reconstruct_immersion(prob, base_point=fx.F[0, 0])
        bound = 5 * fx.grid.h ** 2
        assert np.max(np.linalg.norm(F - fx.F, axis=-1)) <= bound
        assert report["isometry_error"] <= bound
        assert report["second_fundamental_error"] <= bound


def test_reconstruction_q2_twisted_sphere():
    fx = fixtures.sphere_r4_twisted(17)
    prob, _ = analytic_problem(fx)
    F, _, report = reconstruct_immersion(prob, base_point=fx.F[0, 0])
    bound = 5 * fx.grid.h ** 2
    assert np.max(np.linalg.norm(F - fx.F, axis=-1)) <= bound
    assert report["second_fundamental_error"] <= bound
    assert report["normal_connection_error"] <= bound


def test_not_integrable_raises():
    fx = fixtures.sphere_r3(17, codazzi_eps=1e-2)
    prob = KillingProblem(fx.data, fx.alg)
    with pytest.raises(NotIntegrableError) as err:
        reconstruct_immersion(prob)
    # the error carries the flagged report
    assert not err.value.report["integrable"]


def test_structure_gate_rejects_nan_tolerance(monkeypatch):
    fx = fixtures.sphere_r3(9)
    prob = KillingProblem(fx.data, fx.alg)
    monkeypatch.setattr(spinor, "structure_tolerance",
                        lambda grid: float("nan"))
    with pytest.raises(NotIntegrableError, match="structure residual"):
        reconstruct_immersion(prob)


# =============================================================================
# Converse
# =============================================================================

def test_identity_chart_gives_constant_spinor():
    grid = ParamGrid(9, 9, 0.1)
    X, Y = grid.mesh()
    F = np.stack([X, Y, np.zeros_like(X)], axis=-1)
    field, data = spinor_of_immersion(F, la.rn(3), grid)
    one = np.zeros(8)
    one[0] = 1.0
    dev = min(np.max(np.abs(field.values - one)),
              np.max(np.abs(field.values + one)))
    assert dev <= 1e-12
    assert np.max(np.abs(data.S)) <= 1e-10
    assert np.max(np.abs(data.grid.mu - 1.0)) <= 1e-12


def test_sphere_extraction_recovers_shape_operator():
    # S from the fourth-order pullback and B over the second-order mu: the
    # error is O(h^3), measured 1.0e-3, 1.4e-4 and 1.8e-5 (ratios 7.1, 7.7)
    devs = []
    for n in (17, 33, 65):
        fx = fixtures.sphere_r3(n, radius=0.8)
        _, data = spinor_of_immersion(fx.F, fx.alg, fx.grid)
        devs.append(np.max(np.abs(data.S - fx.data.S)))
    for coarse, fine in zip(devs, devs[1:]):
        assert 5.0 <= coarse / fine <= 13.0
    assert devs[-1] <= 5e-5


# the converse's data through solve_killing, holonomy over h^2 at N = 17,
# 33 and 65: at most 26.3 (sphere-r3 at 17), against the gate's 10
CONVERSE_HOLONOMY_H2 = 30.0


@pytest.mark.parametrize("name", [name for name in SURFACE_FIXTURES
                                  if name != "sphere-r3-broken"])
def test_converse_data_keeps_the_killing_holonomy_of_order_h2(name):
    for n in (17, 33, 65):
        fx = SURFACE_FIXTURES[name](n)
        _, data = spinor_of_immersion(fx.F, fx.alg, fx.grid)
        _, report = solve_killing(KillingProblem(data, fx.alg))
        assert report["holonomy"] <= CONVERSE_HOLONOMY_H2 * fx.grid.h ** 2, n


def test_converse_needs_the_fourth_order_stencils_reach():
    fx = fixtures.sphere_r3(4)
    with pytest.raises(ValueError, match=r"^order-4 derivatives need at "
                                         r"least 5 nodes per axis; got 4$"):
        spinor_of_immersion(fx.F, fx.alg, fx.grid)


def test_sol3_plane_extraction_matches_analytic_frames():
    fx = fixtures.sol3_plane(17)
    field, data = spinor_of_immersion(fx.F, fx.alg, fx.grid)
    h2 = fx.grid.h ** 2
    # constant frame directions come out exactly; mu and S carry the O(h^2)
    # truncation of the log differences
    assert np.max(np.abs(data.frames - fx.data.frames)) <= 1e-12
    assert np.max(np.abs(data.S)) <= 5 * h2
    assert np.max(np.abs(data.grid.mu - fx.grid.mu)) <= 5 * h2


def test_extracted_spinor_satisfies_killing_equation():
    devs = []
    for n in (17, 33):
        fx = fixtures.s3_sphere(n)
        field, _ = spinor_of_immersion(fx.F, fx.alg, fx.grid)
        prob = KillingProblem(fx.data, fx.alg)
        ex, ey = (from_even(eta, 3)
                  for eta in connection_coefficient_fields(prob))
        rx = fx.grid.dx(field.values) - gp_array(ex, field.values, 3)
        ry = fx.grid.dy(field.values) - gp_array(ey, field.values, 3)
        devs.append(max(np.max(np.abs(rx)), np.max(np.abs(ry))))
    assert 2.5 <= devs[0] / devs[1] <= 6.5


def test_roundtrip_up_to_rigid_motion():
    # reconstruct from data with an arbitrary base spinor / base point, then
    # extract data back: the geometry must agree to O(h^2) even though the
    # two immersions differ by a rigid motion
    fx = fixtures.s3_sphere(17)
    a = random_spin(3)
    prob = KillingProblem(fx.data, fx.alg, base_spinor=a)
    F, _, _ = reconstruct_immersion(prob)
    field2, data2 = spinor_of_immersion(F, fx.alg, fx.grid)
    h2 = fx.grid.h ** 2
    assert np.max(np.abs(data2.grid.mu - fx.grid.mu)) <= 5 * h2
    assert np.max(np.abs(data2.S - fx.data.S)) <= 10 * h2


def test_degenerate_immersion_rejected():
    grid = ParamGrid(5, 5, 0.25)
    F = np.zeros(grid.shape + (3,))   # constant map, F_* = 0
    with pytest.raises(ValueError):
        spinor_of_immersion(F, la.rn(3), grid)


def test_vanishing_tangent_gate_names_the_node():
    # F is constant on i, j >= 5: the first node, in index order, whose
    # fourth-order stencil reads only that block is (5, 7) along y
    fx = fixtures.sphere_r3(17)
    F = np.array(fx.F)
    F[5:, 5:] = F[5, 5]
    with pytest.raises(ValueError, match=r"^degenerate immersion: vanishing "
                                         r"coordinate tangent at node "
                                         r"\(5, 7\)$"):
        spinor_of_immersion(F, fx.alg, fx.grid)


def test_nonconformal_rejected():
    grid = ParamGrid(9, 9, 0.1)
    X, Y = grid.mesh()
    F = np.stack([X, 2.0 * Y, np.zeros_like(X)], axis=-1)
    with pytest.raises(ValueError):
        spinor_of_immersion(F, la.rn(3), grid)


@pytest.mark.parametrize("make", [fixtures.sphere_r3,
                                  fixtures.sphere_r4_twisted])
def test_converse_rejects_a_first_fundamental_form_beyond_the_float_range(
        make):
    """F * 1e300 has finite pullbacks whose inner products overflow: the
    converse names the node, and no inf - inf reaches the conformality
    gates (which a NaN would pass)."""
    fx = make(9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"first fundamental form of F "
                                             r"is not finite at node \(0, 0\)"):
            spinor_of_immersion(fx.F * 1e300, fx.alg, fx.grid)


def reference_normal_frames(e1, e2):
    """Frames [e1 | e2 | normals] with the normals marched node by node, as
    the converse did before its column sweep (q > 1 branch, verbatim)."""
    nx, ny, n = e1.shape
    q = n - 2
    frames = np.zeros((nx, ny, n, n))
    frames[..., 0] = e1
    frames[..., 1] = e2

    def complete(i, j, seed):
        basis = [e1[i, j], e2[i, j]]
        cols = []
        for r in range(q):
            v = seed[:, r]
            for b in basis + cols:
                v = v - (b @ v) * b
            nv = np.linalg.norm(v)
            if nv < 1e-8:
                raise ValueError("degenerate normal completion; immersion "
                                 "nearly tangent to the seed frame")
            cols.append(v / nv)
        return np.column_stack(cols)

    A = np.column_stack([e1[0, 0], e2[0, 0], np.eye(n)])
    qmat, _ = np.linalg.qr(A)
    seed = qmat[:, 2:2 + q].copy()
    frames[0, 0, :, 2:] = complete(0, 0, seed)
    if np.linalg.det(frames[0, 0]) < 0:
        frames[0, 0, :, n - 1] *= -1.0
    for i in range(1, nx):
        frames[i, 0, :, 2:] = complete(i, 0, frames[i - 1, 0, :, 2:])
    for j in range(1, ny):
        for i in range(nx):
            frames[i, j, :, 2:] = complete(i, j, frames[i, j - 1, :, 2:])
    return frames


def reference_continuous_spin_lift(frames):
    """The per-node sign-matched lift the array code replaced, verbatim."""
    nx, ny, n, _ = frames.shape
    values = np.zeros((nx, ny, 1 << n))

    def lift(i, j, prev):
        a = spin_lift(frames[i, j]).value.reversal().coeffs
        if prev is not None and np.linalg.norm(a - prev) > np.linalg.norm(a + prev):
            a = -a
        return a

    values[0, 0] = lift(0, 0, None)
    for i in range(1, nx):
        values[i, 0] = lift(i, 0, values[i - 1, 0])
    for j in range(1, ny):
        for i in range(nx):
            values[i, j] = lift(i, j, values[i, j - 1])
    return values


@pytest.mark.parametrize("make", [fixtures.sphere_r3,
                                  fixtures.sphere_r4_twisted,
                                  fixtures.sol3_plane])
def test_converse_matches_node_reference(make):
    fx = make(33)
    field, data = spinor_of_immersion(fx.F, fx.alg, fx.grid)
    frames, values = data.frames, field.values
    if frames.shape[-1] > 3:
        want = reference_normal_frames(frames[..., 0], frames[..., 1])
        assert np.max(np.abs(frames - want)) <= 1e-14
    want = reference_continuous_spin_lift(frames)
    assert np.max(np.abs(values - want)) <= 1e-14
    # every spanning-tree edge (bottom row, then the columns) is sign matched
    assert np.all(np.einsum("xk,xk->x", values[1:, 0], values[:-1, 0]) > 0)
    assert np.all(np.einsum("xyk,xyk->xy", values[:, 1:], values[:, :-1]) > 0)


# rounding is amplified by 1 / |P_r v| where a rough tangent plane turns far
# in one step; over seeds 0-19 the march and the oracle differed by at most
# 3.3e-16, 4.2e-15 and 3.9e-12 at these noise levels
ROUGH_BOUNDS = {0.05: 1e-14, 0.3: 5e-14, 1.0: 5e-11}


@pytest.mark.parametrize("noise", sorted(ROUGH_BOUNDS))
def test_normal_frames_of_rough_pullbacks_match_node_reference(noise):
    fx = fixtures.sphere_r4_twisted(33)
    zx, zy = np.moveaxis(
        maurer_cartan_pullback(fx.F, model_for(fx.alg), fx.grid), 2, 0)
    noisy = np.random.default_rng(30)
    zx = zx + noise * noisy.standard_normal(zx.shape)
    zy = zy + noise * noisy.standard_normal(zy.shape)
    frames = _continuous_normal_frames(np.stack([zx, zy], axis=2), 4)
    want = reference_normal_frames(frames[..., 0], frames[..., 1])
    assert np.max(np.abs(frames - want)) <= ROUGH_BOUNDS[noise]


def test_converse_of_three_normals_matches_node_reference():
    # sphere_r4_twisted in R^5 with a zero last coordinate: q = 3
    fx = fixtures.sphere_r4_twisted(33)
    F = np.concatenate([fx.F, np.zeros(fx.grid.shape + (1,))], axis=-1)
    _, data = spinor_of_immersion(F, la.rn(5), fx.grid)
    frames = data.frames
    want = reference_normal_frames(frames[..., 0], frames[..., 1])
    assert np.max(np.abs(frames - want)) <= 1e-14


def test_converse_matches_node_reference_at_129_nodes():
    fx = fixtures.sphere_r4_twisted(129)
    _, data = spinor_of_immersion(fx.F, fx.alg, fx.grid)
    frames = data.frames
    want = reference_normal_frames(frames[..., 0], frames[..., 1])
    assert np.max(np.abs(frames - want)) <= 1e-14


@pytest.mark.parametrize("node", [(1, 0), (2, 1)], ids=["row", "column"])
def test_normal_frames_reject_a_tangent_plane_turning_into_the_normals(node):
    """The origin's tangent plane is span(e1, e2) and the one at `node`
    span(e3, e4), so the tree step into `node` projects its parent's
    normals to zero: the gate raises, and no division warns."""
    eye = np.eye(4)
    zx = np.broadcast_to(eye[0], (5, 4, 4)).copy()
    zy = np.broadcast_to(eye[1], (5, 4, 4)).copy()
    zx[node], zy[node] = eye[2], eye[3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="degenerate normal completion; "
                                             "immersion nearly tangent to "
                                             "the seed frame"):
            _continuous_normal_frames(np.stack([zx, zy], axis=2), 4)


@pytest.mark.parametrize("node", [(1, 0), (2, 1), (4, 3)])
def test_degenerate_normal_gate_names_the_node(node):
    """As above: the normals reach `node` with a zero normalizer, and every
    node after it down the tree gets nan ones; the gate names `node`."""
    eye = np.eye(4)
    zx = np.broadcast_to(eye[0], (5, 4, 4)).copy()
    zy = np.broadcast_to(eye[1], (5, 4, 4)).copy()
    zx[node], zy[node] = eye[2], eye[3]
    i, j = node
    with pytest.raises(ValueError, match=rf"the seed frame at node "
                                         rf"\({i}, {j}\)$"):
        _continuous_normal_frames(np.stack([zx, zy], axis=2), 4)


def test_conformal_gate_names_the_worst_node():
    grid = ParamGrid(9, 9, 0.1)
    X, Y = grid.mesh()
    F = np.stack([X, Y * (1.0 + X * X), np.zeros_like(X)], axis=-1)
    g = first_fundamental_form(
        maurer_cartan_pullback(F, model_for(la.rn(3)), grid))
    gxx, gxy, gyy = g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]
    i, j = worst_node(np.maximum(np.abs(gxy), np.abs(gxx - gyy)))
    assert (i, j) != (0, 0)
    with pytest.raises(ValueError, match=rf"^the parametrization is not "
                                         rf"conformal; .* at node "
                                         rf"\({i}, {j}\)$"):
        spinor_of_immersion(F, la.rn(3), grid)


def test_spinor_of_immersion_names_a_malformed_F():
    fx = fixtures.sphere_r3(17)
    probes = {"(9, 9, 3)": fixtures.sphere_r3(9).F,
              "(17, 17, 2)": fx.F[..., :2],
              "(17, 17, 4)": np.concatenate([fx.F, fx.F[..., :1]], axis=-1),
              "(17, 17)": fx.F[..., 0]}
    for shape, F in probes.items():
        with pytest.raises(ValueError) as err:
            spinor_of_immersion(F, fx.alg, fx.grid)
        assert str(err.value) == (f"the immersion F has shape {shape}; the "
                                  f"grid and the group need (17, 17, 3)")


# =============================================================================
# Dirac
# =============================================================================

def test_pair_dictionary_roundtrips():
    for _ in range(30):
        g = random_spin(3).value.coeffs
        z1, z2 = phi_to_pair(g)
        assert np.max(np.abs(pair_to_phi(z1, z2) - g)) == 0.0


def test_killing_solution_satisfies_dirac():
    devs = []
    for n in (17, 33):
        fx = fixtures.s3_sphere(n)
        prob, afield = analytic_problem(fx)
        res = dirac_residual(afield, prob)
        devs.append(np.max(res))
    assert 2.5 <= devs[0] / devs[1] <= 6.5


def test_random_field_fails_dirac():
    fx = fixtures.s3_sphere(9)
    prob, _ = analytic_problem(fx)
    field = random_unit_field(fx.grid, 3)
    assert np.max(dirac_residual(field, prob)) >= 0.5


@pytest.mark.parametrize("name", ["sphere-r3", "s3-sphere",
                                  "sphere-r4-twisted"])
def test_dirac_residual_matches_the_written_out_loop(name):
    fx = SURFACE_FIXTURES[name](17)
    prob = KillingProblem(fx.data, fx.alg)
    field = normalize_spinor(solve_killing(prob)[0], prob)
    got = dirac_residual(field, prob)
    want = written_out_dirac_residual(field, prob)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def test_equator_pair_dirac_residual_quadratic():
    devs = []
    for n in (17, 33):
        fx = fixtures.s3_equator(n)
        prob, afield = analytic_problem(fx)
        devs.append(np.max(pair_dirac_residual(afield, prob, H=0.0)))
        # the pair picture evaluates the same operator as the Clifford one
        assert abs(devs[-1] - np.max(dirac_residual(afield, prob))) <= 1e-10
    assert 2.5 <= devs[0] / devs[1] <= 6.5


def test_mean_curvature_vector():
    fx = fixtures.sphere_r3(5, radius=2.0)
    H = mean_curvature_vector(fx.data)
    assert np.max(np.abs(H - 0.5)) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_spinor_of_immersion_names_a_non_finite_node(bad, no_connection):
    # and forms no connection first: an empty term table would read the
    # non-finite node as a flat 0
    for fx in (fixtures.s3_sphere(9), fixtures.sphere_r4_twisted(9)):
        F = np.array(fx.F)
        F[3, 5, 2] = bad
        with pytest.raises(ValueError, match=r"the immersion F is not finite "
                                             r"at node \(3, 5\)"):
            spinor_of_immersion(F, fx.alg, fx.grid)


# the dense connection contractions before the term tables: the operator
# field, its product with a vector, and normal_connection's with the normals
DENSE_CONTRACTIONS = {"...i,ijk->...kj", "...kj,...j->...k", "xykj,xyjr->xykr"}


@pytest.mark.parametrize("name", ["sphere-r3", "sphere-r4-twisted",
                                  "sol3-plane"])
def test_the_converse_forms_no_connection_operator(name, connection_work):
    # R^n's tables are empty, and Sol_3's contract without an operator field
    fx = SURFACE_FIXTURES[name](17)
    spinor_of_immersion(fx.F, fx.alg, fx.grid)
    assert connection_work["operators"] == []
    assert connection_work["einsums"]       # the counter sees the others
    assert not DENSE_CONTRACTIONS & set(connection_work["einsums"])


@pytest.mark.parametrize("N", [17, 33])
def test_sphere_r4_twisted_padded_into_r5_is_the_r4_surface(N):
    """sphere-r4-twisted with e5 as a third normal of zero B and theta:
    the n = 5 series, the adjoint and the Givens lift of normalize_spinor
    give the R^4 spinor, embedded blade by blade, and the R^4 surface in
    the hyperplane of the first four coordinates.  Measured at N <= 33:
    1.9e-15 on the field, 2.4e-15 on the holonomy and 6.2e-15 on F."""
    fx4 = fixtures.sphere_r4_twisted(N)
    fx5 = padded(fx4)
    (field4, report4), (field5, report5) = (
        solve_killing(KillingProblem(fx.data, fx.alg)) for fx in (fx4, fx5))
    embedded = np.zeros(field5.values.shape)
    embedded[..., :16] = field4.values
    assert np.max(np.abs(field5.values - embedded)) <= 4e-15
    assert abs(report5["holonomy"] - report4["holonomy"]) <= 1e-14
    assert report5["holonomy_argmax"] == report4["holonomy_argmax"]
    F4, F5 = (reconstruct_immersion(KillingProblem(fx.data, fx.alg),
                                    base_point=fx.F[0, 0])[0]
              for fx in (fx4, fx5))
    assert np.max(np.abs(F5 - np.pad(F4, [(0, 0)] * 2 + [(0, 1)]))) <= 1.5e-14


def test_overflowing_connection_in_r5_names_the_cell():
    """An edge rotor past float range fails the transport's finiteness
    gate at the cell R^4 names: log2(inf) has no ceiling, so the n = 5
    series takes such a field unscaled."""
    fx4 = fixtures.sphere_r4_twisted(9)
    for fx in (fx4, padded(fx4)):
        B = np.array(fx.data.B)
        B[4, 4, 0, 0, 0] = 1e308
        data = ImmersionData(fx.data.grid, fx.data.frames, B=B,
                             theta_x=fx.data.theta[:, :, 0],
                             theta_y=fx.data.theta[:, :, 1])
        with pytest.raises(spinor.IntegrationError,
                           match=r"spin transport diverged at cell \(3, 4\)"):
            reconstruct_immersion(KillingProblem(data, fx.alg))
