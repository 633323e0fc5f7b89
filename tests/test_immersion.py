"""Frame equations, tangential connection representatives, GCR residuals."""

import math

import numpy as np
import pytest

from spinorforge import fixtures, lie_algebra as la
from spinorforge.cli import SURFACE_FIXTURES
from spinorforge.clifford import Multivector, bivector_of_skew
from spinorforge.grid import ParamGrid
from spinorforge.immersion import (
    FRAME_TOL, U_NORM_TOL, EKTData, ImmersionData, _covariant_B,
    ambient_curvature_frame, ekt_compat_residuals,
    ekt_integrability_residuals, frame_compat_residual_fields,
    frame_compat_residuals, frame_determinants, gcr_residual_fields,
    gcr_residuals, hn_u_residual,
)
from spinorforge.spinor import gamma_frame_matrix

from oracles import (
    dense_frame_determinants, dense_frame_deviation, ekt_gamma_bivector,
)

rng = np.random.default_rng(7311)


def random_frames(n, shape):
    """Constant random special-orthogonal frame field."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return np.broadcast_to(q, shape + (n, n)).copy()


# =============================================================================
# Construction
# =============================================================================

def test_rejects_non_orthonormal_frames():
    grid = ParamGrid(3, 3, 0.5)
    frames = np.broadcast_to(np.eye(3) * 1.1, (3, 3, 3, 3)).copy()
    with pytest.raises(ValueError):
        ImmersionData(grid, frames, S=np.zeros((3, 3, 2, 2)))


def test_rejects_asymmetric_S():
    grid = ParamGrid(3, 3, 0.5)
    frames = np.broadcast_to(np.eye(3), (3, 3, 3, 3)).copy()
    S = np.zeros((3, 3, 2, 2))
    S[..., 0, 1] = 1.0
    with pytest.raises(ValueError):
        ImmersionData(grid, frames, S=S)


def test_rejects_negative_orientation():
    grid = ParamGrid(3, 3, 0.5)
    U = np.eye(3)
    U[0, 0] = -1.0
    frames = np.broadcast_to(U, (3, 3, 3, 3)).copy()
    with pytest.raises(ValueError):
        ImmersionData(grid, frames, S=np.zeros((3, 3, 2, 2)))


def test_rejects_nan_frames():
    grid = ParamGrid(3, 3, 0.5)
    frames = np.broadcast_to(np.eye(3), (3, 3, 3, 3)).copy()
    frames[1, 2, 0, 0] = np.nan
    with pytest.raises(ValueError, match="orthonormality"):
        ImmersionData(grid, frames, S=np.zeros((3, 3, 2, 2)))


def test_rejects_nan_second_fundamental_form_and_normal_connection():
    grid = ParamGrid(3, 3, 0.5)
    frames = np.broadcast_to(np.eye(4), (3, 3, 4, 4)).copy()
    B = np.zeros((3, 3, 2, 2, 2))
    B[0, 0, 0, 0, 1] = np.nan
    with pytest.raises(ValueError, match="symmetric"):
        ImmersionData(grid, frames, B=B)
    theta = np.zeros((3, 3, 2, 2))
    theta[2, 1, 0, 1] = np.nan
    with pytest.raises(ValueError, match="skew"):
        ImmersionData(grid, frames, B=np.zeros((3, 3, 2, 2, 2)), theta_x=theta)


@pytest.mark.parametrize("key", ["theta_x", "theta_y"])
@pytest.mark.parametrize("bad,message", [
    ("shape", r"^normal connection coefficients must be \(nx, ny, q, q\)$"),
    ("skew", r"^normal connection coefficients must be skew$"),
    ("nan", r"^{key} has non-finite entries, so it fails the skew check$"),
], ids=["shape", "skew", "nan"])
def test_one_bad_normal_connection_block_meets_its_gate(key, bad, message):
    data = fixtures.sphere_r4_twisted(5).data
    blocks = {"theta_x": np.array(data.theta[:, :, 0]),
              "theta_y": np.array(data.theta[:, :, 1])}
    if bad == "shape":
        blocks[key] = blocks[key][:, :, :1]
    elif bad == "skew":
        blocks[key][2, 3, 0, 1] += 1.0
    else:
        blocks[key][2, 3, 0, 1] = np.nan
    with pytest.raises(ValueError, match=message.format(key=key)):
        ImmersionData(data.grid, data.frames, B=data.B, **blocks)


def test_theta_stacks_its_blocks_on_the_tangent_axis_read_only():
    data = fixtures.sphere_r4_twisted(5).data
    noise = rng.normal(size=data.grid.shape + (2, 2, 2))
    skew = noise - np.swapaxes(noise, 3, 4)
    kept = skew.copy()
    got = ImmersionData(data.grid, data.frames, B=data.B,
                        theta_x=skew[:, :, 0], theta_y=skew[:, :, 1])
    skew[0, 0, 0, 0, 1] = 9.0
    assert got.theta.shape == data.grid.shape + (2, 2, 2)
    assert np.array_equal(got.theta, kept) and not got.theta.flags.writeable
    assert all(got.theta[:, :, a].flags.c_contiguous for a in range(2))
    # a block not given is zero
    only_y = ImmersionData(data.grid, data.frames, B=data.B,
                           theta_y=kept[:, :, 1])
    assert not only_y.theta[:, :, 0].any()
    assert np.array_equal(only_y.theta[:, :, 1], kept[:, :, 1])


def rotation_field(n, shape):
    """Random special-orthogonal frames, a different one at each node."""
    q, r = np.linalg.qr(rng.normal(size=shape + (n, n)))
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    q[..., 0] *= np.sign(dense_frame_determinants(q))[..., None]
    return q


def frame_data(frames):
    """ImmersionData with zero B on frames (nx, ny, n, n) of a unit grid."""
    nx, ny, n = frames.shape[:3]
    return ImmersionData(ParamGrid(nx, ny, 0.5), frames,
                         B=np.zeros((nx, ny, 2, 2, n - 2)))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("group", ["SO", "O"])
def test_closed_form_orientation_has_the_sign_of_lapack(n, group):
    frames = rotation_field(n, (7, 6))
    if group == "SO":
        frames[3, 2, :, 1] *= -1.0              # one interior reflection
    else:
        flips = rng.choice([-1.0, 1.0], size=(7, 6))
        frames[..., 1] *= flips[..., None]
    want = dense_frame_determinants(frames)
    got = frame_determinants(frames)
    assert got.shape == (7, 6)
    assert np.array_equal(np.sign(got), np.sign(want))
    assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.parametrize("n,lapack", [(3, 0), (4, 0), (5, 1)])
def test_only_five_dimensions_and_up_judge_orientation_by_lapack(
        n, lapack, monkeypatch):
    frames = rotation_field(n, (5, 4))
    calls = []
    det = np.linalg.det

    def counted(a):
        calls.append(np.shape(a))
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counted)
    frame_data(frames)
    assert calls == [(5, 4, n, n)] * lapack
    monkeypatch.undo()
    assert np.array_equal(np.sign(frame_determinants(frames)),
                          np.sign(dense_frame_determinants(frames)))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("node", [(0, 0), (3, 2), (6, 5)])
def test_a_reflected_frame_is_named_by_its_node(n, node):
    frames = rotation_field(n, (7, 6))
    frames[node][:, n - 1] *= -1.0
    at = r"\(%d, %d\)" % node
    with pytest.raises(ValueError, match=r"^frames must be positively "
                       rf"oriented \(det \+1\) at node {at}$"):
        frame_data(frames)


def scaled_at(frames, node, deviation):
    """frames with the one at `node` scaled so that U U^T - I is about
    `deviation` on its diagonal."""
    out = frames.copy()
    out[node] *= math.sqrt(1.0 + deviation)
    return out


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("node", [(0, 0), (3, 2), (6, 5)])
def test_orthonormality_fails_at_twice_the_tolerance_and_names_the_node(
        n, node):
    frames = rotation_field(n, (7, 6))
    frame_data(scaled_at(frames, node, 0.5 * FRAME_TOL))
    bad = scaled_at(frames, node, 2.0 * FRAME_TOL)
    oracle = dense_frame_deviation(bad)
    assert 1.9 * FRAME_TOL < np.max(oracle) < 2.1 * FRAME_TOL
    at = r"\(%d, %d\)" % node
    with pytest.raises(ValueError, match=rf"^frame orthonormality violated "
                       rf"by {np.max(oracle):.3e} at node {at}$"):
        frame_data(bad)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("defect", ["scaled", "sheared", "everywhere"])
def test_the_orthonormality_message_prints_the_oracle_deviation(n, defect):
    frames = rotation_field(n, (6, 5))
    if defect == "scaled":
        frames[2, 3] *= 1.25
    elif defect == "sheared":
        frames[4, 1, 0] += 1e-6 * frames[4, 1, 1]
    else:
        frames *= 1.0 + rng.uniform(1e-9, 1e-3, size=(6, 5, 1, 1))
    oracle = dense_frame_deviation(frames)
    node = tuple(int(i) for i in np.unravel_index(np.argmax(oracle),
                                                  oracle.shape))
    with pytest.raises(ValueError) as err:
        frame_data(frames)
    assert str(err.value) == (f"frame orthonormality violated by "
                              f"{np.max(oracle):.3e} at node {node}")


def test_the_symmetry_gate_reads_the_off_diagonal_blocks():
    frames = rotation_field(4, (5, 4))
    B = rng.normal(size=(5, 4, 2, 2, 2))
    B = B + np.swapaxes(B, 2, 3)
    ImmersionData(ParamGrid(5, 4, 0.5), frames, B=B)
    for size, passes in ((0.5 * FRAME_TOL, True), (2.0 * FRAME_TOL, False)):
        bad = B.copy()
        bad[3, 1, 1, 0, 1] += size
        if passes:
            ImmersionData(ParamGrid(5, 4, 0.5), frames, B=bad)
        else:
            with pytest.raises(ValueError, match="^second fundamental form "
                               "must be symmetric$"):
                ImmersionData(ParamGrid(5, 4, 0.5), frames, B=bad)


def test_ekt_norm_invariant_enforced():
    grid = ParamGrid(3, 3, 0.5)
    T = np.zeros((3, 3, 2))
    T[..., 0] = 0.5
    with pytest.raises(ValueError):
        EKTData(grid, T, np.zeros((3, 3)), np.zeros((3, 3, 2, 2)), -1.0, 0.5)


def test_ekt_rejects_nan_tangent_field():
    grid = ParamGrid(3, 3, 0.5)
    T = np.zeros((3, 3, 2))
    T[..., 0] = 1.0
    T[1, 1, 0] = np.nan
    with pytest.raises(ValueError):
        EKTData(grid, T, np.zeros((3, 3)), np.zeros((3, 3, 2, 2)), -1.0, 0.5)


# =============================================================================
# Frame compatibility
# =============================================================================

def test_flat_constant_frame_zero_residual():
    alg = la.rn(3)
    grid = ParamGrid(9, 9, 0.1)
    data = ImmersionData(grid, random_frames(3, grid.shape),
                         S=np.zeros(grid.shape + (2, 2)))
    rT, rf = frame_compat_residuals(data, alg)
    # boundary one-sided stencils leave rounding-level residue on constants
    assert np.max(rT) <= 1e-13 and np.max(rf) <= 1e-13


def sol3_specialized_fields(data, alg):
    """The Sol_3 reduction of the frame equations, written out separately
    as an oracle: same grid operators, independently coded right sides."""
    grid, mu = data.grid, data.grid.mu
    T, f, S = data.T, data.f[..., 0], data.S
    dT = np.stack([grid.covariant(T, 0), grid.covariant(T, 1)], axis=-1)
    dT /= mu[..., None, None, None]
    df = np.stack([grid.dx(f), grid.dy(f)], axis=-1) / mu[..., None, None]
    res_T = np.empty_like(dT)
    res_f = np.empty_like(df)
    for a in range(2):
        XT = T[..., a]                      # <e_a, T_i>
        SX = S[..., :, a]
        for i in range(2):
            sgn = (-1.0) ** (i + 1)
            res_T[..., i, :, a] = dT[..., i, :, a] \
                - sgn * XT[..., i, None] * T[..., 2, :] \
                - f[..., i, None] * SX
            res_f[..., i, a] = df[..., i, a] - sgn * XT[..., i] * f[..., 2] \
                + np.einsum("xyb,xyb->xy", SX, T[..., i, :])
        res_T[..., 2, :, a] = dT[..., 2, :, a] \
            - (XT[..., 0, None] * T[..., 0, :] - XT[..., 1, None] * T[..., 1, :]) \
            - f[..., 2, None] * SX
        res_f[..., 2, a] = df[..., 2, a] \
            - (XT[..., 0] * f[..., 0] - XT[..., 1] * f[..., 1]) \
            + np.einsum("xyb,xyb->xy", SX, T[..., 2, :])
    return res_T, res_f


def test_sol3_frame_equations_match_specialized_form():
    alg = la.sol3()
    grid = ParamGrid(7, 7, 0.2, mu=lambda U, V: 1.0 + 0.2 * np.sin(U + V))
    # random smooth orthonormal frames: exponentials of smooth skew fields
    U, V = grid.mesh()
    frames = np.zeros(grid.shape + (3, 3))
    from scipy.linalg import expm
    for i in range(grid.nx):
        for j in range(grid.ny):
            m = np.array([[0.0, U[i, j], -V[i, j]],
                          [-U[i, j], 0.0, 0.3 * U[i, j] * V[i, j]],
                          [V[i, j], -0.3 * U[i, j] * V[i, j], 0.0]])
            frames[i, j] = expm(m)
    S = np.zeros(grid.shape + (2, 2))
    S[..., 0, 0] = np.sin(U)
    S[..., 1, 1] = np.cos(V)
    S[..., 0, 1] = S[..., 1, 0] = 0.2 * U * V
    data = ImmersionData(grid, frames, S=S)
    got_T, got_f = frame_compat_residual_fields(data, alg)
    want_T, want_f = sol3_specialized_fields(data, alg)
    assert np.max(np.abs(got_T - want_T)) <= 1e-12
    assert np.max(np.abs(got_f[..., 0, :] - want_f)) <= 1e-12


@pytest.mark.parametrize("make", [fixtures.sol3_plane, fixtures.h2xr_slice,
                                  fixtures.s3_sphere, fixtures.s3_equator])
def test_frame_compat_on_analytic_surfaces(make):
    maxima = []
    for n in (17, 33):
        fx = make(n)
        rT, rf = frame_compat_residuals(fx.data, fx.alg)
        maxima.append(max(np.max(rT), np.max(rf)))
    assert maxima[1] <= 5e-3
    if maxima[1] > 1e-13:  # slices with constant frames can be exact
        assert 2.5 <= maxima[0] / maxima[1] <= 6.5


def test_frame_compat_decays_at_corank_two():
    maxima = []
    for n in (33, 65):
        fx = fixtures.sphere_r4_twisted(n)
        rT, rf = frame_compat_residuals(fx.data, fx.alg)
        maxima.append(max(np.max(rT), np.max(rf)))
        assert maxima[-1] <= 10.0 * fx.grid.h ** 2
    assert 2.8 <= maxima[0] / maxima[1] <= 5.2


# =============================================================================
# E(kappa, tau) reduction
# =============================================================================

def test_h2xr_slice_ekt_residuals_vanish():
    fx = fixtures.h2xr_slice(9)
    r0, rT, rf = ekt_compat_residuals(fx.extras["ekt"])
    assert np.max(r0) == 0.0
    assert np.max(rT) == 0.0
    assert np.max(rf) == 0.0


def test_nil_cylinder_residuals_vanish():
    data = fixtures.nil_cylinder(9, tau=0.5, curve_curvature=1.3)
    r0, rT, rf = ekt_compat_residuals(data)
    assert np.max(r0) <= 1e-15
    assert np.max(rT) <= 1e-15
    assert np.max(rf) <= 1e-15


def test_s3_sphere_ekt_residuals_refine():
    maxima = []
    for n in (17, 33):
        fx = fixtures.s3_sphere(n)
        _, rT, rf = ekt_compat_residuals(fx.extras["ekt"])
        maxima.append(max(np.max(rT), np.max(rf)))
    assert 2.5 <= maxima[0] / maxima[1] <= 6.5


def test_ekt_violation_bounded_below():
    data = fixtures.nil_cylinder(9)
    bad = EKTData(data.grid, data.T, data.f,
                  data.S + 0.25 * np.eye(2), data.kappa, data.tau)
    _, rT, rf = ekt_compat_residuals(bad)
    # the f equation sees the added <0.25 e_a, T> term directly
    assert np.min(np.maximum(rT, rf)) >= 0.2


# =============================================================================
# Connection representatives
# =============================================================================

def one_vertex_data(alg, frames_mat, S_mat):
    grid = ParamGrid(2, 2, 1.0)
    frames = np.broadcast_to(frames_mat, (2, 2, alg.n, alg.n)).copy()
    S = np.broadcast_to(S_mat, (2, 2, 2, 2)).copy()
    return ImmersionData(grid, frames, S=S)


def gamma_tilde(data, alg, X, vertex):
    """The tangential Clifford representative of the ambient connection at a
    hypersurface node, an element of Cl_2 acting on intrinsic spinors, as
    the spinor connection holds it: the (e1, e2, nu) bivector of
    U^T Gamma(X) U (`spinor.gamma_frame_matrix`), with e_a nu read as e_a
    and e1 e2 as e12.  X is a tangent vector in frame components."""
    m = gamma_frame_matrix(alg, data.frames[vertex],
                           np.asarray(X, dtype=np.float64))
    return Multivector(2, [0.0, m[2, 0], m[2, 1], m[1, 0]])


def dim3_shortcut(data, alg, X, vertex):
    """The same representative in ambient dimension 3 through the area
    element: sum_l c_l (f_l - T_l) e12, c the axial vector of Gamma(X)."""
    T, f = data.T[vertex], data.f[vertex][:, 0]
    G = alg.gamma_op(T @ np.asarray(X, dtype=np.float64))
    c = np.array([G[2, 1], -G[2, 0], G[1, 0]])
    w = c @ T
    return Multivector(2, [0.0, -w[1], w[0], c @ f])


def test_gamma_tilde_abelian_zero():
    data = one_vertex_data(la.rn(3), np.eye(3), np.zeros((2, 2)))
    out = gamma_tilde(data, la.rn(3), [0.7, -0.2], (0, 0))
    assert out.allclose(Multivector.scalar(2, 0.0))


def test_gamma_tilde_dim3_shortcut_agrees_with_general():
    for alg in (la.sol3(), la.h2xr(), la.s3(), la.e_kappa_tau(2.0, 0.7)):
        for _ in range(40):
            frames = random_frames(3, (2, 2))[0, 0]
            data = one_vertex_data(alg, frames, np.zeros((2, 2)))
            X = rng.normal(size=2)
            a = gamma_tilde(data, alg, X, (0, 0))
            b = dim3_shortcut(data, alg, X, (0, 0))
            assert a.allclose(b, tol=1e-12)


def test_gamma_tilde_sol3_closed_form():
    alg = la.sol3()
    omega = Multivector.blade(2, 0b11)
    for _ in range(30):
        frames = random_frames(3, (2, 2))[0, 0]
        data = one_vertex_data(alg, frames, np.zeros((2, 2)))
        X = rng.normal(size=2)
        T, f = data.T[0, 0], data.f[0, 0, :, 0]
        XT = T @ X
        want = Multivector.scalar(2, 0.0)
        for (i, o) in ((0, 1), (1, 0)):
            vec = Multivector.from_vector(T[o], 2)
            want = want + XT[i] * ((f[o] - vec) * omega)
        got = gamma_tilde(data, alg, X, (0, 0))
        assert got.allclose(want, tol=1e-12)


def test_gamma_tilde_h2xr_closed_form():
    alg = la.h2xr()
    omega = Multivector.blade(2, 0b11)
    for _ in range(30):
        frames = random_frames(3, (2, 2))[0, 0]
        data = one_vertex_data(alg, frames, np.zeros((2, 2)))
        X = rng.normal(size=2)
        T, f = data.T[0, 0], data.f[0, 0, :, 0]
        vec = Multivector.from_vector(T[1], 2)
        want = (-float(T[0] @ X)) * ((f[1] - vec) * omega)
        got = gamma_tilde(data, alg, X, (0, 0))
        assert got.allclose(want, tol=1e-12)


def ekt_operator_oracle(data, X, vertex):
    """Cross-product operator form of the ambient connection at a node,
    pushed through bivector_of_skew: the independent route."""
    i0, j0 = vertex
    tau, sigma = data.tau, data.kappa / (2 * data.tau)
    e3 = np.array([data.T[i0, j0, 0], data.T[i0, j0, 1], data.f[i0, j0]])
    X3 = np.array([X[0], X[1], 0.0])
    axis = tau * (X3 - (X3 @ e3) * e3) + (sigma - tau) * (X3 @ e3) * e3
    m = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return bivector_of_skew(m)


def random_ekt_vertex(kappa, tau):
    theta, psi = rng.uniform(0.2, 1.2), rng.uniform(0, 2 * np.pi)
    grid = ParamGrid(2, 2, 1.0)
    T = np.full(grid.shape + (2,), 0.0)
    T[..., 0] = np.sin(theta) * np.cos(psi)
    T[..., 1] = np.sin(theta) * np.sin(psi)
    f = np.full(grid.shape, np.cos(theta))
    S = np.zeros(grid.shape + (2, 2))
    return EKTData(grid, T, f, S, kappa, tau)


def test_ekt_gamma_bivector_special_cases():
    tau = 0.8
    grid = ParamGrid(2, 2, 1.0)
    data = EKTData(grid, np.zeros(grid.shape + (2,)), np.ones(grid.shape),
                   np.zeros(grid.shape + (2, 2)), kappa=-1.0, tau=tau)
    X = rng.normal(size=2)
    got = ekt_gamma_bivector(data, X, (0, 0))
    nu = Multivector.basis_vector(3, 2)
    omega = Multivector.blade(3, 0b011)
    want = (-tau) * (Multivector.from_vector([X[0], X[1], 0.0], 3) * nu) * omega
    assert got.allclose(want, tol=1e-12)
    # kappa = 4 tau^2 kills the T-term for any T
    data2 = random_ekt_vertex(4 * tau ** 2, tau)
    X = rng.normal(size=2)
    got2 = ekt_gamma_bivector(data2, X, (0, 0))
    want2 = (-tau) * (Multivector.from_vector([X[0], X[1], 0.0], 3) * nu) * omega
    assert got2.allclose(want2, tol=1e-12)


def test_ekt_gamma_bivector_matches_operator_oracle():
    for _ in range(60):
        kappa, tau = rng.normal(), rng.uniform(0.2, 1.5)
        data = random_ekt_vertex(kappa, tau)
        X = rng.normal(size=2)
        got = ekt_gamma_bivector(data, X, (0, 0))
        want = ekt_operator_oracle(data, X, (0, 0))
        assert got.allclose(want, tol=1e-11)


def test_ekt_gamma_bivector_rejects_tau_zero():
    fx = fixtures.h2xr_slice(3)
    with pytest.raises(ValueError):
        ekt_gamma_bivector(fx.extras["ekt"], [1.0, 0.0], (0, 0))


# =============================================================================
# Gauss / Codazzi / Ricci
# =============================================================================

def test_sphere_gcr_refines_quadratically():
    maxima = []
    for n in (17, 33):
        fx = fixtures.sphere_r3(n)
        g, c, r = gcr_residuals(fx.data, fx.alg)
        assert np.max(r) == 0.0          # q = 1
        maxima.append(max(np.max(g), np.max(c)))
    assert 2.5 <= maxima[0] / maxima[1] <= 6.5


def test_twisted_r4_sphere_gcr():
    maxima = []
    for n in (17, 33):
        fx = fixtures.sphere_r4_twisted(n)
        g, c, r = gcr_residuals(fx.data, fx.alg)
        maxima.append(max(np.max(g), np.max(c), np.max(r)))
    assert 2.5 <= maxima[0] / maxima[1] <= 6.5


@pytest.mark.parametrize("make", [fixtures.s3_sphere, fixtures.sol3_plane,
                                  fixtures.h2xr_slice])
def test_gcr_on_curved_ambient_spaces(make):
    maxima = []
    for n in (17, 33):
        fx = make(n)
        g, c, _ = gcr_residuals(fx.data, fx.alg)
        maxima.append(max(np.max(g), np.max(c)))
    assert 2.5 <= maxima[0] / maxima[1] <= 6.5


def test_broken_codazzi_detected_at_all_resolutions():
    for n in (17, 33, 65):
        fx = fixtures.sphere_r3(n, codazzi_eps=1e-2)
        g, c, _ = gcr_residuals(fx.data, fx.alg)
        assert np.max(c) > 1e-3


def test_reduced_equations_match_general_gcr():
    """The reduced Gauss/Codazzi forms agree with the general machinery on
    random compatible data through the frame completion."""
    for seed in range(5):
        kappa, tau = float(rng.normal()), float(rng.uniform(0.3, 1.2))
        data = fixtures.random_ekt_data(9, kappa, tau, seed=seed)
        alg = la.e_kappa_tau(kappa, tau)
        full = fixtures.ekt_frame_completion(data)
        gauss_vec, codazzi_vec, _ = gcr_residual_fields(full, alg)
        dg, dc = ekt_integrability_residuals(data)
        # ambient curvature identity: <R^G(e1,e2)e2, e1> = tau^2 + (k-4t^2) f^2
        want = tau ** 2 + (kappa - 4 * tau ** 2) * data.f ** 2
        RG = ambient_curvature_frame(full, alg)
        assert np.max(np.abs(RG[..., 0, 1] - want)) <= 1e-10
        # the reduced residuals are the (negated) components of the general ones
        assert np.max(np.abs(gauss_vec[..., 1, 0] + dg)) <= 1e-10
        for zi in range(2):
            assert np.max(np.abs(codazzi_vec[..., zi, 0] + dc[..., zi])) <= 1e-10


# =============================================================================
# H^n structure field
# =============================================================================

def test_horosphere_residual_exactly_zero():
    fx = fixtures.horosphere_h3(9)
    res = hn_u_residual(fx.data, fx.extras["u_field"], fx.alg)
    assert np.max(res) == 0.0


def test_hn_u_norm_precondition():
    fx = fixtures.horosphere_h3(5)
    with pytest.raises(ValueError):
        hn_u_residual(fx.data, 2.0 * fx.extras["u_field"], fx.alg)


def test_hn_u_norm_precondition_rejects_nan():
    fx = fixtures.horosphere_h3(5)
    u = np.array(fx.extras["u_field"], dtype=float)
    u[2, 3, 0] = np.nan
    with pytest.raises(ValueError):
        hn_u_residual(fx.data, u, fx.alg)


def test_hn_u_norm_is_discretely_constant():
    # d|U|^2 = 0 along valid data: tilt U inside the norm sphere smoothly,
    # the discrete gradient of |U|^2 stays at rounding level
    fx = fixtures.horosphere_h3(17)
    U, V = fx.grid.mesh()
    alpha = 0.3 * np.sin(U + 2 * V)
    u = np.stack([np.sin(alpha), np.zeros_like(alpha), np.cos(alpha)], axis=-1)
    norm2 = np.sum(u * u, axis=-1)
    d = max(np.max(np.abs(fx.grid.dx(norm2))), np.max(np.abs(fx.grid.dy(norm2))))
    assert d <= 1e-12


def test_hn_u_perturbation_scales_linearly():
    fx = fixtures.horosphere_h3(17)
    U, V = fx.grid.mesh()
    res = []
    for eps in (1e-3, 2e-3):
        # spatially varying tilt inside the |U| = |l| sphere: the gradient
        # of the tilt enters the residual at first order in eps
        alpha = eps * np.sin(2.0 * U + V)
        u = np.stack([np.sin(alpha), np.zeros_like(alpha), np.cos(alpha)],
                     axis=-1)
        res.append(np.max(hn_u_residual(fx.data, u, fx.alg)))
    assert 1.8 <= res[1] / res[0] <= 2.2
    assert res[0] >= 1e-4

def former_gamma_tilde(data, alg, X, vertex, method="general"):
    """The library's former gamma_tilde, as it read gamma entry by entry
    before it went through alg.gamma_op; kept verbatim below the docstring
    but for its zero, Multivector.scalar(2, 0.0) where it read
    Multivector.zero(2)."""
    if data.q != 1:
        raise ValueError("gamma_tilde is defined for hypersurfaces (q = 1)")
    i0, j0 = vertex
    X = np.asarray(X, dtype=np.float64)
    n = data.n
    T = data.T[i0, j0]                # (n, 2)
    f = data.f[i0, j0, :, 0]          # (n,)
    XT = T @ X                        # <X, T_i>
    gamma = alg.gamma
    out = Multivector.scalar(2, 0.0)
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


@pytest.mark.parametrize("tag", sorted(la.CATALOG) + ["random-semidirect",
                                                      "random-unimodular"])
def test_gamma_tilde_agrees_with_its_former_loops(tag):
    local = np.random.default_rng(2333)
    alg = {"random-semidirect": lambda: la.semidirect(local.normal(size=(2, 2))),
           "random-unimodular": lambda: la.unimodular(*local.normal(size=3))}.get(
        tag, lambda: la.catalog_build(tag, la.CATALOG[tag][1]))()
    for _ in range(20):
        q, _ = np.linalg.qr(local.normal(size=(alg.n, alg.n)))
        q[:, 0] *= np.linalg.det(q)               # orientation +1
        data = one_vertex_data(alg, q, np.zeros((2, 2)))
        X = local.normal(size=2)
        got = gamma_tilde(data, alg, X, (0, 0))
        for method in ("general", "dim3"):
            want = former_gamma_tilde(data, alg, X, (0, 0), method=method)
            scale = max(1.0, float(np.max(np.abs(want.coeffs))))
            assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-14 * scale


# =============================================================================
# The matrix forms agree with the code they replaced
# =============================================================================

def former_gcr_residual_fields(data, alg):
    """gcr_residual_fields as it read with loops over Z and n_r; kept
    verbatim below the docstring."""
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
        thx, thy = data.theta[:, :, 0], data.theta[:, :, 1]
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


def former_hn_u_residual(data, u_field, alg):
    """hn_u_residual as it read with the tangent and normal parts
    concatenated and B written per block; kept verbatim below the
    docstring."""
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
    if not dev <= U_NORM_TOL:
        raise ValueError(f"|U| must equal |l| everywhere; off by {dev:.3e}")
    mu = grid.mu
    uT = u[..., :2]
    uN = u[..., 2:]
    # direct-sum connection: rotate the tangent part, twist the normal part
    thx, thy = data.theta[:, :, 0], data.theta[:, :, 1]
    du = np.stack([np.concatenate([grid.covariant(uT, 0),
                                   grid.dx(uN) + np.einsum("xyrs,xys->xyr",
                                                           thx, uN)],
                                  axis=-1),
                   np.concatenate([grid.covariant(uT, 1),
                                   grid.dy(uN) + np.einsum("xyrs,xys->xyr",
                                                           thy, uN)],
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


@pytest.mark.parametrize("name", sorted(SURFACE_FIXTURES))
def test_gcr_residual_fields_agree_with_their_former_loops(name):
    fx = SURFACE_FIXTURES[name](17)
    for got, want in zip(gcr_residual_fields(fx.data, fx.alg),
                         former_gcr_residual_fields(fx.data, fx.alg)):
        assert np.array_equal(got, want)


def nodes_first_gcr_residual_fields(data, alg):
    """gcr_residual_fields as it read with its B products as einsums over
    nodes-first B; kept verbatim below the docstring."""
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
    # B*(X, B(Y, Z)) - B*(Y, B(X, Z)) = M - M^T with B*(e_a, N)_b =
    # sum_r B[a, b, r] N_r
    M = np.einsum("xybr,xyzr->xyzb", B0, B1)
    gauss = RG[..., :2, :2] - RT + M - np.swapaxes(M, 2, 3)
    codazzi = RG[..., :2, 2:] - covB[:, :, 0, 1] + covB[:, :, 1, 0]
    if data.q == 1:
        ricci = np.zeros(grid.shape + (1, 1))
    else:
        thx, thy = data.theta[:, :, 0], data.theta[:, :, 1]
        RN = (grid.dx(thy) - grid.dy(thx) + thx @ thy - thy @ thx) \
            / grid.mu[..., None, None] ** 2
        # B(e1, B*(e2, n_r)) - B(e2, B*(e1, n_r)) = P - P^T
        P = np.einsum("xybs,xybr->xyrs", B0, B1)
        ricci = RG[..., 2:, 2:] - RN + (P - np.swapaxes(P, 2, 3))
    return gauss, codazzi, ricci


CORANK_TWO = [name for name, make in sorted(SURFACE_FIXTURES.items())
              if make(5).data.q == 2]


@pytest.mark.parametrize("perturbed", [False, True],
                         ids=["fixture", "perturbed"])
@pytest.mark.parametrize("n", [17, 129])
@pytest.mark.parametrize("name", CORANK_TWO)
def test_gcr_b_products_on_nodes_last_copies_agree_at_corank_two(
        name, n, perturbed):
    fx = SURFACE_FIXTURES[name](n)
    data = fx.data
    if perturbed:
        # a seeded symmetric change of B, so that the Ricci B terms no
        # longer cancel the curvature terms exactly
        noise = np.random.default_rng(7).normal(size=data.B.shape)
        B = data.B + 0.1 * (noise + np.swapaxes(noise, 2, 3))
        data = ImmersionData(data.grid, data.frames, B=B,
                             theta_x=data.theta[:, :, 0],
                             theta_y=data.theta[:, :, 1])
    gauss, _, ricci = gcr_residual_fields(data, fx.alg)
    want_gauss, _, want_ricci = nodes_first_gcr_residual_fields(data, fx.alg)
    assert np.array_equal(gauss, want_gauss)
    assert np.array_equal(ricci, want_ricci)
    if perturbed:
        assert np.max(np.abs(ricci)) > 1e-3


def test_hn_u_residual_agrees_with_its_former_blocks():
    fx = fixtures.horosphere_h3(17)
    U, V = fx.grid.mesh()
    alpha = 1e-3 * np.sin(2.0 * U + V)     # a tilt that the residual sees
    tilted = np.stack([np.sin(alpha), np.zeros_like(alpha), np.cos(alpha)],
                      axis=-1)
    for u in (fx.extras["u_field"], tilted):
        got = hn_u_residual(fx.data, u, fx.alg)
        assert np.array_equal(got, former_hn_u_residual(fx.data, u, fx.alg))
    assert np.max(got) >= 1e-4
