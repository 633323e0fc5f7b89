"""Group models, Darboux integration, Maurer-Cartan pullback, structure eq."""

import numpy as np
import pytest

from spinorforge import fixtures, lie_group
from spinorforge.cli import SURFACE_FIXTURES
from spinorforge.grid import ParamGrid
from spinorforge.immersion import (ambient_curvature_frame,
                                   frame_compat_residual_fields,
                                   frame_connection, shape_matrix)
from spinorforge.lie_algebra import (
    CATALOG, algebra_from_dict, algebra_to_dict, catalog_build, e_kappa_tau,
    h2xr, hn, rn, s3, sol3, semidirect, unimodular,
)
from spinorforge.lie_group import (
    AbelianModel, HnModel, IntegrationError, LieValuedOneForm, S3Model,
    SemidirectModel, darboux_integrate, expm, first_non_finite,
    maurer_cartan_pullback, model_for, normal_connection,
    second_fundamental_form, structure_residual,
)
from spinorforge.spinor import gamma_frame_matrix

from oracles import AxisSemidirect, dense_operator, general_semidirect

rng = np.random.default_rng(97)
EPS = np.finfo(float).eps

ALGS = [rn(3), s3(), sol3(), semidirect([[0.4, -0.3], [1.1, 0.2]]), hn(3)]


def random_payload(model):
    if model.name == "abelian":
        return rng.normal(size=model.n)
    if model.name == "s3":
        q = rng.normal(size=4)
        return q / np.linalg.norm(q)
    if model.name == "semidirect":
        return rng.normal(size=3)
    if model.name == "hn":
        g = rng.normal(size=model.n)
        g[-1] = np.exp(g[-1])
        return g
    raise AssertionError(model.name)


# =============================================================================
# The group model from the structure constants
# =============================================================================

# (algebra, model type, A of a semidirect model); E(4, 1) and
# unimodular(1, 1, 1) have the c of S^3, unimodular(1, -1, 0) the c of
# R^2 x_A R with A = [[0, 1], [1, 0]]
RANDOM_A = rng.normal(size=(2, 2))
MODEL_CASES = [
    (rn(3), AbelianModel, None), (rn(4), AbelianModel, None),
    (hn(2), HnModel, None), (hn(3), HnModel, None), (s3(), S3Model, None),
    (sol3(), SemidirectModel, [[-1.0, 0.0], [0.0, 1.0]]),
    (h2xr(), SemidirectModel, [[1.0, 0.0], [0.0, 0.0]]),
    (semidirect(RANDOM_A), SemidirectModel, RANDOM_A),
    (e_kappa_tau(4.0, 1.0), S3Model, None),
    (unimodular(1.0, 1.0, 1.0), S3Model, None),
    (unimodular(0.0, 0.0, 0.0), AbelianModel, None),
    (unimodular(1.0, -1.0, 0.0), SemidirectModel, [[0.0, 1.0], [1.0, 0.0]]),
]
MODEL_IDS = ["rn3", "rn4", "hn2", "hn3", "s3", "sol3", "h2xr", "semidirect",
             "ekt-4-1", "unimodular-111", "unimodular-000", "unimodular-1m10"]


def assert_model(model, kind, A, n):
    assert type(model) is kind
    if kind is SemidirectModel:
        assert np.array_equal(model.A, A)
    elif kind is not S3Model:
        assert model.n == n


@pytest.mark.parametrize("alg,kind,A", MODEL_CASES, ids=MODEL_IDS)
def test_model_for_reads_the_structure_constants(alg, kind, A):
    assert_model(model_for(alg), kind, A, alg.n)


@pytest.mark.parametrize("label", [
    {"tag": "custom"}, {"tag": "Rn"}, {"tag": "S3"}, {"params": {}},
    {"params": {"A": [[3.0, 0.0], [0.0, 0.5]], "n": 5, "l": [1.0]}},
], ids=["custom-tag", "Rn-tag", "S3-tag", "no-params", "wrong-params"])
@pytest.mark.parametrize("alg,kind,A", MODEL_CASES, ids=MODEL_IDS)
def test_model_for_ignores_tag_and_params(alg, kind, A, label):
    again = algebra_from_dict({**algebra_to_dict(alg), **label})
    assert_model(model_for(again), kind, A, alg.n)


@pytest.mark.parametrize("alg", [e_kappa_tau(-1.0, 0.5),
                                 e_kappa_tau(1.0, 0.25),
                                 unimodular(0.4, -0.7, 1.3)],
                         ids=["ekt-m1-05", "ekt-1-025", "unimodular-generic"])
def test_model_for_rejects_algebras_without_a_model(alg):
    with pytest.raises(ValueError, match="no closed-form group model"):
        model_for(alg)


# =============================================================================
# Product laws
# =============================================================================

def test_hn_product_matches_closed_form():
    model = model_for(hn(2))
    a = np.array([1.0, 2.0])
    b = np.array([3.0, 4.0])
    assert np.allclose(model.multiply(a, b), [7.0, 8.0])


@pytest.mark.parametrize("alg", ALGS, ids=lambda a: a.catalog_tag)
def test_identity_and_inverse(alg):
    model = model_for(alg)
    e = model.identity()
    for _ in range(30):
        g = random_payload(model)
        assert np.allclose(model.multiply(g, e), g, atol=1e-12)
        assert np.allclose(model.multiply(e, g), g, atol=1e-12)
        assert np.allclose(model.multiply(g, model.inverse(g)), e, atol=1e-12)


@pytest.mark.parametrize("alg", ALGS, ids=lambda a: a.catalog_tag)
def test_associativity_random_triples(alg):
    model = model_for(alg)
    for _ in range(500):
        a, b, c = (random_payload(model) for _ in range(3))
        lhs = model.multiply(model.multiply(a, b), c)
        rhs = model.multiply(a, model.multiply(b, c))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))


# =============================================================================
# Exponential
# =============================================================================

@pytest.mark.parametrize("alg", ALGS, ids=lambda a: a.catalog_tag)
def test_exp_zero_is_identity(alg):
    model = model_for(alg)
    assert np.allclose(model.exp(np.zeros(model.n)), model.identity())


@pytest.mark.parametrize("alg", ALGS, ids=lambda a: a.catalog_tag)
def test_one_parameter_subgroup(alg):
    model = model_for(alg)
    for _ in range(40):
        v = rng.normal(size=model.n)
        st = rng.normal(size=2)
        lhs = model.exp(v, st[0] + st[1])
        rhs = model.multiply(model.exp(v, st[0]), model.exp(v, st[1]))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def former_s3_exp(v, t=1.0):
    """S3Model.exp before it went through cosh_sinhc, verbatim."""
    v = np.asarray(v, float)
    theta = t * np.linalg.norm(v, axis=-1)
    out = np.zeros(v.shape[:-1] + (4,))
    out[..., 0] = np.cos(theta)
    nrm = np.linalg.norm(v, axis=-1)
    axis = np.where(nrm[..., None] > 0, v / np.where(nrm == 0, 1.0, nrm)[..., None], 0.0)
    out[..., 1:] = np.sin(theta)[..., None] * axis
    return out


def former_s3_log(g):
    """S3Model.log before its one np.divide guard, verbatim."""
    g = np.asarray(g, float)
    w = np.clip(g[..., 0], -1.0, 1.0)
    vec = g[..., 1:]
    s = np.linalg.norm(vec, axis=-1)
    theta = np.arctan2(s, w)
    fac = np.where(s > 0, theta / np.where(s == 0, 1.0, s), 1.0)
    return fac[..., None] * vec


@pytest.mark.parametrize("t", [1.0, 0.03, -0.7])
def test_s3_exp_agrees_with_its_former_formula(t):
    model = S3Model()
    axes = rng.normal(size=(200, 3))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    v = np.logspace(-8, 1, 200)[:, None] * axes
    assert np.max(np.abs(model.exp(v, t) - former_s3_exp(v, t))) <= 1e-14
    for one in v[::37]:
        assert np.max(np.abs(model.exp(one, t) - former_s3_exp(one, t))) \
            <= 1e-14
    zero = np.zeros((3, 3))
    assert np.array_equal(model.exp(zero, t), former_s3_exp(zero, t))
    assert np.array_equal(model.exp(zero[0], t), former_s3_exp(zero[0], t))


def test_s3_log_is_bit_identical_to_its_former_guards():
    model = S3Model()
    q = rng.normal(size=(300, 4))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    tiny = np.array([[1.0, 1e-300, 0.0, 0.0], [-1.0, 0.0, 0.0, 1e-200],
                     [1.0, 1e-17, -2e-17, 3e-18]])
    poles = np.array([[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
                      [1.0 + 1e-16, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    odd = np.array([[np.nan, 0.1, 0.2, 0.3], [0.5, np.nan, 0.0, 0.0],
                    [0.3, np.inf, 0.0, 0.0]])
    for g in (q, tiny, poles, q[0], poles[1]):
        np.testing.assert_array_equal(model.log(g), former_s3_log(g))
    with np.errstate(invalid="ignore"):
        np.testing.assert_array_equal(model.log(odd), former_s3_log(odd))


def test_s3_exp_e3_closed_form():
    # against a high-accuracy quaternion ODE integration q' = q * (e3/2-free)
    model = model_for(s3())
    v = np.array([0.0, 0.0, 1.0])
    for t in (0.3, 1.2, -0.8):
        got = model.exp(v, t)
        q = model.identity()
        m = 4096
        dt = t / m
        for _ in range(m):  # RK4 on q' = q * v (v constant pure quaternion)
            def f(q):
                return model.multiply(q, np.array([0.0, *v]))
            k1 = f(q)
            k2 = f(q + 0.5 * dt * k1)
            k3 = f(q + 0.5 * dt * k2)
            k4 = f(q + dt * k3)
            q = q + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            q /= np.linalg.norm(q)
        assert np.allclose(got, [np.cos(t), 0.0, 0.0, np.sin(t)], atol=1e-12)
        assert np.max(np.abs(q - got)) <= 1e-10


def test_semidirect_exp_series_oracle():
    # x-part of exp(w, s) must equal the series sum_k (sA)^k w / (k+1)!
    A = np.array([[0.3, -0.7], [0.5, 0.1]])
    alg = semidirect(A)
    for _ in range(20):
        v = rng.normal(size=3)
        got = model_for(alg).exp(v)
        w, sc = v[:2], v[2]
        M = sc * A
        acc = np.zeros((2, 2))
        powM = np.eye(2)
        fact = 1.0
        for k in range(60):
            acc += powM / (fact * (k + 1))
            powM = powM @ M
            fact *= (k + 1)
        want = np.concatenate([acc @ w, [sc]])
        assert np.max(np.abs(got - want)) <= 1e-12


def test_expm_matches_scipy():
    from scipy.linalg import expm as scipy_expm
    M = rng.normal(size=(500, 2, 2))
    M *= (2.0 * rng.random(500) / np.linalg.norm(M, ord=2, axis=(1, 2)))[:, None, None]
    special = np.array([
        np.zeros((2, 2)),
        [[0.3, 1.0], [0.0, 0.3]],                  # Jordan block
        [[0.5, 1e-9], [1e-9, 0.5 + 1e-8]],         # near-repeated pair
        [[0.0, -1.5], [1.5, 0.0]],                 # rotation generator
    ])
    M = np.concatenate([M, special]).reshape(9, 56, 2, 2)
    got, want = expm(M), scipy_expm(M)
    err = np.max(np.abs(got - want), axis=(-2, -1))
    assert np.all(err <= 1e-13 * np.linalg.norm(want, ord=2, axis=(-2, -1)))


def test_expm_keeps_small_entries_of_stiff_matrices():
    # the contracting entry e^{-z} of exp(z diag(-1, 1)) (Sol3) far from z = 0
    # must not be lost to cancellation between cosh z and sinh z
    z = np.array([0.5, 5.0, 20.0, -20.0])
    got = expm(z[:, None, None] * np.diag([-1.0, 1.0]))
    assert np.allclose(got[:, 0, 0], np.exp(-z), rtol=1e-14, atol=0.0)
    assert np.allclose(got[:, 1, 1], np.exp(z), rtol=1e-14, atol=0.0)
    assert np.all(got[:, 0, 1] == 0.0) and np.all(got[:, 1, 0] == 0.0)


def series_phi(M):
    """sum_k M^k / (k+1)!, 60 terms, one 2x2 matrix at a time."""
    out = np.zeros((2, 2))
    power, fact = np.eye(2), 1.0
    for k in range(60):
        out += power / (fact * (k + 1))
        power = power @ M
        fact *= k + 1
    return out


# catalog A's (Sol3, H2xR; A = c[2, :2, :2]^T), the ones of the tests above
# and of the acceptance suite, a rotation (complex eigenvalues), a Jordan
# block (repeated) and a diagonal A with widely separated axes
SEMIDIRECT_AS = [*(alg.c[2, :2, :2].T.tolist() for alg in (sol3(), h2xr())),
                 [[0.4, -0.3], [1.1, 0.2]], [[0.3, -0.7], [0.5, 0.1]],
                 [[1.2, -0.4], [0.9, 2.0]], [[0.5, 1.0], [-0.2, 0.7]],
                 [[0.0, -1.0], [1.0, 0.0]], [[0.7, 1.0], [0.0, 0.7]],
                 [[0.3, 0.0], [0.0, -2.0]]]
# z = 0.2, -0.7 reach the near-repeated closed form and the short series
# for some of the A's above, 2 the eigenvalue form for all but the Jordan block
SEMIDIRECT_ZS = [0.0, 1e-12, 1e-6, 0.2, -0.7, 2.0]


@pytest.mark.parametrize("A", SEMIDIRECT_AS, ids=str)
def test_semidirect_exp_log_match_series_batched(A):
    model = SemidirectModel(A)
    A = np.asarray(A)
    z = np.repeat(SEMIDIRECT_ZS, 7)
    x = rng.normal(size=(len(z), 2))
    v = np.concatenate([x, z[:, None]], axis=-1).reshape(6, 7, 3)
    phis = [series_phi(zk * A) for zk in z]
    want_exp = np.array([p @ xk for p, xk in zip(phis, x)]).reshape(6, 7, 2)
    want_log = np.array([np.linalg.solve(p, xk)
                         for p, xk in zip(phis, x)]).reshape(6, 7, 2)
    got_exp, got_log = model.exp(v), model.log(v)
    assert np.array_equal(got_exp[..., 2], v[..., 2])
    assert np.array_equal(got_log[..., 2], v[..., 2])
    assert np.max(np.abs(got_exp[..., :2] - want_exp)) \
        <= 1e-13 * max(1.0, np.max(np.abs(want_exp)))
    assert np.max(np.abs(got_log[..., :2] - want_log)) \
        <= 1e-13 * max(1.0, np.max(np.abs(want_log)))


# the axes a of diagonal A's: Sol3, H2xR (a zero axis) and a wide pair
DIAGONAL_AXES = [[-1.0, 1.0], [1.0, 0.0], [0.3, -2.0]]


def axis_payloads(a, count, reach):
    """`count` payloads (x1, x2, z) with |z a_i| up to `reach`, the first
    three at z = 0, 1e-12 and -1e-300."""
    z = rng.uniform(-reach, reach, count) / np.max(np.abs(a))
    z[:3] = 0.0, 1e-12, -1e-300
    return np.column_stack([rng.normal(size=(count, 2)), z])


def assert_within(got, want, ulps, scale=None):
    """|got - want| within `ulps` relative units of rounding eps of `scale`
    (|want| when None), entry by entry."""
    scale = np.abs(want) if scale is None else scale
    assert np.all(np.abs(got - want) <= ulps * EPS * scale)


def sum_scale(a, g, h):
    """|x| + |e^{zA} x'|, the terms of the x of the product (x, z)(x', z')
    of a diagonal A = diag(a), and |z| + |z'|."""
    return np.column_stack([np.abs(g[:, :2])
                            + np.abs(np.exp(g[:, 2:] * a) * h[:, :2]),
                            np.abs(g[:, 2]) + np.abs(h[:, 2])])


@pytest.mark.parametrize("a", DIAGONAL_AXES, ids=str)
def test_diagonal_semidirect_is_the_scalar_form_per_axis(a):
    # numpy's exp and expm1 and the math module's differ by an ulp at some
    # arguments, and each side rounds every later step on its own: so the
    # two agree within one eps per rounded step, the exp or expm1 counted
    model, oracle = SemidirectModel(np.diag(a)), AxisSemidirect(a)
    g, h = axis_payloads(a, 400, 30.0), axis_payloads(a, 400, 30.0)
    # expm1, / z a_i, * w_i, then * t when t != 1
    assert_within(model.exp(g), [oracle.exp(v) for v in g], 3)
    assert_within(model.exp(g, 0.7), [oracle.exp(v, 0.7) for v in g], 4)
    # expm1, / z a_i, x_i / phi
    assert_within(model.log(g), [oracle.log(v) for v in g], 3)
    # exp, * x_i
    assert_within(model.inverse(g), [oracle.inverse(v) for v in g], 2)
    # exp, * x'_i, + x_i: a sum, whose terms may cancel
    assert_within(model.multiply(g, h),
                  [oracle.multiply(p, q) for p, q in zip(g, h)], 3,
                  sum_scale(a, g, h))


@pytest.mark.parametrize("a", DIAGONAL_AXES, ids=str)
def test_diagonal_semidirect_agrees_with_the_general_form(a):
    model, general = SemidirectModel(np.diag(a)), general_semidirect(np.diag(a))
    g, h = axis_payloads(a, 400, 1.0), axis_payloads(a, 400, 1.0)

    def close(got, want, scale=None):
        scale = np.abs(want) if scale is None else scale
        assert np.all(np.abs(got - want) <= 1e-15 * scale)
    for t in (1.0, 0.7):
        close(model.exp(g, t), general.exp(g, t))
    close(model.log(g), general.log(g))
    close(model.inverse(g), general.inverse(g))
    close(model.multiply(g, h), general.multiply(g, h), sum_scale(a, g, h))


@pytest.mark.parametrize("alg", [sol3(), h2xr()], ids=["Sol3", "H2xR"])
def test_diagonal_semidirect_pullback_and_darboux_take_no_matrix_form(
        monkeypatch, alg):
    def run(alg):
        calls = dict.fromkeys(["einsum", "expm", "_phi_coefficients"], 0)
        model = model_for(alg)
        grid = ParamGrid(17, 9, 1.0 / 16)
        F = curved_map(alg, grid)
        with monkeypatch.context() as patch:
            for module, name in ((np, "einsum"), (lie_group, "expm"),
                                 (lie_group, "_phi_coefficients")):
                def counted(*args, _name=name, _f=getattr(module, name),
                            **kwargs):
                    calls[_name] += 1
                    return _f(*args, **kwargs)
                patch.setattr(module, name, counted)
            xi_x, xi_y = maurer_cartan_pullback(F, model, grid)
            darboux_integrate(LieValuedOneForm(grid, xi_x, xi_y), alg,
                              F[0, 0])
        return calls
    assert run(alg) == {"einsum": 0, "expm": 0, "_phi_coefficients": 0}
    # the counters see the 2x2 forms where A is not diagonal
    assert all(run(semidirect([[0.4, -0.3], [1.1, 0.2]])).values())


def test_hn_exp_log_agree_with_their_former_small_argument_branches():
    # the closed forms had their own (e^x - 1)/x with a Taylor branch below
    # |x| = 1e-12; through _phi1 they agree to two ulp
    vn = np.array([0.0, 1e-300, -1e-15, 3e-13, -1e-12, 1e-12, 2e-12, 1e-6,
                   -0.3, 0.7, 2.5, -4.0])
    v = np.column_stack([rng.normal(size=(len(vn), 2)), vn])
    small = np.abs(vn) < 1e-12
    fac = np.where(small, 1.0 + vn / 2.0,
                   np.expm1(vn) / np.where(small, 1.0, vn))
    want = np.column_stack([fac[:, None] * v[:, :2], np.exp(vn)])
    model = HnModel(3)
    got = model.exp(v)
    assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))
    g = want
    ln = np.log(g[:, -1])
    small = np.abs(ln) < 1e-12
    fac = np.where(small, 1.0 - ln / 2.0,
                   ln / np.where(small, 1.0, np.expm1(ln)))
    want = np.column_stack([fac[:, None] * g[:, :2], ln])
    got = model.log(g)
    assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))


@pytest.mark.parametrize("alg", ALGS, ids=lambda a: a.catalog_tag)
def test_log_inverts_exp(alg):
    model = model_for(alg)
    for _ in range(40):
        v = rng.normal(size=model.n) * 0.8
        g = model.exp(v)
        assert np.max(np.abs(model.log(g) - v)) <= 1e-10


# =============================================================================
# Darboux integration
# =============================================================================

def constant_form(grid, alg, vx, vy):
    nx, ny = grid.shape
    return LieValuedOneForm(grid,
                            np.broadcast_to(vx, (nx, ny, len(vx))).copy(),
                            np.broadcast_to(vy, (nx, ny, len(vy))).copy())


def test_zero_form_gives_constant_map():
    alg = sol3()
    grid = ParamGrid(9, 9, 0.1)
    base = np.array([0.3, -0.2, 0.5])
    F = darboux_integrate(constant_form(grid, alg, np.zeros(3), np.zeros(3)),
                          alg, base)
    assert np.max(np.abs(F - base)) == 0.0


def test_abelian_line_integral():
    alg = rn(3)
    grid = ParamGrid(11, 7, 0.25)
    v = np.array([1.0, -2.0, 0.5])
    F = darboux_integrate(constant_form(grid, alg, v, np.zeros(3)), alg,
                          np.zeros(3))
    X, _ = grid.mesh()
    assert np.max(np.abs(F - X[..., None] * v)) <= 1e-12


def test_constant_form_on_s3_matches_group_exp():
    alg = s3()
    model = model_for(alg)
    grid = ParamGrid(33, 5, 0.05)
    v = np.array([0.4, -0.2, 0.9])
    base = random_payload(model)
    F = darboux_integrate(constant_form(grid, alg, v, np.zeros(3)), alg, base)
    for i in (5, 17, 32):
        want = model.multiply(base, model.exp(v, i * grid.h))
        assert np.max(np.abs(F[i, 0] - want)) <= 1e-12
        assert np.max(np.abs(F[i, 3] - want)) <= 1e-12  # zero y-component


def curved_map(alg, grid):
    """Non-separable test immersion F = exp(v(x, y)) sampled on the grid."""
    model = model_for(alg)
    X, Y = grid.mesh()
    v = np.stack([0.9 * X - 0.3 * Y + 0.8 * X * Y,
                  0.2 * X + 1.1 * Y - 0.5 * X * X,
                  -0.4 * X + 0.5 * Y + 0.6 * Y * Y], axis=-1)
    return model.exp(v)


def test_roundtrip_reconstruct_then_pullback():
    # pull back omega_G from an explicit non-separable F, integrate, and
    # compare to F: the error must shrink like h^2
    for alg in (s3(), sol3()):
        model = model_for(alg)
        errs = []
        for n_nodes in (17, 33):
            grid = ParamGrid(n_nodes, n_nodes, 1.0 / (n_nodes - 1))
            F = curved_map(alg, grid)
            xi_x, xi_y = maurer_cartan_pullback(F, model, grid)
            xi = LieValuedOneForm(grid, xi_x, xi_y)
            G = darboux_integrate(xi, alg, F[0, 0])
            errs.append(np.max(np.abs(G - F)))
        ratio = errs[0] / errs[1]
        assert 2.0 <= ratio <= 8.0  # O(h^2)
        assert errs[1] <= 5e-3


def left_translate(F, model, b):
    """Apply L_b to a whole grid of payloads."""
    return model.multiply(np.asarray(b, float), F)


def test_left_invariance_exact_group_identity():
    alg = sol3()
    model = model_for(alg)
    grid = ParamGrid(9, 9, 0.125)
    xi_x = rng.normal(size=grid.shape + (3,)) * 0.3
    xi_y = rng.normal(size=grid.shape + (3,)) * 0.3
    xi = LieValuedOneForm(grid, xi_x, xi_y)
    base = random_payload(model)
    b = random_payload(model)
    F1 = darboux_integrate(xi, alg, base)
    new_base = model.multiply(b, base)
    F2 = darboux_integrate(xi, alg, new_base)
    want = left_translate(F1, model, b)
    assert np.max(np.abs(F2 - want)) <= 1e-10


def loop_darboux(xi, alg, base=None, stats=None):
    """darboux_integrate before its steps were batched, verbatim: one
    model.exp per bottom-row node and per column."""
    model = model_for(alg)
    grid, h = xi.grid, xi.grid.h
    nx, ny = grid.shape
    F = np.zeros((nx, ny, model.payload_dim))
    F[0, 0] = model.identity() if base is None else np.asarray(base, float)
    drift = 0.0
    for i in range(nx - 1):
        step = model.exp(0.5 * (xi.xi_x[i, 0] + xi.xi_x[i + 1, 0]), h)
        F[i + 1, 0], d = model.normalize(model.multiply(F[i, 0], step))
        drift = max(drift, d)
    for j in range(ny - 1):
        step = model.exp(0.5 * (xi.xi_y[:, j] + xi.xi_y[:, j + 1]), h)
        F[:, j + 1], d = model.normalize(model.multiply(F[:, j], step))
        drift = max(drift, d)
    if not np.all(np.isfinite(F)):
        bad = np.argwhere(~np.isfinite(F).all(axis=-1))
        raise IntegrationError("Darboux integration diverged",
                               cell=tuple(bad[0].tolist()))
    if stats is not None:
        stats["renorm_drift"] = drift
    return F


@pytest.mark.parametrize("alg", ALGS + [h2xr(), rn(4), hn(4)],
                         ids=["R3", "S3", "Sol3", "semidirect", "H3", "H2xR",
                              "R4", "H4"])
def test_batched_darboux_steps_match_the_loop_bit_for_bit(alg):
    model = model_for(alg)
    for nx, ny, scale in ((5, 5, 0.3), (17, 9, 1.0), (33, 40, 0.3)):
        grid = ParamGrid(nx, ny, 1.0 / (nx - 1))
        xi = LieValuedOneForm(grid,
                              rng.normal(size=grid.shape + (alg.n,)) * scale,
                              rng.normal(size=grid.shape + (alg.n,)) * scale)
        base = random_payload(model)
        stats, want_stats = {}, {}
        got = darboux_integrate(xi, alg, base, stats=stats)
        want = loop_darboux(xi, alg, base, stats=want_stats)
        assert np.array_equal(got, want)
        assert stats == want_stats


def test_divergent_integration_reports_cell():
    alg = hn(3)
    grid = ParamGrid(5, 5, 1.0)
    v = np.array([0.0, 0.0, -2000.0])  # drives a_n to 0 through underflow
    xi = constant_form(grid, alg, np.zeros(3), v)
    with pytest.raises((IntegrationError, ValueError)):
        darboux_integrate(xi, alg, None)


def test_leaving_the_half_space_is_an_integration_error_naming_its_cell():
    alg = hn(3)
    grid = ParamGrid(9, 9, 1.0 / 8)
    # exp(-375) per step: a_n underflows to 0 at the second bottom-row step
    xi = constant_form(grid, alg, np.array([0.0, 0.0, -3000.0]), np.zeros(3))
    with pytest.raises(IntegrationError, match="half space") as err:
        darboux_integrate(xi, alg, None)
    assert err.value.cell == (2, 0)
    # in the column sweep the cell is the first node of the failing column
    xi_y = np.zeros(grid.shape + (3,))
    xi_y[4:, :, 2] = -3000.0
    xi = LieValuedOneForm(grid, np.zeros(grid.shape + (3,)), xi_y)
    with pytest.raises(IntegrationError) as err:
        darboux_integrate(xi, alg, None)
    assert err.value.cell == (4, 2)


def test_a_base_point_outside_the_half_space_stays_a_value_error():
    alg = hn(3)
    xi = constant_form(ParamGrid(5, 5, 0.25), alg, np.zeros(3), np.zeros(3))
    for base in ([0.0, 0.0, 0.0], [0.0, 0.0, -1.0]):
        with pytest.raises(ValueError, match="half space"):
            darboux_integrate(xi, alg, base)


def _step(model, g, cells):
    """The per-step judge of `step_darboux`, verbatim."""
    try:
        return model.normalize(g)
    except ValueError as err:
        for cell, node in zip(cells, np.reshape(g, (-1, g.shape[-1]))):
            try:
                model.normalize(node)
            except ValueError:
                raise IntegrationError(f"Darboux integration failed: {err}",
                                       cell=cell) from None
        raise


def step_darboux(xi, alg, base=None, stats=None):
    """darboux_integrate before its marches were prefix products, verbatim:
    one model.multiply and judged model.normalize per bottom-row node and
    per column."""
    model = model_for(alg)
    grid, h = xi.grid, xi.grid.h
    nx, ny = grid.shape
    F = np.zeros((nx, ny, model.payload_dim))
    F[0, 0] = model.identity() if base is None else np.asarray(base, float)
    model.normalize(F[0, 0])    # a base point off the group is a ValueError
    row = model.exp(0.5 * (xi.xi_x[:-1, 0] + xi.xi_x[1:, 0]), h)
    cols = model.exp(0.5 * (xi.xi_y[:, :-1] + xi.xi_y[:, 1:]), h)
    drift = 0.0
    for i in range(nx - 1):
        F[i + 1, 0], d = _step(model, model.multiply(F[i, 0], row[i]),
                               [(i + 1, 0)])
        drift = max(drift, d)
    for j in range(ny - 1):
        F[:, j + 1], d = _step(model, model.multiply(F[:, j], cols[:, j]),
                               ((k, j + 1) for k in range(nx)))
        drift = max(drift, d)
    cell = first_non_finite(F)
    if cell is not None:
        raise IntegrationError("Darboux integration diverged", cell=cell)
    if stats is not None:
        stats["renorm_drift"] = drift
    return F


def escaping_form(alg, value, where):
    """A 1-form on a 9 x 9 grid whose last component is `value` from the
    bottom-row node 3 on (where="row"), or along the columns of the rows
    i >= 4 from node 3 on and of row 2 from node 6 on (where="column"), so
    that the first cell to fail in march order (j, then i) is not the first
    in index order; 100 value further on, where a march that stopped at the
    first failure never gets."""
    grid = ParamGrid(9, 9, 1.0 / 8)
    xi_x = np.zeros(grid.shape + (alg.n,))
    xi_y = np.zeros(grid.shape + (alg.n,))
    xi_x[..., 0] = xi_y[..., 0] = 0.5
    if where == "row":
        xi_x[3:, 0, -1] = value
        xi_x[6:, 0, -1] = 100 * value
    else:
        xi_y[4:, 3:, -1] = value
        xi_y[2, 6:, -1] = value
        xi_y[5:, 6:, -1] = 100 * value
    return LieValuedOneForm(grid, xi_x, xi_y)


@pytest.mark.parametrize("where", ["row", "column"])
@pytest.mark.parametrize("alg,value,message", [
    (hn(3), -3000.0, "Darboux integration failed: H^n payload left the half "
                     "space a_n > 0"),
    (hn(3), 3000.0, "Darboux integration diverged"),
    (sol3(), 3000.0, "Darboux integration diverged"),
    (h2xr(), 3000.0, "Darboux integration diverged"),
], ids=["H3-underflow", "H3-overflow", "Sol3-overflow", "H2xR-overflow"])
def test_a_march_that_leaves_the_group_fails_as_the_step_loop_did(
        alg, value, message, where):
    xi = escaping_form(alg, value, where)
    with np.errstate(all="ignore"):
        with pytest.raises((IntegrationError, ValueError)) as loop:
            loop_darboux(xi, alg)
        with pytest.raises(IntegrationError) as step:
            step_darboux(xi, alg)
    # the steps past the first failure warn of nothing (the suite makes a
    # RuntimeWarning an error)
    with pytest.raises(IntegrationError) as got:
        darboux_integrate(xi, alg)
    cell = got.value.cell
    assert str(got.value) == f"{message} at cell {cell}"
    assert (str(step.value), step.value.cell) == (str(got.value), cell)
    if isinstance(loop.value, IntegrationError):
        assert (str(loop.value), loop.value.cell) == (str(got.value), cell)
    else:   # the loop let the model's ValueError through, with no cell
        assert message.endswith(str(loop.value))
    if "half space" in message:     # the march stops at the first failure
        assert cell == ((5, 0) if where == "row" else (4, 5))


@pytest.mark.parametrize("value,cell", [
    (1420.0, (2, 3)), (2839.0, (2, 2)), (2840.0, (2, 1))])
def test_sol3_overflow_names_the_cell_of_the_matrix_form(value, cell):
    # column steps of z = value h from row 2 on: 355 overflows e^{z_k A} at
    # the third step, 709.75 the product at the second, 710 the first
    # step's phi(zA); the cells are those the 2x2 forms gave
    grid = ParamGrid(5, 5, 0.25)
    xi_y = np.zeros(grid.shape + (3,))
    xi_y[..., 1] = 0.5
    xi_y[2:, :, 2] = value
    xi = LieValuedOneForm(grid, np.zeros(grid.shape + (3,)), xi_y)
    with pytest.raises(IntegrationError, match="diverged") as err:
        darboux_integrate(xi, sol3())
    assert err.value.cell == cell


def _counted(monkeypatch, cls, names):
    """Count the calls of the methods `names` of the class `cls`."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def wrapper(self, *args, _name=name, _method=getattr(cls, name)):
            calls[_name] += 1
            return _method(self, *args)
        monkeypatch.setattr(cls, name, wrapper)
    return calls


@pytest.mark.parametrize("alg", [rn(3), hn(3), sol3(), h2xr(), s3()],
                         ids=["R3", "H3", "Sol3", "H2xR", "S3"])
def test_darboux_marches_step_per_node_only_in_s3(monkeypatch, alg):
    model = model_for(alg)
    calls = _counted(monkeypatch, type(model), ["multiply"])
    grid = ParamGrid(17, 9, 1.0 / 16)
    xi = LieValuedOneForm(grid, rng.normal(size=grid.shape + (alg.n,)),
                          rng.normal(size=grid.shape + (alg.n,)))
    darboux_integrate(xi, alg)
    # S^3 takes each product from the previous one: one call per step
    assert calls["multiply"] == (16 + 8 if model.name == "s3" else 0)


@pytest.mark.parametrize("shape", [(9, 9), (33, 40)], ids=["9x9", "33x40"])
@pytest.mark.parametrize("per_axis", [3], ids=["order4"])
@pytest.mark.parametrize("alg", [sol3(), s3(), hn(3)],
                         ids=["Sol3", "S3", "H3"])
def test_pullback_makes_one_model_call_per_offset_and_one_for_the_edges(
        monkeypatch, alg, per_axis, shape):
    # per axis: one `quotients`, whose per-node work runs once (`inverse`,
    # or for R^2 x_A R one batch of e^{-zA}), then one product and one log
    # per interior offset |k| (1 and 2) and one of each for the edge rows'
    # other pairs: 3 per axis for the pullback's fourth-order stencils
    model = model_for(alg)
    grid = ParamGrid(*shape, 1.0 / (shape[0] - 1))
    F = curved_map(alg, grid)
    semidirect = model.name == "semidirect"
    calls = _counted(monkeypatch, type(model),
                     ["quotients", "inverse", "multiply", "log"]
                     + ["_expA"] * semidirect)
    maurer_cartan_pullback(F, model, grid)
    want = {"quotients": 2, "inverse": 2, "multiply": 2 * per_axis,
            "log": 2 * per_axis}
    if semidirect:      # the quotient is inv_x + e^{-z_a A} x_b
        want.update(inverse=0, multiply=0, _expA=2)
    assert calls == want


# =============================================================================
# Structure equation
# =============================================================================

def test_structure_residual_zero_form():
    alg = sol3()
    grid = ParamGrid(9, 9, 0.1)
    xi = constant_form(grid, alg, np.zeros(3), np.zeros(3))
    assert np.max(structure_residual(xi, alg)) == 0.0


def test_structure_residual_abelian_is_curl():
    alg = rn(3)
    grid = ParamGrid(17, 17, 1.0 / 16)
    X, Y = grid.mesh()
    xi_x = np.stack([Y, X * 0, X * 0], axis=-1)   # not closed: curl = -1
    xi_y = np.zeros(grid.shape + (3,))
    xi = LieValuedOneForm(grid, xi_x, xi_y)
    res = structure_residual(xi, alg)
    assert np.max(np.abs(res - 1.0)) <= 1e-10


def test_structure_residual_refinement_on_exact_pullback():
    for alg in (s3(), sol3()):
        model = model_for(alg)
        res = []
        for n_nodes in (17, 33):
            grid = ParamGrid(n_nodes, n_nodes, 1.0 / (n_nodes - 1))
            a = np.array([0.9, 0.2, -0.4])
            b = np.array([-0.3, 1.1, 0.5])
            F = np.zeros(grid.shape + (model.payload_dim,))
            for i in range(grid.nx):
                ga = model.exp(a, grid.xs()[i])
                F[i] = model.multiply(
                    ga, np.stack([model.exp(b, y) for y in grid.ys()]))
            xi_x, xi_y = maurer_cartan_pullback(F, model, grid)
            # the pullback itself carries an O(h^2) difference error, and the
            # structure residual of the exact form is another O(h^2)
            res.append(np.max(structure_residual(
                LieValuedOneForm(grid, xi_x, xi_y), alg)))
        ratio = res[0] / res[1]
        assert 2.5 <= ratio <= 6.5


# =============================================================================
# Only the algebra contracts c and gamma
# =============================================================================
# The functions below are the code that contracted c and gamma itself before
# every caller went through MetricLieAlgebra.bracket/connection/gamma_op,
# kept verbatim with their einsum strings.

def former_second_fundamental_form(zx, zy, normals, grid, alg, order):
    z = (zx, zy)
    d = (grid.dx, grid.dy)
    D = {(a, b): d[a](z[b], order)
         + np.einsum("xyi,ijk,xyj->xyk", z[a], alg.gamma, z[b])
         for a in range(2) for b in range(2)}
    B = np.empty(zx.shape[:2] + (2, 2, normals.shape[-1]))
    for a, b in D:
        B[:, :, a, b] = np.einsum("xyi,xyir->xyr", 0.5 * (D[a, b] + D[b, a]),
                                  normals)
    return B


def former_normal_connection(zx, zy, normals, grid, alg):
    out = []
    for za, d in ((zx, grid.dx), (zy, grid.dy)):
        dn = d(normals) + np.einsum("xyi,ijk,xyjr->xykr", za, alg.gamma,
                                    normals)
        th = np.einsum("xyis,xyir->xyrs", dn, normals)
        out.append(0.5 * (th - np.swapaxes(th, 2, 3)))
    return out[0], out[1]


def former_structure_residual(xi, alg):
    grid = xi.grid
    dxi = grid.dx(xi.xi_y) - grid.dy(xi.xi_x)
    br = np.einsum("xyi,xyj,ijk->xyk", xi.xi_x, xi.xi_y, alg.c)
    return np.linalg.norm(dxi + br, axis=-1)


def former_frame_compat_residual_fields(data, alg):
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


_LOCAL = np.random.default_rng(1609)
CONTRACTION_ALGEBRAS = (
    [(tag, catalog_build(tag, params)) for tag, (_, params) in CATALOG.items()]
    + [("random-semidirect", semidirect(_LOCAL.normal(size=(2, 2)))),
       ("random-unimodular", unimodular(*_LOCAL.normal(size=3)))])


@pytest.mark.parametrize("tag,alg", CONTRACTION_ALGEBRAS,
                         ids=[tag for tag, _ in CONTRACTION_ALGEBRAS])
def test_contractions_agree_with_their_former_einsums(tag, alg):
    local = np.random.default_rng(6289)
    n = alg.n
    grid = ParamGrid(17, 17, 0.0625, mu=local.uniform(0.5, 2.0, (17, 17)))
    X, Y = local.normal(size=(2, 17, 17, n))
    normals = local.normal(size=(17, 17, n, 2))
    data = fixtures.sphere_r3(17).data          # q = 1 and n = 3
    xi = LieValuedOneForm(grid, X, Y)
    pairs = {
        "bracket": (alg.bracket(X, Y),
                    np.einsum("...i,...j,ijk->...k", X, Y, alg.c)),
        "connection": (alg.connection(X, Y),
                       np.einsum("...i,...j,ijk->...k", X, Y, alg.gamma)),
        "structure_residual": (structure_residual(xi, alg),
                               former_structure_residual(xi, alg)),
        "frame_compat": (
            np.concatenate([r.ravel() for r in
                            frame_compat_residual_fields(data, alg)]),
            np.concatenate([r.ravel() for r in
                            former_frame_compat_residual_fields(data, alg)])),
    }
    pairs["second_fundamental_form"] = (
        second_fundamental_form(X, Y, normals, grid, alg),
        former_second_fundamental_form(X, Y, normals, grid, alg, 4))
    pairs["normal_connection"] = (
        np.stack(normal_connection(X, Y, normals, grid, alg)),
        np.stack(former_normal_connection(X, Y, normals, grid, alg)))
    for name, (got, want) in pairs.items():
        assert got.shape == want.shape, name
        if tag in CATALOG and not (name == "connection"
                                   and tag == "EKappaTau"):
            assert np.array_equal(got, want), name
        else:
            # EKappaTau's gamma holds +-1.5: the former connection string
            # multiplied X_i Y_j before gamma, second_fundamental_form's
            # X_i gamma before Y_j, so no one order reproduces both bit for
            # bit; the algebra multiplies in the latter order
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-15 * scale, name


# =============================================================================
# The call sites of the term tables keep the bits of the dense operator
# =============================================================================
# Each `dense_*` below is a site as it multiplied the dense operator field
# into frames or normals, kept verbatim but for dense_operator in place of
# alg.gamma_op.

def dense_normal_connection(zx, zy, normals, grid, alg):
    out = []
    for za, d in ((zx, grid.dx), (zy, grid.dy)):
        dn = d(normals) + np.einsum("xykj,xyjr->xykr",
                                    dense_operator(za, alg.gamma), normals)
        th = np.einsum("xyis,xyir->xyrs", dn, normals)
        out.append(0.5 * (th - np.swapaxes(th, 2, 3)))
    return out[0], out[1]


def dense_frame_compat_residual_fields(data, alg):
    grid = data.grid
    mu = grid.mu[..., None, None]
    U = data.frames
    R = np.empty(U.shape + (2,))
    for a, (d, omega) in enumerate(zip((grid.dx, grid.dy),
                                       frame_connection(data))):
        G = dense_operator(U[..., a], alg.gamma)
        shape = shape_matrix(data.B, np.eye(2)[a])
        R[..., a] = (d(U) + np.einsum("xyjc,xydc->xyjd", U, omega)) / mu \
            - np.einsum("xykj,xykc->xyjc", G, U) \
            + np.einsum("xyjc,xydc->xyjd", U, shape)
    return R[..., :2, :], R[..., 2:, :]


def dense_gamma_frame_matrix(alg, frames, X):
    fX = np.einsum("...ia,...a->...i", frames[..., :2], X)
    return np.swapaxes(frames, -1, -2) @ dense_operator(fX, alg.gamma) \
        @ frames


def dense_ambient_curvature_frame(data, alg):
    U = data.frames
    X, Y = U[..., 0], U[..., 1]
    P = dense_operator(X, alg.gamma) @ dense_operator(Y, alg.gamma)
    Rhat = P - np.swapaxes(P, -1, -2) - dense_operator(
        np.einsum("...kj,...j->...k", dense_operator(X, alg.c), Y), alg.gamma)
    return np.swapaxes(U, 2, 3) @ Rhat @ U


SITE_FIXTURES = ("sphere-r3", "sphere-r4-twisted", "s3-sphere", "sol3-plane",
                 "h2xr-slice", "horosphere-h3")


@pytest.mark.parametrize("name", SITE_FIXTURES)
def test_the_term_table_sites_keep_the_dense_bits(name):
    fx = SURFACE_FIXTURES[name](17)
    n = fx.alg.n
    local = np.random.default_rng(4027)
    # the fixture's own algebra, and the sparse and full ones of its n
    algs = [fx.alg, hn(n, local.normal(size=n))] + (
        [sol3(), h2xr(), s3(), semidirect(local.normal(size=(2, 2)))]
        if n == 3 else [])
    grid = fx.data.grid
    zx, zy = local.normal(size=(2, 17, 17, n))
    zx[local.uniform(size=zx.shape) < 0.2] = -0.0
    normals = local.normal(size=(17, 17, n, 2))
    X = local.normal(size=(17, 17, 2))
    for alg in algs:
        sites = {
            "normal_connection": (normal_connection(zx, zy, normals, grid, alg),
                                  dense_normal_connection(zx, zy, normals,
                                                          grid, alg)),
            "frame_compat": (frame_compat_residual_fields(fx.data, alg),
                             dense_frame_compat_residual_fields(fx.data, alg)),
            "gamma_frame_matrix": (
                [gamma_frame_matrix(alg, fx.data.frames, X)],
                [dense_gamma_frame_matrix(alg, fx.data.frames, X)]),
            "ambient_curvature_frame": (
                [ambient_curvature_frame(fx.data, alg)],
                [dense_ambient_curvature_frame(fx.data, alg)]),
        }
        for site, (got, want) in sites.items():
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes(), \
                    (site, alg)
