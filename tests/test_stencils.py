"""The stencil table and the (B, theta) extraction against the written-out
formulas and loops they replaced, kept verbatim below as the reference."""

import numpy as np
import pytest

from spinorforge import fixtures
from spinorforge.cmc import mesh_mean_curvature
from spinorforge.grid import (STENCILS, ParamGrid, check_step, difference,
                             residual_tolerance, structure_tolerance)
from spinorforge.lie_group import (
    AbelianModel, HnModel, S3Model, SemidirectModel, maurer_cartan_pullback,
    model_for,
)
from spinorforge.spinor import spinor_of_immersion


# =============================================================================
# Reference: the written-out stencils
# =============================================================================

def _d1(f, axis, h):
    f = np.moveaxis(np.asarray(f), axis, 0)
    if f.shape[0] < 4:
        raise ValueError("matched-stencil derivatives need >= 4 nodes")
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / 2.0
    out[0] = -2.0 * f[0] + 3.5 * f[1] - 2.0 * f[2] + 0.5 * f[3]
    out[-1] = 2.0 * f[-1] - 3.5 * f[-2] + 2.0 * f[-3] - 0.5 * f[-4]
    return np.moveaxis(out, 0, axis) / h


def _d1_order4(f, axis, h):
    f = np.moveaxis(np.asarray(f), axis, 0)
    if f.shape[0] < 5:
        raise ValueError("order-4 derivatives need >= 5 nodes")
    out = np.empty_like(f)
    out[2:-2] = (-f[4:] + 8.0 * f[3:-1] - 8.0 * f[1:-3] + f[:-4]) / 12.0
    out[0] = -25.0 / 12.0 * f[0] + 4.0 * f[1] - 3.0 * f[2] \
        + 4.0 / 3.0 * f[3] - 0.25 * f[4]
    out[1] = -0.25 * f[0] - 5.0 / 6.0 * f[1] + 1.5 * f[2] \
        - 0.5 * f[3] + 1.0 / 12.0 * f[4]
    out[-1] = 25.0 / 12.0 * f[-1] - 4.0 * f[-2] + 3.0 * f[-3] \
        - 4.0 / 3.0 * f[-4] + 0.25 * f[-5]
    out[-2] = 0.25 * f[-1] + 5.0 / 6.0 * f[-2] - 1.5 * f[-3] \
        + 0.5 * f[-4] - 1.0 / 12.0 * f[-5]
    return np.moveaxis(out, 0, axis) / h


def _d2(f, axis, h):
    f = np.moveaxis(np.asarray(f, float), axis, 0)
    if f.shape[0] < 4:
        raise ValueError("second derivatives need at least 4 nodes")
    out = np.empty_like(f)
    out[1:-1] = f[2:] - 2.0 * f[1:-1] + f[:-2]
    out[0] = 2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]
    out[-1] = 2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]
    return np.moveaxis(out, 0, axis) / h ** 2


def _old_pullback(F, model, grid):
    h = grid.h

    def _shift_log(Fm, inv, k):
        if k > 0:
            return model.log(model.multiply(inv[:-k], Fm[k:]))
        return model.log(model.multiply(inv[-k:], Fm[:k]))

    def _d4th(axis):
        Fm = np.moveaxis(F, axis, 0)
        inv = model.inverse(Fm)
        out = np.empty(Fm.shape[:-1] + (model.n,))
        p1, p2 = _shift_log(Fm, inv, 1), _shift_log(Fm, inv, 2)
        p3, p4 = _shift_log(Fm, inv, 3), _shift_log(Fm, inv, 4)
        m1, m2 = _shift_log(Fm, inv, -1), _shift_log(Fm, inv, -2)
        m3, m4 = _shift_log(Fm, inv, -3), _shift_log(Fm, inv, -4)
        out[2:-2] = (-p2[2:] + 8.0 * p1[2:-1] - 8.0 * m1[1:-2] + m2[:-2]) \
            / (12.0 * h)
        out[0] = (4.0 * p1[0] - 3.0 * p2[0] + 4.0 / 3.0 * p3[0]
                  - 0.25 * p4[0]) / h
        out[1] = (-0.25 * m1[0] + 1.5 * p1[1] - 0.5 * p2[1]
                  + 1.0 / 12.0 * p3[1]) / h
        out[-1] = -(4.0 * m1[-1] - 3.0 * m2[-1] + 4.0 / 3.0 * m3[-1]
                    - 0.25 * m4[-1]) / h
        out[-2] = -(-0.25 * p1[-1] + 1.5 * m1[-2] - 0.5 * m2[-2]
                    + 1.0 / 12.0 * m3[-2]) / h
        return np.moveaxis(out, 0, axis)

    return _d4th(0), _d4th(1)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


# =============================================================================
# Field derivatives
# =============================================================================

SPACINGS = (0.1, 1.0 / 32.0, 0.37)
SHAPES = ((5, 9), (33, 5), (12, 33), (6, 7, 3))


def _fields(shape, seed):
    rng = np.random.default_rng(seed)
    real = rng.normal(size=shape)
    return real, real + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("h", SPACINGS)
@pytest.mark.parametrize("shape", SHAPES)
def test_first_derivatives_match_the_written_out_stencils(h, shape):
    grid = ParamGrid(shape[0], shape[1], h)
    for f in _fields(shape, len(shape) * shape[0] + shape[1]):
        for axis, d in enumerate((grid.dx, grid.dy)):
            assert _same_bits(d(f), _d1(f, axis, h))
            assert _same_bits(d(f, 2), _d1(f, axis, h))
            assert _same_bits(d(f, 4), _d1_order4(f, axis, h))
        assert _same_bits(grid.dz(f), 0.5 * (_d1(f, 0, h) - 1j * _d1(f, 1, h)))
        assert _same_bits(grid.dzbar(f),
                          0.5 * (_d1(f, 0, h) + 1j * _d1(f, 1, h)))


def test_signed_zeros_round_like_the_written_out_stencils():
    # adding (-w) f in place of subtracting w f flips the sign of some zero
    # parts of complex results; the table subtracts
    rng = np.random.default_rng(0)
    grid = ParamGrid(6, 5, 0.1)
    values = np.array([-1.0, -0.0, 0.0, 1.0, 2.0])
    for _ in range(400):
        f = rng.choice(values, size=grid.shape) \
            + 1j * rng.choice(values, size=grid.shape)
        for axis, d in enumerate((grid.dx, grid.dy)):
            assert _same_bits(d(f), _d1(f, axis, grid.h))
            assert _same_bits(d(f, 4), _d1_order4(f, axis, grid.h))


@pytest.mark.parametrize("h", SPACINGS)
@pytest.mark.parametrize("shape", SHAPES)
def test_second_derivatives_match_the_written_out_stencil(h, shape):
    grid = ParamGrid(shape[0], shape[1], h)
    real, cplx = _fields(shape, 7 * shape[0] + shape[1])
    for axis, d in enumerate((grid.d2x, grid.d2y)):
        assert _same_bits(d(real), _d2(real, axis, h))
        # the written-out form cast to float and dropped the imaginary part;
        # the table differentiates both parts, and numpy divides a complex
        # array by h^2 as a multiplication by its reciprocal
        got = d(cplx)
        for part, want in ((got.real, _d2(cplx.real, axis, h)),
                           (got.imag, _d2(cplx.imag, axis, h))):
            assert np.all(np.abs(part - want) <= np.spacing(np.abs(want)))


def test_integer_fields_differentiate_like_their_float_copy():
    grid = ParamGrid(9, 6, 0.25)
    sq = np.add.outer(np.arange(9) ** 2, np.arange(6) ** 3)
    for order in (2, 4):
        for d in (grid.dx, grid.dy):
            assert np.array_equal(d(sq, order), d(sq.astype(float), order))
    assert np.array_equal(grid.d2x(sq), grid.d2x(sq.astype(float)))
    # the fourth-order stencils are exact on squares: d/dx i^2 = 2 i / h
    assert np.allclose(grid.dx(sq, 4)[:, 0], 2.0 * np.arange(9) / 0.25,
                       rtol=0, atol=1e-12)


def test_unknown_order_raises():
    grid = ParamGrid(9, 9, 0.1)
    f = np.zeros(grid.shape)
    for d in (grid.dx, grid.dy):
        for order in (1, 3, 6):
            with pytest.raises(ValueError, match="no order-"):
                d(f, order)


@pytest.mark.parametrize("derivative, order, need",
                         [(1, 2, 4), (1, 4, 5), (2, 2, 4)])
def test_node_minimum_comes_from_the_table(derivative, order, need):
    assert (derivative, order) in STENCILS
    f = np.arange(need, dtype=float) ** 2

    def sample(lo, hi, k):
        return f[lo + k:hi + k]

    assert difference(sample, need, 1.0, derivative, order).shape == (need,)
    with pytest.raises(ValueError, match=f"at least {need} nodes"):
        difference(lambda lo, hi, k: f[:need - 1][lo + k:hi + k], need - 1,
                   1.0, derivative, order)


def test_every_stencil_is_exact_on_polynomials_of_its_order():
    x = np.arange(11, dtype=float)
    for (derivative, order), (_, edges) in STENCILS.items():
        for p in range(order + derivative):
            f = (0.5 * x) ** p
            got = difference(lambda lo, hi, k: f[lo + k:hi + k], x.size, 0.5,
                             derivative, order)
            want = np.zeros_like(x) if p < derivative else \
                np.prod(np.arange(p - derivative + 1, p + 1)) \
                * (0.5 * x) ** (p - derivative)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-9), \
                (derivative, order, p)


# =============================================================================
# Group-map derivatives
# =============================================================================

def _models():
    return [AbelianModel(3), S3Model(),
            SemidirectModel(np.diag([1.0, -1.0])),
            SemidirectModel(np.array([[0.3, 1.2], [-0.7, 0.1]])),
            HnModel(3)]


def _group_map(model, nx, ny, h, seed):
    """exp of a smooth algebra field: a group map with honest curvature."""
    rng = np.random.default_rng(seed)
    x = h * np.arange(nx)[:, None, None]
    y = h * np.arange(ny)[None, :, None]
    a, b, c = rng.uniform(0.5, 1.5, size=(3, model.n))
    v = 0.4 * np.sin(a * x + b * y + c)
    return model.exp(v)


# AbelianModel and S3Model negate a quotient's inverse exactly, so their
# pullback logs a node pair once at no cost in bits.  For R^2 x_A R and H^n,
# log(g^-1) and -log g differ by rounding.  Measured over maps as below
# with h in SPACINGS, 0.5 and 0.01: the pair logs at most 5.9 eps max|F|
# (17 x 9 nodes, offsets 1..4, 10 seeds), and the pullbacks at most
# 14.0 eps max|F| / h from the written-out form (4 x 4, 4 x 9, 9 x 4,
# 5 x 5, 5 x 9, 9 x 5, 17 x 6 and 33 x 33 nodes, orders 2 and 4, 4 seeds).
# The bounds keep a factor of about 2.
PAIR_BOUND = 12.0
PULLBACK_BOUND = 30.0
EPS = np.finfo(float).eps


def _exact_negation(model):
    return model.name in ("abelian", "s3")


@pytest.mark.parametrize("h", SPACINGS)
@pytest.mark.parametrize("model", _models(), ids=lambda m: m.name)
def test_pullback_matches_the_written_out_log_differences(model, h):
    # 5 nodes are the fewest: the interior block is one node wide and the
    # edge rows' pairs coincide with each other
    for nx, ny in ((5, 9), (17, 6), (5, 5), (9, 5)):
        grid = ParamGrid(nx, ny, h)
        F = _group_map(model, nx, ny, h, nx + ny)
        new, old = maurer_cartan_pullback(F, model, grid), \
            _old_pullback(F, model, grid)
        for a, b in zip(new, old):
            assert a.shape == b.shape
            if not _exact_negation(model):
                assert np.max(np.abs(a - b)) \
                    <= PULLBACK_BOUND * EPS * np.max(np.abs(F)) / h
            else:
                # the stencil divides by 12 and then by h, where the
                # written-out form divided by 12 h: the two differ by
                # rounding when h is not a power of two
                assert np.all(np.abs(a - b) <= 2.0 * np.spacing(np.abs(b)))


@pytest.mark.parametrize("model", _models(), ids=lambda m: m.name)
def test_quotients_are_the_product_with_the_inverse_bit_for_bit(model):
    F = _group_map(model, 17, 9, 0.1, 3)
    for Fm in (F, np.moveaxis(F, 1, 0)):    # the pullback's two axes
        quotient = model.quotients(Fm)
        size = Fm.shape[0]
        for k in (1, 2, 3):     # dense: every pair (x, x + k)
            a, b = slice(0, size - k), slice(k, size)
            assert _same_bits(quotient(a, b),
                              model.multiply(model.inverse(Fm[a]), Fm[b]))
        # the order-4 edge rows' pairs in one batch, and reversed
        x = np.array([0, 0, 1, size - 4, size - 5, size - 5])
        y = x + np.array([3, 4, 4, 3, 4, 3])
        for a, b in ((x, y), (y, x)):
            assert _same_bits(quotient(a, b),
                              model.multiply(model.inverse(Fm[a]), Fm[b]))


@pytest.mark.parametrize("model", _models(), ids=lambda m: m.name)
def test_log_of_the_reversed_quotient_is_minus_the_log(model):
    for h in SPACINGS:
        F = _group_map(model, 17, 9, h, 7)
        quotient = model.quotients(F)
        for k in (1, 2, 3, 4):
            fwd = model.log(quotient(slice(0, 17 - k), slice(k, 17)))
            bwd = model.log(quotient(slice(k, 17), slice(0, 17 - k)))
            if _exact_negation(model):
                assert _same_bits(bwd, -fwd)
            else:
                assert np.max(np.abs(bwd + fwd)) \
                    <= PAIR_BOUND * EPS * np.max(np.abs(F))


@pytest.mark.parametrize("nodes", [9, 129])
@pytest.mark.parametrize("order", [4])    # the pullback's one grade
def test_pullback_logs_only_the_rows_its_stencils_use(nodes, order):
    model = SemidirectModel(np.diag([1.0, -1.0]))
    rows = []
    log = model.log

    def counting_log(g):
        rows.append(int(np.prod(np.shape(g)[:-1])))
        return log(g)

    model.log = counting_log
    grid = ParamGrid(nodes, nodes, 1.0 / (nodes - 1))
    maurer_cartan_pullback(_group_map(model, nodes, nodes, grid.h, 1), model,
                           grid)
    # per column of each axis: every pair (x, x + k) for the order / 2
    # interior offsets k and the edge rows' 6 other pairs, 2 N + 3 in all
    N = nodes
    want = 2 * (order // 2 * N + 3) * N
    assert sum(rows) == want
    if N == 129:
        assert want == 67338


# =============================================================================
# Reference: the written-out (B, theta) loops
# =============================================================================

def _ambient_derivative(zeta_a, zeta_b, grid, alg, axis):
    d = grid.dx(zeta_b, 4) if axis == 0 else grid.dy(zeta_b, 4)
    return d + np.einsum("xyi,ijk,xyj->xyk", zeta_a, alg.gamma, zeta_b)


def _old_b_theta(zx, zy, normals, mu, out_grid, alg):
    q = normals.shape[-1]
    B = np.zeros(out_grid.shape + (2, 2, q))
    for a, za in enumerate((zx, zy)):
        for b, zb in enumerate((zx, zy)):
            D = _ambient_derivative(za, zb, out_grid, alg, a)
            B[:, :, a, b] = np.einsum("xyi,xyir->xyr", D, normals) \
                / mu[..., None] ** 2
    B = 0.5 * (B + np.swapaxes(B, 2, 3))
    kwargs = {}
    if q > 1:
        for a, (za, key) in enumerate(((zx, "theta_x"), (zy, "theta_y"))):
            dn = (out_grid.dx, out_grid.dy)[a](normals) + np.einsum(
                "xyi,ijk,xyjr->xykr", za, alg.gamma, normals)
            th = np.einsum("xyis,xyir->xyrs", dn, normals)
            kwargs[key] = 0.5 * (th - np.swapaxes(th, 2, 3))
    return B, kwargs


def _old_mesh_mean_curvature(F, alg, grid, orient_to=None):
    model = model_for(alg)
    zx, zy = maurer_cartan_pullback(F, model, grid)
    E = np.einsum("xyi,xyi->xy", zx, zx)
    Ff = np.einsum("xyi,xyi->xy", zx, zy)
    G = np.einsum("xyi,xyi->xy", zy, zy)
    nu = np.cross(zx, zy)
    nu /= np.linalg.norm(nu, axis=-1, keepdims=True)
    if orient_to is not None:
        flip = np.sign(np.einsum("xyi,xyi->xy", nu, orient_to))
        nu *= flip[..., None]
    gam = alg.gamma
    second = {}
    for a, za in enumerate((zx, zy)):
        for b, zb in enumerate((zx, zy)):
            D = (grid.dx(zb, 4) if a == 0 else grid.dy(zb, 4)) \
                + np.einsum("xyi,ijk,xyj->xyk", za, gam, zb)
            second[a, b] = np.einsum("xyi,xyi->xy", D, nu)
    L = second[0, 0]
    M = 0.5 * (second[0, 1] + second[1, 0])
    N = second[1, 1]
    return (G * L - 2.0 * Ff * M + E * N) / (2.0 * (E * G - Ff ** 2))


@pytest.mark.parametrize("name", ["sphere_r3", "sphere_r4_twisted",
                                  "sol3_plane", "s3_sphere"])
def test_converse_b_theta_match_the_written_out_loops(name):
    fx = getattr(fixtures, name)(33)
    _, data = spinor_of_immersion(fx.F, fx.alg, fx.grid)
    zx, zy = maurer_cartan_pullback(fx.F, model_for(fx.alg), fx.grid)
    B, theta = _old_b_theta(zx, zy, data.frames[..., 2:], data.grid.mu,
                            data.grid, fx.alg)
    assert np.max(np.abs(data.B - B)) <= 1e-15
    for key, want in theta.items():
        assert np.max(np.abs(getattr(data, key) - want)) <= 1e-15


@pytest.mark.parametrize("name", ["sphere_r3", "s3_sphere", "sol3_plane",
                                  "h2xr_slice"])
def test_mesh_mean_curvature_matches_the_written_out_loop(name):
    fx = getattr(fixtures, name)(33)
    got = mesh_mean_curvature(fx.F, fx.alg, fx.grid)
    want = _old_mesh_mean_curvature(fx.F, fx.alg, fx.grid)
    assert np.max(np.abs(got - want)) <= 1e-14



# =============================================================================
# Covariant derivatives and the O(h^2) gates
# =============================================================================

def test_covariant_derivatives_differentiate_mu_once_each(monkeypatch):
    grid = fixtures.sphere_r3(9).grid
    v = np.stack(grid.mesh(), axis=-1) ** 2
    wx, wy = grid.rotation_coefficients()
    want = [grid.dx(v), grid.dy(v)]
    for out, w in zip(want, (wx, wy)):
        out[..., 0] -= w * v[..., 1]
        out[..., 1] += w * v[..., 0]
    calls = []
    diff = ParamGrid._diff

    def counted(self, f, *args):
        calls.append(f is self.mu)
        return diff(self, f, *args)

    monkeypatch.setattr(ParamGrid, "_diff", counted)
    for covariant, expected in zip((grid.covariant_dx, grid.covariant_dy),
                                   want):
        calls.clear()
        assert np.array_equal(covariant(v), expected)
        assert calls.count(True) == 1


def test_the_gates_share_one_residual_tolerance():
    grid = fixtures.sphere_r3(17).grid          # max mu = 2
    assert residual_tolerance(grid) == 10.0 * grid.h ** 2
    assert structure_tolerance(grid) == 10.0 * grid.h ** 2 * 4.0
    check_step(ParamGrid(3, 3, 0.5, mu=np.full((3, 3), 2.0)))
    with pytest.raises(ValueError, match=r"h max\(mu\) = 1 exceeds 1"):
        check_step(ParamGrid(3, 3, 0.5, mu=np.full((3, 3), np.nextafter(2, 3))))
