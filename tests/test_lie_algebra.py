"""Catalog algebras: Koszul constants, torsion, curvature, bivector bridge."""

import json

import numpy as np
import pytest

from spinorforge.clifford import Multivector, commutator
from spinorforge.lie_algebra import (
    CATALOG, MetricLieAlgebra, algebra_from_dict, algebra_to_dict,
    catalog_build,
    curvature, curvature_array, e_kappa_tau, gamma_as_bivector, h2xr, hn, hn_constants,
    jacobi_residual,
    koszul_connection, rn, s3, sectional_curvature, semidirect, sol3,
    torsion_residual, unimodular,
)

rng = np.random.default_rng(515151)

ALL_ALGEBRAS = [
    rn(3), rn(5), hn(2), hn(3), hn(4), s3(),
    e_kappa_tau(-1.0, 0.5), e_kappa_tau(4.0, 1.0),
    semidirect([[0.3, -1.2], [0.7, 0.4]]), sol3(), h2xr(),
    unimodular(1.0, 1.0, 1.0), unimodular(0.4, -0.7, 1.3),
]


# =============================================================================
# Construction invariants
# =============================================================================

@pytest.mark.parametrize("alg", ALL_ALGEBRAS, ids=lambda a: f"{a.catalog_tag}{a.n}")
def test_catalog_invariants(alg):
    assert np.array_equal(alg.c, -np.swapaxes(alg.c, 0, 1))
    assert jacobi_residual(alg.c) <= 1e-12
    # metric compatibility, skew in the last two slots, exactly
    assert np.array_equal(alg.gamma, -np.swapaxes(alg.gamma, 1, 2))


def test_rejects_non_antisymmetric_and_non_jacobi():
    c = np.zeros((3, 3, 3))
    c[0, 1, 0] = 1.0  # missing the opposite entry
    with pytest.raises(ValueError):
        MetricLieAlgebra(c)
    c2 = np.zeros((4, 4, 4))  # [e1,e2]=e3, [e1,e3]=e4-ish non-Jacobi junk
    c2[0, 1, 2] = 1.0
    c2[1, 0, 2] = -1.0
    c2[0, 2, 3] = 1.0
    c2[2, 0, 3] = -1.0
    c2[1, 2, 0] = 1.0
    c2[2, 1, 0] = -1.0
    if jacobi_residual(c2) > 1e-12:
        with pytest.raises(ValueError):
            MetricLieAlgebra(c2)


# =============================================================================
# Printed connection constants
# =============================================================================

def test_abelian_connection_vanishes():
    assert np.all(rn(4).gamma == 0.0)


def test_sol3_connection_constants():
    g = sol3().gamma
    want = np.zeros((3, 3, 3))
    want[0, 0, 2] = -1.0
    want[0, 2, 0] = 1.0
    want[1, 1, 2] = 1.0
    want[1, 2, 1] = -1.0
    assert np.max(np.abs(g - want)) <= 1e-12


def test_h2xr_connection_constants():
    g = h2xr().gamma
    want = np.zeros((3, 3, 3))
    want[0, 0, 2] = 1.0
    want[0, 2, 0] = -1.0
    assert np.max(np.abs(g - want)) <= 1e-12


def test_semidirect_connection_table():
    a, b, c, d = 0.9, -0.4, 1.7, 0.25
    alg = semidirect([[a, b], [c, d]])
    e = np.eye(3)
    assert np.allclose(alg.connection(e[0], e[0]), [0, 0, a], atol=1e-12)
    assert np.allclose(alg.connection(e[0], e[1]), [0, 0, (b + c) / 2], atol=1e-12)
    assert np.allclose(alg.connection(e[0], e[2]), [-a, -(b + c) / 2, 0], atol=1e-12)
    assert np.allclose(alg.connection(e[1], e[0]), [0, 0, (b + c) / 2], atol=1e-12)
    assert np.allclose(alg.connection(e[1], e[1]), [0, 0, d], atol=1e-12)
    assert np.allclose(alg.connection(e[1], e[2]), [-(b + c) / 2, -d, 0], atol=1e-12)
    assert np.allclose(alg.connection(e[2], e[0]), [0, (c - b) / 2, 0], atol=1e-12)
    assert np.allclose(alg.connection(e[2], e[1]), [(b - c) / 2, 0, 0], atol=1e-12)
    assert np.allclose(alg.connection(e[2], e[2]), [0, 0, 0], atol=1e-12)


def test_s3_connection_is_cross_product():
    alg = s3()
    for _ in range(100):
        X, Y = rng.normal(size=3), rng.normal(size=3)
        assert np.max(np.abs(alg.connection(X, Y) - np.cross(X, Y))) <= 1e-12


def test_ekt_connection_operator_form():
    kappa, tau = -2.3, 0.8
    sigma = kappa / (2 * tau)
    alg = e_kappa_tau(kappa, tau)
    e3 = np.array([0.0, 0.0, 1.0])
    for _ in range(100):
        X, Y = rng.normal(size=3), rng.normal(size=3)
        axis = tau * (X - (X @ e3) * e3) + (sigma - tau) * (X @ e3) * e3
        assert np.max(np.abs(alg.connection(X, Y) - np.cross(axis, Y))) <= 1e-12


def test_hn_connection_closed_form():
    for n in (2, 3, 4):
        alg = hn(n)
        U = np.zeros(n)
        U[n - 1] = 1.0
        for _ in range(60):
            X, Y = rng.normal(size=n), rng.normal(size=n)
            want = -(Y @ U) * X + (X @ Y) * U
            assert np.max(np.abs(alg.connection(X, Y) - want)) <= 1e-12


def test_unimodular_gamma_bivector_form():
    mus = (0.6, -1.1, 2.0)
    alg = unimodular(*mus)
    for _ in range(60):
        X = rng.normal(size=3)
        biv = gamma_as_bivector(alg, X)
        want = Multivector.blade(3, 0b110, X[0] * mus[0]) + \
            Multivector.blade(3, 0b101, -X[1] * mus[1]) + \
            Multivector.blade(3, 0b011, X[2] * mus[2])
        # e3 e1 = -e1 e3 accounts for the sign on the middle coefficient
        assert biv.allclose(want, tol=1e-12)


def test_unimodular_builds_for_any_mu_up_to_a_million():
    # the construction cross-check's rounding grows with max|mu|
    mus = rng.choice([-1.0, 1.0], size=(200, 3)) * 10.0 ** rng.uniform(
        -3.0, 6.0, size=(200, 3))
    for mu in [(123.456, 789.012, 345.678), (1e5 + 0.1, 3.3, 7.7), *mus]:
        # [e1, e2] = (mu1 + mu2) e3 and cyclic
        brackets = unimodular(*mu).c[[0, 1, 2], [1, 2, 0], [2, 0, 1]]
        assert brackets.tolist() == [mu[0] + mu[1], mu[1] + mu[2],
                                     mu[2] + mu[0]]


def test_unimodular_zero_is_abelian():
    alg = unimodular(0.0, 0.0, 0.0)
    assert np.all(alg.c == 0.0) and np.all(alg.gamma == 0.0)


def test_ekt_rejects_tau_zero():
    with pytest.raises(ValueError):
        e_kappa_tau(-1.0, 0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_hn_constants_match_the_loop_bit_for_bit(n):
    # the per-pair loop the broadcast form replaced, as the reference
    for _ in range(20):
        l = rng.normal(size=n) * rng.choice([1e-200, 1.0, 1e200], size=n)
        l[rng.random(n) < 0.3] = -0.0
        want = np.zeros((n, n, n))
        eye = np.eye(n)
        for i in range(n):
            for j in range(n):
                want[i, j] = l[i] * eye[j] - l[j] * eye[i]
        assert want.tobytes() == hn_constants(l).tobytes()


def test_hn_rejects_zero_form():
    with pytest.raises(ValueError):
        hn(3, l=[0.0, 0.0, 0.0])


# =============================================================================
# Torsion and curvature
# =============================================================================

@pytest.mark.parametrize("alg", ALL_ALGEBRAS, ids=lambda a: f"{a.catalog_tag}{a.n}")
def test_torsion_free_on_random_pairs(alg):
    for _ in range(500):
        X, Y = rng.normal(size=alg.n), rng.normal(size=alg.n)
        assert np.max(np.abs(torsion_residual(alg, X, Y))) <= 1e-12


def test_s3_torsion_identity_via_cross_product():
    alg = s3()
    for _ in range(50):
        X, Y = rng.normal(size=3), rng.normal(size=3)
        res = np.cross(X, Y) - np.cross(Y, X) - 2 * np.cross(X, Y)
        assert np.max(np.abs(torsion_residual(alg, X, Y) - res)) <= 1e-12


@pytest.mark.parametrize("alg", ALL_ALGEBRAS, ids=lambda a: f"{a.catalog_tag}{a.n}")
def test_curvature_antisymmetries(alg):
    for _ in range(60):
        X, Y = rng.normal(size=alg.n), rng.normal(size=alg.n)
        R = curvature(alg, X, Y).matrix
        assert np.array_equal(R, -R.T)
        R2 = curvature(alg, Y, X).matrix
        assert np.max(np.abs(R + R2)) <= 1e-12


@pytest.mark.parametrize("alg", ALL_ALGEBRAS, ids=lambda a: f"{a.catalog_tag}{a.n}")
def test_curvature_array_is_curvature_at_every_node(alg):
    X, Y = rng.normal(size=(2, 4, 3, alg.n))
    R = curvature_array(alg, X, Y)
    assert R.shape == (4, 3, alg.n, alg.n)
    assert np.array_equal(R, -np.swapaxes(R, -1, -2))
    for idx in np.ndindex(4, 3):
        want = curvature(alg, X[idx], Y[idx]).matrix
        assert np.max(np.abs(R[idx] - want)) <= 1e-13


def test_abelian_curvature_zero():
    alg = rn(4)
    X, Y = rng.normal(size=4), rng.normal(size=4)
    assert np.all(curvature(alg, X, Y).matrix == 0.0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hn_constant_curvature(n):
    l = rng.normal(size=n)
    alg = hn(n, l)
    target = -float(l @ l)
    for _ in range(80):
        X, Y = rng.normal(size=n), rng.normal(size=n)
        K = sectional_curvature(alg, X, Y)
        assert abs(K - target) <= 1e-10 * max(1.0, abs(target))


def test_s3_unit_curvature_against_cross_product_oracle():
    alg = s3()
    e = np.eye(3)
    # independent oracle: evaluate R(X,Y) = [G(X),G(Y)] - G([X,Y]) with
    # G(X) = X x . and bracket 2 X x Y, all through np.cross
    def oracle(X, Y, Z):
        gX = lambda v: np.cross(X, v)
        gY = lambda v: np.cross(Y, v)
        return gX(gY(Z)) - gY(gX(Z)) - np.cross(2 * np.cross(X, Y), Z)
    for i, j in ((0, 1), (1, 2), (0, 2)):
        got = curvature(alg, e[i], e[j])(e[j])
        assert np.max(np.abs(got - oracle(e[i], e[j], e[j]))) <= 1e-12
        assert abs(sectional_curvature(alg, e[i], e[j]) - 1.0) <= 1e-10
    for _ in range(80):
        X, Y = rng.normal(size=3), rng.normal(size=3)
        assert abs(sectional_curvature(alg, X, Y) - 1.0) <= 1e-10


def test_sectional_rejects_degenerate_plane():
    with pytest.raises(ValueError):
        sectional_curvature(s3(), np.array([1.0, 0, 0]), np.array([2.0, 0, 0]))


# =============================================================================
# Bivector bridge and serialization
# =============================================================================

@pytest.mark.parametrize("alg", ALL_ALGEBRAS, ids=lambda a: f"{a.catalog_tag}{a.n}")
def test_gamma_bivector_commutator_action(alg):
    for _ in range(40):
        X, Y = rng.normal(size=alg.n), rng.normal(size=alg.n)
        biv = gamma_as_bivector(alg, X)
        got = commutator(biv, Multivector.from_vector(Y)).vector()
        assert np.max(np.abs(got - alg.connection(X, Y))) <= 1e-10


def test_s3_gamma_bivector_matches_triple_product_form():
    alg = s3()
    vol = Multivector.blade(3, 0b111)
    for _ in range(40):
        X = rng.normal(size=3)
        want = -(Multivector.from_vector(X) * vol)
        assert gamma_as_bivector(alg, X).allclose(want.grade(2), tol=1e-12)
        # the product -X * e123 is already a pure bivector
        assert want.allclose(want.grade(2), tol=0.0)


@pytest.mark.parametrize("alg", ALL_ALGEBRAS, ids=lambda a: f"{a.catalog_tag}{a.n}")
def test_json_roundtrip_exact(alg):
    blob = json.dumps(algebra_to_dict(alg))
    back = algebra_from_dict(json.loads(blob))
    assert np.array_equal(back.c, alg.c)
    assert np.array_equal(back.gamma, alg.gamma)
    assert back.catalog_tag == alg.catalog_tag


def test_catalog_build_dispatch():
    assert catalog_build("Sol3").catalog_tag == "Sol3"
    assert catalog_build("Hn", {"n": 3}).n == 3
    # [e2, e3] = sigma e1 with sigma = kappa / (2 tau)
    ekt = catalog_build("EKappaTau", {"kappa": 4.0, "tau": 1.0})
    assert ekt.c[1, 2, 0] == 2.0
    with pytest.raises(ValueError):
        catalog_build("nope")


def test_koszul_recomputation_idempotent():
    for alg in ALL_ALGEBRAS:
        assert np.array_equal(koszul_connection(alg), alg.gamma)


# =============================================================================
# Broadcasting, dimension and overflow gates, catalog defaults
# =============================================================================

@pytest.mark.parametrize("alg", ALL_ALGEBRAS, ids=lambda a: f"{a.catalog_tag}{a.n}")
def test_bracket_and_connection_broadcast(alg):
    X = rng.normal(size=(4, 1, alg.n))
    Y = rng.normal(size=(1, 5, alg.n))
    for op in (alg.bracket, alg.connection):
        field = op(X, Y)
        assert field.shape == (4, 5, alg.n)
        for a, b in np.ndindex(4, 5):
            assert np.max(np.abs(field[a, b] - op(X[a, 0], Y[0, b]))) <= 1e-14


@pytest.mark.parametrize("alg", ALL_ALGEBRAS, ids=lambda a: f"{a.catalog_tag}{a.n}")
def test_basis_pair_torsion_matches_the_pairwise_loop(alg):
    eye = np.eye(alg.n)
    loop = max(float(np.max(np.abs(torsion_residual(alg, eye[i], eye[j]))))
               for i in range(alg.n) for j in range(alg.n))
    pairs = float(np.max(np.abs(torsion_residual(alg, eye[:, None],
                                                 eye[None, :]))))
    assert pairs == loop


@pytest.mark.parametrize("build", [rn, hn], ids=["rn", "hn"])
@pytest.mark.parametrize("n", [0, -1, 9])
def test_dimension_outside_one_to_eight_rejected(build, n):
    with pytest.raises(ValueError, match="dimension must be 1..8"):
        build(n)


def test_overflowing_jacobi_residual_rejected():
    # sigma = kappa / (2 tau) is finite, but c * c overflows to a NaN residual
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="Jacobi"):
        e_kappa_tau(5.0, 1e-300)


@pytest.mark.parametrize("tag,params", [
    ("Rn", {"n": 3.7}), ("Rn", {"n": True}), ("Hn", {"n": "3"}),
    ("Hn", {"n": 3, "l": ["0", "0", "1"]}), ("Hn", {"n": 3, "l": True}),
    ("EKappaTau", {"kappa": "-1", "tau": 0.5}),
    ("EKappaTau", {"kappa": -1.0, "tau": [0.5]}),
    ("SemiDirect", {"A": [[1, 0], [0, True]]}), ("SemiDirect", {"A": "1001"}),
    ("Unimodular", {"mu": "123"}), ("Unimodular", {"mu": [1, 2, False]}),
])
def test_catalog_params_are_not_coerced(tag, params):
    with pytest.raises(ValueError, match="params"):
        catalog_build(tag, params)


@pytest.mark.parametrize("tag,params,n", [
    ("Rn", {"n": 3.0}, 3), ("Hn", {"n": 4.0, "l": [0, 0, 0, 2]}, 4),
    ("Unimodular", {"mu": [1, 2, 3]}, 3),
    ("SemiDirect", {"A": [[1, 0], [0, -1]]}, 3),
])
def test_catalog_params_take_integral_and_real_numbers(tag, params, n):
    assert catalog_build(tag, params).n == n


@pytest.mark.parametrize("tag", sorted(CATALOG))
def test_catalog_defaults_build(tag):
    builder, defaults = CATALOG[tag]
    assert catalog_build(tag, defaults).catalog_tag == tag


@pytest.mark.parametrize("c,match", [
    ([[["0"]]], "it holds strings"), ([[[False]]], "it holds booleans"),
    ([[[None]]], "it holds non-numbers"),
    ([[[0.0, 0.0]], [[0.0]]], ""),      # numpy words the ragged case itself
], ids=["strings", "booleans", "none", "ragged"])
def test_structure_constants_of_a_blob_are_not_coerced(c, match):
    with pytest.raises(ValueError, match="c is not a numeric array: " + match):
        algebra_from_dict({"tag": "x", "c": c})


def test_structure_constants_of_a_blob_take_integers_and_floats():
    assert algebra_from_dict({"tag": "x", "c": [[[0]]]}).n == 1
    assert algebra_from_dict({"tag": "x", "c": [[[0.0]]]}).n == 1


def former_unimodular_gamma_matrix(mus, Xs):
    """Stacked Gamma(X) matrices of the unimodular family, straight from the
    diagonalized form (used as the construction-time cross-check)."""
    Xs = np.atleast_2d(np.asarray(Xs, float))
    out = np.zeros((Xs.shape[0], 3, 3))
    for r, X in enumerate(Xs):
        m = np.zeros((3, 3))
        m[2, 1] = X[0] * mus[0]
        m[1, 2] = -m[2, 1]
        m[0, 2] = X[1] * mus[1]
        m[2, 0] = -m[0, 2]
        m[1, 0] = X[2] * mus[2]
        m[0, 1] = -m[1, 0]
        out[r] = m
    return out


def test_unimodular_koszul_connection_is_the_milnor_form():
    # the recipe of test_unimodular_builds_for_any_mu_up_to_a_million, on a
    # generator of its own, and the extreme mu that cancel in c
    draw = np.random.default_rng(1609)
    mus = draw.choice([-1.0, 1.0], size=(200, 3)) * 10.0 ** draw.uniform(
        -3.0, 6.0, size=(200, 3))
    for mu in [(123.456, 789.012, 345.678), (1e5 + 0.1, 3.3, 7.7), *mus,
               (1e16, 1.0, -1e16)]:
        mu = tuple(float(m) for m in mu)
        got = unimodular(*mu).gamma_op(np.eye(3))
        want = former_unimodular_gamma_matrix(mu, np.eye(3))
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, *map(abs, mu))
