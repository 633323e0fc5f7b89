"""Clifford algebra core: products, reversal, pairing, operator dictionaries.

The oracle for blade products is an independent symbol-pusher: blades are
kept as explicit generator index lists and reduced by bubble-sorting with
anticommutation signs plus e_i * e_i = -1 eliminations.  It shares no code
with the popcount sign table it checks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorforge import clifford
from spinorforge.clifford import (
    EVEN, ODD, Multivector, SpinElement, SkewOperator, OffDiagOperator,
    adjoint_action, adjoint_array, adjoint_even, bivector_array,
    _canonical_sign_array, bivector_of_offdiag, bivector_of_skew,
    blade_tables, commutator, cosh_sinhc, exp_array, gp_array, gp_blades,
    grade_indices, non_grade_norm, offdiag_skew_array, parity_blades,
    reverse_array, spin_bracket, spin_lift, spin_lift_array, spin_lift_even,
    to_even, vector_array, vector_part_array, worst_node,
)

from spinorforge.cli import SURFACE_FIXTURES
from spinorforge.spinor import spinor_of_immersion

from oracles import (bivector_exp_array, dense_row_gp, givens_lift_full,
                     skew_of_bivector, sparse_closed_form_adjoint,
                     sparse_closed_form_inverse)

rng = np.random.default_rng(20240611)


def max_abs(a):
    """The largest coefficient magnitude of a multivector."""
    return float(np.max(np.abs(a.coeffs)))


# =============================================================================
# Oracle: blade product by explicit generator-list reduction
# =============================================================================

def oracle_blade_product(i, j, n):
    """(sign, index) of blade_i * blade_j, reduced symbolically."""
    gens = [g for g in range(n) if i >> g & 1] + \
           [g for g in range(n) if j >> g & 1]
    sign = 1
    # bubble sort with anticommutation, then cancel adjacent equal pairs
    changed = True
    while changed:
        changed = False
        k = 0
        while k < len(gens) - 1:
            if gens[k] == gens[k + 1]:
                sign *= -1          # e_g * e_g = -1
                del gens[k:k + 2]
                changed = True
            elif gens[k] > gens[k + 1]:
                sign *= -1          # anticommute
                gens[k], gens[k + 1] = gens[k + 1], gens[k]
                changed = True
            else:
                k += 1
    idx = 0
    for g in gens:
        idx |= 1 << g
    return sign, idx


def oracle_gp(a, b):
    """Geometric product through the symbolic oracle only."""
    n = a.n
    out = np.zeros(1 << n)
    for i, ca in enumerate(a.coeffs):
        if ca == 0.0:
            continue
        for j, cb in enumerate(b.coeffs):
            if cb == 0.0:
                continue
            s, k = oracle_blade_product(i, j, n)
            out[k] += s * ca * cb
    return Multivector(n, out)


def random_mv(n, scale=1.0):
    return Multivector(n, rng.normal(scale=scale, size=1 << n))


def random_vector_mv(n):
    return Multivector.from_vector(rng.normal(size=n))


def random_spin(n):
    """Random spin element: exponential of a random bivector."""
    m = rng.normal(size=(n, n))
    biv = bivector_of_skew(m - m.T)
    return SpinElement(Multivector(n, exp_array(biv.coeffs, n)), tol=1e-9)


# =============================================================================
# Geometric product
# =============================================================================

def test_sign_table_matches_symbolic_oracle_everywhere():
    for n in (1, 2, 3, 4, 5):
        signs, _ = blade_tables(n)
        for i in range(1 << n):
            for j in range(1 << n):
                s, k = oracle_blade_product(i, j, n)
                assert k == i ^ j
                assert signs[i, j] == s, (n, i, j)


def loop_blade_tables(n):
    """blade_tables before it was vectorized, verbatim: one Python loop per
    (i, j, g)."""
    dim = 1 << n
    grades = np.array([bin(int(i)).count("1") for i in range(dim)],
                      dtype=np.int64)
    signs = np.empty((dim, dim), dtype=np.int8)
    for i in range(dim):
        for j in range(dim):
            swaps = 0
            for g in range(n):
                if j >> g & 1:
                    swaps += bin(i >> (g + 1)).count("1")
            swaps += bin(i & j).count("1")  # e_g * e_g = -1 per shared bit
            signs[i, j] = -1 if swaps & 1 else 1
    return signs, grades


@pytest.mark.parametrize("n", [6, 7, 8])
def test_sign_table_matches_the_former_loop_beyond_the_oracle(n):
    # the symbolic oracle above stops at n = 5
    signs, grades = blade_tables(n)
    want_signs, want_grades = loop_blade_tables(n)
    assert signs.dtype == want_signs.dtype
    assert grades.dtype == want_grades.dtype
    assert np.array_equal(signs, want_signs)
    assert np.array_equal(grades, want_grades)


def test_generator_square_is_minus_one():
    e1 = Multivector.basis_vector(3, 0)
    assert (e1 * e1).allclose(Multivector.scalar(3, -1.0))


def test_unit_is_neutral():
    one = Multivector.scalar(4, 1.0)
    for _ in range(20):
        a = random_mv(4)
        assert (one * a).allclose(a)
        assert (a * one).allclose(a)


def test_anticommutator_of_vectors():
    # X*Y + Y*X = -2 <X, Y> exactly on basis combinations
    for n in (2, 3, 4):
        for i in range(n):
            for j in range(n):
                x = Multivector.basis_vector(n, i)
                y = Multivector.basis_vector(n, j)
                lhs = x * y + y * x
                rhs = Multivector.scalar(n, -2.0 if i == j else 0.0)
                assert lhs.allclose(rhs, tol=0.0)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_associativity_against_oracle(n):
    for _ in range(170):
        a, b, c = random_mv(n), random_mv(n), random_mv(n)
        left = (a * b) * c
        right = a * (b * c)
        assert left.allclose(right, tol=1e-10 * max(1.0, max_abs(left)))
        assert (a * b).allclose(oracle_gp(a, b), tol=1e-10)


def test_bilinearity():
    n = 4
    a, b, c = random_mv(n), random_mv(n), random_mv(n)
    lam = 0.731
    assert ((a + lam * b) * c).allclose(a * c + lam * (b * c), tol=1e-10)
    assert (c * (a + lam * b)).allclose(c * a + lam * (c * b), tol=1e-10)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        random_mv(3) * random_mv(4)


# =============================================================================
# Reversal
# =============================================================================

def test_reversal_fixed_points_and_bivector():
    one = Multivector.scalar(3, 1.0)
    assert one.reversal().allclose(one)
    e12 = Multivector.blade(3, 0b011)
    assert e12.reversal().allclose(-e12)


def oracle_reversal(a):
    """Reversal through explicit product reversal of each blade's generators."""
    n = a.n
    out = np.zeros(1 << n)
    for i, c in enumerate(a.coeffs):
        if c == 0.0:
            continue
        gens = [g for g in range(n) if i >> g & 1]
        # multiply the reversed generator list back together
        sign, idx = 1, 0
        for g in reversed(gens):
            s2, idx = oracle_blade_product(idx, 1 << g, n)
            sign *= s2
        out[idx] += sign * c
    return Multivector(n, out)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_reversal_involution_and_antiautomorphism(n):
    for _ in range(125):
        a, b = random_mv(n), random_mv(n)
        assert a.reversal().reversal().allclose(a, tol=0.0)
        assert (a * b).reversal().allclose(b.reversal() * a.reversal(), tol=1e-10)
        assert a.reversal().allclose(oracle_reversal(a), tol=0.0)


@pytest.mark.parametrize("n", [3, 4])
def test_reverse_of_exp_array_is_exp_of_negated_bivector(n):
    # rev(exp(b)) = exp(-b) for bivector fields b: the identity behind the
    # inverse edge operators of the spinor transport
    b = np.zeros((9, 7, 1 << n))
    idx = grade_indices(n, 2)
    b[..., idx] = rng.normal(size=(9, 7, len(idx)))
    got = reverse_array(exp_array(b, n), n)
    assert np.max(np.abs(got - exp_array(-b, n))) <= 1e-14


# =============================================================================
# Closed-form bivector exponential
# =============================================================================

def random_bivector_field(n, shape, max_norm):
    """Bivector fields whose Euclidean coefficient norm is uniform in
    [0, max_norm]."""
    idx = grade_indices(n, 2)
    b = rng.normal(size=shape + (len(idx),))
    b *= rng.uniform(0.0, max_norm, size=shape + (1,)) \
        / np.linalg.norm(b, axis=-1, keepdims=True)
    out = np.zeros(shape + (1 << n,))
    out[..., idx] = b
    return out


def unit_defect(g, n):
    unit = gp_array(reverse_array(g, n), g, n)
    unit[..., 0] -= 1.0
    return np.max(np.abs(unit))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bivector_exp_matches_the_series(n):
    idx = grade_indices(n, 2)
    small = np.zeros((40, 30, 1 << n))
    small[..., idx] = rng.uniform(-0.1, 0.1, size=(40, 30, len(idx)))
    assert np.max(np.abs(bivector_exp_array(small, n)
                         - exp_array(small, n))) <= 1e-14
    # one field at a time: exp_array scales by the field's largest entry
    for b in random_bivector_field(n, (20, 50), 3.0):
        assert np.max(np.abs(bivector_exp_array(b, n)
                             - exp_array(b, n))) <= 1e-13


@pytest.mark.parametrize("n", [2, 3, 4])
def test_adjoint_of_bivector_exp_is_the_rotation_exponential(n):
    # [b, x] = U x for b = bivector_of_skew(U), so Ad(exp b) = expm(2U)
    from scipy.linalg import expm
    for _ in range(30):
        m = rng.normal(size=(n, n))
        U = m - m.T
        U *= rng.uniform(0.0, 3.0) / np.linalg.norm(U)
        want = expm(2.0 * U)
        b = bivector_of_skew(U).coeffs
        for g in (bivector_exp_array(b, n), exp_array(b, n)):
            got, impurity = adjoint_array(g, n)
            assert np.max(np.abs(got - want)) <= 1e-12
            assert impurity <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bivector_exp_is_unit(n):
    g = bivector_exp_array(random_bivector_field(n, (60, 40), 3.0), n)
    assert unit_defect(g, n) <= 2e-15


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bivector_exp_of_zero_is_one(n):
    one = np.zeros((5, 1 << n))
    one[:, 0] = 1.0
    assert np.array_equal(bivector_exp_array(np.zeros((5, 1 << n)), n), one)


def test_bivector_exp_of_a_tiny_bivector():
    for n in (3, 4):
        b = random_bivector_field(n, (50,), 1.0)
        b *= 1e-9 / np.linalg.norm(b, axis=-1, keepdims=True)
        got = bivector_exp_array(b, n)
        assert np.max(np.abs(got - exp_array(b, n))) <= 1e-16
        assert np.max(np.abs(got[:, 1:] - b[:, 1:])) <= 1e-24


def test_bivector_exp_of_a_simple_bivector_in_four_dimensions():
    # b = 0.7 e12 + 0.3 e13 + 0.4 e14 = e1 (0.7 e2 + 0.3 e3 + 0.4 e4) is
    # simple: b^2 = -|b|^2 has no e1234 part (p = 0)
    b = np.zeros(16)
    b[[0b0011, 0b0101, 0b1001]] = [0.7, 0.3, 0.4]
    got = bivector_exp_array(b, 4)
    t = np.sqrt(0.74)
    want = np.sin(t) / t * b
    want[0] = np.cos(t)
    assert got[0b1111] == 0.0
    assert np.max(np.abs(got - want)) <= 1e-16
    assert np.max(np.abs(got - exp_array(b, 4))) <= 1e-14


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_bivector_exp_of_isoclinic_bivectors(sign):
    # b = theta (e12 +- e34): e12 and e34 commute, so exp b is the product
    # of two plane rotors, and one of s +- p vanishes
    for theta in (0.0, 1e-9, 0.3, 1.0, 2.5):
        b12 = np.zeros(16)
        b12[0b0011] = theta
        b34 = np.zeros(16)
        b34[0b1100] = sign * theta
        got = bivector_exp_array(b12 + b34, 4)
        want = gp_array(bivector_exp_array(b12, 4),
                        bivector_exp_array(b34, 4), 4)
        assert np.max(np.abs(got - want)) <= 1e-15
        assert np.max(np.abs(got - exp_array(b12 + b34, 4))) <= 1e-14
        assert unit_defect(got, 4) <= 2e-15


def test_bivector_exp_in_one_dimension_is_one():
    assert np.array_equal(bivector_exp_array(np.array([0.0, 0.0]), 1),
                          np.array([1.0, 0.0]))


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_bivector_exp_from_five_dimensions_is_the_series(n, gp_calls):
    """The even-layout series is exp_array's bit for bit, with no squaring
    at max-norm 0.5 and with the 7 that max-norm 40 takes."""
    large = random_bivector_field(n, (4, 3), 2.0)
    large[1, 2, grade_indices(n, 2)[-1]] = -40.0
    for b, squarings in [(random_bivector_field(n, (4, 3), 0.5), 0),
                         (large, 7)]:
        gp_calls.clear()
        got = bivector_exp_array(b, n)
        assert len(gp_calls) == 18 + squarings
        assert np.array_equal(got, exp_array(b, n))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_series_of_a_non_finite_field_is_non_finite_at_its_node(value):
    """A field with a non-finite node is not scaled (log2 of inf has no
    ceiling), and the series is non-finite at that node alone."""
    b = random_bivector_field(5, (3, 4), 2.0)
    b[2, 1, grade_indices(5, 2)[3]] = value
    finite = np.all(np.isfinite(bivector_exp_array(b, 5)), axis=-1)
    assert np.flatnonzero(~finite).tolist() == [2 * 4 + 1]


@pytest.mark.parametrize("m", [5e307, 1.5e308])
def test_series_scales_a_finite_max_norm_past_two_to_the_1023(m):
    """2**s for s >= 1024 is no float; the scaling 2**-s of max-norm m,
    at most 2**-1025, is."""
    b = np.zeros(32)
    b[grade_indices(5, 2)[3]] = m
    assert np.all(np.isfinite(bivector_exp_array(b, 5)))


def former_cos_sinc(lam):
    """The rotor kernel cosh_sinhc replaced, verbatim."""
    t = np.sqrt(-np.minimum(lam, 0.0))
    return np.cos(t), np.divide(np.sin(t), t, out=np.ones_like(t),
                                where=t > 0)


def former_cosh_sinhc(q):
    """The 2x2 exponential kernel cosh_sinhc replaced, verbatim."""
    q = np.asarray(q, float)
    r = np.sqrt(np.abs(q))
    pos = q >= 0
    c = np.where(pos, np.cosh(r), np.cos(r))
    s = np.where(pos, np.sinh(r), np.sin(r))
    return c, np.divide(s, r, out=np.ones_like(r), where=r > 0)


def test_cosh_sinhc_is_the_two_kernels_it_replaces():
    q = np.concatenate([-rng.uniform(0.0, 60.0, 300),
                        rng.uniform(0.0, 60.0, 300),
                        [0.0, -1e-300, 1e-300, -1e-20, 1e-20, -700.0 ** 2]])
    got = cosh_sinhc(q)
    for g, w in zip(got, former_cosh_sinhc(q)):
        assert np.array_equal(g, w)
    neg = q <= 0
    for g, w in zip(got, former_cos_sinc(q[neg])):
        assert np.array_equal(g[neg], w)
    c, s = cosh_sinhc(2.25)
    assert (c, s) == (np.cosh(1.5), np.sinh(1.5) / 1.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cosh_sinhc_takes_no_hyperbolic_function_of_a_negative_q():
    # sqrt(-q) = 1e3: cosh would overflow; cos and sin are all that is used
    c, s = cosh_sinhc(np.array([-1e6, -1.0]))
    assert np.array_equal(c, np.cos([1e3, 1.0]))
    assert np.array_equal(s, np.sin([1e3, 1.0]) / [1e3, 1.0])


# =============================================================================
# Pairing << , >>
# =============================================================================

def test_pairing_identity():
    one = Multivector.scalar(3, 1.0)
    assert spin_bracket(one, one).allclose(one)


def test_pairing_symmetry_and_vector_self_adjointness():
    n = 4
    for _ in range(50):
        phi, psi = random_mv(n), random_mv(n)
        x = random_vector_mv(n)
        lhs = spin_bracket(phi, psi)
        rhs = spin_bracket(psi, phi).reversal()
        assert lhs.allclose(rhs, tol=1e-10)
        assert spin_bracket(x * phi, psi).allclose(
            spin_bracket(phi, x * psi), tol=1e-9)


@pytest.mark.parametrize("n", [3, 4])
def test_pairing_spin_invariance(n):
    for _ in range(100):
        g = random_spin(n)
        phi, psi = random_mv(n), random_mv(n)
        lhs = spin_bracket(g.value * phi, g.value * psi)
        assert lhs.allclose(spin_bracket(phi, psi), tol=1e-8)


def test_spin_unitarity():
    for n in (3, 4, 5):
        g = random_spin(n)
        assert spin_bracket(g.value, g.value).allclose(
            Multivector.scalar(n, 1.0), tol=1e-9)


# =============================================================================
# Skew operators <-> bivectors (the operator dictionary)
# =============================================================================

def random_skew(n):
    m = rng.normal(size=(n, n))
    return SkewOperator(m - m.T)


def test_rotation_generator_bivector():
    u = SkewOperator([[0.0, -1.0], [1.0, 0.0]])  # e1 -> e2, e2 -> -e1
    assert bivector_of_skew(u).allclose(Multivector.blade(2, 0b11))


def test_zero_skew_maps_to_zero():
    assert bivector_of_skew(np.zeros((4, 4))).allclose(
        Multivector.scalar(4, 0.0))


def test_non_antisymmetric_rejected():
    with pytest.raises(ValueError):
        SkewOperator(np.eye(3))
    # bivector_of_skew judges a matrix as SkewOperator does, in its words
    for m in (np.eye(3), np.zeros((2, 3)), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError) as want:
            SkewOperator(m)
        with pytest.raises(ValueError) as got:
            bivector_of_skew(m)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_skew_commutator_action(n):
    # [biv(u), x] = u(x) on vectors, 500 random instances total
    for _ in range(170):
        u = random_skew(n)
        biv = bivector_of_skew(u)
        x = rng.normal(size=n)
        lhs = commutator(biv, Multivector.from_vector(x)).vector()
        assert np.max(np.abs(lhs - u(x))) <= 1e-10


@pytest.mark.parametrize("n", [3, 4, 5])
def test_commutator_represents_operator_commutator(n):
    for _ in range(170):
        u, v = random_skew(n), random_skew(n)
        lhs = commutator(bivector_of_skew(u), bivector_of_skew(v))
        rhs = bivector_of_skew(u.matrix @ v.matrix - v.matrix @ u.matrix)
        assert lhs.allclose(rhs, tol=1e-10)


def test_commutator_alternating_and_jacobi():
    n = 4
    for _ in range(60):
        a = bivector_of_skew(random_skew(n))
        b = bivector_of_skew(random_skew(n))
        c = bivector_of_skew(random_skew(n))
        assert commutator(a, a).allclose(Multivector.scalar(n, 0.0), tol=0.0)
        jac = commutator(commutator(a, b), c) + \
            commutator(commutator(b, c), a) + \
            commutator(commutator(c, a), b)
        assert jac.allclose(Multivector.scalar(n, 0.0), tol=1e-10)


def test_skew_of_bivector_roundtrip():
    for _ in range(20):
        u = random_skew(5)
        assert np.allclose(skew_of_bivector(bivector_of_skew(u)), u.matrix)


def loop_bivector_of_skew(m):
    """Reference: one node, the double loop over the pairs j < k."""
    n = m.shape[0]
    c = np.zeros(1 << n)
    for j in range(n):
        for k in range(j + 1, n):
            c[(1 << j) | (1 << k)] = m[k, j]
    return c


def loop_bivector_of_offdiag(u, p, q):
    """Reference: one node, sum_{j<=p} e_j u(e_j) coefficient by coefficient."""
    c = np.zeros(1 << (p + q))
    for j in range(p):
        for r in range(q):
            c[(1 << j) | (1 << (p + r))] = u[r, j]
    return c


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_bivector_field_kernel_matches_node_loops(n):
    # the field kernel and the scalar wrappers over it reproduce the
    # per-node loops exactly: both are pure gathers
    m = rng.normal(size=(4, 5, n, n))
    m = m - np.swapaxes(m, -1, -2)
    field = bivector_array(m)
    for p in range(1, n):
        q = n - p
        u = rng.normal(size=(4, 5, q, p))
        off = bivector_array(offdiag_skew_array(u))
        for idx in np.ndindex(4, 5):
            want = loop_bivector_of_offdiag(u[idx], p, q)
            assert np.array_equal(off[idx], want)
            got = bivector_of_offdiag(OffDiagOperator(p, q, u[idx])).coeffs
            assert np.array_equal(got, want)
    for idx in np.ndindex(4, 5):
        want = loop_bivector_of_skew(m[idx])
        assert np.array_equal(field[idx], want)
        biv = bivector_of_skew(m[idx])
        assert np.array_equal(biv.coeffs, want)
        assert np.array_equal(skew_of_bivector(biv), m[idx])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_adjoint_field_kernel_matches_node_action(n):
    g = np.array([[random_spin(n).value.coeffs for _ in range(5)]
                  for _ in range(4)])
    mats, impurity = adjoint_array(g, n)
    assert impurity <= 1e-12
    for idx in np.ndindex(4, 5):
        a = SpinElement(Multivector(n, g[idx]), tol=1e-9)
        want = np.column_stack([
            adjoint_action(a, Multivector.basis_vector(n, k)).vector()
            for k in range(n)])
        assert np.max(np.abs(mats[idx] - want)) <= 1e-14
        assert np.array_equal(a.adjoint_matrix(), mats[idx])
    # odd coefficients are not read but count as impurity
    g[1, 2, grade_indices(n, 1)[0]] = -3e-6
    assert adjoint_array(g, n)[1] == 3e-6


# =============================================================================
# Off-diagonal operators
# =============================================================================

def test_offdiag_zero():
    u = OffDiagOperator(2, 2, np.zeros((2, 2)))
    assert bivector_of_offdiag(u).allclose(Multivector.scalar(4, 0.0))


def test_offdiag_shape_rejected():
    with pytest.raises(ValueError):
        OffDiagOperator(2, 1, np.zeros((2, 2)))


def test_offdiag_two_dimensional_hand_case():
    # p = q = 1, u = [1]: bivector e1*e2 with [u, e1] = e2, [u, e2] = -e1
    u = OffDiagOperator(1, 1, [[1.0]])
    biv = bivector_of_offdiag(u)
    assert biv.allclose(Multivector.blade(2, 0b11))
    e1, e2 = Multivector.basis_vector(2, 0), Multivector.basis_vector(2, 1)
    assert commutator(biv, e1).allclose(e2)
    assert commutator(biv, e2).allclose(-e1)


@pytest.mark.parametrize("p,q", [(2, 1), (2, 2), (3, 2)])
def test_offdiag_commutator_action(p, q):
    n = p + q
    for _ in range(170):
        u = OffDiagOperator(p, q, rng.normal(size=(q, p)))
        biv = bivector_of_offdiag(u)
        xi = rng.normal(size=n)
        lhs = commutator(biv, Multivector.from_vector(xi)).vector()
        rhs = np.zeros(n)
        rhs[p:] = u.matrix @ xi[:p]
        rhs[:p] = -(u.matrix.T @ xi[p:])
        assert np.max(np.abs(lhs - rhs)) <= 1e-10
        # consistency with the block-matrix picture
        assert np.allclose(skew_of_bivector(biv), u.full_matrix())


@pytest.mark.parametrize("p,q", [(2, 1), (2, 2), (3, 2)])
def test_offdiag_mixed_commutator(p, q):
    # [biv(u), biv(v)] acts as -u*(v(x)_q) + v(u*(x_q)) + u(v(x)_p) - v(u(x_p))
    n = p + q
    for _ in range(170):
        u = OffDiagOperator(p, q, rng.normal(size=(q, p)))
        v = random_skew(n)
        biv = commutator(bivector_of_offdiag(u), bivector_of_skew(v))
        xi = rng.normal(size=n)
        vx = v(xi)
        u_star_xi_q = np.concatenate([u.matrix.T @ xi[p:], np.zeros(q)])
        u_xi_p = np.concatenate([np.zeros(p), u.matrix @ xi[:p]])
        want = -np.concatenate([u.matrix.T @ vx[p:], np.zeros(q)]) \
            + v(u_star_xi_q) \
            + np.concatenate([np.zeros(p), u.matrix @ vx[:p]]) \
            - v(u_xi_p)
        lhs = commutator(biv, Multivector.from_vector(xi)).vector()
        assert np.max(np.abs(lhs - want)) <= 1e-10


# =============================================================================
# Adjoint action and spin lift
# =============================================================================

def test_adjoint_identity():
    a = SpinElement.identity(3)
    x = random_vector_mv(3)
    assert adjoint_action(a, x).allclose(x)


def test_adjoint_rotation_matches_rotation_matrix():
    n = 3
    for theta in rng.uniform(-np.pi, np.pi, size=12):
        a = SpinElement(Multivector.scalar(n, np.cos(theta / 2)) +
                        Multivector.blade(n, 0b011, np.sin(theta / 2)))
        got = adjoint_action(a, Multivector.basis_vector(n, 0)).vector()
        want = np.array([np.cos(theta), np.sin(theta), 0.0])
        assert np.max(np.abs(got - want)) <= 1e-12


def test_adjoint_norm_preservation():
    for n in (3, 4, 5):
        for _ in range(170):
            a = random_spin(n)
            x = rng.normal(size=n)
            y = adjoint_action(a, Multivector.from_vector(x)).vector()
            assert abs(np.linalg.norm(y) - np.linalg.norm(x)) <= 1e-9


def test_adjoint_rejects_non_unit():
    bad = Multivector.scalar(3, 2.0)
    with pytest.raises(ValueError):
        adjoint_action(bad, Multivector.basis_vector(3, 0))


def random_so(n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return q


def test_spin_lift_identity():
    a = spin_lift(np.eye(4))
    assert a.value.allclose(Multivector.scalar(4, 1.0))


def test_spin_lift_quarter_turn():
    T = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    a = spin_lift(T)
    want = Multivector.scalar(3, np.cos(np.pi / 4)) + \
        Multivector.blade(3, 0b011, np.sin(np.pi / 4))
    assert a.value.allclose(want, tol=1e-12) or a.value.allclose(-want, tol=1e-12)
    # round trip through the adjoint action
    assert np.max(np.abs(a.adjoint_matrix() - T)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_spin_lift_roundtrip_random(n):
    for _ in range(50):
        T = random_so(n)
        a = spin_lift(T)
        assert np.max(np.abs(a.adjoint_matrix() - T)) <= 1e-8


def test_spin_lift_rejects_reflections_and_non_orthogonal():
    T = np.eye(3)
    T[0, 0] = -1.0
    with pytest.raises(ValueError):
        spin_lift(T)
    with pytest.raises(ValueError):
        spin_lift(np.eye(3) * 1.5)


def reference_givens_factor(T, tol):
    """The per-node Givens factorization the array lift replaced, verbatim."""
    n = T.shape[0]
    work = T.copy()
    undo = []  # rotations applied to the left of `work`
    for j in range(n - 1):
        for i in range(n - 1, j, -1):
            a, b = work[i - 1, j], work[i, j]
            r = math.hypot(a, b)
            if r <= tol:
                continue
            c, s = a / r, b / r
            # rotate rows (i-1, i) so that work[i, j] -> 0
            rows = work[[i - 1, i], :].copy()
            work[i - 1, :] = c * rows[0] + s * rows[1]
            work[i, :] = -s * rows[0] + c * rows[1]
            undo.append((i - 1, i, math.atan2(b, a)))
    if np.max(np.abs(work - np.eye(n))) > 1e-8:
        raise ValueError("Givens factorization failed; input not special "
                         "orthogonal within tolerance")
    return undo


def reference_canonical_sign(a):
    s = a.coeffs[0]
    if s < 0:
        return -a
    if s == 0:
        for c in a.coeffs[1:]:
            if c != 0:
                return a if c > 0 else -a
    return a


def reference_spin_lift(T):
    """Coefficients of the per-node lift the array lift replaced."""
    n = T.shape[0]
    a = Multivector.scalar(n, 1.0)
    for (p, q, th) in reference_givens_factor(T, tol=1e-300):
        rotor = Multivector.scalar(n, math.cos(th / 2)) + \
            Multivector.blade(n, (1 << p) | (1 << q), math.sin(th / 2))
        a = a * rotor
    return reference_canonical_sign(a).coeffs


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_spin_lift_array_matches_node_reference(n):
    Ts = np.array([random_so(n) for _ in range(50)])
    want = np.array([reference_spin_lift(T) for T in Ts])
    assert np.max(np.abs(spin_lift_array(Ts) - want)) <= 1e-14
    assert np.max(np.abs(np.array([spin_lift(T).value.coeffs for T in Ts])
                         - want)) <= 1e-14
    field = Ts[:20].reshape(4, 5, n, n)
    assert np.max(np.abs(spin_lift_array(field)
                         - want[:20].reshape(4, 5, -1))) <= 1e-14
    assert np.array_equal(spin_lift_array(np.eye(n)),
                          reference_spin_lift(np.eye(n)))


@pytest.mark.parametrize("diag", [(-1, -1, 1), (-1, -1, -1, -1)])
def test_spin_lift_array_half_turns(diag):
    T = np.diag(np.array(diag, dtype=float))
    a = spin_lift_array(T)
    assert np.max(np.abs(a - reference_spin_lift(T))) <= 1e-14
    assert np.max(np.abs(spin_lift(T).adjoint_matrix() - T)) <= 1e-14


def test_canonical_sign_matches_reference_on_ties():
    for _ in range(50):
        c = rng.normal(size=16)
        c[:rng.integers(0, 17)] = 0.0
        a = Multivector(4, c)
        assert np.array_equal(_canonical_sign_array(a.coeffs),
                              reference_canonical_sign(a).coeffs)


@pytest.mark.parametrize("bad", ["reflection", "nan"])
def test_spin_lift_array_rejects_one_bad_node(bad):
    field = np.array([random_so(3) for _ in range(6)]).reshape(2, 3, 3, 3)
    field[1, 2, :, 0] = -field[1, 2, :, 0] if bad == "reflection" else np.nan
    with pytest.raises(ValueError):
        spin_lift_array(field)


# =============================================================================
# The closed-form lift of Spin(3) and Spin(4)
# =============================================================================

def assert_closed_form_lift(T, want=None):
    """spin_lift_array(T) is a unit even a with Ad(a) = T, signed by the
    canonical rule, and equal to want (when given) within 1e-14."""
    n = T.shape[-1]
    a = spin_lift_array(T)
    assert np.max(np.abs(adjoint_array(a, n)[0] - T)) <= 1e-14
    assert np.max(np.abs(unit_defect(a, n))) <= 1e-14
    assert np.array_equal(a, _canonical_sign_array(a))
    if want is not None:
        assert np.max(np.abs(a - want)) <= 1e-14
    return a


def bivector_field(n, coeffs):
    b = np.zeros(np.shape(coeffs)[:-1] + (1 << n,))
    b[..., grade_indices(n, 2)] = coeffs
    return b


unit_coeff = st.floats(min_value=-1, max_value=1, allow_nan=False)


@given(st.sampled_from([3, 4]), st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_spin_lift_inverts_the_adjoint_of_bivector_exponentials(n, data):
    """Random bivector fields with |b| < pi - 1e-3: the lift of
    Ad(exp(b)) is the canonically signed exp(b)."""
    size = len(grade_indices(n, 2))
    nodes = data.draw(st.integers(min_value=1, max_value=6))
    coeffs = np.zeros((nodes, size))
    for node in range(nodes):
        v = np.array(data.draw(st.lists(unit_coeff, min_size=size,
                                        max_size=size)))
        radius = data.draw(st.floats(min_value=0, max_value=np.pi - 1e-3))
        if np.linalg.norm(v) > 0:
            coeffs[node] = radius * v / np.linalg.norm(v)
    g = bivector_exp_array(bivector_field(n, coeffs), n)
    T = adjoint_array(g, n)[0]
    assert_closed_form_lift(T, _canonical_sign_array(g))


@pytest.mark.parametrize("name", sorted(SURFACE_FIXTURES))
def test_closed_form_lift_matches_givens_on_converse_frames(name):
    """The frames the converse lifts, at N = 17: the closed form agrees
    with the per-node Givens lift to 1e-14."""
    fx = SURFACE_FIXTURES[name](17)
    frames = spinor_of_immersion(fx.F, fx.alg, fx.grid)[1].frames
    want = np.array([reference_spin_lift(T) for T in frames.reshape(
        (-1,) + frames.shape[2:])])
    assert np.max(np.abs(spin_lift_array(frames).reshape(want.shape)
                         - want)) <= 1e-14


@pytest.mark.parametrize("n", [3, 4])
def test_spin_lift_near_half_turns(n):
    """A rotation by pi - 1e-9 in each coordinate plane."""
    for blade in grade_indices(n, 2):
        g = bivector_exp_array(Multivector.blade(
            n, blade, (np.pi - 1e-9) / 2).coeffs, n)
        T = adjoint_array(g, n)[0]
        assert np.sum(np.diag(T) < -0.99) == 2
        assert_closed_form_lift(T, _canonical_sign_array(g))
        assert np.max(np.abs(spin_lift_array(T)
                             - reference_spin_lift(T))) <= 1e-14


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("angle", [0.5, 2.0, 3.0])
def test_spin_lift_isoclinic_rotations(sign, angle):
    """Isoclinic rotations, e12 +- e34 at equal angles: one half of the
    lift, a+ or a-, is (1 + I)/2 or (1 - I)/2 itself."""
    coeffs = np.zeros(6)
    coeffs[[0, 5]] = angle / 2, sign * angle / 2     # e12, e34
    g = bivector_exp_array(bivector_field(4, coeffs), 4)
    T = adjoint_array(g, 4)[0]
    assert np.allclose(T[:2, :2], T[2:, 2:] * [[1, sign], [sign, 1]])
    assert_closed_form_lift(T, _canonical_sign_array(g))
    assert np.max(np.abs(spin_lift_array(T)
                         - reference_spin_lift(T))) <= 1e-14


def test_spin_lift_exact_half_turn_of_two_planes():
    """diag(-1, 1, -1, 1) lifts to +-e13; the Givens product's sign was
    decided by a 3.7e-33 scalar residue, the closed form's by the rule."""
    T = np.diag([-1.0, 1.0, -1.0, 1.0])
    a = assert_closed_form_lift(T)
    ref = reference_spin_lift(T)
    assert min(np.max(np.abs(a - ref)), np.max(np.abs(a + ref))) <= 1e-14
    assert np.max(np.abs(np.abs(a) - np.abs(Multivector.blade(
        4, 0b101).coeffs))) <= 1e-15


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("bad,message", [
    ("nan", r"matrix is not orthogonal: \|T\^T T - I\| = nan at node "
            r"\(1, 2\)$"),
    ("reflection", r"matrix is not special orthogonal \(det = -1\) at node "
                   r"\(1, 2\)$")])
def test_closed_form_lift_rejects_one_bad_node(n, bad, message):
    field = np.array([random_so(n) for _ in range(6)]).reshape(2, 3, n, n)
    field[1, 2, :, 0] = -field[1, 2, :, 0] if bad == "reflection" else np.nan
    with pytest.raises(ValueError, match=message):
        spin_lift_array(field)


def test_spin_lift_takes_geometric_products_only_beyond_n_4(gp_calls,
                                                            map_calls):
    for n in (3, 4):
        map_calls.clear()
        spin_lift_array(np.array([random_so(n) for _ in range(5)]))
        # the inverse map, then the forward map of the miss check
        assert map_calls == [(n, "inverse"), (n, "forward")]
    assert gp_calls == []
    spin_lift_array(random_so(5))
    assert len(gp_calls) >= 1


# the fixtures whose converse lifts take the closed form: n = 3 and 4
CLOSED_FORM_FIXTURES = ["sphere-r3", "sphere-r4-twisted", "s3-sphere",
                        "sol3-plane"]


def converse_frames(name, N):
    """The frames the converse lifts on a fixture at N, as the rows
    t (n * n, nodes) of `clifford._closed_form_lift`."""
    fx = SURFACE_FIXTURES[name](N)
    frames = spinor_of_immersion(fx.F, fx.alg, fx.grid)[1].frames
    n = frames.shape[-1]
    return np.ascontiguousarray(frames.reshape(-1, n * n).T)


def lift_map_output(t, n, monkeypatch):
    """z, what the inverse map gives inside `_closed_form_lift(t, n)`."""
    inverse = clifford._closed_form_maps(n)[1]
    kernel, seen = clifford._accumulate, []

    def spy(a, b, signs, rows):
        out = kernel(a, b, signs, rows)
        if signs is inverse[0]:
            seen.append(out)
        return out

    with monkeypatch.context() as m:
        m.setattr(clifford, "_accumulate", spy)
        clifford._closed_form_lift(t, n)
    (z,) = seen
    return z


def assert_maps_are_the_sparse_oracle(t, monkeypatch):
    """On rotation rows t (n * n, nodes), at the first node alone, the
    next two, and all: the lift's map and the adjoint of the lift are
    the bits of the former sparse kernel."""
    n = math.isqrt(len(t))
    for part in (t[:, :1], t[:, 1:3], t):
        part = np.ascontiguousarray(part)
        x = np.vstack([part, np.ones((1, part.shape[1]))]) if n == 3 \
            else part
        assert lift_map_output(part, n, monkeypatch).tobytes() \
            == sparse_closed_form_inverse(x, n).tobytes()
        a = clifford._closed_form_lift(part, n)
        assert clifford._closed_form_adjoint(a, n).tobytes() \
            == sparse_closed_form_adjoint(a, n).tobytes()


@pytest.mark.parametrize("N", [33, 129])
@pytest.mark.parametrize("name", CLOSED_FORM_FIXTURES)
def test_closed_form_maps_are_the_sparse_oracle_on_converse_frames(
        name, N, monkeypatch):
    assert_maps_are_the_sparse_oracle(converse_frames(name, N), monkeypatch)


@pytest.mark.parametrize("n", [3, 4])
def test_closed_form_maps_are_the_sparse_oracle_on_random_fields(
        n, monkeypatch):
    local = np.random.default_rng(30 + n)
    T = np.array([random_so(n) for _ in range(300)])
    assert_maps_are_the_sparse_oracle(
        np.ascontiguousarray(T.reshape(-1, n * n).T), monkeypatch)
    # the adjoint of even fields that are not unit, and of a single node
    e = local.normal(size=(1 << (n - 1), 500))
    for part in (e[:, :1], e):
        assert clifford._closed_form_adjoint(part, n).tobytes() \
            == sparse_closed_form_adjoint(part, n).tobytes()


@pytest.mark.parametrize("name", CLOSED_FORM_FIXTURES)
def test_closed_form_lift_of_a_node_alone_is_its_field_bits(name):
    """Each node lifted alone gives the bits the whole field gives it: on
    random rotations and on the converse's frames at N = 33."""
    t = converse_frames(name, 33)
    n = math.isqrt(len(t))
    T = np.concatenate([t.T.reshape(-1, n, n),
                        [random_so(n) for _ in range(500)]])
    field = spin_lift_even(T)
    for k, node in enumerate(T):
        assert spin_lift_even(node).tobytes() == field[:, k].tobytes(), k


def half_turns(n):
    """diag(+-1) rotations of SO(n) by pi in two or more planes: adjacent,
    apart, and every pair of axes but the last (n odd)."""
    flips = [(0, 1), (n - 2, n - 1), (0, n - 1), tuple(range(n - n % 2))]
    T = np.array([np.eye(n)] * len(flips))
    for t, axes in zip(T, flips):
        t[axes, axes] = -1.0
    return T


@pytest.mark.parametrize("n", [2, 5, 6, 7, 8])
def test_givens_spin_lift_is_the_full_layout_lift(n):
    """The even-layout Givens lift is the full-layout one, bit for bit, on
    random rotations, half turns and a (2, 3) field."""
    Ts = np.concatenate([[random_so(n) for _ in range(12)], half_turns(n)])
    for T in (Ts, Ts[:6].reshape(2, 3, n, n), Ts[-1]):
        want = _canonical_sign_array(givens_lift_full(T, n))
        assert np.array_equal(spin_lift_array(T), want)


@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("bad,message", [
    ("nan", r"matrix is not orthogonal: \|T\^T T - I\| = nan at node "
            r"\(1, 2\)$"),
    ("reflection", r"matrix is not special orthogonal \(det = -1\) at node "
                   r"\(1, 2\)$")])
def test_givens_lift_rejects_one_bad_node(n, bad, message):
    field = np.array([random_so(n) for _ in range(6)]).reshape(2, 3, n, n)
    field[1, 2, :, 0] = -field[1, 2, :, 0] if bad == "reflection" else np.nan
    with pytest.raises(ValueError, match=message):
        spin_lift_array(field)


@pytest.mark.parametrize("n", [3, 5])
def test_reflection_of_a_single_matrix_names_no_node(n):
    T = random_so(n)
    T[:, 0] = -T[:, 0]
    with pytest.raises(ValueError, match=r"^matrix is not special "
                                         r"orthogonal \(det = -1\)$"):
        spin_lift_array(T)


def test_spin_element_rejects_nan():
    with pytest.raises(ValueError, match="deviates from 1"):
        SpinElement(Multivector(3, [np.nan] + [0.0] * 7))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("slot", [0, 0b011, 0b110])
def test_spin_element_gates_infinity_before_any_product(slot):
    coeffs = np.zeros(8)
    coeffs[0] = 1.0
    coeffs[slot] = np.inf
    with pytest.raises(ValueError, match="deviates from 1 by nan"):
        SpinElement(Multivector(3, coeffs))


def test_spin_element_closure_and_invariant():
    for _ in range(30):
        a, b = random_spin(4), random_spin(4)
        ab = a * b
        assert non_grade_norm(ab.value.coeffs, 4, (0, 2, 4)) <= 1e-12
        r = ab.value.reversal() * ab.value
        assert r.allclose(Multivector.scalar(4, 1.0), tol=1e-8)


def test_spin_element_rejects_odd_or_nonunit():
    with pytest.raises(ValueError):
        SpinElement(Multivector.basis_vector(3, 0))
    with pytest.raises(ValueError):
        SpinElement(Multivector.scalar(3, 0.5))


# =============================================================================
# Algebra laws as property tests
# =============================================================================

coeff = st.floats(min_value=-10, max_value=10, allow_nan=False,
                  allow_infinity=False)
mv3 = st.lists(coeff, min_size=8, max_size=8).map(lambda c: Multivector(3, c))


@given(mv3, mv3, mv3)
@settings(max_examples=200, deadline=None)
def test_property_associative(a, b, c):
    lhs = (a * b) * c
    rhs = a * (b * c)
    scale = max(1.0, max_abs(a) * max_abs(b) * max_abs(c))
    assert lhs.allclose(rhs, tol=1e-10 * scale)


@given(mv3, mv3)
@settings(max_examples=200, deadline=None)
def test_property_reversal_antiautomorphism(a, b):
    scale = max(1.0, max_abs(a) * max_abs(b))
    assert (a * b).reversal().allclose(b.reversal() * a.reversal(),
                                       tol=1e-12 * scale)
    assert a.reversal().reversal().allclose(a, tol=0.0)


@given(mv3, mv3)
@settings(max_examples=200, deadline=None)
def test_property_pairing_symmetry(phi, psi):
    scale = max(1.0, max_abs(phi) * max_abs(psi))
    assert spin_bracket(phi, psi).allclose(
        spin_bracket(psi, phi).reversal(), tol=1e-12 * scale)


# =============================================================================
# gp_array against the dense row loop it replaced
# =============================================================================

def assert_bit_identical(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()     # zero signs included


def operand(kind, n, shape):
    """Random coefficients (*shape, 2**n) on the blades `kind` names."""
    _, grades = blade_tables(n)
    dim = 1 << n
    live = {"dense": np.ones(dim, bool), "even": grades % 2 == 0,
            "odd": grades % 2 == 1, "single": np.arange(dim) == dim - 1,
            "zero": np.zeros(dim, bool)}[kind]
    return rng.normal(size=shape + (dim,)) * live


KINDS = ("dense", "even", "odd", "single", "zero")


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("shape_a,shape_b", [((), ()), ((5, 1), (1, 7)),
                                             ((6,), ()), ((), (6,))])
def test_gp_array_is_the_dense_row_loop_bit_for_bit(n, shape_a, shape_b):
    for kind_a in KINDS:
        for kind_b in KINDS:
            a = operand(kind_a, n, shape_a)
            b = operand(kind_b, n, shape_b)
            assert_bit_identical(gp_array(a, b, n), dense_row_gp(a, b, n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gp_array_on_transport_sized_fields(n):
    # 129^2 nodes, the largest grid the benchmark transports
    for kind_a, kind_b in (("even", "even"), ("even", "single"),
                           ("odd", "even"), ("dense", "dense")):
        a = operand(kind_a, n, (129, 129))
        b = operand(kind_b, n, (129, 129))
        assert_bit_identical(gp_array(a, b, n), dense_row_gp(a, b, n))


@pytest.mark.parametrize("n", [3, 8])
def test_gp_array_sees_a_lone_subnormal_coefficient(n):
    a = np.zeros((33, 33, 1 << n))
    a[17, 5, 3] = 5e-324
    b = 1.0 + rng.random((33, 33, 1 << n))
    got = gp_array(a, b, n)
    assert np.count_nonzero(got) == 1 << n     # the node's products survive
    assert_bit_identical(got, dense_row_gp(a, b, n))
    assert_bit_identical(gp_array(b, a, n), dense_row_gp(b, a, n))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", KINDS)
def test_gp_array_keeps_the_non_finite_nodes_of_the_row_loop(bad, kind):
    n = 3
    a = operand("even", n, (9, 9))
    a[4, 2, 5] = bad
    b = operand(kind, n, (9, 9))
    with np.errstate(invalid="ignore"):
        for x, y in ((a, b), (b, a)):
            got, want = gp_array(x, y, n), dense_row_gp(x, y, n)
            assert np.array_equal(np.isfinite(got).all(axis=-1),
                                  np.isfinite(want).all(axis=-1))
            assert np.array_equal(got, want, equal_nan=True)


@given(st.integers(1, 6), st.data())
@settings(max_examples=150, deadline=None)
def test_property_gp_array_on_random_live_blades(n, data):
    dim = 1 << n
    mask_a = data.draw(st.integers(0, (1 << dim) - 1))
    mask_b = data.draw(st.integers(0, (1 << dim) - 1))
    shape_a, shape_b = data.draw(st.sampled_from(
        [((), ()), ((3,), (3,)), ((2, 1), (1, 4)), ((), (5,))]))
    live = lambda mask: np.array([mask >> k & 1 for k in range(dim)], bool)
    seed = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    a = seed.normal(size=shape_a + (dim,)) * live(mask_a)
    b = seed.normal(size=shape_b + (dim,)) * live(mask_b)
    assert_bit_identical(gp_array(a, b, n), dense_row_gp(a, b, n))


def former_adjoint_action(a, x):
    """Vector rotation Ad(a) x = a * x * reversal(a) for a spin element a.

    Rejects non-unit a; the result is the grade-1 part, checked pure to
    1e-10 relative to |x|.
    """
    if isinstance(a, Multivector):
        a = SpinElement(a)
    g = a.value
    if isinstance(x, np.ndarray) or (not isinstance(x, Multivector)):
        x = Multivector.from_vector(np.asarray(x, dtype=np.float64))
    g._check(x)
    if non_grade_norm(x.coeffs, x.n, (1,)) > 0:
        raise ValueError("adjoint_action expects a grade-1 argument")
    out = g * x * g.reversal()
    impurity = non_grade_norm(out.coeffs, out.n, (1,))
    scale = max(1.0, max_abs(x))
    if impurity > 1e-10 * scale:
        raise ValueError(f"adjoint action left grade-1: impurity {impurity:.3e}")
    return Multivector.from_vector(out.vector())


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_adjoint_action_agrees_with_its_former_sandwich(n):
    # adjoint_action applies the adjoint_array kernel; the sandwich above
    # is the code it replaced, kept verbatim
    local = np.random.default_rng(600 + n)
    for _ in range(40):
        m = local.normal(size=(n, n))
        biv = bivector_of_skew(m - m.T)
        a = SpinElement(Multivector(n, exp_array(biv.coeffs, n)), tol=1e-9)
        x = Multivector.from_vector(local.normal(size=n)
                                    * 10.0 ** local.uniform(-3, 3))
        got, want = adjoint_action(a, x), former_adjoint_action(a, x)
        assert got.n == want.n == n
        assert np.max(np.abs(got.coeffs - want.coeffs)) \
            <= 1e-14 * np.linalg.norm(x.coeffs)


# =============================================================================
# The parity kernel, the closed-form adjoint, the sign rule, the lift's gates
# =============================================================================

def parity_operand(parity, n, shape, local):
    """Random blade-major coefficients (2**(n-1), *shape) of one parity,
    with exact zeros and negative zeros mixed in."""
    x = local.normal(size=(1 << (n - 1),) + shape)
    x[local.random(x.shape) < 0.2] = 0.0
    x[local.random(x.shape) < 0.1] = -0.0
    return x


def full_of(x, parity, n):
    out = np.zeros(x.shape[1:] + (1 << n,))
    out[..., parity_blades(n, parity)] = np.moveaxis(x, 0, -1)
    return out


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("pa,pb", [(EVEN, EVEN), (EVEN, ODD), (ODD, EVEN),
                                   (ODD, ODD)])
def test_gp_blades_is_the_dense_row_loop_bit_for_bit(n, pa, pb):
    local = np.random.default_rng(100 * n + 10 * pa + pb)
    for shape_a, shape_b in (((5, 3), (5, 3)), ((4, 1), (1, 6)), ((), (7,)),
                             ((6,), ())):
        a = parity_operand(pa, n, shape_a, local)
        b = parity_operand(pb, n, shape_b, local)
        want = dense_row_gp(full_of(a, pa, n), full_of(b, pb, n), n)
        got = gp_blades(a, b, n, pa, pb)
        assert_bit_identical(got, np.ascontiguousarray(np.moveaxis(
            want[..., parity_blades(n, pa ^ pb)], -1, 0)))
        # the other parity of the dense product is exactly +0
        rest = want[..., parity_blades(n, 1 - (pa ^ pb))]
        assert rest.tobytes() == np.zeros_like(rest).tobytes()


def product_adjoint(g, n):
    """Ad(g) on vectors by the 2n whole-field products g e_k and
    (g e_k) rev(g), the form the closed form replaced."""
    rev = reverse_array(g, n)
    return np.stack([vector_part_array(gp_array(gp_array(
        g, vector_array(np.eye(n)[k], n), n), rev, n), n) for k in range(n)],
        axis=-1)


# over 20 random unit fields of 33 x 33 nodes with |b| up to 4 sqrt(dim)
# the closed form and the products differed by at most 2.2e-16 (n = 3) and
# 4.4e-16 (n = 4)
CLOSED_FORM_AD_BOUND = 1e-15


@pytest.mark.parametrize("n", [3, 4])
def test_closed_form_adjoint_is_the_product_adjoint(n):
    local = np.random.default_rng(70 + n)
    idx = grade_indices(n, 2)
    for _ in range(5):
        b = np.zeros((33, 33, 1 << n))
        b[..., idx] = local.uniform(-4, 4, size=(33, 33, len(idx)))
        g = bivector_exp_array(b, n)
        got, impurity = adjoint_even(to_even(g, n), n)
        assert impurity == 0.0
        assert np.max(np.abs(got - product_adjoint(g, n))) \
            <= CLOSED_FORM_AD_BOUND
        # one node at a time gives the field's bits
        assert np.array_equal(adjoint_even(to_even(g[7, 9], n), n)[0],
                              got[7, 9])
    # an even field that is not unit: the quadratic form still is Ad
    e = local.normal(size=(1 << (n - 1), 9, 9))
    want = product_adjoint(full_of(e, EVEN, n), n)
    assert np.max(np.abs(adjoint_even(e, n)[0] - want)) \
        <= CLOSED_FORM_AD_BOUND * np.max(np.abs(want))


def parent_canonical_sign(a):
    """The sign rule before it read the scalar part first: the sign of each
    node's first nonzero entry, found by a scan of every entry."""
    lead = np.take_along_axis(a, np.argmax(a != 0, axis=-1)[..., None], -1)
    return np.where(lead < 0, -a, a)


@pytest.mark.parametrize("n", [3, 4])
def test_sign_rule_on_half_turns_is_the_parent_rule(n):
    # T = diag(1, -1, -1) lifts to e23, which has no scalar part
    local = np.random.default_rng(90 + n)
    Ts = np.array([random_so(n) for _ in range(12)])
    Ts[[2, 5, 11]] = np.diag([1.0] + [-1.0] * 2 + [1.0] * (n - 3))
    Ts[7] = np.diag([-1.0, 1.0, -1.0] + [1.0] * (n - 3))
    a = spin_lift_array(Ts.reshape(3, 4, n, n))
    assert np.array_equal(a, parent_canonical_sign(a))
    assert np.count_nonzero(a[..., 0] == 0) == 4
    signs = np.where(local.random((3, 4, 1)) < 0.5, -1.0, 1.0)
    for x in (a * signs, to_even(a * signs, n).T):
        assert _canonical_sign_array(x).tobytes() \
            == parent_canonical_sign(x).tobytes()


@pytest.mark.parametrize("n", [3, 4])
def test_orthogonality_gate_names_the_worst_node(n):
    field = np.array([random_so(n) for _ in range(12)]).reshape(3, 4, n, n)
    field[1, 2] *= 1.5
    field[2, 0] *= 1.1
    defect = np.max(np.abs(np.einsum("...ji,...jk->...ik", field, field)
                           - np.eye(n)), axis=(-2, -1))
    assert worst_node(defect) == (1, 2)
    with pytest.raises(ValueError, match=r"matrix is not orthogonal: "
                       r"\|T\^T T - I\| = 1\.250e\+00 at node \(1, 2\)$"):
        spin_lift_array(field)
    field[0, 3, :, 1] = np.nan     # the first nan comes before the worst
    with pytest.raises(ValueError, match=r"= nan at node \(0, 3\)$"):
        spin_lift_array(field)


@pytest.mark.parametrize("n", [3, 4])
def test_spin_lift_gate_names_the_worst_node(n, monkeypatch):
    # with the orthogonality gate opened to 1e-2, matrices off SO(n) by
    # 1e-5 and 1e-4 pass it, and the closed form misses them
    field = np.array([random_so(n) for _ in range(12)]).reshape(3, 4, n, n)
    field[0, 1, 0, 0] += 1e-5
    field[2, 3, 1, 1] += 1e-4
    t = np.ascontiguousarray(field.reshape(-1, n * n).T)
    a = clifford._closed_form_lift(t, n)
    miss = np.max(np.abs(clifford._closed_form_adjoint(a, n) - t), axis=0)
    assert worst_node(miss.reshape(3, 4)) == (2, 3)
    monkeypatch.setattr(clifford, "SPIN_TOL", 1e-2)
    with pytest.raises(ValueError, match=r"^spin lift failed: \|Ad\(a\) - T\| "
                       r"= .*; input not special orthogonal within tolerance "
                       r"at node \(2, 3\)$"):
        spin_lift_array(field)
