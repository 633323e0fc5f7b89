"""Dense real Clifford algebras Cl_n with the convention e_i^2 = -1.

A multivector of the rank-n algebra is a coefficient array indexed by
basis-blade bitmask: bit g of the index set means the blade contains the
generator e_{g+1}, generators ordered ascending.  The single global sign
convention, used by every other module, is

    X * Y + Y * X = -2 <X, Y>   for vectors X, Y      (so e_i * e_i = -1).

Blade product signs are precomputed once per algebra by popcount counting
over the whole table at once (anticommutation swaps plus one factor -1 per
contracted pair).
n is capped at 8, i.e. 256 coefficients; everything is plain float64 numpy.

Two layouts.  `Multivector`, `SpinElement` and the `*_array` functions keep
all 2**n coefficients on the last axis, broadcasting over leading axes.
Spin-group fields (spinor fields, edge rotors, holonomy loops) lie in the
even subalgebra and are kept as their 2**(n-1) even coefficients,
blade-major: shape (2**(n-1), ...nodes), rows in ascending blade order, so
row 0 is the scalar part (`to_even`, `from_even`).  An odd operand, such as
a vector, has the same shape over the odd blades.  At every n, the
exponential of a bivector field and the spin lift of a rotation field run
in the even layout alone.

`_accumulate` is the one summation kernel, used for geometric products
and for the closed-form maps: it adds the terms of a table (signs, rows)
in the listed order to a zero start, a row at a time over all nodes, so
no sum depends on the node count.  `gp_blades` gives it the product table
per (n, parity of a, parity of b), built from `blade_tables` on first
use: per row i of a, ascending as in the dense loop over all blades (so
products are bit-identical to it), the signs s(i, i ^ k) and the rows of b
that meet it on each output blade k.  `gp_array` gives it the full-layout
table over the rows of a that are nonzero somewhere.

One Taylor series with scaling and squaring (`_series_exp`) serves both
layouts, given the layout's product and unit.  `exp_array` is the general
exponential of full-layout multivectors through `gp_array`.  Bivector
fields, the transport steps of the spinor solver, go through
`bivector_exp_even`: a closed form free of geometric products for n <= 4
(Spin(3) and Spin(4) = Sp(1) x Sp(1)), and the series through `gp_blades`
for n >= 5.  So do the adjoint action `adjoint_even` and its inverse, the
spin lift of a rotation field (`spin_lift_even`): closed-form term tables
for n = 3 and 4, and `gp_blades` products otherwise (of Givens rotors).

Multivectors are immutable values; all operations return new objects.
"""

import math
from functools import lru_cache

import numpy as np

MAX_DIM = 8


def check_dimension(n):
    """ValueError unless 1 <= n <= MAX_DIM, with n as given: the one bound
    on the dimension of Clifford tables, algebras and group models, judged
    before any table of that size is built."""
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"dimension must be 1..{MAX_DIM}; got {n}")


# =============================================================================
# Blade tables
# =============================================================================

@lru_cache(maxsize=None)
def blade_tables(n):
    """Sign table and grade table of Cl_n.

    Returns (signs, grades) where signs[i, j] is the sign of blade_i * blade_j
    (the product blade index is always i ^ j) and grades[i] is the blade grade.
    The sign counts, for every generator g of j, the generators of i it must
    be moved past (the grade of i >> (g + 1)), and adds one factor -1 per
    generator shared by i and j (the grade of i & j).
    """
    check_dimension(n)
    idx = np.arange(1 << n)
    grades = sum((idx >> g) & 1 for g in range(n))
    i, j = idx[:, None], idx[None, :]
    swaps = grades[i & j] + sum((j >> g & 1) * grades[i >> (g + 1)]
                                for g in range(n))
    signs = np.where(swaps & 1, -1, 1).astype(np.int8)
    signs.flags.writeable = False
    grades.flags.writeable = False
    return signs, grades


@lru_cache(maxsize=None)
def reversal_signs(n):
    """Per-blade reversal signs (-1)**(r(r-1)/2) for grade r."""
    _, grades = blade_tables(n)
    out = np.where(grades * (grades - 1) // 2 % 2 == 0, 1.0, -1.0)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def grade_indices(n, k):
    _, grades = blade_tables(n)
    return np.nonzero(grades == k)[0]


# =============================================================================
# The product kernel (blade-major parity parts) and the full-layout product
# =============================================================================

EVEN, ODD = 0, 1


@lru_cache(maxsize=None)
def parity_blades(n, parity):
    """The blades of one parity (EVEN or ODD) in ascending order, or every
    blade for parity None (the full layout)."""
    _, grades = blade_tables(n)
    if parity is None:
        blades = np.arange(1 << n)
    else:
        blades = np.flatnonzero(grades % 2 == parity)
    blades.flags.writeable = False
    return blades


@lru_cache(maxsize=None)
def _parity_rows(n):
    """The row of each blade in the blade-major layout of its parity."""
    rows = np.zeros(1 << n, dtype=np.intp)
    for parity in (EVEN, ODD):
        rows[parity_blades(n, parity)] = np.arange(1 << (n - 1))
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=None)
def _product_terms(n, pa, pb):
    """Term table of a product of layouts pa, pb (EVEN, ODD, or None with
    None for the full layout), as (signs, rows), each (rows of a, output
    blades): for row blade i of a, ascending, the signs s(i, i ^ k) over
    the output blades k and the rows of b that hold the blades i ^ k."""
    signs, _ = blade_tables(n)
    i = parity_blades(n, pa)[:, None]
    out = parity_blades(n, None if pa is None else pa ^ pb)
    position = np.arange(1 << n) if pb is None else _parity_rows(n)
    table = (signs[i, i ^ out].astype(np.float64), position[i ^ out])
    for part in table:
        part.flags.writeable = False
    return table


def _pad_nodes(x, nodes):
    """x (blades, ...) with its node axes padded on the left to `nodes`
    axes, so that node axes broadcast as leading axes do."""
    return x.reshape(x.shape[:1] + (1,) * (nodes - x.ndim + 1) + x.shape[1:])


def _accumulate(a, b, signs, rows):
    """sum over the rows i of a of (s_i a_i) b[J_i], a row at a time over
    all nodes in the order given, into a zero start: the one summation
    kernel, for the product tables of `_product_terms` and the map tables
    of `_closed_form_maps` (module docstring)."""
    shape = a.shape[1:]
    if b.shape[1:] != shape:
        nodes = max(a.ndim, b.ndim) - 1
        a, b = _pad_nodes(a, nodes), _pad_nodes(b, nodes)
        shape = np.broadcast_shapes(a.shape[1:], b.shape[1:])
    lift = (1,) * len(shape)
    out = np.zeros(signs.shape[1:] + shape)
    t = np.empty_like(out)
    for ai, sign, row in zip(a, signs, rows):
        np.multiply(sign.reshape(sign.shape + lift), ai, out=t)
        t *= b[row]
        out += t
    return out


def gp_blades(a, b, n, pa=EVEN, pb=EVEN):
    """Geometric product of blade-major parity parts: a (2**(n-1), ...) over
    the blades of parity pa, b likewise over pb, node axes broadcasting as
    leading axes do.  The result is the part of parity pa ^ pb, the rest
    being zero.  Output blade k is the sum of s(i, i ^ k) a_i b_(i ^ k),
    added in ascending i to a zero start: the order of the dense loop over
    all 2**n blades, whose other terms are exact zeros for finite inputs,
    so the products are bit-identical to it."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return _accumulate(a, b, *_product_terms(n, pa, pb))


def gp_array(a, b, n):
    """Geometric product of full-layout coefficient arrays (..., 2**n),
    broadcasting leading axes: the kernel over the full-layout table,
    restricted to the rows of a that are nonzero at some node.  Those are
    the rows the dense loop adds, in its order, so products are
    bit-identical to it, non-finite ones included: inf * 0 makes the
    loop's nan, and no more."""
    a = np.moveaxis(np.asarray(a, dtype=np.float64), -1, 0)
    b = np.moveaxis(np.asarray(b, dtype=np.float64), -1, 0)
    live = np.flatnonzero(np.any(a != 0, axis=tuple(range(1, a.ndim))))
    signs, rows = _product_terms(n, None, None)
    out = _accumulate(a[live], b, signs[live], rows[live])
    return np.ascontiguousarray(np.moveaxis(out, 0, -1))


def to_even(a, n):
    """The even part of full-layout arrays a (..., 2**n), blade-major:
    (2**(n-1), ...)."""
    return np.moveaxis(np.asarray(a, dtype=np.float64), -1, 0)[
        parity_blades(n, EVEN)]


def from_even(e, n):
    """Full-layout arrays (..., 2**n) of blade-major even parts e."""
    e = np.asarray(e, dtype=np.float64)
    out = np.zeros(e.shape[1:] + (1 << n,))
    out[..., parity_blades(n, EVEN)] = np.moveaxis(e, 0, -1)
    return out


def reverse_even(e, n):
    """rev(e) of a blade-major even e: a fixed sign per row."""
    e = np.asarray(e, dtype=np.float64)
    signs = reversal_signs(n)[parity_blades(n, EVEN)]
    return e * signs.reshape((-1,) + (1,) * (e.ndim - 1))


def even_unit_defect(e, n):
    """max |rev(e) e - 1| of a blade-major even field e; nan for a
    non-finite e, decided before the product, where inf * 0 would raise."""
    if not np.all(np.isfinite(e)):
        return math.nan
    out = gp_blades(reverse_even(e, n), e, n)
    out[0] -= 1.0
    return float(np.max(np.abs(out)))


def reverse_array(a, n):
    return np.asarray(a, dtype=np.float64) * reversal_signs(n)


def vector_part_array(a, n):
    """Grade-1 coefficients as a plain length-n vector (last axis)."""
    return np.asarray(a)[..., grade_indices(n, 1)]


def vector_array(v, n):
    """Embed plain vectors (last axis length n) as grade-1 coefficient arrays."""
    v = np.asarray(v, dtype=np.float64)
    out = np.zeros(v.shape[:-1] + (1 << n,))
    out[..., grade_indices(n, 1)] = v
    return out


def spin_defects(a, n):
    """(odd, unit): the largest |coefficient| of a field a (..., 2**n)
    outside the even grades, and the `even_unit_defect` of its even part."""
    return (non_grade_norm(a, n, range(0, n + 1, 2)),
            even_unit_defect(to_even(a, n), n))


def non_grade_norm(a, n, keep):
    """Max |coefficient| outside the listed grades."""
    a = np.asarray(a)
    _, grades = blade_tables(n)
    mask = np.ones(1 << n, dtype=bool)
    for k in keep:
        mask[grades == k] = False
    outside = a[..., mask]
    return float(np.max(np.abs(outside))) if outside.size else 0.0


def _series_exp(x, product, unit, terms=18):
    """exp(x) by scaling and squaring plus Taylor series in either layout:
    `product` is the layout's geometric product and `unit` its 1, an array
    of x's shape.  The series of x / 2**s, scaled to max-norm <= 0.5 where
    it converges fast, takes `terms` products, and its sum is squared s
    times.  A non-finite x is not scaled: its series is non-finite at the
    same nodes.  s is at most 1025, which scales every finite x."""
    m = float(np.max(np.abs(x))) if x.size else 0.0
    s = math.ceil(min(math.log2(m / 0.5), 1025)) if 0.5 < m < math.inf else 0
    x = x * math.ldexp(1.0, -s)
    out = term = unit
    for k in range(1, terms + 1):
        term = product(term, x) / k
        out = out + term
    for _ in range(s):
        out = product(out, out)
    return out


def exp_array(a, n, terms=18):
    """Clifford exponential of any full-layout multivector field a
    (..., 2**n): `_series_exp` with `gp_array`, `terms` products per field
    plus one per squaring.  Bivector fields have `bivector_exp_even`."""
    a = np.asarray(a, dtype=np.float64)
    unit = np.zeros_like(a)
    unit[..., 0] = 1.0
    return _series_exp(a, lambda p, q: gp_array(p, q, n), unit, terms)


@lru_cache(maxsize=None)
def _pseudoscalar_gathers(n):
    """With I the top blade of Cl_n, per bivector blade: its row in the even
    layout, the row of its complement I ^ blade, the sign of blade *
    complement (the I part of b^2 pairs each blade with its complement) and
    the sign of I * blade."""
    signs, _ = blade_tables(n)
    top = (1 << n) - 1
    biv = grade_indices(n, 2)
    rows = _parity_rows(n)
    return rows[biv], rows[top ^ biv], signs[biv, top ^ biv], signs[top, biv]


def bivector_exp_even(e, n):
    """exp(b) of bivector fields, blade-major even in and out: e
    (2**(n-1), ...).  For n <= 4 a closed form, which reads only the
    grade-2 rows.  For n >= 5 the series `_series_exp` through `gp_blades`,
    which exponentiates every even row, with the products and sums of
    `exp_array` on the full layout, so bit-identical to it on finite e.

    For n <= 3 every bivector is simple: b^2 = -|b|^2 and
    exp(b) = cos|b| + (sin|b| / |b|) b.  For n = 4 the pseudoscalar
    I = e1234 has I^2 = +1 and is central in the even algebra, so
    (1 +- I)/2 split b^2 = s + p I into the real squares s +- p, and with
    C+- = cos t+-, S+- = sin t+- / t+-, t+- = sqrt(-(s +- p)),

        exp(b) = (C+ + C-)/2 + (C+ - C-)/2 I + (S+ + S-)/2 b + (S+ - S-)/2 I b

    (the invariant decomposition of Roelfs & De Keninck, arXiv:2107.03771).
    p and I b are row/sign gathers; no geometric product is taken.
    """
    e = np.asarray(e, dtype=np.float64)
    if n >= 5:
        unit = np.zeros_like(e)
        unit[0] = 1.0
        return _series_exp(e, lambda p, q: gp_blades(p, q, n), unit)
    rows, comp, pair_sign, i_sign = _pseudoscalar_gathers(n)
    lift = (-1,) + (1,) * (e.ndim - 1)
    b = e[rows]
    out = np.zeros(e.shape)
    s = -np.sum(b * b, axis=0)
    if n < 4:
        c, sc = cosh_sinhc(s)
        out[0] = c
        out[rows] = sc * b
        return out
    p = np.sum(pair_sign.reshape(lift) * b * e[comp], axis=0)
    cp, sp = cosh_sinhc(s + p)
    cm, sm = cosh_sinhc(s - p)
    out[0] = 0.5 * (cp + cm)
    out[-1] = 0.5 * (cp - cm)
    out[rows] = 0.5 * (sp + sm) * b
    out[comp] += 0.5 * (sp - sm) * i_sign.reshape(lift) * b
    return out


def cosh_sinhc(q):
    """(cosh r, sinh r / r) with r = sqrt(q) for real q of either sign: cos
    and sin of sqrt(-q) when q < 0, sinh r / r = 1 at r = 0; cosh and sinh
    see r only where q > 0, so a large negative q cannot overflow them."""
    q = np.asarray(q, float)
    r = np.sqrt(np.abs(q))
    pos = q > 0
    rp = np.where(pos, r, 0.0)
    c = np.where(pos, np.cosh(rp), np.cos(r))
    s = np.where(pos, np.sinh(rp), np.sin(r))
    return c, np.divide(s, r, out=np.ones_like(r), where=r > 0)


# =============================================================================
# Multivector
# =============================================================================

class Multivector:
    """Immutable element of Cl_n, dense 2**n coefficients, e_i^2 = -1."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs):
        blade_tables(n)     # ValueError for n outside 1..MAX_DIM
        coeffs = np.array(coeffs, dtype=np.float64).reshape(-1)
        if coeffs.shape != (1 << n,):
            raise ValueError(
                f"coefficient array must have length {1 << n} for Cl_{n}, "
                f"got {coeffs.shape}")
        coeffs.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *_):
        raise AttributeError("Multivector is immutable")

    # ---- constructors -------------------------------------------------
    @classmethod
    def scalar(cls, n, s):
        c = np.zeros(1 << n)
        c[0] = s
        return cls(n, c)

    @classmethod
    def blade(cls, n, mask, coeff=1.0):
        c = np.zeros(1 << n)
        c[mask] = coeff
        return cls(n, c)

    @classmethod
    def basis_vector(cls, n, i):
        """The generator e_{i+1} (0-based index i)."""
        if not 0 <= i < n:
            raise ValueError(f"generator index {i} out of range for Cl_{n}")
        return cls.blade(n, 1 << i)

    @classmethod
    def from_vector(cls, v, n=None):
        v = np.asarray(v, dtype=np.float64)
        if n is None:
            n = v.shape[-1]
        return cls(n, vector_array(v, n))

    # ---- structure -----------------------------------------------------
    def _check(self, other):
        if self.n != other.n:
            raise ValueError(
                f"dimension mismatch: Cl_{self.n} vs Cl_{other.n}")

    def __add__(self, other):
        if np.isscalar(other):
            other = Multivector.scalar(self.n, other)
        self._check(other)
        return Multivector(self.n, self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        if np.isscalar(other):
            other = Multivector.scalar(self.n, other)
        self._check(other)
        return Multivector(self.n, self.coeffs - other.coeffs)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Multivector(self.n, -self.coeffs)

    def __mul__(self, other):
        if np.isscalar(other):
            return Multivector(self.n, self.coeffs * other)
        self._check(other)
        return Multivector(self.n, gp_array(self.coeffs, other.coeffs, self.n))

    def __rmul__(self, other):
        if np.isscalar(other):
            return Multivector(self.n, self.coeffs * other)
        return NotImplemented

    def __truediv__(self, s):
        return Multivector(self.n, self.coeffs / s)

    def reversal(self):
        return Multivector(self.n, reverse_array(self.coeffs, self.n))

    def vector(self):
        """Grade-1 coefficients as a plain length-n array."""
        return vector_part_array(self.coeffs, self.n).copy()

    def allclose(self, other, tol=1e-12):
        self._check(other)
        return bool(np.max(np.abs(self.coeffs - other.coeffs)) <= tol)

    def __repr__(self):
        _, grades = blade_tables(self.n)
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0.0:
                continue
            if i == 0:
                parts.append(f"{c:g}")
            else:
                name = "e" + "".join(str(g + 1) for g in range(self.n)
                                     if i >> g & 1)
                parts.append(f"{c:g}*{name}")
        body = " + ".join(parts) if parts else "0"
        return f"Multivector(Cl_{self.n}: {body})"


# =============================================================================
# Pairing, commutator, operator <-> bivector dictionaries
# =============================================================================

def spin_bracket(phi, psi):
    """The Cl-valued pairing <<phi, psi>> = reversal(psi) * phi."""
    phi._check(psi)
    return psi.reversal() * phi


def commutator(a, b):
    """Half-commutator (a*b - b*a) / 2, the bracket every operator
    correspondence below is stated with."""
    a._check(b)
    return (a * b - b * a) * 0.5


class SkewOperator:
    """Skew-symmetric endomorphism of R^n; matrix[i, j] = <e_i, u(e_j)>."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        matrix = np.array(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("SkewOperator needs a square matrix")
        if not np.array_equal(matrix, -matrix.T):
            raise ValueError("matrix is not antisymmetric")
        matrix.flags.writeable = False
        self.matrix = matrix

    @property
    def n(self):
        return self.matrix.shape[0]

    def __call__(self, v):
        return self.matrix @ np.asarray(v, dtype=np.float64)


class OffDiagOperator:
    """Linear map u: R^p -> R^q inside the split R^n = R^p + R^q.

    matrix has shape (q, p); the adjoint u*: R^q -> R^p is matrix.T.
    """

    __slots__ = ("p", "q", "matrix")

    def __init__(self, p, q, matrix):
        matrix = np.array(matrix, dtype=np.float64)
        if matrix.shape != (q, p):
            raise ValueError(f"matrix shape {matrix.shape} does not match the "
                             f"split p={p}, q={q}")
        matrix.flags.writeable = False
        self.p = p
        self.q = q
        self.matrix = matrix

    @property
    def n(self):
        return self.p + self.q

    def full_matrix(self):
        """[[0, -u*], [u, 0]] on R^p + R^q."""
        return offdiag_skew_array(self.matrix)


def offdiag_skew_array(u):
    """Skew matrices [[0, -u*], [u, 0]] of off-diagonal operator fields
    u (..., q, p) -> (..., p + q, p + q)."""
    u = np.asarray(u, dtype=np.float64)
    q, p = u.shape[-2:]
    out = np.zeros(u.shape[:-2] + (p + q, p + q))
    out[..., p:, :p] = u
    out[..., :p, p:] = -np.swapaxes(u, -1, -2)
    return out


@lru_cache(maxsize=None)
def _bivector_pairs(n):
    """Index arrays (j, k, blade) over the pairs j < k, blade = mask of e_j e_k."""
    j, k = np.triu_indices(n, 1)
    return j, k, (1 << j) | (1 << k)


def bivector_even(m):
    """Blade-major even bivector fields (2**(n-1), ...) of skew matrix
    fields (..., n, n).

    The coefficient of e_j e_k (j < k) is m[..., k, j]; only the strictly
    lower triangle is read, so a matrix that is skew up to rounding maps as
    its lower triangle does.
    """
    m = np.asarray(m, dtype=np.float64)
    n = m.shape[-1]
    j, k, blade = _bivector_pairs(n)
    out = np.zeros((1 << (n - 1),) + m.shape[:-2])
    out[_parity_rows(n)[blade]] = np.moveaxis(m[..., k, j], -1, 0)
    return out


def bivector_array(m):
    """`bivector_even` in the full layout (..., 2**n)."""
    return from_even(bivector_even(m), np.shape(m)[-1])


def bivector_of_skew(u):
    """Bivector (1/2) sum_j e_j * u(e_j) representing a skew operator.

    The half-commutator action [biv, x] recovers u(x) on vectors.
    """
    m = (u if isinstance(u, SkewOperator) else SkewOperator(u)).matrix
    return Multivector(m.shape[0], bivector_array(m))


def bivector_of_offdiag(u):
    """Bivector sum_{j<=p} e_j * u(e_j) of an off-diagonal block operator.

    Acts through the half-commutator as [biv, x] = u(x_p) - u*(x_q).
    """
    if not isinstance(u, OffDiagOperator):
        raise TypeError("bivector_of_offdiag expects an OffDiagOperator")
    return bivector_of_skew(u.full_matrix())


# =============================================================================
# Spin elements, adjoint action, lifting SO(n)
# =============================================================================

SPIN_TOL = 1e-10
PURITY_TOL = 1e-10      # off-grade mass of g x rev(g) that signals corruption


class SpinElement:
    """Even multivector g with reversal(g) * g = 1 (max-norm tolerance).

    Everything produced here (spin lifts, bivector exponentials, products)
    lies in Spin(n) proper; the constructor enforces the checkable part of
    that membership.
    """

    __slots__ = ("value",)

    def __init__(self, value, tol=SPIN_TOL):
        if not isinstance(value, Multivector):
            raise TypeError("SpinElement wraps a Multivector")
        odd, unit = spin_defects(value.coeffs, value.n)
        if not odd <= tol:
            raise ValueError("spin element has odd-grade coefficients")
        if not unit <= tol:
            raise ValueError(f"reversal(g)*g deviates from 1 by {unit:.3e} "
                             f"(tolerance {tol:.1e})")
        self.value = value

    @property
    def n(self):
        return self.value.n

    @classmethod
    def identity(cls, n):
        return cls(Multivector.scalar(n, 1.0))

    def __mul__(self, other):
        if isinstance(other, SpinElement):
            return SpinElement(self.value * other.value)
        return NotImplemented

    def inverse(self):
        return SpinElement(self.value.reversal())

    def __neg__(self):
        return SpinElement(-self.value)

    def adjoint_matrix(self):
        """The SO(n) matrix of x -> g * x * reversal(g) on vectors."""
        m, impurity = adjoint_array(self.value.coeffs, self.n)
        if not impurity <= PURITY_TOL:
            raise ValueError(f"adjoint action left grade-1: impurity {impurity:.3e}")
        return m

    def __repr__(self):
        return f"SpinElement({self.value!r})"


def adjoint_array(g, n):
    """`adjoint_even` of full-layout fields g (..., 2**n).  Their odd
    coefficients are not read (a spin element is even); the largest of
    them counts as impurity, so that an odd part is reported, not dropped."""
    m, impurity = adjoint_even(to_even(g, n), n)
    return m, float(np.maximum(impurity,
                               non_grade_norm(g, n, range(0, n + 1, 2))))


def adjoint_even(e, n):
    """Matrices (..., n, n) of x -> a * x * reversal(a) on vectors, for
    blade-major even fields a (2**(n-1), ...); column k is the image of e_k.

    Returns (matrices, impurity), impurity being the largest coefficient the
    images carry outside grade 1.  For n = 3 and 4 the images of vectors
    under any even a are vectors, and Ad(a) is the quadratic form in a of
    `_closed_form_maps`: one `_accumulate` call on its bilinear term
    table, with impurity 0.  Other n take the two products a e_k and
    (a e_k) rev(a) per k, through the kernel's odd tables.
    """
    e = np.asarray(e, dtype=np.float64)
    lead = e.shape[1:]
    if n in (3, 4):
        T = _closed_form_adjoint(e.reshape(len(e), -1), n)
        return np.moveaxis(T.reshape((n, n) + lead), (0, 1), (-2, -1)), 0.0
    rev = reverse_even(e, n)
    vectors = _parity_rows(n)[1 << np.arange(n)]
    other = np.ones(1 << (n - 1), dtype=bool)
    other[vectors] = False
    cols, impurity = [], 0.0
    for k in range(n):
        x = np.zeros(1 << (n - 1))
        x[vectors[k]] = 1.0
        out = gp_blades(gp_blades(e, x, n, EVEN, ODD), rev, n, ODD, EVEN)
        if other.any():
            impurity = max(impurity, float(np.max(np.abs(out[other]))))
        cols.append(out[vectors])
    return np.moveaxis(np.stack(cols, axis=-1), 0, -2), impurity


def adjoint_action(a, x):
    """Vector rotation Ad(a) x = a * x * reversal(a) for a spin element a:
    its `adjoint_matrix` (the `adjoint_array` kernel) applied to x.

    Rejects non-unit a and an x that is not a vector.
    """
    if isinstance(a, Multivector):
        a = SpinElement(a)
    if isinstance(x, np.ndarray) or (not isinstance(x, Multivector)):
        x = Multivector.from_vector(np.asarray(x, dtype=np.float64))
    a.value._check(x)
    if non_grade_norm(x.coeffs, x.n, (1,)) > 0:
        raise ValueError("adjoint_action expects a grade-1 argument")
    return Multivector.from_vector(a.adjoint_matrix() @ x.vector())


def worst_node(defect):
    """The index tuple of the largest entry of a defect field, or of its
    first nan."""
    return tuple(int(i) for i in np.unravel_index(np.argmax(defect),
                                                  np.shape(defect)))


def _at_node(defect, shape):
    """' at node (i, j)' for the worst node of a flat defect over the nodes
    of `shape`; empty for a single matrix."""
    return f" at node {worst_node(defect.reshape(shape))}" if shape else ""


def spin_lift_array(T):
    """`spin_lift_even` in the full layout (..., 2**n)."""
    return from_even(spin_lift_even(T), np.shape(T)[-1])


def spin_lift_even(T):
    """Spin lifts a, Ad(a) = T, of rotation fields T (..., n, n), blade-major
    even (2**(n-1), ...), signed so that each node's first nonzero
    coefficient, the scalar part unless that vanishes, is positive.

    n = 3 and 4 have a closed form (`_closed_form_lift`): Ad(a) is
    quadratic in the even coefficients of a, so one linear term table on
    `_accumulate` takes T to an outer product of spin coordinates, a a^T
    for n = 3 and a+ a-^T for the halves a+- = (1 +- I)/2 a, I = e1234,
    for n = 4, and a is read off its largest row or column.  Other n
    factor every node into Givens rotations of the planes (i-1, i) in one
    order (columns j, rows i from n-1 down to j+1) and multiply their
    half-angle rotors, even rows, with `gp_blades`.
    The orthogonality gate pins |det T| to 1, and a field with any
    reflection (det < 0) is rejected since it has no spin lift.  A failed
    gate names its worst node (the first nan if any), the reflection gate
    its first reflection.
    """
    T = np.asarray(T, dtype=np.float64)
    if T.ndim < 2 or T.shape[-2] != T.shape[-1]:
        raise ValueError("spin_lift needs a square matrix")
    n = T.shape[-1]
    lead = T.shape[:-2]
    t = np.ascontiguousarray(T.reshape(-1, n * n).T)     # nodes last
    m = t.reshape(n, n, -1)
    ortho = np.max(np.abs(np.einsum("jin,jkn->ikn", m, m)
                          - np.eye(n)[..., None]), axis=(0, 1))
    if not np.max(ortho) <= SPIN_TOL:
        raise ValueError(f"matrix is not orthogonal: |T^T T - I| = "
                         f"{np.max(ortho):.3e}{_at_node(ortho, lead)}")
    closed = n in (3, 4)
    if closed:
        a = _closed_form_lift(t, n)
        miss = np.max(np.abs(_closed_form_adjoint(a, n) - t), axis=0)
    if not closed or not np.max(miss) <= 1e-8:
        # Ad(a) is a rotation for every a, so the closed form misses every
        # reflection, and needs det only to name it
        det = np.linalg.det(T)
        if np.any(det < 0):
            raise ValueError(f"matrix is not special orthogonal "
                             f"(det = {np.min(det):g})"
                             f"{_at_node(det < 0, lead)}")
        if closed:
            raise ValueError(f"spin lift failed: |Ad(a) - T| = "
                             f"{np.max(miss):.3e}; input not special "
                             f"orthogonal within tolerance"
                             f"{_at_node(miss, lead)}")
        a = _givens_lift(T, n).reshape(1 << (n - 1), -1)
    return _canonical_sign_array(a.T).T.reshape((1 << (n - 1),) + lead)


def _givens_lift(T, n):
    """The product of the half-angle rotors of T's Givens factorization,
    blade-major even (2**(n-1), ...)."""
    work = T.copy()
    rows = _parity_rows(n)
    a = np.zeros((1 << (n - 1),) + T.shape[:-2])
    a[0] = 1.0
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
            rotor[0] = np.cos(half)
            rotor[rows[(1 << (i - 1)) | (1 << i)]] = np.sin(half)
            # G_m ... G_1 T = I with G_k = R(i-1, i, -theta_k), so
            # T = R_1 R_2 ... R_m: the rotors multiply in the order applied
            a = gp_blades(a, rotor, n)
    # work is now upper triangular and orthogonal => diagonal of +-1;
    # for det +1 input with clean factorization the diagonal is +1.
    if not np.max(np.abs(work - np.eye(n))) <= 1e-8:
        raise ValueError("Givens factorization failed; input not special "
                         "orthogonal within tolerance")
    return a


def _term_table(matrix):
    """A matrix with few nonzeros per row as a linear term table (weights,
    cols), each (terms, rows of the matrix): term t of row r is
    weights[t, r] x[cols[t, r]], the nonzeros in ascending column order,
    then zero weights up to the widest row."""
    width = int(np.max(np.count_nonzero(matrix, axis=1)))
    cols = np.argsort(matrix == 0, axis=1, kind="stable")[:, :width]
    return np.take_along_axis(matrix, cols, 1).T, cols.T


@lru_cache(maxsize=None)
def _closed_form_maps(n):
    """The fixed linear maps of the closed-form lift for n = 3 or 4.

    Ad(a) is the quadratic form T[r] = sum C[r, p, q] a_p a_q over even
    blades, r = n i + k indexing the e_i coefficient of a e_k rev(a).  In
    four coordinates u, v of the even algebra it is linear in the outer
    product z = u v^T.  n = 3: u = v = a over h = (1, e12, e13, e23), and
    the ten distinct entries of the symmetric z are fixed by T and
    trace z = |a|^2 = 1.  n = 4: u, v are the halves a+- = (1 +- I)/2 a,
    a[h] = (u + v)/2 and a[I ^ h] = s (u - v)/2 with I h = s e_{I^h}; the
    vectors anticommute with I, so Ad(a) x = a+ x rev(a-) + a- x rev(a+)
    and T depends on u v^T alone.  Returns the two maps as term tables of
    `_accumulate`: z -> T as (signs, rows), each (4, n * n), since for each
    row r and row j of u one row l of v has a weight D[r, j, l] = +-1;
    (T, and a 1 for n = 3) -> z as (weights, cols), each (4, 16), weights
    +-1/4, on a row of ones.  Then the rows of h and I ^ h in the even
    layout, and s.
    """
    signs, grades = blade_tables(n)
    i, k = np.divmod(np.arange(n * n)[:, None], n)
    p = np.flatnonzero(grades % 2 == 0)[None, :]
    q = p ^ (1 << k) ^ (1 << i)     # p e_k rev(q) lands on e_i
    C = np.zeros((n * n, 1 << n, 1 << n))
    C[np.arange(n * n)[:, None], p, q] = \
        signs[p, 1 << k] * signs[p ^ (1 << k), q] * reversal_signs(n)[q]
    h = p[0, :4].copy()
    top = (1 << n) - 1
    sign = signs[top, h].astype(np.float64)
    if n == 3:
        D = C[:, h][:, :, h]
        # the unknowns are the upper triangle of z, j <= l; unknown number
        # upper[j, l] = upper[l, j] is the entry z[j, l] = z[l, j]
        j, l = np.triu_indices(4)
        L = np.vstack([D[:, j, l] + np.where(j < l, D[:, l, j], 0.0),
                       j == l])
        upper = np.zeros((4, 4), dtype=int)
        upper[j, l] = upper[l, j] = range(len(j))
        inverse = np.linalg.inv(L)[upper.reshape(-1)]
    else:
        plus, minus = np.zeros((2, 1 << n, 4))
        plus[h, range(4)] = minus[h, range(4)] = 0.5
        plus[top ^ h, range(4)] = 0.5 * sign
        minus[top ^ h, range(4)] = -0.5 * sign
        D = np.einsum("rpq,pj,ql->rjl", C, plus, minus) \
            + np.einsum("rpq,pl,qj->rjl", C, minus, plus)
        inverse = np.linalg.inv(D.reshape(16, 16))
    # the weight of u_j v_l sits at column 4 j + l, one per j
    signs, cols = _term_table(D.reshape(n * n, 16))
    forward, inverse = (signs, cols % 4), _term_table(inverse)
    blades = (_parity_rows(n)[h], _parity_rows(n)[top ^ h], sign[:, None])
    for table in (*forward, *inverse, *blades):
        table.flags.writeable = False
    return forward, inverse, *blades


def _closed_form_adjoint(a, n):
    """Ad(a) of even fields a (2**(n-1), nodes), n = 3 or 4, as the rows
    T[n i + k] (n * n, nodes): the bilinear table z -> T of
    `_closed_form_maps` on the u, v that a gives."""
    forward, _, h, ih, sign = _closed_form_maps(n)
    u, v = (a, a) if n == 3 else (a[h] + sign * a[ih], a[h] - sign * a[ih])
    return _accumulate(u, v, *forward)


def _closed_form_lift(t, n):
    """A spin lift (either sign) of rotation fields t (n * n, nodes), n = 3
    or 4, as even rows a (2**(n-1), nodes), from the outer product z of
    `_closed_form_maps` by Shepperd's pivot: the row or column of z with
    the largest norm divides best.

    n = 3: a is the column of z = a a^T with the largest diagonal entry,
    over that entry's square root.  n = 4: u is the largest column of
    z = u v^T and v = z^T u / |u|^2, rescaled to equal norms.  The sums
    over j or l run in ascending order, whatever the node count.
    """
    _, inverse, h, ih, sign = _closed_form_maps(n)
    nodes = np.arange(t.shape[-1])
    x = np.vstack([t, np.ones((1, len(nodes)))]) if n == 3 else t
    z = _accumulate(np.ones((len(inverse[0]), 1)), x, *inverse)
    z = z.reshape(4, 4, -1)
    # the diagonal of z = a a^T, or the squared column norms of z = u v^T
    key = z[range(4), range(4)] if n == 3 else sum(zj * zj for zj in z)
    pivot = np.argmax(key, axis=0)
    # the pivot columns, gathered contiguous (z[:, pivot, nodes] is not)
    u = z.reshape(4, -1)[:, pivot * len(nodes) + nodes]
    u2 = key[pivot, nodes]
    if n == 3:
        return u / np.sqrt(u2)
    v = sum(zj * uj for zj, uj in zip(z, u)) / u2
    scale = np.sqrt(np.sqrt(sum(vl * vl for vl in v) / u2))
    u, v = u * scale, v / scale
    a = np.zeros((1 << (n - 1), len(nodes)))
    a[h] = 0.5 * (u + v)
    a[ih] = 0.5 * sign * (u - v)
    return a


def _canonical_sign_array(a):
    """a (..., k) times the sign of each node's first nonzero entry: the
    scalar part, entry 0, wherever it is nonzero, and elsewhere (half
    turns) the first nonzero entry that a scan of those nodes finds."""
    lead = a[..., 0].copy()
    zero = lead == 0
    if np.any(zero):
        rest = a[zero]
        lead[zero] = rest[np.arange(len(rest)), np.argmax(rest != 0, axis=-1)]
    return np.where(lead[..., None] < 0, -a, a)


def spin_lift(T):
    """The spin element of one T in SO(n): a node of `spin_lift_array`."""
    return SpinElement(Multivector(np.shape(T)[-1], spin_lift_array(T)))

