"""Dense real Clifford algebras Cl_n with the convention e_i^2 = -1.

A multivector of the rank-n algebra is a dense coefficient array of length
2**n indexed by basis-blade bitmask: bit g of the index set means the blade
contains the generator e_{g+1}, generators ordered ascending.  The single
global sign convention, used by every other module, is

    X * Y + Y * X = -2 <X, Y>   for vectors X, Y      (so e_i * e_i = -1).

Blade product signs are precomputed once per algebra by popcount counting
over the whole table at once (anticommutation swaps plus one factor -1 per
contracted pair).
n is capped at 8, i.e. 256 coefficients; everything is plain float64 numpy
and the low-level kernels broadcast over leading axes so that fields of
multivectors (grids) go through the same code path.

`gp_array`, the geometric product every other kernel is built on, keeps
this full layout but multiplies only live blades: a blade is live when some
node has a nonzero or non-finite coefficient in it, found by one reduction
per operand.  Spinor fields, edge rotors and holonomy loops are even, so a
product of two of them touches a quarter of the 2**n x 2**n blade pairs
(the quaternions for n = 3, Sp(1) x Sp(1) for n = 4).  The term table of
each pattern of live blades is cached, and each live row of the left
factor is one numpy call over all nodes.  Terms are added in the order of
the dense loop over all blades, and the skipped ones are exact zeros, so
the products are bit-identical to it.

`exp_array` is the general exponential of any multivector (a Taylor series
with scaling and squaring).  Bivector fields, the transport steps of the
spinor solver, go through `bivector_exp_array`, which is exact and free of
geometric products for n <= 4 (Spin(3) and Spin(4) = Sp(1) x Sp(1)), and
so is the inverse of the adjoint action there, the spin lift of a rotation
field (`spin_lift_array`).

Multivectors are immutable values; all operations return new objects.
"""

import math
from functools import lru_cache

import numpy as np

MAX_DIM = 8


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
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"algebra dimension must be in 1..{MAX_DIM}, got {n}")
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
# Array kernels (broadcast over leading axes, last axis = 2**n coefficients)
# =============================================================================

def _blade_weights(x, dim):
    """Per-blade sums of |coefficient| over all nodes of x (..., dim): zero
    exactly where every node's coefficient is zero, nan or inf where any
    node is non-finite."""
    flat = x.reshape(-1, dim)
    return np.ones(flat.shape[0]) @ np.abs(flat)


def _blade_major(x, blades, shape):
    """The listed blades of x (..., dim) over the nodes of `shape`, which
    x's leading axes broadcast to: a (len(blades), nodes) copy."""
    out = x.reshape(-1, x.shape[-1]).T[blades]
    if x.shape[:-1] != shape:
        lead = (1,) * (len(shape) - x.ndim + 1) + x.shape[:-1]
        out = np.broadcast_to(out.reshape(blades.shape + lead),
                              blades.shape + shape)
    return out.reshape(len(blades), math.prod(shape))


@lru_cache(maxsize=256)
def _gp_terms(n, live_a, live_b):
    """Term table of a product whose live blades are the boolean masks
    live_a, live_b (as bytes): the live rows i and columns j, and per live
    row, ascending, the signs s(i, j) over the live columns (a column
    vector) and the output blades i ^ j they land on."""
    signs, _ = blade_tables(n)
    rows = np.flatnonzero(np.frombuffer(live_a, dtype=bool))
    cols = np.flatnonzero(np.frombuffer(live_b, dtype=bool))
    terms = tuple((signs[i, cols, None].astype(np.float64), i ^ cols)
                  for i in rows)
    for table in (rows, cols) + sum(terms, ()):
        table.flags.writeable = False
    return rows, cols, terms


def gp_array(a, b, n):
    """Geometric product of coefficient arrays, broadcasting leading axes.

    Only live blades are multiplied: a blade is live when some node has a
    nonzero (or non-finite) coefficient in it.  Output blade k is the sum of
    s(i, j) a_i b_j over the live pairs i ^ j = k, added in ascending i to a
    zero start, which is the order of the dense row loop over all 2**n
    blades; the pairs left out contribute exact +-0, so finite inputs give
    bit-identical results.  When a is non-finite every column stays live,
    so inf * 0 makes the same nan the dense loop makes.  Each live row of a
    is one numpy call over all nodes and live columns, on blade-major
    copies, added into the output blades i ^ cols, distinct within a row.
    """
    dim = 1 << n
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    shape = a.shape[:-1]
    if b.shape[:-1] != shape:
        shape = np.broadcast_shapes(shape, b.shape[:-1])
    weights = _blade_weights(a, dim)
    live_a = weights != 0
    if math.isfinite(weights.sum()):   # an overflow only costs speed
        live_b = _blade_weights(b, dim) != 0
    else:
        live_b = np.ones(dim, dtype=bool)
    rows, cols, terms = _gp_terms(n, live_a.tobytes(), live_b.tobytes())
    at = _blade_major(a, rows, shape)
    bt = _blade_major(b, cols, shape)
    out = np.zeros((dim, math.prod(shape)))
    for ai, (sign, blades) in zip(at, terms):
        t = sign * ai
        t *= bt
        out[blades] += t
    return np.ascontiguousarray(out.T).reshape(shape + (dim,))


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


def unit_defect(a, n):
    """rev(a) a - 1 for fields of multivectors a (..., 2**n)."""
    out = gp_array(reverse_array(a, n), a, n)
    out[..., 0] -= 1.0
    return out


def spin_defects(a, n):
    """(odd, unit): the largest |coefficient| of a field a (..., 2**n)
    outside the even grades and of `unit_defect`; unit is nan for a
    non-finite a, decided before the product, where inf * 0 would raise."""
    odd = non_grade_norm(a, n, range(0, n + 1, 2))
    if not np.all(np.isfinite(a)):
        return odd, math.nan
    return odd, float(np.max(np.abs(unit_defect(a, n))))


def non_grade_norm(a, n, keep):
    """Max |coefficient| outside the listed grades."""
    a = np.asarray(a)
    _, grades = blade_tables(n)
    mask = np.ones(1 << n, dtype=bool)
    for k in keep:
        mask[grades == k] = False
    outside = a[..., mask]
    return float(np.max(np.abs(outside))) if outside.size else 0.0


def exp_array(a, n, terms=18):
    """Clifford exponential of any multivector field by scaling-and-squaring
    plus Taylor series.

    This is the general series, `terms` geometric products per field plus
    one per squaring; the series converges fast after scaling to max-norm
    <= 0.5.  Bivector fields have the closed form `bivector_exp_array`.
    """
    a = np.asarray(a, dtype=np.float64)
    m = float(np.max(np.abs(a))) if a.size else 0.0
    s = max(0, int(math.ceil(math.log2(m / 0.5))) if m > 0.5 else 0)
    x = a / (1 << s)
    dim = 1 << n
    out = np.zeros_like(x)
    out[..., 0] = 1.0
    term = out.copy()
    for k in range(1, terms + 1):
        term = gp_array(term, x, n) / k
        out = out + term
    for _ in range(s):
        out = gp_array(out, out, n)
    return out


@lru_cache(maxsize=None)
def _pseudoscalar_gathers(n):
    """With I the top blade of Cl_n, per bivector blade: its complement
    I ^ blade, the sign of blade * complement (the I part of b^2 pairs each
    blade with its complement) and the sign of I * blade."""
    signs, _ = blade_tables(n)
    top = (1 << n) - 1
    biv = grade_indices(n, 2)
    return top ^ biv, signs[biv, top ^ biv], signs[top, biv]


def bivector_exp_array(a, n):
    """exp(b) of bivector fields b (..., 2**n) in closed form for n <= 4,
    where coefficients outside grade 2 are not read.  For n >= 5 this is
    `exp_array`, which exponentiates every coefficient.

    For n <= 3 every bivector is simple: b^2 = -|b|^2 and
    exp(b) = cos|b| + (sin|b| / |b|) b.  For n = 4 the pseudoscalar
    I = e1234 has I^2 = +1 and is central in the even algebra, so
    (1 +- I)/2 split b^2 = s + p I into the real squares s +- p, and with
    C+- = cos t+-, S+- = sin t+- / t+-, t+- = sqrt(-(s +- p)),

        exp(b) = (C+ + C-)/2 + (C+ - C-)/2 I + (S+ + S-)/2 b + (S+ - S-)/2 I b

    (the invariant decomposition of Roelfs & De Keninck, arXiv:2107.03771).
    p and I b are index/sign gathers; no geometric product is taken.
    """
    if n >= 5:
        return exp_array(a, n)
    a = np.asarray(a, dtype=np.float64)
    biv = grade_indices(n, 2)
    b = a[..., biv]
    out = np.zeros(a.shape)
    s = -np.sum(b * b, axis=-1)
    if n < 4:
        c, sc = cosh_sinhc(s)
        out[..., 0] = c
        out[..., biv] = sc[..., None] * b
        return out
    comp, pair_sign, i_sign = _pseudoscalar_gathers(n)
    p = np.sum(pair_sign * b * a[..., comp], axis=-1)
    cp, sp = cosh_sinhc(s + p)
    cm, sm = cosh_sinhc(s - p)
    out[..., 0] = 0.5 * (cp + cm)
    out[..., -1] = 0.5 * (cp - cm)
    out[..., biv] = 0.5 * (sp + sm)[..., None] * b
    out[..., comp] += 0.5 * (sp - sm)[..., None] * i_sign * b
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
        if not 1 <= n <= MAX_DIM:
            raise ValueError(f"algebra dimension must be in 1..{MAX_DIM}, got {n}")
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


def bivector_array(m):
    """Bivector coefficients (..., 2**n) of skew matrix fields (..., n, n).

    The coefficient of e_j e_k (j < k) is m[..., k, j]; only the strictly
    lower triangle is read, so a matrix that is skew up to rounding maps as
    its lower triangle does.
    """
    m = np.asarray(m, dtype=np.float64)
    n = m.shape[-1]
    j, k, blade = _bivector_pairs(n)
    out = np.zeros(m.shape[:-2] + (1 << n,))
    out[..., blade] = m[..., k, j]
    return out


def bivector_of_skew(u):
    """Bivector (1/2) sum_j e_j * u(e_j) representing a skew operator.

    The half-commutator action [biv, x] recovers u(x) on vectors.
    """
    if isinstance(u, SkewOperator):
        m = u.matrix
    else:
        m = np.asarray(u, dtype=np.float64)
        if not np.array_equal(m, -m.T):
            raise ValueError("matrix is not antisymmetric")
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
    """Matrices (..., n, n) of x -> g * x * reversal(g) on vectors, for a
    field of multivectors g (..., 2**n); column k is the image of e_k.

    Returns (matrices, impurity), impurity being the largest coefficient the
    images carry outside grade 1 (zero up to rounding for spin elements).
    """
    g = np.asarray(g, dtype=np.float64)
    rev = reverse_array(g, n)
    cols, impurity = [], []
    for k in range(n):
        out = gp_array(gp_array(g, vector_array(np.eye(n)[k], n), n), rev, n)
        impurity.append(non_grade_norm(out, n, (1,)))
        cols.append(vector_part_array(out, n))
    return np.stack(cols, axis=-1), float(np.max(impurity))


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


def spin_lift_array(T):
    """Spin lifts a (..., 2**n), Ad(a) = T, of rotation fields T (..., n, n),
    signed so that each node's first nonzero coefficient, the scalar part
    unless that vanishes, is positive.

    n = 3 and 4 have a closed form (`_closed_form_lift`): Ad(a) is
    quadratic in the even coefficients of a, so one fixed linear map takes
    T to an outer product of spin coordinates, a a^T for n = 3 and
    a+ a-^T for the halves a+- = (1 +- I)/2 a, I = e1234, for n = 4, and
    a is read off its largest row or column.  Other n factor every node
    into Givens rotations of the planes (i-1, i) in one order (columns j,
    rows i from n-1 down to j+1) and multiply their half-angle rotors.
    The orthogonality gate pins |det T| to 1, and a field with any
    reflection (det < 0) is rejected since it has no spin lift.
    """
    T = np.asarray(T, dtype=np.float64)
    if T.ndim < 2 or T.shape[-2] != T.shape[-1]:
        raise ValueError("spin_lift needs a square matrix")
    n = T.shape[-1]
    t = np.ascontiguousarray(T.reshape(-1, n * n).T)     # nodes last
    m = t.reshape(n, n, -1)
    ortho = np.max(np.abs(np.einsum("jin,jkn->ikn", m, m)
                          - np.eye(n)[..., None]))
    if not ortho <= SPIN_TOL:
        raise ValueError(f"matrix is not orthogonal: |T^T T - I| = {ortho:.3e}")
    closed = n in (3, 4)
    if closed:
        a, miss = _closed_form_lift(t, n)
    if not closed or not miss <= 1e-8:
        # Ad(a) is a rotation for every a, so the closed form misses every
        # reflection, and needs det only to name it
        det = np.linalg.det(T)
        if np.any(det < 0):
            raise ValueError(f"matrix is not special orthogonal "
                             f"(det = {np.min(det):g})")
        if closed:
            raise ValueError(f"spin lift failed: |Ad(a) - T| = {miss:.3e}; "
                             f"input not special orthogonal within tolerance")
        a = _givens_lift(T, n)
    return _canonical_sign_array(a.reshape(T.shape[:-2] + (1 << n,)))


def _givens_lift(T, n):
    """The product of the half-angle rotors of T's Givens factorization."""
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


def _sparse_map(table):
    """A matrix with few nonzeros per row as (cols, weights), each
    (rows, width): the columns of each row's nonzeros and their values,
    padded with zero weights."""
    width = int(np.max(np.count_nonzero(table, axis=1)))
    cols = np.argsort(table == 0, axis=1, kind="stable")[:, :width]
    weights = np.take_along_axis(table, cols, 1)
    cols.flags.writeable = weights.flags.writeable = False
    return cols, weights


def _apply_sparse(sparse, x):
    """A `_sparse_map` applied to x (columns, nodes): one row gather and
    einsum's own loop, so no BLAS matrix product (which spreads over
    threads) runs over the nodes."""
    cols, weights = sparse
    return np.einsum("rtn,rt->rn", x[cols], weights)


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
    and T depends on u v^T alone.  Returns the sparse maps (`_sparse_map`)
    z -> T and (T, and a 1 for n = 3) -> z, both with entries +-1 or
    +-1/4, and h, I ^ h, s.
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
    blades = (h, top ^ h, sign[:, None])
    for table in blades:
        table.flags.writeable = False
    return (_sparse_map(D.reshape(n * n, 16)), _sparse_map(inverse),
            *blades)


def _closed_form_lift(t, n):
    """A spin lift (either sign) of rotation fields t (n * n, nodes), n = 3
    or 4, as (a (nodes, 2**n), max |Ad(a) - t|), from the outer product
    z of `_closed_form_maps` by Shepperd's pivot: the row or column of z
    with the largest norm divides best.

    n = 3: a[h] is the column of z = a a^T with the largest diagonal
    entry, over that entry's square root.  n = 4: u is the largest column of
    z = u v^T and v = z^T u / |u|^2, rescaled to equal norms.  Ad(a) is
    the map z -> T of the u, v that a itself gives.
    """
    forward, inverse, h, ih, sign = _closed_form_maps(n)
    nodes = np.arange(t.shape[-1])
    x = np.vstack([t, np.ones((1, len(nodes)))]) if n == 3 else t
    z = _apply_sparse(inverse, x).reshape(4, 4, -1)
    # the diagonal of z = a a^T, or the squared column norms of z = u v^T
    key = (np.einsum("jjn->jn", z) if n == 3
           else np.einsum("jln,jln->ln", z, z))
    pivot = np.argmax(key, axis=0)
    # the pivot columns, gathered contiguous (z[:, pivot, nodes] is not)
    u = z.reshape(4, -1)[:, pivot * len(nodes) + nodes]
    u2 = key[pivot, nodes]
    a = np.zeros((1 << n, len(nodes)))
    if n == 3:
        a[h] = u = v = u / np.sqrt(u2)
    else:
        v = np.einsum("jln,jn->ln", z, u) / u2
        scale = np.sqrt(np.sqrt(np.einsum("ln,ln->n", v, v) / u2))
        u, v = u * scale, v / scale
        a[h] = 0.5 * (u + v)
        a[ih] = 0.5 * sign * (u - v)
        u, v = a[h] + sign * a[ih], a[h] - sign * a[ih]
    miss = np.max(np.abs(_apply_sparse(forward, (u[:, None] * v).reshape(
        16, -1)) - t))
    return np.ascontiguousarray(a.T), miss


def _canonical_sign_array(a):
    """a (..., 2**n) times the sign of each node's first nonzero entry."""
    lead = np.take_along_axis(a, np.argmax(a != 0, axis=-1)[..., None], -1)
    return np.where(lead < 0, -a, a)


def spin_lift(T):
    """The spin element of one T in SO(n): a node of `spin_lift_array`."""
    return SpinElement(Multivector(np.shape(T)[-1], spin_lift_array(T)))

