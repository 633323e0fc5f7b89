"""Metric Lie algebras in an orthonormal basis, with the Koszul connection.

The metric is always the identity in the distinguished basis: a general
left-invariant metric is handled by absorbing it into the choice of basis.
Structure constants are stored densely, c[i, j, k] meaning

    [e_i, e_j] = sum_k c[i, j, k] e_k,

and the Levi-Civita connection coefficients gamma[i, j, k] likewise,
Gamma(e_i) e_j = sum_k gamma[i, j, k] e_k.  The structure constants are
the only input: gamma is always derived from them by the Koszul formula

    <Gamma(X) Y, Z> = (<[X,Y],Z> + <[Z,X],Y> - <[Y,Z],X>) / 2.

The catalog covers the models used downstream: abelian R^n, the hyperbolic
group H^n with bracket l(X)Y - l(Y)X, the unit quaternions S^3 with bracket
2 X x Y, E(kappa, tau) with tau != 0, plane-by-line semi-direct products
R^2 x_A R (Sol_3 and H^2 x R as named instances), and the 3D unimodular
family with diagonalized connection constants mu_1, mu_2, mu_3.  A
builder's parameters only build c and are not kept: an algebra is its
structure constants and a tag that labels them.  In JSON an algebra is
{tag, c, gamma}; a blob without c names a catalog tag and the `params`
that `catalog_build` reads to build c.
"""

import numpy as np

from .clifford import SkewOperator, bivector_of_skew, check_dimension
from .grid import real_items, real_numbers, whole_number

JACOBI_TOL = 1e-12
KOSZUL_TOL = 1e-10      # how far a given gamma may lie from Koszul(c)
PLANE_TOL = 1e-12       # the least |X ^ Y|^2 of a sectional-curvature plane


# =============================================================================
# Core type
# =============================================================================

class MetricLieAlgebra:
    """Orthonormal-frame Lie algebra data: the structure constants c, and
    the Levi-Civita connection gamma that the Koszul formula derives from
    them (it is not an input)."""

    __slots__ = ("n", "c", "gamma", "catalog_tag")

    def __init__(self, c, catalog_tag="custom"):
        c = np.array(c, dtype=np.float64)
        n = c.shape[0] if c.ndim else 0
        if c.shape != (n, n, n):
            raise ValueError(f"structure constants must be (n,n,n); got {c.shape}")
        check_dimension(n)
        if not np.all(np.isfinite(c)):
            raise ValueError("structure constants have non-finite entries")
        if not np.array_equal(c, -np.swapaxes(c, 0, 1)):
            raise ValueError("structure constants are not antisymmetric in (i, j)")
        jac = jacobi_residual(c)
        if not jac <= JACOBI_TOL:     # NaN when c * c overflows
            raise ValueError(f"Jacobi identity violated: residual {jac:.3e}")
        c.flags.writeable = False
        self.n = n
        self.c = c
        self.catalog_tag = catalog_tag
        gamma = koszul_connection(c)
        gamma.flags.writeable = False
        self.gamma = gamma

    # ---- pointwise algebra ------------------------------------------------
    def bracket(self, X, Y):
        """[X, Y]; X and Y may be fields (..., n) that broadcast together."""
        return np.einsum("...kj,...j->...k", _operator(X, self.c), Y)

    def gamma_op(self, X):
        """Matrix of Y -> Gamma(X) Y in the distinguished basis; X may be a
        field of vectors (..., n), giving matrices (..., n, n)."""
        return _operator(X, self.gamma)

    def connection(self, X, Y):
        """Gamma(X) Y, broadcasting like `bracket`."""
        return np.einsum("...kj,...j->...k", self.gamma_op(X), Y)

    def __repr__(self):
        return f"MetricLieAlgebra(n={self.n}, tag={self.catalog_tag!r})"


def _operator(X, t):
    """Matrices (..., n, n) of Y -> sum_ij X_i Y_j t[i, j, :]: with `bracket`
    and `connection`, the only code that contracts c or gamma."""
    return np.einsum("...i,ijk->...kj", np.asarray(X, float), t)


def jacobi_residual(c):
    """Max-norm of the cyclic sum [[e_i,e_j],e_k] + cycles."""
    c = np.asarray(c, dtype=np.float64)
    # an overflowing c * c makes inf - inf = NaN here, silently: a
    # non-finite residual fails MetricLieAlgebra's `not jac <= JACOBI_TOL`
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.einsum("ijl,lkm->ijkm", c, c)
        cyc = d + np.einsum("jkim->ijkm", d) + np.einsum("kijm->ijkm", d)
    return float(np.max(np.abs(cyc))) if cyc.size else 0.0


# =============================================================================
# Connection, torsion, curvature
# =============================================================================

def koszul_connection(alg):
    """Connection coefficients from the structure constants.

    gamma[i,j,k] = (c[i,j,k] + c[k,i,j] - c[j,k,i]) / 2; skew in (j, k)
    exactly because c is exactly antisymmetric in its first two slots.
    """
    c = alg.c if isinstance(alg, MetricLieAlgebra) else np.asarray(alg, float)
    return 0.5 * (c + np.einsum("kij->ijk", c) - np.einsum("jki->ijk", c))


def torsion_residual(alg, X, Y):
    """Gamma(X)Y - Gamma(Y)X - [X, Y]; identically zero for the Levi-Civita
    connection, returned as a vector so tests can assert it."""
    return alg.connection(X, Y) - alg.connection(Y, X) - alg.bracket(X, Y)


def curvature_array(alg, X, Y):
    """Matrices (..., n, n) of R(X,Y) = [Gamma(X), Gamma(Y)] - Gamma([X,Y])
    for vector fields X, Y (..., n) that broadcast together.

    The commutator is formed as P - P^T with P = Gamma(X) @ Gamma(Y), which
    is exactly antisymmetric in floating point and mathematically equal to
    the commutator of the two (skew) connection operators.
    """
    P = alg.gamma_op(X) @ alg.gamma_op(Y)
    return P - np.swapaxes(P, -1, -2) - alg.gamma_op(alg.bracket(X, Y))


def curvature(alg, X, Y):
    """R(X,Y) at one pair of vectors: a node of `curvature_array`, as a
    SkewOperator."""
    return SkewOperator(curvature_array(alg, X, Y))


def sectional_curvature(alg, X, Y):
    """K(X, Y) = <R(X,Y)Y, X> / (|X|^2 |Y|^2 - <X,Y>^2)."""
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    denom = X @ X * (Y @ Y) - (X @ Y) ** 2
    if denom <= PLANE_TOL:
        raise ValueError("degenerate plane: X and Y are parallel")
    return float(curvature(alg, X, Y)(Y) @ X) / denom


def gamma_as_bivector(alg, X):
    """Gamma(X) as a bivector of Cl_n; its half-commutator action on vectors
    recovers the matrix action of Gamma(X)."""
    return bivector_of_skew(alg.gamma_op(X))


# =============================================================================
# Catalog
# =============================================================================

def rn(n):
    """Abelian R^n."""
    check_dimension(n)
    return MetricLieAlgebra(np.zeros((n, n, n)), catalog_tag="Rn")


def hn(n, l=None):
    """The hyperbolic group H^n: [X, Y] = l(X) Y - l(Y) X.

    Default l is the e_n coordinate form; any nonzero l is accepted.
    Every left-invariant metric here has constant curvature -|l|^2.
    """
    check_dimension(n)
    if l is None:
        l = np.zeros(n)
        l[n - 1] = 1.0
    l = np.asarray(l, dtype=np.float64)
    if l.shape != (n,) or not np.any(l):
        raise ValueError("H^n requires a nonzero linear form l of length n")
    return MetricLieAlgebra(hn_constants(l), catalog_tag="Hn")


def hn_constants(l):
    """The structure constants of H^n with the linear form l,
    c[i, j, k] = l_i delta_jk - l_j delta_ik."""
    eye = np.eye(len(l))
    return l[:, None, None] * eye - l[:, None] * eye[:, None]


def s3():
    """Unit quaternions: [X, Y] = 2 X x Y in a right-handed orthonormal basis."""
    c = np.zeros((3, 3, 3))
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k] = 2.0
        c[j, i, k] = -2.0
    return MetricLieAlgebra(c, catalog_tag="S3")


def e_kappa_tau(kappa, tau):
    """E(kappa, tau) with tau != 0: [e1,e2] = 2 tau e3, [e2,e3] = sigma e1,
    [e3,e1] = sigma e2 with sigma = kappa / (2 tau)."""
    if tau == 0:
        raise ValueError("E(kappa, tau) requires tau != 0; use h2xr()/semidirect "
                         "constructions for the tau = 0 geometries")
    sigma = kappa / (2.0 * tau)
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 2.0 * tau
    c[1, 0, 2] = -2.0 * tau
    c[1, 2, 0] = sigma
    c[2, 1, 0] = -sigma
    c[2, 0, 1] = sigma
    c[0, 2, 1] = -sigma
    return MetricLieAlgebra(c, catalog_tag="EKappaTau")


def semidirect(A, catalog_tag="SemiDirect"):
    """R^2 x_A R: [e3,e1] = a e1 + c e2, [e3,e2] = b e1 + d e2, [e1,e2] = 0."""
    A = np.asarray(A, dtype=np.float64)
    if A.shape != (2, 2):
        raise ValueError("semidirect products take a 2x2 matrix")
    return MetricLieAlgebra(semidirect_constants(A), catalog_tag=catalog_tag)


def semidirect_constants(A):
    """The structure constants of R^2 x_A R for a 2x2 matrix A; A is
    c[2, :2, :2].T."""
    (a, b), (cc, d) = A
    c = np.zeros((3, 3, 3))
    c[2, 0, 0] = a
    c[2, 0, 1] = cc
    c[0, 2, 0] = -a
    c[0, 2, 1] = -cc
    c[2, 1, 0] = b
    c[2, 1, 1] = d
    c[1, 2, 0] = -b
    c[1, 2, 1] = -d
    return c


def sol3():
    """Sol_3 = R^2 x_A R with A = diag(-1, 1)."""
    return semidirect(np.diag([-1.0, 1.0]), catalog_tag="Sol3")


def h2xr():
    """H^2 x R = R^2 x_A R with a = 1, b = c = d = 0."""
    return semidirect(np.array([[1.0, 0.0], [0.0, 0.0]]), catalog_tag="H2xR")


def unimodular(mu1, mu2, mu3):
    """3D unimodular group in Milnor form, [e1,e2] = (mu1+mu2) e3 and
    cyclic, in an orthonormal basis.  Its Koszul connection, like every
    algebra's, comes from c alone; it is Gamma(X) = X1 mu1 e23 + X2 mu2 e31
    + X3 mu3 e12, the form of the Meeks-Mira-Perez-Ros CMC representation.
    """
    mus = (float(mu1), float(mu2), float(mu3))
    c = np.zeros((3, 3, 3))
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k] = mus[i] + mus[j]
        c[j, i, k] = -c[i, j, k]
    return MetricLieAlgebra(c, catalog_tag="Unimodular")


def real_param(params, name, ndim=0):
    """`grid.real_numbers` of params[name], named params.<name>; a
    ValueError also when it is absent."""
    if name not in params:
        raise ValueError(f"params.{name} is required")
    return real_numbers(params[name], f"params.{name}", ndim)


class BoolArray(list):
    """A JSON array with a bool in it, as `serialization.load_json` marks it."""


def real_array(value, name):
    """A JSON array of numbers as float64; ValueError naming `name` when it
    is ragged, a `BoolArray`, or holds strings, bools or other non-numbers.
    An array numpy cannot type, as of integers beyond 64 bits, is judged
    item by item by `grid.real_items`."""
    try:
        items = np.array(value)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{name} is not a numeric array: {err}") from None
    kind = "b" if isinstance(value, BoolArray) else items.dtype.kind
    if kind == "O" and (reals := real_items(items, name)) is not None:
        return reals
    if kind not in "iuf":
        what = {"b": "booleans", "U": "strings"}.get(kind, "non-numbers")
        raise ValueError(f"{name} is not a numeric array: it holds {what}")
    return items.astype(np.float64, copy=False)


def dimension_param(params):
    """`grid.whole_number` of params["n"] within 1..MAX_DIM, named as given
    when it is not: int(1e300) would spell out all of its digits."""
    n = whole_number(float(real_param(params, "n")), "params.n")
    check_dimension(params["n"])
    return n


def matrix_param(params):
    """params["A"], a finite 2x2 matrix of real numbers, of the catalog's
    SemiDirect and of the semidirect group model."""
    A = real_param(params, "A", 2)
    if A.shape != (2, 2) or not np.all(np.isfinite(A)):
        raise ValueError("params.A must be a finite 2x2 matrix")
    return A


def check_all_read(params, reads, what):
    """ValueError naming each key of `params` that `what` does not read."""
    unread = sorted(map(repr, set(params) - set(reads)))
    if unread:
        raise ValueError(f"{what} reads no params {', '.join(unread)}")


def _milnor_param(params):
    """params.mu of a unimodular algebra: exactly three real numbers."""
    mu = real_param(params, "mu", 1)
    if mu.shape != (3,):
        raise ValueError(f"params.mu must be 3 real numbers; "
                         f"got {params['mu']!r}")
    return mu


# tag: (builder from a params dict, the params the command line defaults to);
# a builder reads the keys of its defaults, and Hn also an optional l
CATALOG = {
    "Rn": (lambda params: rn(dimension_param(params)), {"n": 3}),
    "Hn": (lambda params: hn(dimension_param(params), real_param(
        params, "l", 1) if "l" in params else None), {"n": 3}),
    "S3": (lambda params: s3(), {}),
    "EKappaTau": (lambda params: e_kappa_tau(
        float(real_param(params, "kappa")), float(real_param(params, "tau"))),
                  {"kappa": -1.0, "tau": 0.5}),
    "SemiDirect": (lambda params: semidirect(matrix_param(params)),
                   {"A": [[1.0, 0.0], [0.0, 1.0]]}),
    "Sol3": (lambda params: sol3(), {}),
    "H2xR": (lambda params: h2xr(), {}),
    "Unimodular": (lambda params: unimodular(*_milnor_param(params)),
                   {"mu": [1.0, 1.0, 1.0]}),
}


def catalog_tag(text):
    """The `CATALOG` tag that `text` names in any case; `text` itself when
    it names none."""
    return {tag.lower(): tag for tag in CATALOG}.get(text.lower(), text)


def catalog_build(tag, params=None):
    """Build a catalog algebra by tag, in any case, from the params its
    builder reads; a key it does not read is a ValueError."""
    key = catalog_tag(tag)
    if key not in CATALOG:
        raise ValueError(f"unknown catalog tag {tag!r}; "
                         f"known: {sorted(CATALOG)}")
    build, defaults = CATALOG[key]
    params = params or {}
    check_all_read(params, {*defaults, "l"} if key == "Hn" else defaults, key)
    return build(params)


# =============================================================================
# JSON round trip
# =============================================================================

def algebra_to_dict(alg):
    return {"tag": alg.catalog_tag, "c": alg.c.tolist(),
            "gamma": alg.gamma.tolist()}


def algebra_from_dict(d):
    """The algebra of a dict's `c`, labelled with its `tag`; its `gamma`
    and `params` are not read."""
    return MetricLieAlgebra(real_array(d["c"], "c"),
                            catalog_tag=d.get("tag", "custom"))
