"""Explicit group models, Darboux integration, and the structure equation.

The structure constants alone pick an algebra's group model (`model_for`),
with closed-form product, one-parameter subgroups and logarithm:

  * abelian R^n           -- payload: vector in R^n
  * S^3                   -- payload: unit quaternion (w, v1, v2, v3) in the
                             basis (1, e1, e2, e3) with e1 e2 = e3 cyclic
  * R^2 x_A R             -- payload: (x1, x2, z), product
                             (x, z)(x', z') = (x + e^{zA} x', z + z')
  * H^n (l = e_n-dual)    -- payload: (a', a_n), a_n > 0, product
                             a b = (a_n b' + a', a_n b_n)

All model operations broadcast over leading axes so whole grid rows step at
once.  A Lie-algebra-valued 1-form xi on a grid is Darboux-integrated by the
per-edge midpoint step F -> F * exp(h * xi_mid) (trapezoidal average of the
vertex values), a Magnus step with O(h^3) local and O(h^2) global error,
along the fixed spanning tree "bottom row first, then every column".
Path-independence is a checked property of the input, not an assumption:
`structure_residual` evaluates |d xi (dx, dy) + [xi(dx), xi(dy)]| per node.

Conversely, `maurer_cartan_pullback` applies the `grid.STENCILS` first
derivatives to log differences of a group map F, and `second_fundamental_form`
and `normal_connection` are the one extraction of (B, theta) from the result.
"""

import numpy as np

from . import lie_algebra as la
from .clifford import cosh_sinhc
from .grid import difference

# phi(zA) = alpha I + beta N switches from the eigenvalue form to the
# near-repeated forms when |z^2 d| (half the eigenvalue gap, squared) is below
# _NEAR_REPEATED, and to the Taylor series when also |z tr A / 2| < _SMALL_MEAN.
# The thresholds balance the cancellation of each closed form (a few ulp at
# most) against the length of the series.
_NEAR_REPEATED = 0.01
_SMALL_MEAN = 0.25
_TAYLOR_TERMS = 14


# =============================================================================
# Models
# =============================================================================

class AbelianModel:
    name = "abelian"

    def __init__(self, n):
        self.n = n
        self.payload_dim = n

    def identity(self):
        return np.zeros(self.n)

    def multiply(self, g, h):
        return np.asarray(g, float) + np.asarray(h, float)

    def inverse(self, g):
        return -np.asarray(g, float)

    def exp(self, v, t=1.0):
        return t * np.asarray(v, float)

    def log(self, g):
        return np.asarray(g, float).copy()

    def normalize(self, g):
        return np.asarray(g, float), 0.0


class S3Model:
    """Unit quaternions; vector part indexed by the orthonormal basis
    (e1, e2, e3), right-handed: e1 e2 = e3."""

    name = "s3"
    n = 3
    payload_dim = 4

    def identity(self):
        return np.array([1.0, 0.0, 0.0, 0.0])

    def multiply(self, g, h):
        g = np.asarray(g, float)
        h = np.asarray(h, float)
        w1, v1 = g[..., 0], g[..., 1:]
        w2, v2 = h[..., 0], h[..., 1:]
        w = w1 * w2 - np.sum(v1 * v2, axis=-1)
        v = (w1[..., None] * v2 + w2[..., None] * v1 + np.cross(v1, v2))
        return np.concatenate([w[..., None], v], axis=-1)

    def inverse(self, g):
        g = np.asarray(g, float)
        out = g.copy()
        out[..., 1:] *= -1.0
        return out

    def exp(self, v, t=1.0):
        v = np.asarray(v, float)
        theta = t * np.linalg.norm(v, axis=-1)
        out = np.zeros(v.shape[:-1] + (4,))
        out[..., 0] = np.cos(theta)
        nrm = np.linalg.norm(v, axis=-1)
        axis = np.where(nrm[..., None] > 0, v / np.where(nrm == 0, 1.0, nrm)[..., None], 0.0)
        out[..., 1:] = np.sin(theta)[..., None] * axis
        return out

    def log(self, g):
        g = np.asarray(g, float)
        w = np.clip(g[..., 0], -1.0, 1.0)
        vec = g[..., 1:]
        s = np.linalg.norm(vec, axis=-1)
        theta = np.arctan2(s, w)
        fac = np.where(s > 0, theta / np.where(s == 0, 1.0, s), 1.0)
        return fac[..., None] * vec

    def normalize(self, g):
        g = np.asarray(g, float)
        nrm = np.linalg.norm(g, axis=-1, keepdims=True)
        drift = float(np.max(np.abs(nrm - 1.0))) if g.size else 0.0
        return g / nrm, drift


def expm(M):
    """Matrix exponential of a batch (..., 2, 2) of real matrices, closed form.

    With s = tr M / 2 and r^2 = s^2 - det M, (M - sI)^2 = r^2 I
    (Cayley-Hamilton), so e^M = e^s (cosh r I + (sinh r / r)(M - sI)).
    r^2 is formed as ((m00 - m11)/2)^2 + m01 m10, which does not cancel when
    the eigenvalues nearly coincide.
    """
    M = np.asarray(M, float)
    s = 0.5 * (M[..., 0, 0] + M[..., 1, 1])
    a = 0.5 * (M[..., 0, 0] - M[..., 1, 1])
    bc = M[..., 0, 1] * M[..., 1, 0]
    r2 = a * a + bc
    c, sc = cosh_sinhc(r2)
    es = np.exp(s)
    ess = es * sc
    big = es * c + ess * np.abs(a)
    small = es * c - ess * np.abs(a)
    # for real r the smaller diagonal entry is e^s (cosh r - |a| sinh r / r)
    # = e^{s-r} + e^s (sinh r / r) bc / (r + |a|); this form keeps e^{s-r}
    # accurate where cosh r and |a| sinh r / r cancel (r >> 1, e.g. diag A)
    r = np.sqrt(np.maximum(r2, 0.0))
    ra = r + np.abs(a)
    small = np.where(r2 > 0, np.exp(s - r) + ess * np.divide(
        bc, ra, out=np.zeros_like(ra), where=ra > 0), small)
    out = np.empty(M.shape)
    out[..., 0, 0] = np.where(a >= 0, big, small)
    out[..., 1, 1] = np.where(a >= 0, small, big)
    out[..., 0, 1] = ess * M[..., 0, 1]
    out[..., 1, 0] = ess * M[..., 1, 0]
    return out


def _phi1(x):
    """(e^x - 1)/x on real or complex arrays, 1 at x = 0."""
    return np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0)


def _phi_coefficients(u, q):
    """alpha, gamma with phi(uI + P) = alpha I + gamma P, for
    phi(X) = sum_k X^k / (k+1)! = integral_0^1 e^{tau X} d tau and any 2x2 P
    with P^2 = qI.  The eigenvalues of uI + P are u +- sqrt(q).

      * apart (|q| >= _NEAR_REPEATED): alpha is the mean and gamma the divided
        difference of the scalar phi over the two eigenvalues (a complex
        conjugate pair when q < 0);
      * near-repeated, |u| >= _SMALL_MEAN: the integrals in closed form,
        over u^2 - q = product of the eigenvalues, bounded away from 0 here;
      * near-repeated, |u| < _SMALL_MEAN: the Taylor series in the basis
        (I, P), Horner form, _TAYLOR_TERMS terms.
    """
    u, q = np.broadcast_arrays(np.asarray(u, float), np.asarray(q, float))
    alpha = np.empty(u.shape)
    gamma = np.empty(u.shape)
    apart = np.abs(q) >= _NEAR_REPEATED
    series = ~apart & (np.abs(u) < _SMALL_MEAN)
    mid = ~apart & ~series

    w = np.sqrt(q[apart] + 0j)
    fp, fm = _phi1(u[apart] + w), _phi1(u[apart] - w)
    alpha[apart] = (0.5 * (fp + fm)).real
    gamma[apart] = ((fp - fm) / (2.0 * w)).real

    um, qm = u[mid], q[mid]
    c, sc = cosh_sinhc(qm)
    c1 = c - 1.0
    eu, em1 = np.exp(um), np.expm1(um)
    den = um * um - qm
    alpha[mid] = (um * (eu * c1 + em1) - qm * eu * sc) / den
    gamma[mid] = (eu * (um * sc - c1) - em1) / den

    us, qs = u[series], q[series]
    a, b = np.ones(us.shape), np.zeros(us.shape)
    for k in range(_TAYLOR_TERMS, 0, -1):
        # (a I + b P) <- I + (uI + P)(a I + b P) / (k + 1)
        a, b = 1.0 + (us * a + qs * b) / (k + 1), (a + us * b) / (k + 1)
    alpha[series] = a
    gamma[series] = b
    return alpha, gamma


class SemidirectModel:
    """R^2 x_A R with (x, z)(x', z') = (x + e^{zA} x', z + z')."""

    name = "semidirect"
    n = 3
    payload_dim = 3

    def __init__(self, A):
        self.A = np.asarray(A, dtype=np.float64).reshape(2, 2)
        # A = s I + N with N traceless, so N^2 = d I
        self._s = 0.5 * np.trace(self.A)
        self._N = self.A - self._s * np.eye(2)
        self._d = self._N[0, 0] ** 2 + self._N[0, 1] * self._N[1, 0]

    def identity(self):
        return np.zeros(3)

    def _expA(self, z):
        return expm(np.asarray(z, float)[..., None, None] * self.A)

    def _phi(self, z):
        """alpha, beta with phi(zA) = (e^{zA} - I)(zA)^{-1} = alpha I + beta N."""
        alpha, gamma = _phi_coefficients(z * self._s, z * z * self._d)
        return alpha, z * gamma

    def multiply(self, g, h):
        g = np.asarray(g, float)
        h = np.asarray(h, float)
        g, h = np.broadcast_arrays(g, h)
        x = g[..., :2] + np.einsum("...ij,...j->...i", self._expA(g[..., 2]),
                                   h[..., :2])
        z = g[..., 2] + h[..., 2]
        return np.concatenate([x, z[..., None]], axis=-1)

    def inverse(self, g):
        g = np.asarray(g, float)
        x = -np.einsum("...ij,...j->...i", self._expA(-g[..., 2]), g[..., :2])
        return np.concatenate([x, -g[..., 2:3]], axis=-1)

    def exp(self, v, t=1.0):
        v = np.asarray(v, float)
        w, z = v[..., :2], t * v[..., 2]
        alpha, beta = self._phi(z)
        x = t * (alpha[..., None] * w + beta[..., None] * (w @ self._N.T))
        return np.concatenate([x, z[..., None]], axis=-1)

    def log(self, g):
        g = np.asarray(g, float)
        x, z = g[..., :2], g[..., 2]
        alpha, beta = self._phi(z)
        # (alpha I + beta N)^{-1} = (alpha I - beta N) / (alpha^2 - beta^2 d)
        det = alpha * alpha - beta * beta * self._d
        w = (alpha / det)[..., None] * x - (beta / det)[..., None] * (x @ self._N.T)
        return np.concatenate([w, z[..., None]], axis=-1)

    def normalize(self, g):
        return np.asarray(g, float), 0.0


class HnModel:
    """H^n as homotheties-translations of R^{n-1}: a b = (a_n b' + a', a_n b_n).

    The coordinates are those of the bracket with l the e_n coordinate form;
    other l require a basis change and are not modelled here.
    """

    name = "hn"

    def __init__(self, n):
        self.n = n
        self.payload_dim = n

    def identity(self):
        out = np.zeros(self.n)
        out[-1] = 1.0
        return out

    def multiply(self, g, h):
        g = np.asarray(g, float)
        h = np.asarray(h, float)
        g, h = np.broadcast_arrays(g, h)
        an = g[..., -1:]
        return np.concatenate([an * h[..., :-1] + g[..., :-1],
                               an * h[..., -1:]], axis=-1)

    def inverse(self, g):
        g = np.asarray(g, float)
        an = g[..., -1:]
        return np.concatenate([-g[..., :-1] / an, 1.0 / an], axis=-1)

    def exp(self, v, t=1.0):
        v = np.asarray(v, float)
        vn = t * v[..., -1]
        return np.concatenate([t * _phi1(vn)[..., None] * v[..., :-1],
                               np.exp(vn)[..., None]], axis=-1)

    def log(self, g):
        g = np.asarray(g, float)
        vn = np.log(g[..., -1])
        return np.concatenate([(1.0 / _phi1(vn))[..., None] * g[..., :-1],
                               vn[..., None]], axis=-1)

    def normalize(self, g):
        g = np.asarray(g, float)
        if np.any(g[..., -1] <= 0):
            raise ValueError("H^n payload left the half space a_n > 0")
        return g, 0.0


def _model_dimension(params):
    """The `n` of an abelian / H^n model, 3 when absent."""
    n = la.dimension_param(params, 3)
    if n < 1:
        raise ValueError(f"model dimension n must be positive, got {n}")
    return n


def _model_matrix(params):
    """The matrix A of a semidirect model: real numbers, not strings or
    bools, that JSON nests as a 2x2 matrix."""
    if "A" not in params:
        raise ValueError("the semidirect model needs params.A")
    try:
        A = la.real_param(params["A"], "A", 2)
    except ValueError as err:
        raise ValueError(f"a finite 2x2 matrix is needed: {err}")
    if A.shape != (2, 2) or not np.all(np.isfinite(A)):
        raise ValueError("params.A must be a finite 2x2 matrix")
    return A


MODELS = {
    "abelian": lambda params: AbelianModel(_model_dimension(params)),
    "s3": lambda params: S3Model(),
    "semidirect": lambda params: SemidirectModel(_model_matrix(params)),
    "hn": lambda params: HnModel(_model_dimension(params)),
}


def model_params(model):
    """The params dict that, with `model.name`, names `model`;
    `model_from_params` inverts it."""
    if model.name == "semidirect":
        return {"A": model.A.tolist()}
    if model.name in ("abelian", "hn"):
        return {"n": model.n}
    return {}


def model_from_params(name, params):
    """The group model named by `name` (a key of MODELS) and its params;
    ValueError for unknown names and for an n < 1 or an A that is not a
    finite 2x2 matrix of real numbers."""
    if name not in MODELS:
        raise ValueError(f"unknown model {name!r}")
    return MODELS[name](params)


_S3_C = la.s3().c


def model_for(alg):
    """The group model of an algebra's structure constants c: R^n (c = 0),
    H^n (the c of hn(n), tested first so that H^3 = R^2 x_I R keeps its
    half-space coordinates), S^3 (the c of s3()), R^2 x_A R (n = 3, the c of
    semidirect(A) with A = c[2, :2, :2]^T); ValueError for any other c."""
    c, n = alg.c, alg.n
    if not c.any():
        return AbelianModel(n)
    if np.array_equal(c, la.hn_constants(np.eye(n)[-1])):
        return HnModel(n)
    if n == 3:
        if np.array_equal(c, _S3_C):
            return S3Model()
        A = c[2, :2, :2].T
        if np.array_equal(c, la.semidirect_constants(A)):
            return SemidirectModel(A)
    raise ValueError("structure constants have no closed-form group model")


class GroupElement:
    """A model-tagged group point; arithmetic sugar over the model kernels."""

    __slots__ = ("model", "payload")

    def __init__(self, model, payload):
        payload = np.asarray(payload, dtype=np.float64)
        if payload.shape != (model.payload_dim,):
            raise ValueError(f"payload shape {payload.shape} does not match "
                             f"model {model.name}")
        self.model = model
        self.payload = payload

    @classmethod
    def identity(cls, model):
        return cls(model, model.identity())

    def __mul__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        if type(self.model) is not type(other.model):
            raise ValueError("model mismatch in group product")
        return GroupElement(self.model, self.model.multiply(self.payload,
                                                            other.payload))

    def inverse(self):
        return GroupElement(self.model, self.model.inverse(self.payload))

    def log(self):
        return self.model.log(self.payload)

    def __repr__(self):
        return f"GroupElement({self.model.name}, {self.payload})"


def group_exp(alg_or_model, v, t=1.0):
    """One-parameter subgroup exp(t v) in the matching group model."""
    model = alg_or_model if hasattr(alg_or_model, "payload_dim") \
        else model_for(alg_or_model)
    return GroupElement(model, model.exp(np.asarray(v, float), t))


# =============================================================================
# 1-forms, Darboux integration, structure equation
# =============================================================================

class LieValuedOneForm:
    """Per-vertex pair (xi(dx), xi(dy)) of Lie-algebra values on a grid."""

    __slots__ = ("grid", "xi_x", "xi_y")

    def __init__(self, grid, xi_x, xi_y):
        xi_x = np.asarray(xi_x, dtype=np.float64)
        xi_y = np.asarray(xi_y, dtype=np.float64)
        if xi_x.shape != xi_y.shape or xi_x.shape[:2] != grid.shape:
            raise ValueError("1-form values must both be (nx, ny, n) on the grid")
        self.grid = grid
        self.xi_x = xi_x
        self.xi_y = xi_y

    @property
    def n(self):
        return self.xi_x.shape[-1]


class IntegrationError(RuntimeError):
    def __init__(self, message, cell=None):
        super().__init__(message + (f" at cell {cell}" if cell else ""))
        self.cell = cell


def first_non_finite(values):
    """Grid index (a tuple) of the first node of values (..., k) with a
    non-finite entry, None when all are finite."""
    bad = np.argwhere(~np.isfinite(values).all(axis=-1))
    return tuple(bad[0].tolist()) if len(bad) else None


def _step(model, g, cells):
    """model.normalize of one Darboux step's products g, the payloads of
    the grid `cells`; a product the model rejects (H^n: a_n <= 0 after an
    underflow) is an IntegrationError naming the first such cell."""
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


def darboux_integrate(xi, alg, base=None, stats=None):
    """Integrate F* omega_G = xi over the grid: F(0,0) = base, midpoint step
    F_next = F * exp(h * (xi_here + xi_there)/2) along the spanning tree
    (bottom row, then all columns at once).

    Returns the (nx, ny, payload_dim) grid of group payloads.  `stats`, when
    given, receives the unit-norm renormalization drift (S^3 only).  A base
    the model rejects is a ValueError; a step that leaves the group or
    overflows is an IntegrationError naming its cell.
    """
    model = alg if hasattr(alg, "payload_dim") else model_for(alg)
    grid, h = xi.grid, xi.grid.h
    nx, ny = grid.shape
    if isinstance(base, GroupElement):
        base = base.payload
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


def maurer_cartan_pullback(F, model, grid, order=2):
    """omega_G(F_* d/dx), omega_G(F_* d/dy): the `grid.STENCILS` first
    derivative at `order` of f_k = log(F(x)^-1 F(x + k h)), skipping the
    vanishing f_0.  order=2 has the same leading error +h^2/6 d^3 inside and
    at the edges, so the O(h^2) error field is smooth and survives the
    second-fundamental-form extraction; order=4 is the verification grade,
    whose error stays far below the O(h^2) quantities a reconstruction check
    measures."""
    def along(axis):
        Fm = np.moveaxis(F, axis, 0)
        inv = model.inverse(Fm)
        d = difference(lambda lo, hi, k: None if k == 0 else model.log(
            model.multiply(inv[lo:hi], Fm[lo + k:hi + k])),
            Fm.shape[0], grid.h, 1, order)
        return np.moveaxis(d, 0, axis)

    return along(0), along(1)


def first_fundamental_form(zx, zy):
    """(gxx, gxy, gyy), the inner products of the pullbacks z_x, z_y
    (nx, ny, n), each (nx, ny)."""
    return (np.einsum("xyi,xyi->xy", zx, zx), np.einsum("xyi,xyi->xy", zx, zy),
            np.einsum("xyi,xyi->xy", zy, zy))


def second_fundamental_form(zx, zy, normals, grid, alg, order):
    """<(D_ab + D_ba)/2, n_r>, (nx, ny, 2, 2, q) and not divided by the
    metric, with D_ab = nabla^G_{d_a} F_* d_b = d_a z_b + Gamma(z_a) z_b from
    the pullbacks z_a, normals (nx, ny, n, q) and derivatives at `order`."""
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


def normal_connection(zx, zy, normals, grid, alg):
    """theta_x, theta_y: the skew part of <nabla^G_{d_a} n_s, n_r>, each
    (nx, ny, q, q), for normals (nx, ny, n, q) along the pullbacks z_x, z_y."""
    out = []
    for za, d in ((zx, grid.dx), (zy, grid.dy)):
        dn = d(normals) + np.einsum("xyi,ijk,xyjr->xykr", za, alg.gamma,
                                    normals)
        th = np.einsum("xyis,xyir->xyrs", dn, normals)
        out.append(0.5 * (th - np.swapaxes(th, 2, 3)))
    return out[0], out[1]


def structure_residual(xi, alg):
    """Per-node norm of d xi (dx, dy) + [xi(dx), xi(dy)].

    d xi by central differences; the bracket square convention
    [xi, xi](X, Y) = [xi(X), xi(Y)] (no 1/2) is the one under which pullbacks
    of the Maurer-Cartan form are exact solutions.
    """
    grid = xi.grid
    dxi = grid.dx(xi.xi_y) - grid.dy(xi.xi_x)
    br = np.einsum("xyi,xyj,ijk->xyk", xi.xi_x, xi.xi_y, alg.c)
    return np.linalg.norm(dxi + br, axis=-1)


def structure_tolerance(grid):
    """The default gate of `structure_residual`: 10 h^2 max(1, max mu)^2, the
    O(h^2) discretization error scaled by the largest metric factor."""
    return 10.0 * grid.h ** 2 * max(1.0, float(np.max(grid.mu))) ** 2

