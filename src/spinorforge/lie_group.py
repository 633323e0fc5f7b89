"""Explicit group models, Darboux integration, and the structure equation.

The structure constants alone pick an algebra's group model (`model_for`),
with closed-form product, one-parameter subgroups and logarithm:

  * abelian R^n           -- payload: vector in R^n
  * S^3                   -- payload: unit quaternion (w, v1, v2, v3) in the
                             basis (1, e1, e2, e3) with e1 e2 = e3 cyclic
  * R^2 x_A R             -- payload: (x1, x2, z), product
                             (x, z)(x', z') = (x + e^{zA} x', z + z');
                             per axis, e^{z a_i} x'_i, when A = diag(a)
                             (Sol_3, H^2 x R), else by 2x2 matrices
  * H^n (l = e_n-dual)    -- payload: (a', a_n), a_n > 0, product
                             a b = (a_n b' + a', a_n b_n)

All model operations broadcast over leading axes so whole grid rows step at
once.  A Lie-algebra-valued 1-form xi (nx, ny, 2, n) on a grid, its
tangent axis a = 0, 1 for dx, dy, is Darboux-integrated by the per-edge
midpoint step F -> F * exp(h * xi_mid) (trapezoidal average of the vertex
values), a Magnus step with O(h^3) local and O(h^2) global error, along
the fixed spanning tree "bottom row first, then every column".  Each model
marches a whole branch of the tree in one `prefix_products` call: a
cumulative sum for R^n, a cumulative product of a_n and sum of a_n b' for
H^n, a cumulative sum of z and of e^{z_k A} x'_k for R^2 x_A R, each in the
order of repeated `multiply`, so bit for bit its result; only S^3 steps a
loop, one `multiply` per step, whose unit drift `normalize` measures.
Path-independence is a checked property of the input, not an assumption:
`structure_residual` evaluates |d xi (dx, dy) + [xi(dx), xi(dy)]| per node.

Conversely, `maurer_cartan_pullback` applies the fourth-order
`grid.STENCILS` first derivatives to log differences log(F(x)^-1 F(x + k h))
of a group map F into z (nx, ny, 2, n), z[:, :, a] = omega_G(F_* d_a).
`first_fundamental_form`, `second_fundamental_form` (its d_a at the same
order) and `normal_connection` loop over that tangent axis of z: g
(nx, ny, 2, 2), B and theta (nx, ny, 2, q, q) are the one extraction of
the data from it.  The converse, verification and the mesh
curvature all differentiate F this one way; only this module knows the
order.  Each model's `quotients` forms those quotients with its per-node
work (the inverse, and for R^2 x_A R the e^{-zA} of every node) done once,
and each node pair is logged once: the negative offsets are the negated
logs of the positive ones, log(g^-1) = -log g.
"""

import numpy as np

from . import lie_algebra as la
from .clifford import cosh_sinhc
from .grid import difference, stencil_blocks, tangent_stack

# For a non-diagonal A, phi(zA) = alpha I + beta N switches from the
# eigenvalue form to the near-repeated forms when |z^2 d| (half the eigenvalue
# gap, squared) is below _NEAR_REPEATED, and to the Taylor series when also
# |z tr A / 2| < _SMALL_MEAN.  The thresholds balance the cancellation of each
# closed form (a few ulp at most) against the length of the series.  A
# diagonal A needs none of them: phi(zA) is _phi1(z a_i) on each axis.
_NEAR_REPEATED = 0.01
_SMALL_MEAN = 0.25
_TAYLOR_TERMS = 14
UNIT_TOL = 1e-8         # the most by which an S^3 point's norm may miss 1


# =============================================================================
# Models
# =============================================================================

class GroupModel:
    """A group model: identity, multiply, inverse, exp, log, normalize and
    prefix_products on payload arrays, broadcast over leading axes."""

    def quotients(self, F):
        """The function (a, b) -> F[a]^-1 F[b] for indices a, b (slices or
        integer arrays) of the leading axis of F that select equally many
        nodes, bit for bit `multiply(inverse(F[a]), F[b])`; the per-node
        work, here `inverse`, is done once for every quotient."""
        F = np.asarray(F, float)
        inv = self.inverse(F)
        return lambda a, b: self.multiply(inv[a], F[b])


class AbelianModel(GroupModel):
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

    def prefix_products(self, start, steps):
        """The running products start s_0, start s_0 s_1, ... of the steps
        along the leading axis of `steps`, before `normalize`."""
        return np.cumsum(np.concatenate([np.asarray(start, float)[None],
                                         steps]), axis=0)[1:]


class S3Model(GroupModel):
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
        """(cos |tv|, sin |tv| tv / |tv|)."""
        tv = t * np.asarray(v, float)
        c, sc = cosh_sinhc(-np.sum(tv * tv, axis=-1))
        return np.concatenate([c[..., None], sc[..., None] * tv], axis=-1)

    def log(self, g):
        g = np.asarray(g, float)
        w = np.clip(g[..., 0], -1.0, 1.0)
        vec = g[..., 1:]
        s = np.linalg.norm(vec, axis=-1)
        theta = np.arctan2(s, w)
        fac = np.divide(theta, s, out=np.ones_like(s), where=s > 0)
        return fac[..., None] * vec

    def normalize(self, g):
        """(g, max ||g| - 1|), g unchanged; a ValueError unless that drift
        is at most UNIT_TOL (so also when it is NaN)."""
        g = np.asarray(g, float)
        nrm = np.linalg.norm(g, axis=-1)
        drift = float(np.max(np.abs(nrm - 1.0))) if g.size else 0.0
        if not drift <= UNIT_TOL:
            raise ValueError(f"S^3 points must be unit quaternions: |q| is "
                             f"off 1 by {drift:.3e} > {UNIT_TOL:g}")
        return g, drift

    def prefix_products(self, start, steps):
        """The running products start s_0, start s_0 s_1, ... of the steps
        along the leading axis of `steps`, before `normalize`.  Quaternion
        products have no closed form to scan, so a loop takes each product
        from the previous one, one `multiply` per step."""
        out = np.empty(np.shape(steps))
        q = np.asarray(start, float)
        for k, s in enumerate(steps):
            out[k] = q = self.multiply(q, s)
        return out


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


class SemidirectModel(GroupModel):
    """R^2 x_A R with (x, z)(x', z') = (x + e^{zA} x', z + z').

    A diagonal A acts on its axes a = (A_00, A_11): e^{zA} x is e^{z a_i} x_i
    and phi(zA) w is _phi1(z a_i) w_i, so every operation is elementwise.
    Any other A takes the 2x2 forms: `expm` and phi(zA) = alpha I + beta N."""

    name = "semidirect"
    n = 3
    payload_dim = 3

    def __init__(self, A):
        self.A = np.asarray(A, dtype=np.float64).reshape(2, 2)
        self._axes = (np.diag(self.A).copy()
                      if self.A[0, 1] == self.A[1, 0] == 0 else None)
        # A = s I + N with N traceless, so N^2 = d I
        self._s = 0.5 * np.trace(self.A)
        self._N = self.A - self._s * np.eye(2)
        self._d = self._N[0, 0] ** 2 + self._N[0, 1] * self._N[1, 0]

    def identity(self):
        return np.zeros(3)

    def _expA(self, z):
        """e^{zA} per node: its axis factors (..., 2) for a diagonal A, the
        matrices (..., 2, 2) otherwise."""
        z = np.asarray(z, float)
        if self._axes is not None:
            return np.exp(z[..., None] * self._axes)
        return expm(z[..., None, None] * self.A)

    def _act(self, E, x):
        """e^{zA} x from the factors E = `_expA(z)`."""
        if self._axes is not None:
            return E * x
        return np.einsum("...ij,...j->...i", E, x)

    def _phi(self, z):
        """alpha, beta with phi(zA) = (e^{zA} - I)(zA)^{-1} = alpha I + beta N."""
        alpha, gamma = _phi_coefficients(z * self._s, z * z * self._d)
        return alpha, z * gamma

    def multiply(self, g, h):
        g = np.asarray(g, float)
        h = np.asarray(h, float)
        g, h = np.broadcast_arrays(g, h)
        x = g[..., :2] + self._act(self._expA(g[..., 2]), h[..., :2])
        z = g[..., 2] + h[..., 2]
        return np.concatenate([x, z[..., None]], axis=-1)

    def inverse(self, g):
        g = np.asarray(g, float)
        x = -self._act(self._expA(-g[..., 2]), g[..., :2])
        return np.concatenate([x, -g[..., 2:3]], axis=-1)

    def quotients(self, F):
        """`GroupModel.quotients` with e^{-zA} formed once per node:
        F[a]^-1 F[b] = (x'_a + e^{-z_a A} x_b, -z_a + z_b), with the
        inverse's x'_a = -e^{-z_a A} x_a, as `inverse` and `multiply` form
        it."""
        F = np.asarray(F, float)
        x, z = F[..., :2], F[..., 2]
        E = self._expA(-z)
        inv_x = -self._act(E, x)

        def quotient(a, b):
            qx = inv_x[a] + self._act(E[a], x[b])
            return np.concatenate([qx, (-z[a] + z[b])[..., None]], axis=-1)
        return quotient

    def exp(self, v, t=1.0):
        v = np.asarray(v, float)
        w, z = v[..., :2], t * v[..., 2]
        if self._axes is not None:
            x = t * (_phi1(z[..., None] * self._axes) * w)
        else:
            alpha, beta = self._phi(z)
            x = t * (alpha[..., None] * w + beta[..., None] * (w @ self._N.T))
        return np.concatenate([x, z[..., None]], axis=-1)

    def log(self, g):
        g = np.asarray(g, float)
        x, z = g[..., :2], g[..., 2]
        if self._axes is not None:
            w = x / _phi1(z[..., None] * self._axes)
        else:
            alpha, beta = self._phi(z)
            # (alpha I + beta N)^{-1} = (alpha I - beta N) / (alpha^2 - beta^2 d)
            det = alpha * alpha - beta * beta * self._d
            w = ((alpha / det)[..., None] * x
                 - (beta / det)[..., None] * (x @ self._N.T))
        return np.concatenate([w, z[..., None]], axis=-1)

    def normalize(self, g):
        return np.asarray(g, float), 0.0

    def prefix_products(self, start, steps):
        """The running products start s_0, start s_0 s_1, ... of the steps
        along the leading axis of `steps`: z_k by a cumulative sum, then x
        by one of the terms e^{z_k A} x'_k from a single `_expA` call, each
        sum in the order of repeated `multiply`."""
        start, steps = np.asarray(start, float), np.asarray(steps, float)
        z = np.cumsum(np.concatenate([start[None, ..., 2], steps[..., 2]]),
                      axis=0)
        t = self._act(self._expA(z[:-1]), steps[..., :2])
        x = np.cumsum(np.concatenate([start[None, ..., :2], t]), axis=0)
        return np.concatenate([x[1:], z[1:, ..., None]], axis=-1)


class HnModel(GroupModel):
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

    def prefix_products(self, start, steps):
        """The running products start s_0, start s_0 s_1, ... of the steps
        along the leading axis of `steps`, before `normalize`: a_n by a
        cumulative product, a' by a cumulative sum of the terms a_n b', each
        in the order of repeated `multiply`."""
        start, steps = np.asarray(start, float), np.asarray(steps, float)
        an = np.cumprod(np.concatenate([start[None, ..., -1:],
                                        steps[..., -1:]]), axis=0)
        a = np.cumsum(np.concatenate([start[None, ..., :-1],
                                      an[:-1] * steps[..., :-1]]), axis=0)
        return np.concatenate([a[1:], an[1:]], axis=-1)


# name: the model from its params dict, whose numbers `lie_algebra` judges:
# n by `dimension_param` (3 when absent), A by `matrix_param`
MODELS = {
    "abelian": lambda params: AbelianModel(
        la.dimension_param({"n": 3, **params})),
    "s3": lambda params: S3Model(),
    "semidirect": lambda params: SemidirectModel(la.matrix_param(params)),
    "hn": lambda params: HnModel(la.dimension_param({"n": 3, **params})),
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
    ValueError for unknown names, malformed params (see MODELS), and keys
    that the model's `model_params` does not hold."""
    if name not in MODELS:
        raise ValueError(f"unknown model {name!r}")
    model = MODELS[name](params)
    la.check_all_read(params, model_params(model), f"the {name} model")
    return model


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


# =============================================================================
# 1-forms, Darboux integration, structure equation
# =============================================================================

class LieValuedOneForm:
    """Lie-algebra values xi (nx, ny, 2, n) on a grid, xi[i, j, a] = xi(d_a)
    at node (i, j) on the tangent axis a = 0, 1 (dx, dy); `xi_x` and `xi_y`
    are read-only views of its two blocks."""

    __slots__ = ("grid", "xi")

    def __init__(self, grid, xi):
        xi = np.asarray(xi, dtype=np.float64)
        if xi.ndim != 4 or xi.shape[:3] != grid.shape + (2,):
            raise ValueError(f"1-form values must be (nx, ny, 2, n) on the "
                             f"{grid.shape} grid; got shape {xi.shape}")
        xi = tangent_stack(np.moveaxis(xi, 2, 0))     # a copy, made read-only
        xi.flags.writeable = False
        self.grid = grid
        self.xi = xi

    @property
    def n(self):
        return self.xi.shape[-1]

    xi_x = property(lambda self: self.xi[:, :, 0])
    xi_y = property(lambda self: self.xi[:, :, 1])


def _checked_form(xi, alg):
    """ValueError unless the 1-form xi takes values in the algebra alg."""
    if xi.n != alg.n:
        raise ValueError(f"1-form values in R^{xi.n} for an algebra of "
                         f"dimension {alg.n}")


class IntegrationError(RuntimeError):
    def __init__(self, message, cell=None):
        super().__init__(message + (f" at cell {cell}" if cell else ""))
        self.cell = cell


def first_non_finite(values):
    """Grid index (a tuple) of the first node of values (..., k) with a
    non-finite entry, None when all are finite."""
    finite = np.isfinite(values)
    if finite.all():
        return None
    return tuple(np.argwhere(~finite.all(axis=-1))[0].tolist())


def _judged(model, g, cells):
    """model.normalize of the Darboux products g, the payloads of the grid
    `cells` in march order; a product the model rejects (H^n: a_n <= 0
    after an underflow) is an IntegrationError naming the first such cell."""
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
    """Integrate F* omega_G = xi over the grid in the group model of `alg`
    (`model_for`): F(0,0) = base, a payload array (the identity when None),
    and the midpoint step F_next = F * exp(h * (xi_here + xi_there)/2) along
    the spanning tree, as two `prefix_products` marches of the model: the
    bottom row, then all columns at once from it.

    Returns the (nx, ny, payload_dim) grid of group payloads.  `stats`, when
    given, receives the unit-norm drift of the products (S^3 only).  A base
    the model rejects is a ValueError; a step that leaves the group or
    overflows is an IntegrationError naming its cell, the first in the
    order of the march.
    """
    _checked_form(xi, alg)
    model = model_for(alg)
    grid, h = xi.grid, xi.grid.h
    nx, ny = grid.shape
    F = np.zeros((nx, ny, model.payload_dim))
    F[0, 0] = model.identity() if base is None else np.asarray(base, float)
    model.normalize(F[0, 0])    # a base point off the group is a ValueError
    # an overflow is inf or NaN, judged below rather than warned of
    with np.errstate(over="ignore", invalid="ignore"):
        row = model.exp(0.5 * (xi.xi[:-1, 0, 0] + xi.xi[1:, 0, 0]), h)
        cols = model.exp(0.5 * (xi.xi[:, :-1, 1] + xi.xi[:, 1:, 1]), h)
        F[1:, 0], drift = _judged(model, model.prefix_products(F[0, 0], row),
                                  ((i, 0) for i in range(1, nx)))
        G, d = _judged(model, model.prefix_products(F[:, 0],
                                                    cols.swapaxes(0, 1)),
                       ((i, j) for j in range(1, ny) for i in range(nx)))
    F[:, 1:] = G.swapaxes(0, 1)
    cell = first_non_finite(F)
    if cell is not None:
        raise IntegrationError("Darboux integration diverged", cell=cell)
    if stats is not None:
        stats["renorm_drift"] = max(drift, d)
    return F


def maurer_cartan_pullback(F, model, grid):
    """z (nx, ny, 2, n) with z[:, :, a] = omega_G(F_* d_a): the fourth-order
    `grid.STENCILS` first derivative of f_k = log(F(x)^-1 F(x + k h)),
    skipping the vanishing f_0.  Each axis forms its quotients through one
    `model.quotients` and logs each node pair once: f_{-k}(x) is
    -f_k(x - k h), since log(g^-1) = -log g.  The interior row's offsets
    take one log call each over every pair (x, x + k h), and the edge rows'
    other pairs one call together.  The converse and verification share
    this one grade, whose error stays far below the O(h^2) quantities a
    reconstruction check measures."""
    def along(axis):
        Fm = np.moveaxis(F, axis, 0)
        size = Fm.shape[0]
        quotient = model.quotients(Fm)
        blocks = stencil_blocks(size, 1, 4)
        # the interior row, between the edge rows and their mirror images
        dense = {abs(k) for k in blocks[len(blocks) // 2][2][0] if k}
        logs = {k: model.log(quotient(slice(0, size - k), slice(k, size)))
                for k in dense}
        # the edge rows' pairs (x, x + k h), k > 0, at no interior offset
        pairs = sorted({(lo + min(k, 0), abs(k))
                        for lo, hi, (offsets, _, _) in blocks if hi - lo == 1
                        for k in offsets if k and abs(k) not in dense})
        i, k = np.array(pairs).T
        edge = dict(zip(pairs, model.log(quotient(i, i + k))[:, None]))

        def sample(lo, hi, k):
            if k == 0:
                return None     # f_0 = log(identity) vanishes
            i = lo + min(k, 0)  # f_k(lo) is +-log of the pair (i, i + |k|)
            f = logs[abs(k)][i:i + hi - lo] if abs(k) in logs \
                else edge[i, abs(k)]
            return f if k > 0 else -f

        d = difference(sample, size, grid.h, 1, 4)
        return np.moveaxis(d, 0, axis)

    return tangent_stack([along(0), along(1)])


def first_fundamental_form(z):
    """g (nx, ny, 2, 2), g[:, :, a, b] = <z_a, z_b> of the pullback z
    (nx, ny, 2, n), one einsum per pair a <= b (one einsum over both axes
    takes a slower general path)."""
    g = np.empty(z.shape[:2] + (2, 2))
    for a, b in ((0, 0), (0, 1), (1, 1)):
        g[:, :, a, b] = g[:, :, b, a] = np.einsum("xyi,xyi->xy", z[:, :, a],
                                                  z[:, :, b])
    return g


def second_fundamental_form(z, normals, grid, alg):
    """<(D_ab + D_ba)/2, n_r>, (nx, ny, 2, 2, q) and not divided by the
    metric, with D_ab = nabla^G_{d_a} F_* d_b = d_a z_b + Gamma(z_a) z_b from
    the pullback z (nx, ny, 2, n) and normals (nx, ny, n, q); d_a at the
    pullback's fourth order, taken once per grid axis of a contiguous copy
    of z with its tangent axis last (nx, ny, n, 2), on which the stencils
    run fastest and each dz[a][..., b] is one strided run."""
    last = np.ascontiguousarray(np.moveaxis(z, 2, -1))
    dz = [grid.partial(last, a, 4) for a in range(2)]
    D = {(a, b): dz[a][..., b] + alg.connection(z[:, :, a], z[:, :, b])
         for a in range(2) for b in range(2)}
    B = np.empty(z.shape[:2] + (2, 2, normals.shape[-1]))
    for a, b in ((0, 0), (0, 1), (1, 1)):
        B[:, :, a, b] = np.einsum("xyi,xyir->xyr", 0.5 * (D[a, b] + D[b, a]),
                                  normals)
    B[:, :, 1, 0] = B[:, :, 0, 1]     # as D_10 + D_01 = D_01 + D_10
    return B


def normal_connection(z, normals, grid, alg):
    """theta (nx, ny, 2, q, q), theta[:, :, a] the skew part of
    <nabla^G_{d_a} n_s, n_r>, for normals (nx, ny, n, q) along the
    pullback z (nx, ny, 2, n)."""
    theta = []
    columns = np.swapaxes(normals, 2, 3)
    for a in range(2):
        # Gamma(z_a) n_r, each normal column a vector of the contraction
        dn = grid.partial(normals, a) + np.swapaxes(
            alg.connection(z[:, :, a, None], columns), 2, 3)
        th = np.einsum("xyis,xyir->xyrs", dn, normals)
        theta.append(0.5 * (th - np.swapaxes(th, 2, 3)))
    return tangent_stack(theta)


def structure_residual(xi, alg):
    """Per-node norm of d xi (dx, dy) + [xi(dx), xi(dy)].

    d xi by central differences; the bracket square convention
    [xi, xi](X, Y) = [xi(X), xi(Y)] (no 1/2) is the one under which pullbacks
    of the Maurer-Cartan form are exact solutions.
    """
    _checked_form(xi, alg)
    grid, v = xi.grid, xi.xi
    dxi = grid.partial(v[:, :, 1], 0) - grid.partial(v[:, :, 0], 1)
    return np.linalg.norm(dxi + alg.bracket(v[:, :, 0], v[:, :, 1]), axis=-1)

