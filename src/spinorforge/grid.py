"""Rectangular parameter grids with a conformal surface metric.

Fields live on the nodes of a uniform grid over [x0, x0+Lx] x [y0, y0+Ly]
with equal spacing h in both directions; arrays are indexed [i, j] for the
node (x0 + i h, y0 + j h), grid axes leading and any component axes
trailing.

`STENCILS` is the one source of the finite-difference stencils, applied by
`difference` to fields (`ParamGrid.dx`, ...) and to group maps
(`lie_group.maurer_cartan_pullback`).  First derivatives are second-order
central differences inside; at the boundary a one-sided 4-point stencil
whose leading error term matches the interior one keeps the error a smooth
O(h^2) field, and `order=4` selects 5-point verification stencils.

The induced metric is restricted to the conformal form mu^2 (dx^2 + dy^2),
which keeps the frame geometry closed-form: with e1 = dx/mu, e2 = dy/mu,
the rotation coefficient w(X) = <nabla_X e1, e2> is

    w(dx) = -mu_y / mu,      w(dy) = +mu_x / mu,

and the Gaussian curvature is K = -Laplacian(log mu) / mu^2.
"""

import numpy as np

# (derivative, order) -> (interior row, edge rows); a row (offsets, weights,
# divisor) is sum_k weight_k f(x + offset_k h) / (divisor h^derivative),
# summed in the listed order.  Edge rows are for nodes 0, 1, ...; the far end
# mirrors them (offsets negated, weights times (-1)^derivative).
STENCILS = {
    # the edge row's leading error +h^2/6 f_xxx matches the central one, so
    # the error field is smooth and survives further differentiation
    (1, 2): (((1, -1), (1.0, -1.0), 2.0),
             [((0, 1, 2, 3), (-2.0, 3.5, -2.0, 0.5), 1.0)]),
    # verification grade: 5-point central inside, one-sided at the edges
    (1, 4): (((2, 1, -1, -2), (-1.0, 8.0, -8.0, 1.0), 12.0),
             [((0, 1, 2, 3, 4),
               (-25.0 / 12.0, 4.0, -3.0, 4.0 / 3.0, -0.25), 1.0),
              ((-1, 0, 1, 2, 3),
               (-0.25, -5.0 / 6.0, 1.5, -0.5, 1.0 / 12.0), 1.0)]),
    # O(h^2) at the edge too, where nested first derivatives give O(h)
    (2, 2): (((1, 0, -1), (1.0, -2.0, 1.0), 1.0),
             [((0, 1, 2, 3), (2.0, -5.0, 4.0, -1.0), 1.0)]),
}


def _apply_row(sample, lo, hi, row):
    """One row on the nodes lo <= x < hi, skipping samples of None (terms
    known to vanish).  Terms after the first add or subtract |w| f, which
    rounds like the written-out formulas, complex fields included."""
    offsets, weights, divisor = row
    acc = None
    for k, w in zip(offsets, weights):
        f = sample(lo, hi, k)
        if f is None:
            continue
        if acc is None:
            acc = f if w == 1 else -f if w == -1 else w * f
        else:
            t = f if abs(w) == 1 else abs(w) * f
            acc = acc + t if w > 0 else acc - t
    return acc if divisor == 1 else acc / divisor


def difference(sample, size, h, derivative, order):
    """The `derivative`-th derivative at `order` over `size` nodes of spacing
    h, stacked along the leading axis, from `sample(lo, hi, k)` = f(x + k h)
    for the nodes lo <= x < hi; ValueError for an order without a stencil
    and for fewer nodes than the edge rows reach."""
    if (derivative, order) not in STENCILS:
        raise ValueError(f"no order-{order} stencil for derivative "
                         f"{derivative}; known: {sorted(STENCILS)}")
    interior, edges = STENCILS[derivative, order]
    need = max(i + max(row[0]) for i, row in enumerate(edges)) + 1
    if size < need:
        raise ValueError(f"order-{order} derivatives need at least {need} "
                         f"nodes per axis; got {size}")
    e, sign = len(edges), (-1) ** derivative
    far = [([-k for k in offs], [sign * w for w in ws], div)
           for offs, ws, div in edges]
    blocks = [_apply_row(sample, i, i + 1, row) for i, row in enumerate(edges)]
    blocks.append(_apply_row(sample, e, size - e, interior))
    blocks += [_apply_row(sample, size - 1 - i, size - i, far[i])
               for i in reversed(range(e))]
    return np.concatenate(blocks) / h ** derivative


class ParamGrid:
    """Uniform simply connected rectangular grid, optional conformal factor."""

    __slots__ = ("nx", "ny", "h", "x0", "y0", "mu")

    def __init__(self, nx, ny, h, mu=None, x0=0.0, y0=0.0):
        if nx < 2 or ny < 2:
            raise ValueError("grids need nx, ny >= 2")
        if not 0 < h < np.inf:
            raise ValueError("grid spacing must be positive and finite")
        self.nx = int(nx)
        self.ny = int(ny)
        self.h = float(h)
        self.x0 = float(x0)
        self.y0 = float(y0)
        if not np.isfinite([self.x0, self.y0]).all():
            raise ValueError("grid origin must be finite")
        if mu is None:
            mu = np.ones((self.nx, self.ny))
        elif callable(mu):
            mu = mu(*self.mesh())
        mu = np.asarray(mu, dtype=np.float64)
        if mu.shape != (self.nx, self.ny):
            raise ValueError(f"mu must have shape {(self.nx, self.ny)}")
        if not np.all((mu > 0) & (mu < np.inf)):
            raise ValueError("conformal factor must be positive and finite")
        self.mu = mu

    # ---- coordinates ----------------------------------------------------
    def xs(self):
        return self.x0 + self.h * np.arange(self.nx)

    def ys(self):
        return self.y0 + self.h * np.arange(self.ny)

    def mesh(self):
        return np.meshgrid(self.xs(), self.ys(), indexing="ij")

    @property
    def shape(self):
        return (self.nx, self.ny)

    # ---- flat derivatives ------------------------------------------------
    def _diff(self, f, axis, derivative, order):
        f = np.moveaxis(np.asarray(f), axis, 0)
        out = difference(lambda lo, hi, k: f[lo + k:hi + k], f.shape[0],
                         self.h, derivative, order)
        return np.moveaxis(out, 0, axis)

    def dx(self, f, order=2):
        return self._diff(f, 0, 1, order)

    def dy(self, f, order=2):
        return self._diff(f, 1, 1, order)

    def dz(self, f):
        """Wirtinger d/dz = (d/dx - i d/dy) / 2 on complex fields."""
        return 0.5 * (self.dx(f) - 1j * self.dy(f))

    def dzbar(self, f):
        return 0.5 * (self.dx(f) + 1j * self.dy(f))

    def d2x(self, f):
        return self._diff(f, 0, 2, 2)

    def d2y(self, f):
        return self._diff(f, 1, 2, 2)

    # ---- conformal frame geometry -----------------------------------------
    def rotation_coefficients(self):
        """w(dx), w(dy) with w(X) = <nabla_X e1, e2> for the metric frame."""
        return -self.dy(self.mu) / self.mu, self.dx(self.mu) / self.mu

    def gauss_curvature(self):
        lm = np.log(self.mu)
        return -(self.d2x(lm) + self.d2y(lm)) / self.mu ** 2

    def covariant_dx(self, v):
        """nabla_{dx} of a tangent field given in frame components (..., 2)."""
        wx, _ = self.rotation_coefficients()
        return self._cov(v, self.dx, wx)

    def covariant_dy(self, v):
        _, wy = self.rotation_coefficients()
        return self._cov(v, self.dy, wy)

    def _cov(self, v, d, w):
        v = np.asarray(v, dtype=np.float64)
        out = d(v)
        w = w.reshape(w.shape + (1,) * (v.ndim - 3))
        out[..., 0] -= w * v[..., 1]
        out[..., 1] += w * v[..., 0]
        return out

    def __repr__(self):
        return (f"ParamGrid({self.nx}x{self.ny}, h={self.h:g}, "
                f"origin=({self.x0:g},{self.y0:g}))")
