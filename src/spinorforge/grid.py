"""Rectangular parameter grids with a conformal surface metric.

Fields live on the nodes of a uniform grid over [x0, x0+Lx] x [y0, y0+Ly]
with equal spacing h in both directions; arrays are indexed [i, j] for the
node (x0 + i h, y0 + j h), grid axes leading and any component axes
trailing.  First derivatives are second-order central differences inside;
at the boundary a one-sided 4-point stencil whose leading error term matches
the interior one keeps the error a smooth O(h^2) field (see `_d1`), and
`order=4` selects 5-point verification stencils.

The induced metric is restricted to the conformal form mu^2 (dx^2 + dy^2),
which keeps the frame geometry closed-form: with e1 = dx/mu, e2 = dy/mu,
the rotation coefficient w(X) = <nabla_X e1, e2> is

    w(dx) = -mu_y / mu,      w(dy) = +mu_x / mu,

and the Gaussian curvature is K = -Laplacian(log mu) / mu^2.
"""

import numpy as np


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

    def interior(self):
        """Boolean mask of interior nodes."""
        m = np.zeros(self.shape, dtype=bool)
        m[1:-1, 1:-1] = True
        return m

    # ---- flat derivatives ------------------------------------------------
    def _d1(self, f, axis):
        """First derivative, second order, with the boundary stencil
        (-2, 7/2, -2, 1/2)/h whose leading error +h^2/6 f''' matches the
        interior central difference: the truncation error is then a smooth
        field over the whole grid and survives further differentiation
        (curvatures, holonomy) at full order."""
        f = np.moveaxis(np.asarray(f), axis, 0)
        if f.shape[0] < 4:
            raise ValueError("matched-stencil derivatives need >= 4 nodes")
        out = np.empty_like(f)
        out[1:-1] = (f[2:] - f[:-2]) / 2.0
        out[0] = -2.0 * f[0] + 3.5 * f[1] - 2.0 * f[2] + 0.5 * f[3]
        out[-1] = 2.0 * f[-1] - 3.5 * f[-2] + 2.0 * f[-3] - 0.5 * f[-4]
        return np.moveaxis(out, 0, axis) / self.h

    def _d1_order4(self, f, axis):
        """Fourth-order first derivative (verification-grade accuracy):
        5-point central inside, one-sided 5-point at the two boundary layers."""
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
        return np.moveaxis(out, 0, axis) / self.h

    def dx(self, f, order=2):
        return self._d1(f, 0) if order == 2 else self._d1_order4(f, 0)

    def dy(self, f, order=2):
        return self._d1(f, 1) if order == 2 else self._d1_order4(f, 1)

    def dz(self, f):
        """Wirtinger d/dz = (d/dx - i d/dy) / 2 on complex fields."""
        return 0.5 * (self.dx(f) - 1j * self.dy(f))

    def dzbar(self, f):
        return 0.5 * (self.dx(f) + 1j * self.dy(f))

    def _d2(self, f, axis):
        # second derivative, O(h^2) everywhere: central inside, one-sided
        # 4-point stencil at the boundary (nested gradients would drop to
        # O(h) there)
        f = np.moveaxis(np.asarray(f, float), axis, 0)
        if f.shape[0] < 4:
            raise ValueError("second derivatives need at least 4 nodes")
        out = np.empty_like(f)
        out[1:-1] = f[2:] - 2.0 * f[1:-1] + f[:-2]
        out[0] = 2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]
        out[-1] = 2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]
        return np.moveaxis(out, 0, axis) / self.h ** 2

    def d2x(self, f):
        return self._d2(f, 0)

    def d2y(self, f):
        return self._d2(f, 1)

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
