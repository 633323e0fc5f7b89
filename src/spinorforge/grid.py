"""Rectangular parameter grids with a conformal surface metric.

Fields live on the nodes of a uniform grid over [x0, x0+Lx] x [y0, y0+Ly]
with equal spacing h in both directions; arrays are indexed [i, j] for the
node (x0 + i h, y0 + j h), grid axes leading, then the tangent axis a = 0, 1
(d_a = dx, dy) of a field that has one (`tangent_stack`), then components.

`STENCILS` is the one source of the finite-difference stencils, applied by
`difference` to fields (`ParamGrid.dx`, ...) and to group maps
(`lie_group.maurer_cartan_pullback`, always at order 4, which reads from
`stencil_blocks` the interior row's offsets, logged over every node pair,
and the edge rows' other node pairs, logged in one batch).  Field first
derivatives are second-order central differences inside; at the boundary a
one-sided 4-point stencil whose leading error term matches the interior one
keeps the error a smooth O(h^2) field, and `order=4` selects the 5-point
stencils that group maps take.

The induced metric is restricted to the conformal form mu^2 (dx^2 + dy^2),
which keeps the frame geometry closed-form: with e1 = dx/mu, e2 = dy/mu,
the rotation coefficient w(X) = <nabla_X e1, e2> is

    w(dx) = -mu_y / mu,      w(dy) = +mu_x / mu,

and the Gaussian curvature is K = -Laplacian(log mu) / mu^2.
"""

import numbers
import reprlib

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


# the repr of an input value in a message: a long list is cut to its head
short_repr = reprlib.Repr()
short_repr.maxlist = short_repr.maxdict = 4


def real_numbers(value, name, ndim=0):
    """`value` as float64 when it is a real number (ndim 0) or lists of them
    nested ndim deep, not bools or strings, each within the float range; else
    a ValueError naming `name`.  The one rule for an input's numbers, here as
    this module imports no other: `ParamGrid`, `HPotential`, `real_param`,
    and `lie_algebra.real_array` for the items numpy cannot type."""
    items = np.asarray(value, dtype=object)
    reals = real_items(items, name) if items.ndim == ndim else None
    if reals is None:
        what = f"{ndim}-deep lists of reals" if ndim else "a real number"
        raise ValueError(f"{name} must be {what}; got {short_repr.repr(value)}")
    return reals


def real_items(items, name):
    """An object array as float64 when each item is a real number, not a
    bool; None when one is not, and a ValueError naming `name` when one is
    an integer beyond the float range."""
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
               for v in items.flat):
        return None
    try:
        return items.astype(np.float64)
    except OverflowError:
        raise ValueError(f"{name} must be within the float range") from None


def whole_number(value, name):
    """`real_numbers` of an integral number as an int, 3 and 3.0 alike as
    the JSON schemas count integers; ValueError naming `name` otherwise."""
    x = float(real_numbers(value, name))
    if not x.is_integer():
        raise ValueError(f"{name} must be an integral number; got {value!r}")
    return int(x)


def node_count(value, name):
    """`whole_number` of the nodes along a grid axis, at least 2; ValueError
    naming `name` and the value as given otherwise."""
    n = whole_number(value, name)
    if n < 2:
        raise ValueError(f"{name} must be at least 2; got {value!r}")
    return n


# the smallest normal float: a square below it has an overflowing reciprocal
_TINY = np.finfo(float).tiny


def nodes_needed(edges):
    """The fewest nodes per axis that a stencil's edge rows reach: the row
    of node i reads up to node i + its largest offset."""
    return max(i + max(row[0]) for i, row in enumerate(edges)) + 1


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


def stencil_blocks(size, derivative, order):
    """The blocks (lo, hi, row) of `difference` for the `derivative`-th
    derivative at `order` over `size` nodes, in the order it stacks them:
    each edge row on its one node 0, 1, ..., the interior row on the nodes
    e <= x < size - e, and the mirrored edge rows on the last e nodes;
    ValueError for an order without a stencil and for fewer nodes than the
    edge rows reach."""
    if (derivative, order) not in STENCILS:
        raise ValueError(f"no order-{order} stencil for derivative "
                         f"{derivative}; known: {sorted(STENCILS)}")
    interior, edges = STENCILS[derivative, order]
    need = nodes_needed(edges)
    if size < need:
        raise ValueError(f"order-{order} derivatives need at least {need} "
                         f"nodes per axis; got {size}")
    e, sign = len(edges), (-1) ** derivative
    far = [([-k for k in offs], [sign * w for w in ws], div)
           for offs, ws, div in edges]
    return ([(i, i + 1, row) for i, row in enumerate(edges)]
            + [(e, size - e, interior)]
            + [(size - 1 - i, size - i, far[i]) for i in reversed(range(e))])


def difference(sample, size, h, derivative, order):
    """The `derivative`-th derivative at `order` over `size` nodes of spacing
    h, stacked along the leading axis, from `sample(lo, hi, k)` = f(x + k h)
    for the nodes lo <= x < hi of each `stencil_blocks` block."""
    blocks = [_apply_row(sample, lo, hi, row)
              for lo, hi, row in stencil_blocks(size, derivative, order)]
    return np.concatenate(blocks) / h ** derivative


def tangent_stack(blocks):
    """The fields blocks[a] (nx, ny, ...) of the tangent directions d_a
    copied into one array (nx, ny, 2, ...), its tangent axis outermost in
    memory so that each block [:, :, a] is one contiguous array."""
    return np.moveaxis(np.stack(blocks), 0, 2)


# The gates scale with h^2, so they judge a grid only while its step
# is short against the metric: a longest edge h max(mu) of at most MAX_STEP.
MAX_STEP = 1.0


def residual_tolerance(grid):
    """The gate of the O(h^2) residuals and the holonomy: 10 h^2."""
    return 10.0 * grid.h ** 2


def structure_tolerance(grid):
    """The gate of `structure_residual`: 10 h^2 max(1, max mu)^2, the
    O(h^2) discretization error scaled by the largest metric factor."""
    return residual_tolerance(grid) * max(1.0, float(np.max(grid.mu))) ** 2


def check_step(grid):
    """ValueError unless the grid's metric step h max(mu) is at most
    MAX_STEP, where the O(h^2) gates mean something."""
    step = grid.h * float(np.max(grid.mu))
    if not step <= MAX_STEP:
        raise ValueError(f"the grid step h max(mu) = {step:.3g} exceeds "
                         f"{MAX_STEP:g}: the O(h^2) tolerances need a step "
                         f"short against the metric")


class ParamGrid:
    """Uniform simply connected rectangular grid, optional conformal factor."""

    __slots__ = ("nx", "ny", "h", "x0", "y0", "mu")

    def __init__(self, nx, ny, h, mu=None, x0=0.0, y0=0.0):
        self.nx = node_count(nx, "grid nx")
        self.ny = node_count(ny, "grid ny")
        # the stencils and tolerances divide by h^2 and mu^2, so the squares
        # must be finite normal floats, whose reciprocals do not overflow;
        # an overflow is inf: it fails
        self.h = float(real_numbers(h, "grid h"))
        if not (self.h > 0 and _TINY <= self.h * self.h < np.inf):
            raise ValueError(f"grid spacing h must be positive with h^2 "
                             f"normal and finite; got h = {h!r}")
        self.x0 = float(real_numbers(x0, "grid x0"))
        self.y0 = float(real_numbers(y0, "grid y0"))
        if not np.isfinite([self.x0, self.y0]).all():
            raise ValueError("grid origin must be finite")
        if mu is None:
            mu = np.ones((self.nx, self.ny))
        elif callable(mu):
            mu = mu(*self.mesh())
        mu = np.asarray(mu, dtype=np.float64)
        if mu.shape != (self.nx, self.ny):
            raise ValueError(f"mu must have shape {(self.nx, self.ny)}")
        with np.errstate(over="ignore"):
            mu2 = mu * mu
        if not np.all((mu > 0) & (mu2 >= _TINY) & (mu2 < np.inf)):
            raise ValueError("conformal factor mu must be positive with mu^2 "
                             "normal and finite")
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

    def partial(self, f, axis, order=2):
        """d_axis f: `dx` along grid axis 0, `dy` along axis 1."""
        return (self.dx, self.dy)[axis](f, order)

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
        """[w(dx), w(dy)], w(X) = <nabla_X e1, e2> for the metric frame."""
        return [self._rotation(axis) for axis in range(2)]

    def _rotation(self, axis):
        """w(d_axis): -mu_y / mu along dx, +mu_x / mu along dy."""
        return (2 * axis - 1) * self.partial(self.mu, 1 - axis) / self.mu

    def gauss_curvature(self):
        lm = np.log(self.mu)
        return -(self.d2x(lm) + self.d2y(lm)) / self.mu ** 2

    def covariant(self, v, axis):
        """nabla_{d_axis} of a tangent field in frame components (..., 2)."""
        v = np.asarray(v, dtype=np.float64)
        out = self.partial(v, axis)
        w = self._rotation(axis).reshape(self.shape + (1,) * (v.ndim - 3))
        out[..., 0] -= w * v[..., 1]
        out[..., 1] += w * v[..., 0]
        return out

    def __repr__(self):
        return (f"ParamGrid({self.nx}x{self.ny}, h={self.h:g}, "
                f"origin=({self.x0:g},{self.y0:g}))")
