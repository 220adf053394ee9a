"""Potential-field and contour-integral error analysis for rational models.

The potential phi(z) = prod_k (z - z_k) / prod_j (z - p_j) is generated by
the supports z_k and the poles p_j of a barycentric model.  It is read off
the model's denominator d(z) = sum_k w_k / (z - z_k) = q(z) / prod_k (z - z_k),
where q has the poles as its roots, so phi = c / d for a constant c, the
leading coefficient of q (the sum of the weights when q has degree n).
Its level sets are plotted on a grid, and the classical contour-integral
identity

    f(z) - r(z) = (1/2 pi i) * integral over Gamma of
                  phi(z)/phi(t) * f(t)/(t - z) dt,   phi(z)/phi(t) = d(t)/d(z),

is evaluated by trapezoid quadrature on a circular contour.  Neither
needs a product over the poles; the poles enter only the plot's markers,
its default window and the colorbar "gap" diagnostic, which measures the
spread of log10|phi| over the plot window away from supports and poles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aaa import BarycentricRational, poles as _poles  # noqa: F401 (see perfbench)
from .analysis import GRID_BLOCK


@dataclass(frozen=True)
class ContourSpec:
    """Circular quadrature contour."""

    center: complex = 0j
    radius: float = 2.0
    nodes: int = 256

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("contour radius must be positive")
        if self.nodes < 16:
            raise ValueError("need at least 16 quadrature nodes")

    def points(self):
        theta = 2 * np.pi * np.arange(self.nodes) / self.nodes
        return self.center + self.radius * np.exp(1j * theta)


@dataclass(frozen=True)
class PotentialField:
    """A model's potential on a grid, as potential_grid makes it.

    log_abs_phi holds log10|phi| at the cell centers of window, clipped to
    the 16 decades below its 99.5th percentile, ny rows of nx cells; levels
    are the integers the clipped field spans.  supports and pole_list are
    the model's, for the plot's markers and potential_gap's exclusion.
    """

    window: tuple           # (xmin, xmax, ymin, ymax)
    log_abs_phi: np.ndarray  # ny x nx, clipped
    levels: np.ndarray      # strictly increasing integer contour levels
    supports: np.ndarray
    pole_list: np.ndarray

    @property
    def resolution(self):
        """(nx, ny), the grid's shape read in x, y order."""
        return self.log_abs_phi.shape[::-1]

    def cell_centers(self):
        return _cell_centers(self.window, self.resolution)


def _cell_centers(window, resolution):
    xmin, xmax, ymin, ymax = window
    nx, ny = resolution
    xs = xmin + (np.arange(nx) + 0.5) * (xmax - xmin) / nx
    ys = ymin + (np.arange(ny) + 0.5) * (ymax - ymin) / ny
    return xs, ys


def potential_grid(model, window, resolution):
    """log10|phi| of a barycentric model at the cell centers, percentile-
    clipped for plotting, and its contour levels: the integers from the
    clipped field's minimum to its maximum.

    The field is log10|c| - log10|d|, with d summed GRID_BLOCK cells at a
    time, one Cauchy matrix-vector product per block, so no array spans
    the grid times the supports.  log10|c| is log10|phi d| at one
    reference point, the cell of largest finite |d|, where one term
    dominates d's sum, with phi the product form over the supports and the
    poles the solve returns, summed in logs.  The rule holds for every
    model, also where the solve drops a far root or q has lower degree
    than the model.  The field agrees with that product form to d's
    rounding, which loses digits where the sum cancels: near a pole, and
    where the weighted terms nearly balance, as far from the supports of a
    model whose weights sum to 0.
    """
    xmin, xmax, ymin, ymax = window
    nx, ny = resolution
    if not (xmax > xmin and ymax > ymin):
        raise ValueError("window must be nondegenerate")
    if nx < 32 or ny < 32:
        raise ValueError("resolution must be at least 32 x 32")
    xs, ys = _cell_centers(window, resolution)
    z = (xs[None, :] + 1j * ys[:, None]).ravel()
    s, w, pole_list = model.supports, model.weights, model.pole_list
    d = np.empty_like(z)
    with np.errstate(all="ignore"):
        for start in range(0, z.size, GRID_BLOCK):
            block = slice(start, start + GRID_BLOCK)
            d[block] = (1.0 / np.subtract.outer(z[block], s)) @ w
        abs_d = np.abs(d)
        k = np.argmax(np.where(np.isfinite(abs_d), abs_d, 0.0))
        offset = (np.log10(np.abs(z[k] - s)).sum()
                  - np.log10(np.abs(z[k] - pole_list)).sum()
                  + np.log10(abs_d[k]))
        vals = (offset - np.log10(abs_d)).reshape(ny, nx)
    finite = vals[np.isfinite(vals)]
    if finite.size == 0:
        raise ValueError("potential is degenerate on the whole window")
    # poles make |phi| unbounded; clip to a stable colorbar range
    l_max = float(np.percentile(finite, 99.5))
    l_min = l_max - 16.0
    clipped = np.clip(np.nan_to_num(vals, nan=l_min, posinf=l_max, neginf=l_min),
                      l_min, l_max)
    # the integer levels the clipped field spans, so each tick is on the bar
    levels = np.arange(np.ceil(clipped.min()), np.floor(l_max) + 1.0)
    return PotentialField(
        window=tuple(float(v) for v in window),
        log_abs_phi=clipped,
        levels=levels,
        supports=s,
        pole_list=pole_list,
    )


def default_window(domain_points, pole_list):
    """Bounding box of the domain and all finite poles, inflated per side by
    30% of its width (of the larger side, or 1, where that width is 0)."""
    pts = np.concatenate([
        np.asarray(domain_points, dtype=complex).ravel(),
        np.asarray(pole_list, dtype=complex).ravel(),
    ])
    pts = pts[np.isfinite(pts)]
    xmin, xmax = pts.real.min(), pts.real.max()
    ymin, ymax = pts.imag.min(), pts.imag.max()
    wx, wy = xmax - xmin, ymax - ymin
    ref = max(wx, wy) or 1.0
    dx = 0.3 * (wx if wx > 0 else ref)
    dy = 0.3 * (wy if wy > 0 else ref)
    return (xmin - dx, xmax + dx, ymin - dy, ymax + dy)


def walsh_error(contour, f_on_contour, r, z):
    """Contour-integral estimate of f(z) - r(z) for a rational interpolant.

    Trapezoid rule on the circle, with phi(z)/phi(t) = d(t)/d(z) from r's
    weights.  Requires z and all supports of r strictly inside the
    contour, and f analytic on and inside it.  No pole of r matters,
    inside the contour, on it or outside it, except that z must not be
    one: the integrand d(t) f(t) / (t - z) is analytic inside the contour
    apart from the supports and z, so only d(z) != 0 is needed.  The sums
    run in clongdouble, but the estimate is known only to about eps * A,
    for A the mean modulus of the trapezoid terms: the nodes are rounded
    to double, and f is given there.  Against that floor the extended sums
    gain a factor of 2 to 5 over complex128 ones.
    """
    if not isinstance(r, BarycentricRational):
        raise TypeError("r must be a BarycentricRational")
    fvals = np.asarray(f_on_contour, dtype=complex).ravel()
    if fvals.size != contour.nodes:
        raise ValueError(
            f"f_on_contour has {fvals.size} values, expected {contour.nodes}"
        )
    c, rho = complex(contour.center), float(contour.radius)
    if not abs(z - c) < rho * (1 - 1e-12):
        raise ValueError("z must lie strictly inside the contour")
    if np.any(np.abs(r.supports - c) >= rho):
        raise ValueError("all supports of r must lie strictly inside the contour")

    ext = np.clongdouble
    theta = 2 * np.pi * np.arange(contour.nodes, dtype=np.longdouble) / contour.nodes
    t = ext(c) + ext(rho) * np.exp(1j * theta).astype(ext)
    ze = ext(complex(z))
    sup, w = r.supports.astype(ext), r.weights.astype(ext)
    ratio = np.sum(w / (t[:, None] - sup), axis=1) / np.sum(w / (ze - sup))
    integrand = ratio * fvals.astype(ext) / (t - ze)
    total = np.sum(integrand * (t - ext(c))) / contour.nodes
    return complex(total)


def potential_gap(field):
    """Colorbar range of the field in orders of magnitude.

    Cells within 0.01 * window-diagonal of any pole or support are
    excluded before taking max - min of log10|phi|.  Each point's test
    runs only on the block of cells within radius of it in x and in y;
    outside it |z - pt| >= max(|dx|, |dy|) > radius, also in rounded
    arithmetic, since the real and imaginary parts of the cell centers
    are xs and ys exactly.  The field's supports and poles are finite.
    """
    xmin, xmax, ymin, ymax = field.window
    diag = np.hypot(xmax - xmin, ymax - ymin)
    radius = 0.01 * diag
    xs, ys = field.cell_centers()
    zz = xs[None, :] + 1j * ys[:, None]
    keep = np.ones(zz.shape, dtype=bool)
    for pt in np.concatenate([field.supports, field.pole_list]):
        # fl(x - pt.real) grows with x, so each index set is one run
        rows = np.flatnonzero(np.abs(ys - pt.imag) <= radius)
        cols = np.flatnonzero(np.abs(xs - pt.real) <= radius)
        if rows.size and cols.size:
            block = slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)
            keep[block] &= np.abs(zz[block] - pt) > radius
    vals = field.log_abs_phi[keep]
    if vals.size == 0:
        return 0.0
    return float(vals.max() - vals.min())
