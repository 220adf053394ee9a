"""Potential-field and contour-integral error analysis for rational models.

The potential quotient phi(z) = prod_k (z - z_k) / prod_k (z - pi_k) is
generated by the interpolation points z_k and the poles pi_k of a rational
approximant.  Its level sets are plotted on a grid, and the classical
contour-integral identity

    f(z) - r(z) = (1/2 pi i) * integral over Gamma of
                  phi(z)/phi(t) * f(t)/(t - z) dt

is evaluated by trapezoid quadrature on a circular contour.  A colorbar
"gap" diagnostic measures the spread of log10|phi| over the plot window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aaa import BarycentricRational, poles as _poles  # noqa: F401 (see perfbench)


class PoleNearContourError(RuntimeError):
    """A pole of r sits (numerically) on the quadrature contour."""

    def __init__(self, pole, radius):
        self.pole = pole
        super().__init__(
            f"pole {pole} lies within 1e-8 times the radius of the contour; "
            f"choose a radius different from {radius}"
        )


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


def phi(z, supports, pole_list):
    """The node/pole quotient, with interleaved factors to avoid overflow,
    computed in the precision of the inputs and never below complex128."""
    dtype = np.result_type(*map(np.asarray, (z, supports, pole_list)), complex)
    s = np.asarray(supports, dtype=dtype).ravel()
    p = np.asarray(pole_list, dtype=dtype).ravel()
    zv = np.asarray(z, dtype=dtype)
    scalar = zv.ndim == 0
    zv = np.atleast_1d(zv)
    # three buffers, so that a large grid allocates nothing per factor: diff
    # takes each difference and, in place, the product (z - s_k) * out (a
    # complex product's rounding depends on the operand order), and a pole
    # factor's quotient alternates between out and spare
    out, diff, spare = np.ones_like(zv), np.empty_like(zv), np.empty_like(zv)
    with np.errstate(all="ignore"):
        for k in range(max(s.size, p.size)):
            if k < s.size:
                np.subtract(zv, s[k], out=diff)
                out, diff = np.multiply(diff, out, out=diff), out
            if k < p.size:
                np.subtract(zv, p[k], out=diff)
                out, spare = np.divide(out, diff, out=spare), out
    if p.size:
        # a cell at a pole was divided by zero, and a non-finite product
        # stays non-finite, so only the non-finite cells can be at a pole
        at_pole = ~np.isfinite(out)
        at_pole[at_pole] = np.isin(zv[at_pole], p)
        out[at_pole] = complex(np.inf, np.inf)
    return complex(out[0]) if scalar else out


def potential_grid(supports, pole_list, window, resolution):
    """log10|phi| sampled at cell centers, percentile-clipped for plotting,
    and its contour levels: the integers from the clipped field's minimum
    to its maximum."""
    xmin, xmax, ymin, ymax = window
    nx, ny = resolution
    if not (xmax > xmin and ymax > ymin):
        raise ValueError("window must be nondegenerate")
    if nx < 32 or ny < 32:
        raise ValueError("resolution must be at least 32 x 32")
    xs, ys = _cell_centers(window, resolution)
    zz = xs[None, :] + 1j * ys[:, None]
    with np.errstate(all="ignore"):
        vals = np.log10(np.abs(phi(zz, supports, pole_list)))
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
        supports=np.asarray(supports, dtype=complex).ravel(),
        pole_list=np.asarray(pole_list, dtype=complex).ravel(),
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

    Trapezoid rule on the circle; requires z and all supports of r strictly
    inside the contour, no pole of r within 1e-8 times its radius of it
    (PoleNearContourError), and f analytic on and inside it.  The accumulation
    runs in extended precision: the integrand oscillates and cancels by
    many orders of magnitude, and double-precision roundoff would dominate
    the tiny result.
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
    pl = r.pole_list
    dist = np.abs(np.abs(pl - c) - rho) if pl.size else np.empty(0)
    if pl.size and dist.min() < 1e-8 * rho:
        raise PoleNearContourError(complex(pl[np.argmin(dist)]), rho)

    ext = np.clongdouble
    theta = 2 * np.pi * np.arange(contour.nodes, dtype=np.longdouble) / contour.nodes
    t = ext(c) + ext(rho) * np.exp(1j * theta).astype(ext)
    ze = np.atleast_1d(ext(complex(z)))
    sup = r.supports.astype(ext)
    pol = pl.astype(ext)
    ratio = phi(ze, sup, pol) / phi(t, sup, pol)
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
