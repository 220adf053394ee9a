"""Approximation domains, boundary sampling, and the built-in test functions.

Three domain shapes are supported: a disk, a real interval, and a
"horseshoe" (an annular sector with rounded ends) that wraps around the
positive real axis without touching it.  Sampling routines are
deterministic, and the fitting set and testing set for a given domain are
always disjoint.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Disk:
    center: complex = 0j
    radius: float = 1.0

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("disk radius must be positive")


@dataclass(frozen=True)
class Interval:
    a: float = -1.0
    b: float = 1.0

    def __post_init__(self):
        if not (self.a < self.b and np.isfinite(self.b - self.a)):
            raise ValueError("interval requires a < b and a finite length b - a")


@dataclass(frozen=True)
class Horseshoe:
    """Annular sector wrapped around the positive real axis.

    The region is {r <= |z| <= R, |arg z| >= alpha} with the two flat ends
    replaced by circular indentations of radius (R - r)/2 centered at the
    midpoints ((R + r)/2) e^{+-i alpha}.  The set therefore excludes the
    whole open sector |arg z| < alpha, and in particular the ray [0, inf).
    """

    inner_radius: float = 0.5
    outer_radius: float = 1.5
    opening_half_angle: float = 0.3

    def __post_init__(self):
        if not 0 < self.inner_radius < self.outer_radius:
            raise ValueError("need 0 < inner_radius < outer_radius")
        if not 0 < self.opening_half_angle < np.pi / 2:
            raise ValueError("opening_half_angle must lie in (0, pi/2)")

    @property
    def cap_radius(self):
        return 0.5 * (self.outer_radius - self.inner_radius)

    @property
    def cap_centers(self):
        mid = 0.5 * (self.outer_radius + self.inner_radius)
        a = self.opening_half_angle
        return (mid * np.exp(1j * a), mid * np.exp(-1j * a))


class FunctionSpec(enum.Enum):
    """The six built-in test functions."""

    EXP = "exp"                       # e^z, entire
    TAN_SQ = "tansq"                  # tan(z^2), meromorphic
    EXP_TAN_SQ = "exptansq"           # exp(tan(z^2)), essential singularities
    TWO_BRANCH_SQRT = "sqrt2branch"   # sqrt((1.5-z)(1.5i-z)), branch points off K
    ABS_VAL = "abs"                   # |z|, singularity on the domain
    SQRT_NEG = "sqrtneg"              # sqrt(-z), cut along [0, inf)


_NONFINITE = complex(np.nan, np.nan)


def eval_function(f, z):
    """Evaluate a built-in function at complex point(s).

    Points where the function is not analytic (poles, branch cuts) yield
    an explicit NaN marker rather than an arbitrary value.
    """
    zv = np.asarray(z, dtype=complex)
    scalar = zv.ndim == 0
    zv = np.atleast_1d(zv)
    with np.errstate(all="ignore"):
        if f is FunctionSpec.EXP:
            w = np.exp(zv)
        elif f is FunctionSpec.TAN_SQ:
            w = np.tan(zv * zv)
        elif f is FunctionSpec.EXP_TAN_SQ:
            w = np.exp(np.tan(zv * zv))
        elif f is FunctionSpec.TWO_BRANCH_SQRT:
            w = np.exp(0.5 * (np.log(1.5 - zv) + np.log(1.5j - zv)))
        elif f is FunctionSpec.ABS_VAL:
            w = np.abs(zv).astype(complex)
        elif f is FunctionSpec.SQRT_NEG:
            w = np.sqrt(-zv)
            on_cut = (zv.imag == 0) & (zv.real >= 0)
            w = np.where(on_cut, _NONFINITE, w)
        else:
            raise ValueError(f"unknown function {f!r}")
    bad = ~np.isfinite(w.real) | ~np.isfinite(w.imag)
    if bad.any():
        w = np.where(bad, _NONFINITE, w)
    return complex(w[0]) if scalar else w


@dataclass(frozen=True)
class SampleSet:
    """Paired complex sample points and function values."""

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex)
        vals = np.asarray(self.values, dtype=complex)
        if pts.shape != vals.shape or pts.ndim != 1:
            raise ValueError("points and values must be 1-D of equal length")
        if pts.size < 2:
            raise ValueError("need at least 2 samples")
        if len(np.unique(pts)) != pts.size:
            raise ValueError("sample points must be pairwise distinct")
        if not (np.all(np.isfinite(vals.real)) and np.all(np.isfinite(vals.imag))):
            raise ValueError("sample values must be finite")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)


class SampleCountError(ValueError):
    """Too few points requested for a domain's sampling schedule."""


def sample_function(f, domain, m=500):
    """Boundary samples of the domain paired with values of f."""
    pts = boundary_samples(domain, m)
    return SampleSet(pts, eval_function(f, pts))


# number of geometric cluster points per side used on intervals through 0;
# 8 per decade down to 1e-14, dense enough that a rational fit cannot
# oscillate unseen between adjacent samples near the singularity
_CLUSTER_J = 112


def _cheb1(n, a, b):
    """Chebyshev points of the first kind on [a, b] (endpoints excluded)."""
    k = np.arange(n)
    x = np.cos((2 * k + 1) * np.pi / (2 * n))
    return a + (b - a) * (x[::-1] + 1) / 2


def _cheb2(n, a, b):
    """Chebyshev points of the second kind on [a, b] (endpoints included)."""
    k = np.arange(n)
    x = np.cos(k * np.pi / (n - 1))
    return a + (b - a) * (x[::-1] + 1) / 2


def _cluster_radii(dom, offset):
    """Radii of the clusters toward 0 on an interval through 0, else none."""
    if not dom.a < 0 < dom.b:
        return np.empty(0)
    j = np.arange(1, _CLUSTER_J + 1)
    radii = 10.0 ** (-14.0 * (j - offset) / _CLUSTER_J)
    return radii[radii < min(-dom.a, dom.b)]


def _interval_points(dom, m, offset):
    """Chebyshev-density points, plus geometric clusters toward 0 when
    0 is interior.  offset=0 gives the fitting set (first-kind nodes),
    offset=0.5 the testing set (second-kind nodes, shifted clusters)."""
    radii = _cluster_radii(dom, offset)
    clusters = np.concatenate([-radii, radii])
    n_cheb = m - clusters.size
    base = _cheb1(n_cheb, dom.a, dom.b) if offset == 0 else _cheb2(n_cheb, dom.a, dom.b)
    pts = np.unique(np.concatenate([base, clusters]))
    if pts.size != m:
        raise ValueError("degenerate point collision in interval sampling")
    return pts.astype(complex)


def _horseshoe_segments(dom):
    """Arclength-parametrized boundary pieces (length, point_at(u)) with
    u in [0, 1] along each piece, traversed as one closed curve."""
    r, R, a = dom.inner_radius, dom.outer_radius, dom.opening_half_angle
    rho = dom.cap_radius
    c_plus, c_minus = dom.cap_centers
    span = 2 * np.pi - 2 * a

    def outer(u):
        return R * np.exp(1j * (a + u * span))

    def cap_minus(u):
        # from R e^{-ia} to r e^{-ia}, indenting into the annulus
        return c_minus + rho * np.exp(1j * (-a - u * np.pi))

    def inner(u):
        return r * np.exp(1j * (2 * np.pi - a - u * span))

    def cap_plus(u):
        # from r e^{+ia} to R e^{+ia}, indenting into the annulus
        return c_plus + rho * np.exp(1j * (a + np.pi - u * np.pi))

    return [
        (R * span, outer),
        (np.pi * rho, cap_minus),
        (r * span, inner),
        (np.pi * rho, cap_plus),
    ]


def _horseshoe_points(dom, m, offset):
    segs = _horseshoe_segments(dom)
    total = sum(length for length, _ in segs)
    s = (np.arange(m) + offset) * total / m
    pts = np.empty(m, dtype=complex)
    start = 0.0
    for length, point_at in segs:
        sel = (s >= start) & (s < start + length)
        pts[sel] = point_at((s[sel] - start) / length)
        start += length
    return pts


def _trace(domain, m, offset, least, what):
    """m >= least boundary points at phase offset 0 (fitting set) or 0.5
    (testing); an interval needs 2 more than its cluster points."""
    if isinstance(domain, Interval):
        least = max(least, 2 * _cluster_radii(domain, offset).size + 2)
    if m < least:
        raise SampleCountError(f"need at least {least} {what} on {domain}, got {m}")
    if isinstance(domain, Disk):
        theta = 2 * np.pi * (np.arange(m) + offset) / m
        return domain.center + domain.radius * np.exp(1j * theta)
    if isinstance(domain, Interval):
        return _interval_points(domain, m, offset)
    if isinstance(domain, Horseshoe):
        return _horseshoe_points(domain, m, offset)
    raise ValueError(f"unknown domain {domain!r}")


def boundary_samples(domain, m):
    """m pairwise-distinct points tracing the boundary of the domain once."""
    return _trace(domain, m, 0, 8, "boundary samples")


def test_grid(domain, m):
    """Dense evaluation set for sup-norm estimates, disjoint from the
    fitting set produced by boundary_samples (phase-offset sampling)."""
    return _trace(domain, m, 0.5, 64, "test points")


def contains(domain, z, tol=1e-9):
    """Whether point(s) z lie in the closed domain, within tolerance tol."""
    zv = np.atleast_1d(np.asarray(z, dtype=complex))
    if isinstance(domain, Disk):
        inside = np.abs(zv - domain.center) <= domain.radius + tol
    elif isinstance(domain, Interval):
        inside = (np.abs(zv.imag) <= tol) & (zv.real >= domain.a - tol) \
            & (zv.real <= domain.b + tol)
    elif isinstance(domain, Horseshoe):
        r_ok = (np.abs(zv) >= domain.inner_radius - tol) \
            & (np.abs(zv) <= domain.outer_radius + tol)
        ang_ok = np.abs(np.angle(zv)) >= domain.opening_half_angle - tol
        c_plus, c_minus = domain.cap_centers
        in_cap = (np.abs(zv - c_plus) < domain.cap_radius - tol) \
            | (np.abs(zv - c_minus) < domain.cap_radius - tol)
        inside = r_ok & ang_ok & ~in_cap
    else:
        raise ValueError(f"unknown domain {domain!r}")
    return bool(inside[0]) if np.isscalar(z) or np.asarray(z).ndim == 0 else inside


def interior_grid(domain, m=2000):
    """A scattered set of interior points, used when a rational model has a
    pole suspiciously close to the domain."""
    if isinstance(domain, Disk):
        n_r = max(4, int(np.sqrt(m / np.pi)))
        pts = []
        for i in range(1, n_r + 1):
            rad = domain.radius * i / (n_r + 1)
            n_t = max(8, int(2 * np.pi * rad / domain.radius * n_r))
            theta = 2 * np.pi * (np.arange(n_t) + 0.25) / n_t
            pts.append(domain.center + rad * np.exp(1j * theta))
        return np.concatenate(pts)
    if isinstance(domain, Interval):
        return _interval_points(domain, m, offset=0.25)
    if isinstance(domain, Horseshoe):
        n = int(np.sqrt(m)) + 1
        rr = np.linspace(domain.inner_radius, domain.outer_radius, n)
        tt = np.linspace(-np.pi, np.pi, 2 * n, endpoint=False)
        zz = (rr[:, None] * np.exp(1j * tt[None, :])).ravel()
        return zz[contains(domain, zz, tol=-1e-6)]
    raise ValueError(f"unknown domain {domain!r}")
