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
    """Paired sample points and function values, both float64 when neither
    array has a nonzero imaginary part (real data, such as f on an
    interval), else both complex128.

    The real case keeps the real parts, bit for bit, of the complex
    points and values it was given, so a fit to real data runs in real
    arithmetic from here on, and its model is real.
    """

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
        if not (np.any(pts.imag) or np.any(vals.imag)):
            pts, vals = pts.real.copy(), vals.real.copy()
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
    return a + (b - a) * ((x[::-1] + 1) / 2)


def _cheb2(n, a, b):
    """Chebyshev points of the second kind on [a, b] (endpoints included)."""
    k = np.arange(n)
    x = np.cos(k * np.pi / (n - 1))
    return a + (b - a) * ((x[::-1] + 1) / 2)


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


def _horseshoe_points(dom, m, offset):
    """m points evenly spaced in arclength (phase offset) along the boundary,
    traversed as one closed curve of four circular arcs, each a row
    (center, radius, start, sweep) traced at arg start + u * sweep for u in
    [0, 1]: the outer arc, the lower cap from R e^{-ia} to r e^{-ia}, the
    inner arc and the upper cap from r e^{+ia} to R e^{+ia}; the caps
    indent into the annulus."""
    r, R, a = dom.inner_radius, dom.outer_radius, dom.opening_half_angle
    rho = dom.cap_radius
    c_plus, c_minus = dom.cap_centers
    span = 2 * np.pi - 2 * a
    arcs = [
        (0, R, a, span),
        (c_minus, rho, -a, -np.pi),
        (0, r, 2 * np.pi - a, -span),
        (c_plus, rho, a + np.pi, -np.pi),
    ]
    lengths = [abs(radius * sweep) for _, radius, _, sweep in arcs]
    s = (np.arange(m) + offset) * sum(lengths) / m
    pts = np.empty(m, dtype=complex)
    done = 0.0
    for (center, radius, start, sweep), length in zip(arcs, lengths):
        sel = (s >= done) & (s < done + length)
        u = (s[sel] - done) / length
        pts[sel] = center + radius * np.exp(1j * (start + u * sweep))
        done += length
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


def contains(domain, z):
    """Whether point(s) z lie in the closed domain, exactly, with no
    tolerance: an interval holds only real points of [a, b], and a
    horseshoe's caps are open disks cut out of the annular sector."""
    zv = np.atleast_1d(np.asarray(z, dtype=complex))
    if isinstance(domain, Disk):
        inside = np.abs(zv - domain.center) <= domain.radius
    elif isinstance(domain, Interval):
        inside = (zv.imag == 0) & (zv.real >= domain.a) & (zv.real <= domain.b)
    elif isinstance(domain, Horseshoe):
        r_ok = (np.abs(zv) >= domain.inner_radius) \
            & (np.abs(zv) <= domain.outer_radius)
        ang_ok = np.abs(np.angle(zv)) >= domain.opening_half_angle
        c_plus, c_minus = domain.cap_centers
        in_cap = (np.abs(zv - c_plus) < domain.cap_radius) \
            | (np.abs(zv - c_minus) < domain.cap_radius)
        inside = r_ok & ang_ok & ~in_cap
    else:
        raise ValueError(f"unknown domain {domain!r}")
    return bool(inside[0]) if np.isscalar(z) or np.asarray(z).ndim == 0 else inside
