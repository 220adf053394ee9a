"""Convergence-study harness: degree sweeps, sup-error estimates, and
classification of the observed decay regime.

degree_sweep and sup_error_on take samples, a greedy trajectory and test
values (grid_values) from their caller: a figure builds each once, and
convergence_study and estimate_sup_error build their own."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import aaa as aaa_mod
from . import geometry, polyfit
from .aaa import BarycentricRational
from .geometry import FunctionSpec


class Method(enum.Enum):
    RATIONAL = "rational"
    POLYNOMIAL = "polynomial"


class SupError(NamedTuple):
    value: float
    pole_in_domain: bool


@dataclass(frozen=True)
class Entry:
    degree: int
    method: Method
    error: float
    # "ok" | "floor" | "pole-in-domain" | "overflow" (error not finite)
    flag: str = "ok"


@dataclass(frozen=True)
class ConvergenceRecord:
    fn: FunctionSpec
    domain: object
    entries: tuple

    def for_method(self, method):
        return [e for e in self.entries if e.method is method]


@dataclass(frozen=True)
class RateClass:
    """Observed decay regime of a convergence curve.

    kind is one of "superexponential", "exponential", "root-exponential",
    "algebraic".  rate is log10-decay per unit degree (exponential), per
    unit sqrt(degree) (root-exponential), or the algebraic order; it is
    None for superexponential.  diagnostics carries the three regression
    R^2 values.
    """

    kind: str
    rate: float | None
    diagnostics: dict


def grid_values(f, domain):
    """The domain's 4000-point test grid and f on it, as a (grid, values)
    pair; raises if f is non-finite there."""
    grid = geometry.test_grid(domain, 4000)
    fv = geometry.eval_function(f, grid)
    if not np.all(np.isfinite(fv.real) & np.isfinite(fv.imag)):
        raise ValueError("f is non-finite on the test grid")
    return grid, fv


def _sup(err):
    """Max of |errors|, with non-finite entries counted as inf."""
    err = np.abs(err)
    return float(np.max(np.where(np.isfinite(err), err, np.inf)))


def _flag(error, floor):
    if not np.isfinite(error):
        return "overflow"
    return "floor" if error < floor else "ok"


def _checked_degrees(degrees):
    degrees = [int(d) for d in degrees]
    if not degrees or any(b <= a for a, b in zip(degrees, degrees[1:])):
        raise ValueError("degrees must be nonempty and strictly increasing")
    if degrees[0] < 0:
        raise ValueError(f"degrees must be nonnegative, got {degrees[0]}")
    return degrees


def sup_error_on(f, approximant, domain, tests):
    """Sup of |f - approximant| over tests, the grid_values of f on domain.

    If the approximant is rational and has a pole inside (or within 1e-9
    of) the domain, the result is flagged and an interior grid is scanned
    as well.  The poles are the model's pole_list, solved once per model.
    """
    grid, fv = tests
    pole_in_domain = False
    if isinstance(approximant, BarycentricRational):
        pole_in_domain = bool(np.any(
            geometry.contains(domain, approximant.pole_list, tol=1e-9)))
    sup = _sup(fv - approximant(grid))
    if pole_in_domain:
        interior = geometry.interior_grid(domain)
        fi = geometry.eval_function(f, interior)
        ok = np.isfinite(fi.real) & np.isfinite(fi.imag)
        if np.any(ok):
            sup = max(sup, _sup(fi[ok] - approximant(interior[ok])))
    return SupError(sup, pole_in_domain)


def estimate_sup_error(f, approximant, domain):
    """sup_error_on the grid_values of f on domain, built for this call."""
    return sup_error_on(f, approximant, domain, grid_values(f, domain))


def degree_sweep(f, domain, degrees, tol_floor, samples, trajectory, tests):
    """Degree sweep of rational and polynomial sup errors, measured on
    tests, the grid_values of f on domain.

    The caller builds the inputs: samples of f, trajectory an aaa_fit
    report on those samples, and tests.
    Rational entries are trajectory's snapshots, the model of each greedy
    step before any cleanup, re-measured on the test grid; degrees the run
    does not reach get no rational entry.  Polynomial entries come from
    one fit at the largest requested degree the samples allow, samples - 1:
    the Arnoldi basis is nested, so degree n uses the first n+1 basis
    columns and coefficients, and the basis is evaluated on the test grid
    once.  If that fit breaks down at basis column k, it is redone at the
    largest requested degree below k, and degrees from k on get no
    polynomial entry.
    Errors below tol_floor relative to max|values| are kept but flagged
    "floor", and errors that are not finite are flagged "overflow".
    """
    degrees = _checked_degrees(degrees)
    grid, fv = tests
    floor = tol_floor * float(np.max(np.abs(samples.values)))
    by_degree = {m.degree: m for m in trajectory.snapshots}
    poly_degrees = [n for n in degrees if samples.points.size >= n + 1]
    pmodel = None
    while poly_degrees and pmodel is None:
        try:
            pmodel = polyfit.va_fit(samples, poly_degrees[-1])
        except polyfit.ArnoldiBreakdownError as err:
            # the basis is nested: every degree below the breakdown is valid
            poly_degrees = [n for n in poly_degrees if n < err.step]
    # the basis can overflow on the grid at high degree: flagged "overflow"
    perr = {}
    if pmodel is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            W = polyfit.va_basis(pmodel, grid)
            for n in poly_degrees:
                perr[n] = _sup(fv - W[:, : n + 1] @ pmodel.coeffs[: n + 1])

    entries = []
    for n in degrees:
        model = by_degree.get(n)
        if model is not None:
            sup = sup_error_on(f, model, domain, tests)
            flag = ("pole-in-domain" if sup.pole_in_domain
                    else _flag(sup.value, floor))
            entries.append(Entry(n, Method.RATIONAL, sup.value, flag))
        if n in perr:
            entries.append(Entry(n, Method.POLYNOMIAL, perr[n],
                                 _flag(perr[n], floor)))
    entries.sort(key=lambda e: (e.degree, e.method.value))
    return ConvergenceRecord(fn=f, domain=domain, entries=tuple(entries))


def convergence_study(f, domain, degrees, tol_floor=1e-13, n_samples=500):
    """degree_sweep on n_samples boundary samples of f, one greedy run to
    tol_floor and up to the largest requested degree but at most
    samples - 2, and a fresh test grid.  No cleanup is run."""
    degrees = _checked_degrees(degrees)
    samples = geometry.sample_function(f, domain, n_samples)
    trajectory = aaa_mod.aaa_fit(
        samples, tol=tol_floor,
        max_degree=min(degrees[-1], samples.points.size - 2))
    return degree_sweep(f, domain, degrees, tol_floor, samples, trajectory,
                        grid_values(f, domain))


def _regress(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), max(0.0, min(1.0, r2))


def classify_rate(record, method):
    """Classify the decay of the pre-floor segment of one method's curve.

    Fits log10 E against n, sqrt(n), and log10 n; concave curvature in n
    (at least 70% of second differences negative with mean below -0.01 per
    degree^2) wins as superexponential, otherwise the best R^2 decides.
    """
    pts = [(e.degree, e.error) for e in record.for_method(method)
           if e.flag == "ok" and e.error > 0 and e.degree >= 1]
    if len(pts) < 4:
        raise ValueError(
            f"need at least 4 pre-floor entries to classify, got {len(pts)}"
        )
    n = np.array([p[0] for p in pts], dtype=float)
    y = np.log10([p[1] for p in pts])

    slope_e, r2_e = _regress(n, y)
    slope_r, r2_r = _regress(np.sqrt(n), y)
    slope_a, r2_a = _regress(np.log10(n), y)
    diagnostics = {
        "r2_exponential": r2_e,
        "r2_root_exponential": r2_r,
        "r2_algebraic": r2_a,
    }

    # second divided differences of log10 E with respect to degree
    d2 = []
    for i in range(len(n) - 2):
        s1 = (y[i + 1] - y[i]) / (n[i + 1] - n[i])
        s2 = (y[i + 2] - y[i + 1]) / (n[i + 2] - n[i + 1])
        d2.append(2.0 * (s2 - s1) / (n[i + 2] - n[i]))
    d2 = np.array(d2)
    if d2.size and np.mean(d2 < 0) >= 0.7 and d2.mean() < -0.01:
        return RateClass("superexponential", None, diagnostics)

    best = max(
        [("exponential", r2_e, -slope_e),
         ("root-exponential", r2_r, -slope_r),
         ("algebraic", r2_a, -slope_a)],
        key=lambda t: t[1],
    )
    return RateClass(best[0], float(best[2]), diagnostics)
