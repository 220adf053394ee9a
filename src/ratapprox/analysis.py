"""Convergence-study harness: degree sweeps, sup-error estimates, and
classification of the observed decay regime.

degree_sweep and sup_errors_on take samples, a greedy trajectory and test
values (grid_values) from their caller: a figure builds each once, and
convergence_study and estimate_sup_error build their own.  Every sup over
the test grid is one fold (_sups): the grid is walked in blocks of
GRID_BLOCK points, each block gives the values of all the approximants
there, and their max errors are folded into a running max, so no array
spans the whole grid.  A sweep measures its rational entries in one such
fold of an aaa.prefix_evaluator, set up once over the snapshots with no
pole in the closed domain; an entry with one reads inf.  Its polynomial
entries come from one fold (_poly_sups) in which each block regenerates
the Arnoldi basis at its points and multiplies it with the coefficients of
every degree.  estimate_sup_error measures one model through the same
code: a rational one as a sweep's rational entry, and a polynomial as a
sweep's polynomial entry, so a basis that overflows on the grid reads
inf, with no warning."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import aaa as aaa_mod
from . import geometry, polyfit
from .aaa import BarycentricRational


# the default tol_floor of a study, and the one of every figure
TOL_FLOOR = 1e-13
# the test-grid points of one block of a sup (_sups): a block's basis,
# Cauchy matrix and products stay small, and none spans the whole grid
GRID_BLOCK = 512


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
    # "ok" | "floor" | "overflow" (error not finite) | "pole-in-domain"
    # (a pole in the closed domain, error inf)
    flag: str = "ok"


@dataclass(frozen=True)
class ConvergenceRecord:
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


@dataclass(frozen=True, eq=False)
class GridValues:
    """f on the domain's test grid: the points (grid) and f there (values)."""

    domain: object
    grid: np.ndarray
    values: np.ndarray


def grid_values(f, domain):
    """The GridValues of f on domain's 4000-point test grid, in the dtype
    geometry.SampleSet gives them; raises if f is non-finite there."""
    grid = geometry.test_grid(domain, 4000)
    fv = geometry.eval_function(f, grid)
    if not np.all(np.isfinite(fv.real) & np.isfinite(fv.imag)):
        raise ValueError("f is non-finite on the test grid")
    tests = geometry.SampleSet(grid, fv)
    return GridValues(domain, tests.points, tests.values)


def _sup(err):
    """Max of |errors| along the last axis, with non-finite entries counted
    as inf."""
    err = np.abs(err)
    return np.max(np.where(np.isfinite(err), err, np.inf), axis=-1)


def _sups(tests, n_rows, values_at):
    """The sup over the test grid of each of n_rows approximants, whose
    (n_rows x block) values at tests.grid[rows], for a slice rows, are
    values_at(rows).

    The grid is walked in blocks of GRID_BLOCK points, and each block's
    per-row _sup is folded into a running max, so that no array spans the
    whole grid.  A max does not depend on how the grid is cut, so the sups
    are those of one pass over all of it.
    """
    sups = np.zeros(n_rows)
    for start in range(0, tests.grid.size, GRID_BLOCK):
        rows = slice(start, start + GRID_BLOCK)
        np.maximum(sups, _sup(tests.values[rows] - values_at(rows)), out=sups)
    return sups


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


def sup_errors_on(models, tests):
    """The SupError on tests, a GridValues, of each of models: rational
    models, each one's supports a prefix of the last one's.

    A model with a pole (its pole_list) in the closed domain, exactly
    (geometry.contains), is flagged, and its error is inf: r is unbounded
    there, so that is its true sup.  Every other model's error is its sup
    over the test grid, from one fold (_sups) of one aaa.prefix_evaluator,
    set up once for all of those models.
    """
    if not models:
        return []
    flags = [bool(np.any(geometry.contains(tests.domain, m.pole_list)))
             for m in models]
    kept = [m for m, flag in zip(models, flags) if not flag]
    sups = iter(_sups(tests, len(kept),
                      aaa_mod.prefix_evaluator(kept, tests.grid))
                if kept else ())
    return [SupError(np.inf, True) if flag
            else SupError(float(next(sups)), False)
            for flag in flags]


def _poly_sups(pmodel, degrees, tests):
    """The sup over tests, a GridValues, of pmodel's degree-n truncation
    for each n of degrees, increasing and at most pmodel.degree.

    One fold over blocks of the test grid (_sups): each block regenerates
    the basis at its points, and one product of it with the (degrees x
    columns) matrix of zero-padded coefficient prefixes gives the values
    there at every degree.  The basis can overflow on the grid at high
    degree: a block whose basis has a non-finite entry in column c first
    gives inf for every degree >= c, so a degree reads inf exactly when it
    reaches a column with a non-finite entry anywhere on the grid.
    """
    A = np.zeros((len(degrees), pmodel.degree + 1), dtype=pmodel.coeffs.dtype)
    for row, n in zip(A, degrees):
        row[: n + 1] = pmodel.coeffs[: n + 1]

    def values_at(rows):
        # the product spans the columns before c, where no zero
        # coefficient meets an inf
        W = polyfit.va_basis(pmodel, tests.grid[rows])
        c = int(np.logical_and.accumulate(np.isfinite(W).all(axis=0)).sum())
        k = int(np.searchsorted(degrees, c))  # the degrees below c
        V = np.empty((len(degrees), W.shape[0]), dtype=np.result_type(A, W))
        np.matmul(A[:k, :c], W[:, :c].T, out=V[:k])
        V[k:] = np.inf
        return V

    with np.errstate(over="ignore", invalid="ignore"):
        return _sups(tests, len(degrees), values_at)


def estimate_sup_error(f, approximant, domain):
    """The SupError of approximant, a rational or polynomial model, on the
    grid_values of f on domain, built for this call: a rational model's
    comes from sup_errors_on and a polynomial's from _poly_sups, each as a
    degree_sweep entry's does."""
    tests = grid_values(f, domain)
    if isinstance(approximant, BarycentricRational):
        return sup_errors_on([approximant], tests)[0]
    (sup,) = _poly_sups(approximant, [approximant.degree], tests)
    return SupError(float(sup), False)


def degree_sweep(degrees, tol_floor, samples, trajectory, tests):
    """Degree sweep of rational and polynomial sup errors, measured on
    tests, the GridValues of f on its domain.

    The caller builds the inputs: samples of f, trajectory an aaa_fit
    report on those samples, and tests.
    Rational entries are trajectory's snapshots, the model of each greedy
    step before any cleanup, re-measured by sup_errors_on, all in one call;
    degrees the run does not reach get no rational entry.  Polynomial
    entries come from one va_fit at the largest requested degree the
    samples allow, samples - 1: the Arnoldi basis is nested, so degree n
    uses the first n+1 basis columns and coefficients.  The fit stops at
    the last degree its points determine, and degrees above the fit's
    degree get no polynomial entry.  Their sups come from one _poly_sups
    fold, which reads inf for a degree whose basis overflows on the grid.
    Errors below tol_floor relative to max|values| are kept but flagged
    "floor", and errors that are not finite are flagged "overflow".  A
    rational entry with a pole in the closed domain is flagged
    "pole-in-domain" instead, and its error is inf.
    """
    degrees = _checked_degrees(degrees)
    floor = tol_floor * float(np.max(np.abs(samples.values)))
    poly_degrees = [n for n in degrees if samples.points.size >= n + 1]
    perr = {}
    if poly_degrees:
        pmodel = polyfit.va_fit(samples, poly_degrees[-1])
        poly_degrees = [n for n in poly_degrees if n <= pmodel.degree]
    if poly_degrees:
        perr = dict(zip(poly_degrees, map(float, _poly_sups(
            pmodel, poly_degrees, tests))))

    swept = set(degrees)
    models = [m for m in trajectory.snapshots if m.degree in swept]
    entries = [Entry(m.degree, Method.RATIONAL, sup.value,
                     "pole-in-domain" if sup.pole_in_domain
                     else _flag(sup.value, floor))
               for m, sup in zip(models, sup_errors_on(models, tests))]
    entries += [Entry(n, Method.POLYNOMIAL, e, _flag(e, floor))
                for n, e in perr.items()]
    entries.sort(key=lambda e: (e.degree, e.method.value))
    return ConvergenceRecord(tuple(entries))


def convergence_study(f, domain, degrees, tol_floor=TOL_FLOOR, n_samples=500):
    """degree_sweep on n_samples boundary samples of f, one greedy run to
    tol_floor and the largest requested degree, and a fresh test grid; no
    cleanup.  aaa_fit caps the run at n_samples // 2 - 1: rational degrees
    above that get no entry, and polynomial ones go up to n_samples - 1."""
    degrees = _checked_degrees(degrees)
    samples = geometry.sample_function(f, domain, n_samples)
    trajectory = aaa_mod.aaa_fit(samples, tol=tol_floor, max_degree=degrees[-1])
    return degree_sweep(degrees, tol_floor, samples, trajectory,
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
