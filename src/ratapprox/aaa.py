"""Greedy barycentric rational fitting with pole and residue extraction.

The fitter (aaa_fit) selects support points one at a time at the sample of
largest current error, solves for barycentric weights as the smallest
right singular vector of the Loewner matrix over the remaining samples,
and stops at a relative error tolerance.  Each step moves the new
support from the rows of the Loewner matrix to its columns, in one step
of a linalg.RowBlockedR, which also holds the remaining rows: blocks of
linalg.BLOCK_ROWS sample rows, each with its own Householder QR that
takes the new column in O(rows * degree).  The block that lost the new
support's row is factored again at once from its raw Loewner rows,
recomputed from the samples with the new column, so nothing is
downdated; the other blocks' rows of the new column are built once, in
one call.  The singular pair comes from linalg.min_singular_right_vector
on the blocks' R factors, stacked; on at most BLOCK_ROWS samples that is
the SVD of the R of the Loewner matrix itself.  The error of a step comes
from a C-ordered cache of the Cauchy matrix 1 / (Z - z_c) over all
samples, one column per support, into which each step writes only its new
column.  The cache grows _CAUCHY_GROWTH columns at a time: when it is
full, it is freed and a wider one is filled again from the supports, so
memory follows the columns a fit reaches.  The report carries the whole
trajectory, the error, sigma_min and model of every step, and the R
factor of the last model's Loewner matrix: the blocks' R, stacked and
factored once after the last step.

Removing spurious pole-zero pairs with negligible residue is a separate
step, cleanup, which the caller applies to the model it returns.  In
rounds, it drops the support nearest every such pole at once and re-solves
on the report's R factor, which it never updates, so the only QR of the
samples that cleanup makes is the fresh solve on the final supports that
gives the returned weights.
Since the greedy choices do not depend on the stop rule, a fit at a looser
tol or a lower max_degree is a prefix of a longer trajectory, and truncate
cuts it out, so one greedy run can serve a degree sweep and a preset fit;
the cut model's R comes from the longer run's and the few Loewner rows of
the supports the cut drops.

Poles are the finite eigenvalues of an arrowhead pencil, from
linalg.arrowhead_eigenvalues: a numpy shift-and-invert eigenvalue solve
polished by Newton steps.  The arithmetic follows the data's dtype, which
geometry.SampleSet decides once: float64 when every sample point and value
is real, else complex128.  On real data the Loewner and Cauchy matrices,
their factorizations, the model (supports, values and weights), its
evaluation at real points and the pole pencil are all real, and the pencil
is solved at a real shift, so the poles of a fit to real data come in
exactly conjugate pairs.  A model holds float64 arrays when all three of
its arrays are real, and complex128 ones otherwise.

prefix_evaluator evaluates the models of a trajectory, whose supports are
prefixes of the last model's, in the greedy's arithmetic (_cauchy_sums):
one Cauchy matrix 1 / (z - z_k) per point set, and two matrix products for
all models, real when the models and the points are.  It is a setup and
one step: it pads the weights, takes the scales and chooses the arithmetic
once for a point set, and returns the step, which evaluates a slice of the
points on that slice's Cauchy matrix, so a caller can walk a large point
set in blocks.
evaluate keeps its own quotient for one model, with the weights divided
into z - z_k; the two agree to rounding.

The greedy, cleanup and evaluate divide the values, and residues the
pole-to-support differences, by an exact power of two near the values' or
supports' largest modulus (linalg.pow2_scale), and scale back exactly.
Cleanup compares residues and its threshold in units of the values' and
the points' powers of two, so that neither overflows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import linalg

# the columns aaa_fit's Cauchy cache grows by when it runs out
_CAUCHY_GROWTH = 16


@dataclass(frozen=True)
class BarycentricRational:
    """Rational function r(z) = sum_k w_k f_k/(z - z_k) / sum_k w_k/(z - z_k).

    Interpolates f_k at every support z_k with nonzero weight.  The three
    arrays are stored as float64 when all of them are real, and as
    complex128 when any is complex.
    """

    supports: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        arrays = [np.asarray(a) for a in (self.supports, self.values, self.weights)]
        dtype = complex if any(map(np.iscomplexobj, arrays)) else float
        z, f, w = (a.astype(dtype, copy=False) for a in arrays)
        if not (z.shape == f.shape == w.shape) or z.ndim != 1 or z.size == 0:
            raise ValueError("supports, values, weights must be 1-D of equal length")
        if len(np.unique(z)) != z.size:
            raise ValueError("support points must be pairwise distinct")
        if not np.any(w != 0):
            raise ValueError("at least one weight must be nonzero")
        object.__setattr__(self, "supports", z)
        object.__setattr__(self, "values", f)
        object.__setattr__(self, "weights", w)

    @property
    def degree(self):
        return self.supports.size - 1

    @cached_property
    def pole_list(self):
        """poles(self) solved once, read-only; empty at degree 0."""
        p = poles(self) if self.degree >= 1 else np.empty(0, dtype=complex)
        p.flags.writeable = False
        return p

    def __call__(self, z):
        return evaluate(self, z)


@dataclass(frozen=True)
class FitReport:
    """A greedy trajectory, and after cleanup the model it returns.

    converged says that final_error, the max error of model over the
    non-support samples, is at most tol * max|values|.  r is an R factor of
    the model's Loewner matrix: its rows are the samples that are not
    supports, its columns the supports in the model's order, and the values
    in it are divided by t = linalg.pow2_scale(values), the units in which
    the greedy and cleanup solve.  It has that matrix's singular values
    and right singular vectors, and is how cleanup starts without
    factoring the samples again.
    """

    model: BarycentricRational
    history: tuple          # ((degree, max_error), ...) over the greedy run
    converged: bool
    tol: float              # the relative tolerance the fit was run at
    r: np.ndarray = field(repr=False)
    cleanup_removed: int = 0
    final_error: float = np.nan
    snapshots: tuple = field(default=(), repr=False)   # the model of each step
    sigma_min: tuple = ()   # each step's smallest Loewner singular value


def evaluate(r, z):
    """Evaluate the barycentric quotient; exact support hits return f_k.

    Computes sum_k (w_k / (z - z_k)) f_k / sum_k w_k / (z - z_k) on the
    values divided by t = pow2_scale(values), and multiplies by t exactly.
    The arithmetic is real for a real model at real points, whose result
    is float64 (a Python float for a scalar z), and complex otherwise.  A
    point that is numerically a pole (zero denominator, nonzero numerator)
    yields the IEEE +-inf of the division in real arithmetic, and an
    explicit complex infinity in complex arithmetic.  Sample errors of fits
    (cleanup's final_error) come from here; prefix_evaluator gives the
    same quotient for many models at once, to rounding.
    """
    z = np.asarray(z)
    zv = np.atleast_1d(z.astype(np.result_type(z, r.supports), copy=False)).ravel()
    t = linalg.pow2_scale(r.values)
    with np.errstate(all="ignore"):
        D = zv[:, None] - r.supports
        hit_rows, hit_cols = np.nonzero(D == 0)
        C = np.divide(r.weights, D, out=D)
        num = C @ (r.values / t)
        den = C.sum(axis=1)
        out = num / den
        out.view(float)[:] *= t  # exact, and keeps signed zeros and infs
    if np.iscomplexobj(out):
        out[(den == 0) & (num != 0)] = complex(np.inf, np.inf)
    out[hit_rows] = r.values[hit_cols]
    if z.ndim == 0:
        return out[0].item()
    return out.reshape(z.shape)


def prefix_evaluator(models, z):
    """The models' evaluator on the flattened points z: a function that
    takes a slice of those points and returns the (len(models), slice
    size) array whose row i is models[i] there, equal to
    evaluate(models[i], z[slice]) to rounding.

    Each model's supports must be a prefix of the last model's, as along a
    greedy trajectory; raises ValueError otherwise.  The quotient is the
    greedy's: one Cauchy matrix 1 / (z - z_k) over the last model's
    supports, whose entries at exact support hits are set to 0, times
    zero-padded (supports x models) matrices of the weights and of
    w_k f_k / t, for t each model's pow2_scale(values), in two matrix
    products laid out (models x points).  The setup builds the padded
    matrices and the scales, in the dtype of z and the models: real when
    both are.  Each call builds the Cauchy matrix of its slice only, so a
    caller that walks z in blocks never holds one for all of z.
    The zero entries keep a hit beyond a model's prefix from forming
    0 * inf.  As in evaluate, a hit inside a model's prefix returns f_k,
    and an exact pole the +-inf of the division in real arithmetic and
    complex infinity in complex.
    """
    last = models[-1].supports
    for m in models:
        if not np.array_equal(m.supports, last[:m.supports.size]):
            raise ValueError(
                "each model's supports must be a prefix of the last model's")
    zv = np.asarray(z).ravel()
    W = np.zeros((last.size, len(models)),
                 dtype=np.result_type(zv, *(m.weights for m in models)))
    WF = np.zeros_like(W)
    t = np.empty(len(models))
    for i, m in enumerate(models):
        k = m.supports.size
        t[i] = linalg.pow2_scale(m.values)
        W[:k, i] = m.weights
        WF[:k, i] = m.weights * (m.values / t[i])

    def evaluate_block(rows):
        with np.errstate(all="ignore"):
            C = zv[rows, None] - last
            hit_rows, hit_cols = np.nonzero(C == 0)
            np.divide(1.0, C, out=C)
            C[hit_rows, hit_cols] = 0
            num, den = _cauchy_sums(C, W, WF)
            del C
            out = num / den
            out.view(float)[:] *= t[:, None]  # exact; keeps signed zeros, infs
        if np.iscomplexobj(out):
            out[(den == 0) & (num != 0)] = complex(np.inf, np.inf)
        for row, m in zip(out, models):
            own = hit_cols < m.supports.size
            row[hit_rows[own]] = m.values[hit_cols[own]]
        return out

    return evaluate_block


def _cauchy_sums(C, W, WF):
    """The barycentric numerators sum_k WF[k] C[:, k] and denominators
    sum_k W[k] C[:, k] at the points, the rows of the Cauchy matrix C =
    1 / (z - z_k): (models x points) products for W and WF with one column
    per model, and for vectors one sum per point.  The greedy's quotient,
    shared with prefix_evaluator."""
    return WF.T @ C.T, W.T @ C.T


def aaa_fit(samples, tol=1e-12, max_degree=150):
    """Greedy barycentric rational fit of a SampleSet, without cleanup.

    Stops when the max error over non-support samples drops below
    tol * max|values| (then converged is true) or at max_degree.  Any
    max_degree >= 0 is accepted and capped at M // 2 - 1 on M samples, the
    last step whose Loewner matrix over the non-support samples
    (M - degree - 1 rows, degree + 1 columns) is not wide.  The returned
    report carries the last step's model and error, the error, sigma_min
    and model of every step, and as r the R factor of the blocks' R
    factors stacked after the last step.  Pass it to cleanup before
    returning its model to a user.

    Each step divides one new Cauchy column 1 / (Z - Z[j]) into a cache of
    M rows, and takes the error over the non-support rows of two
    matrix-vector products on the cache's first degree + 1 columns: the
    bits of building the whole Cauchy matrix of those rows anew.  A full
    cache is freed before a wider one, by _CAUCHY_GROWTH columns and at
    most max_degree + 1, is refilled, so no copy of it is ever alive.
    """
    Z, F = samples.points, samples.values
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    max_degree = min(max_degree, Z.size // 2 - 1)
    fscale = float(np.max(np.abs(F)))
    t = linalg.pow2_scale(F)
    Ft = F / t
    support_idx = []
    history = []
    sigma_min = []

    # the Loewner matrix over the non-support samples, as R factors of row
    # blocks, column c for the c-th support; a fit that stops early never
    # touches the memory of the columns it does not reach
    L = linalg.RowBlockedR(
        lambda rows, cols: _loewner(Z, Ft, rows, support_idx[cols]),
        Z.size, max_degree + 1, F.dtype)
    # the Cauchy cache, column c for the c-th support; a fit that stops
    # early never touches the pages of the columns it does not reach
    cache = np.empty((Z.size, 0), dtype=Z.dtype)
    # row k: the weights of step k, its first k + 1 entries.  The snapshot
    # models are built from it after the loop, not one per step, so that no
    # small allocation of a step outlives it between the large per-step
    # arrays (kept ones fragment the heap and slow the next steps)
    W = np.empty((max_degree + 1, max_degree + 1), dtype=F.dtype)
    # first support: largest deviation from the mean, ties at lowest index
    next_j = int(np.argmax(np.abs(Ft - Ft.mean())))
    for k in range(max_degree + 1):
        support_idx.append(next_j)
        L.step(next_j)
        rows = L.rows()
        sigma, w = linalg.min_singular_right_vector(L.stack())
        sigma_min.append(sigma * t)
        W[k, :k + 1] = w
        cols = np.asarray(support_idx, dtype=int)
        with np.errstate(all="ignore"):
            if k == cache.shape[1]:
                # out of columns: free the cache before a wider one is
                # filled again, so that no copy of the old one is alive
                cache = None
                cache = np.empty(
                    (Z.size, min(k + _CAUCHY_GROWTH, max_degree + 1)), Z.dtype)
                np.subtract(Z[:, None], Z[cols[:k]], out=cache[:, :k])
                np.divide(1.0, cache[:, :k], out=cache[:, :k])
            np.divide(1.0, Z - Z[next_j], out=cache[:, k])
            # a strided view of a C-ordered array gives each row's
            # matrix-vector product the bits of a contiguous copy's
            num, den = _cauchy_sums(cache[:, :k + 1], w, w * Ft[cols])
            rvals = (num / den)[rows]
        resid = np.abs(Ft[rows] - rvals)
        resid = np.where(np.isfinite(resid), resid, np.inf)
        max_err = float(resid.max()) * t
        history.append((k, max_err))
        converged = max_err <= tol * fscale
        if converged:
            break
        next_j = int(rows[np.argmax(resid)])
    r = linalg.r_factor(L.stack())
    z, f, w = Z[cols], F[cols], W[:cols.size]
    snapshots = tuple(BarycentricRational(z[:k + 1], f[:k + 1], w[k, :k + 1])
                      for k in range(cols.size))
    return FitReport(
        model=snapshots[-1],
        history=tuple(history),
        converged=converged,
        tol=tol,
        r=r,
        final_error=history[-1][1],
        snapshots=snapshots,
        sigma_min=tuple(sigma_min),
    )


def truncate(report, samples, tol, max_degree):
    """The report of aaa_fit(samples, tol, max_degree), cut from a longer run.

    report must come from aaa_fit on the same samples at a tol no larger
    than tol.  Its trajectory is cut at the first step whose error meets
    tol * max|values|, or at max_degree; that is the step where the shorter
    fit stops, and every step before it is the same.  The cut model's r
    factors a small matrix: the leading k + 1 columns of report.r, for the
    cut's k + 1 supports, stacked over the Loewner rows of the supports the
    cut drops.  Raises ValueError if report stops before that step, or if
    cleanup changed its model, whose r then has other columns.
    """
    if report.model is not report.snapshots[-1]:
        raise ValueError("truncate needs a report of aaa_fit, not of cleanup")
    Z, F = samples.points, samples.values
    bound = tol * float(np.max(np.abs(F)))
    for k, (degree, err) in enumerate(report.history):
        if err <= bound or degree >= max_degree:
            cols = _sample_indices(Z, report.model.supports)
            dropped = _loewner(Z, F / linalg.pow2_scale(F), cols[k + 1:],
                               cols[:k + 1])
            return FitReport(
                model=report.snapshots[k],
                history=report.history[:k + 1],
                converged=err <= bound,
                tol=tol,
                r=linalg.r_factor(np.vstack([report.r[:k + 1, :k + 1], dropped])),
                final_error=err,
                snapshots=report.snapshots[:k + 1],
                sigma_min=report.sigma_min[:k + 1],
            )
    raise ValueError(
        f"the trajectory stops at degree {report.history[-1][0]}, before "
        f"it meets tol {tol:g} or reaches max_degree {max_degree}"
    )


def _loewner(Z, F, rows, cols):
    """The Loewner matrix (F[rows] - F[cols]) / (Z[rows] - Z[cols]); rows
    and cols index the samples (a boolean mask or index array each)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return (F[rows, None] - F[cols]) / (Z[rows, None] - Z[cols])


def poles(r):
    """Poles of r: finite eigenvalues of the standard arrowhead pencil."""
    if r.degree < 1:
        raise ValueError("a degree-0 model has no poles")
    return linalg.arrowhead_eigenvalues(r.supports, r.weights)


def residues(r, pole_list):
    """Residues of r at the given (simple) poles, as N(p)/D'(p); NaN at a
    pole exactly on a support, such as the one a zero weight leaves."""
    s = linalg.pow2_scale(r.supports)
    return _scaled_residues(r, pole_list, 1.0, s) * s


def _scaled_residues(r, pole_list, t, s):
    """residues(r, pole_list) / (t * s) for powers of two t and s, from the
    values divided by t and the pole-to-support differences by s, so that
    neither N nor D' over- or underflows."""
    D = np.subtract.outer(np.divide(pole_list, s), r.supports / s)
    with np.errstate(all="ignore"):
        N = (r.weights[None, :] * (r.values / t)[None, :] / D).sum(axis=1)
        Dp = -(r.weights[None, :] / (D * D)).sum(axis=1)
        return N / Dp


def cleanup(report, samples):
    """Remove spurious (Froissart) poles with negligible residue from the
    model of an aaa_fit report on the same samples.

    A pole is spurious if its |residue| is below 1e-13 * max|values| *
    diameter(samples) or is NaN, as at a pole on a support.  Both sides are
    compared divided by t * s, for the powers of two t = pow2_scale(values)
    and s = pow2_scale(points), so that neither overflows.  Each round
    drops the support nearest every spurious pole at once and re-solves the
    weights, until a model has no spurious pole.  The rounds start from
    report.r, the R factor that the greedy (or truncate) left, and never
    update it: a round solves the kept columns of R stacked over the
    dropped supports' Loewner rows, which has the singular values and right
    singular vectors of the free samples' Loewner matrix over the kept
    supports.  When a round leaves no spurious pole, the weights are solved
    once more, fresh, from the R factor of the Loewner matrix of the free
    samples on the final supports, the one QR of the samples that cleanup
    makes, and the check is repeated on that fresh model.  The returned
    report carries the cleaned model and that R, the number of dropped
    supports, its max error over the non-support samples as final_error,
    and converged re-judged on that error against the report's tol.
    History and snapshots stay the greedy run's.  Raises ValueError if a
    support of the model is not one of the samples' points.
    """
    Z, F = samples.points, samples.values
    fscale = float(np.max(np.abs(F)))
    # residues and the threshold in units of t * s, which neither overflows
    t, s = linalg.pow2_scale(F), linalg.pow2_scale(Z)
    thresh = 1e-13 * (fscale / t) * _diameter(Z / s)
    Ft = F / t
    model = report.model
    R = r = report.r
    cols = _sample_indices(Z, model.supports)
    keep = np.ones(cols.size, dtype=bool)
    free = np.ones(Z.size, dtype=bool)
    free[cols] = False
    spurious = _spurious_poles(model, thresh, t, s)
    while spurious.size:
        nearest = np.argmin(np.abs(spurious[:, None] - model.supports), axis=1)
        keep[np.flatnonzero(keep)[nearest]] = False
        _, w = linalg.min_singular_right_vector(
            np.vstack([R[:, keep], _loewner(Z, Ft, cols[~keep], cols[keep])]))
        model = BarycentricRational(Z[cols[keep]], F[cols[keep]], w)
        spurious = _spurious_poles(model, thresh, t, s)
        if not spurious.size:
            free[cols[~keep]] = True
            # on at least twice as many rows as columns, this QR is
            # min_singular_right_vector's own first step: the same w
            r = linalg.r_factor(_loewner(Z, Ft, free, cols[keep]))
            _, w = linalg.min_singular_right_vector(r)
            model = BarycentricRational(Z[cols[keep]], F[cols[keep]], w)
            spurious = _spurious_poles(model, thresh, t, s)
    final_error = _max_error(model, samples)
    return replace(
        report, model=model, r=r, cleanup_removed=int(np.count_nonzero(~keep)),
        final_error=final_error, converged=final_error <= report.tol * fscale,
    )


def _sample_indices(Z, points):
    """The indices of points among the samples Z, from one sorted lookup:
    the samples are pairwise distinct, so a point found is found exactly.
    Raises ValueError if a point is not a sample."""
    order = np.argsort(Z)
    idx = order[np.searchsorted(Z[order], points).clip(max=Z.size - 1)]
    if not np.array_equal(Z[idx], points):
        raise ValueError("the model's supports must be sample points")
    return idx


def _spurious_poles(model, thresh, t, s):
    """The poles of model whose |residue| / (t * s) is below thresh or NaN
    (a pole on a support): the one rule that judges a pole spurious."""
    p = model.pole_list
    return p[~(np.abs(_scaled_residues(model, p, t, s)) >= thresh)]


def _max_error(model, samples):
    mask = ~np.isin(samples.points, model.supports)
    err = np.abs(samples.values[mask] - evaluate(model, samples.points[mask]))
    return float(np.max(np.where(np.isfinite(err), err, np.inf), initial=0))


def _diameter(points):
    """The diameter of a point set, to a factor cos(pi/128) at worst: the
    largest distance among the points extreme in 64 directions."""
    pts = np.asarray(points)
    if pts.size > 128:
        theta = np.pi * np.arange(64) / 64
        proj = np.outer(np.cos(theta), pts.real) + np.outer(np.sin(theta), pts.imag)
        pts = pts[np.union1d(proj.argmin(axis=1), proj.argmax(axis=1))]
    return float(np.abs(pts[:, None] - pts[None, :]).max())
