"""Greedy barycentric rational fitting with pole/zero/residue extraction.

The fitter (aaa_fit) selects support points one at a time at the sample of
largest current error, solves for barycentric weights as the smallest
right singular vector of the Loewner matrix over the remaining samples,
and stops at a relative error tolerance.  The Loewner matrix grows by one
column per support, and its singular pair comes from an SVD of its QR
R factor (see linalg.min_singular_right_vector).  Its report carries the
whole trajectory: the error and the model of every step.

Removing spurious pole-zero pairs with negligible residue is a separate
step, cleanup, which the caller applies to the model it returns.  It
QR-factors the Loewner matrix once, updates the small R factor on each
removal, and takes the returned weights from one fresh solve on the final
supports.  Since the greedy choices do not depend on the stop rule, a fit
at a looser tol or a lower max_degree is a prefix of a longer trajectory,
and truncate cuts it out, so one greedy run can serve a degree sweep and a
preset fit.

The arithmetic follows the data: when every sample point and value is
real, the Loewner and Cauchy matrices, their factorizations and the
pole/zero pencils are real (float64), so the poles and zeros of a fit to
real data come in conjugate pairs.  Models are stored, and
evaluated, in complex arithmetic either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import linalg


@dataclass(frozen=True)
class BarycentricRational:
    """Rational function r(z) = sum_k w_k f_k/(z - z_k) / sum_k w_k/(z - z_k).

    Interpolates f_k at every support z_k with nonzero weight.
    """

    supports: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.supports, dtype=complex)
        f = np.asarray(self.values, dtype=complex)
        w = np.asarray(self.weights, dtype=complex)
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
    non-support samples, is at most tol * max|values|.
    """

    model: BarycentricRational
    history: tuple          # ((degree, max_error), ...) over the greedy run
    converged: bool
    tol: float              # the relative tolerance the fit was run at
    cleanup_removed: int = 0
    final_error: float = np.nan
    snapshots: tuple = field(default=(), repr=False)   # the model of each step


def evaluate(r, z):
    """Evaluate the barycentric quotient; exact support hits return f_k.

    A point that is numerically a pole (zero denominator, nonzero
    numerator) yields an explicit complex infinity.
    """
    zv = np.asarray(z, dtype=complex)
    scalar = zv.ndim == 0
    zv = np.atleast_1d(zv).ravel()
    with np.errstate(all="ignore"):
        D = zv[:, None] - r.supports[None, :]
        hit_rows, hit_cols = np.nonzero(D == 0)
        C = r.weights[None, :] / D
        num = C @ r.values
        den = C.sum(axis=1)
        out = num / den
    at_pole = (den == 0) & (num != 0)
    out[at_pole] = complex(np.inf, np.inf)
    out[hit_rows] = r.values[hit_cols]
    if scalar:
        return complex(out[0])
    return out.reshape(np.shape(z))


def aaa_fit(samples, tol=1e-12, max_degree=150):
    """Greedy barycentric rational fit of a SampleSet, without cleanup.

    Stops when the max error over non-support samples drops below
    tol * max|values| (then converged is true), at max_degree, or at degree
    M // 2 - 1 on M samples, the last step whose Loewner matrix over the
    non-support samples (M - degree - 1 rows, degree + 1 columns) is not
    wide.  The returned report carries the last step's model and error, and
    the error history and model of every step.  Pass it to cleanup before
    returning its model to a user.
    """
    Z, F = _real_if_exact(samples.points, samples.values)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    if Z.size < max_degree + 2:
        raise ValueError(
            f"need at least max_degree + 2 = {max_degree + 2} samples, got {Z.size}"
        )
    fscale = float(np.max(np.abs(F)))
    support_idx = []
    history = []
    converged = False
    # Loewner column (F - F[j]) / (Z - Z[j]) of each support j, in the order
    # the supports join; column-major, so a fit that stops early never
    # touches the memory of the columns it does not reach
    L = np.empty((Z.size, max_degree + 1), dtype=F.dtype, order="F")
    # row k: the weights of step k, its first k + 1 entries.  The snapshot
    # models are built from it after the loop, not one per step, so that no
    # small allocation of a step outlives it between the large per-step
    # arrays (kept ones fragment the heap and slow the next steps)
    W = np.empty((max_degree + 1, max_degree + 1), dtype=F.dtype)
    is_support = np.zeros(Z.size, dtype=bool)
    # first support: largest deviation from the mean, ties at lowest index
    err = np.abs(F - F.mean())
    next_j = int(np.argmax(err))
    while True:
        k = len(support_idx)
        support_idx.append(next_j)
        is_support[next_j] = True
        with np.errstate(divide="ignore", invalid="ignore"):
            L[:, k] = (F - F[next_j]) / (Z - Z[next_j])
        rows = np.flatnonzero(~is_support)
        _, w = linalg.min_singular_right_vector(L[rows, :k + 1])
        W[k, :k + 1] = w
        cols = np.asarray(support_idx, dtype=int)
        with np.errstate(all="ignore"):
            C = Z[rows, None] - Z[None, cols]
            np.divide(1.0, C, out=C)
            rvals = (C @ (w * F[cols])) / (C @ w)
        del C  # free it before the next step's solve, the memory peak
        resid = np.abs(F[rows] - rvals)
        resid = np.where(np.isfinite(resid), resid, np.inf)
        max_err = float(resid.max()) if resid.size else 0.0
        degree = len(support_idx) - 1
        history.append((degree, max_err))
        if max_err <= tol * fscale:
            converged = True
            break
        # the next step's matrix would have Z.size - degree - 2 rows for
        # degree + 2 columns
        if degree >= max_degree or Z.size < 2 * (degree + 2):
            break
        next_j = int(rows[np.argmax(resid)])
    z, f = Z[cols].astype(complex), F[cols].astype(complex)
    w = W[:cols.size].astype(complex)
    snapshots = tuple(BarycentricRational(z[:k + 1], f[:k + 1], w[k, :k + 1])
                      for k in range(cols.size))
    return FitReport(
        model=snapshots[-1],
        history=tuple(history),
        converged=converged,
        tol=tol,
        final_error=history[-1][1],
        snapshots=snapshots,
    )


def truncate(report, samples, tol, max_degree):
    """The report of aaa_fit(samples, tol, max_degree), cut from a longer run.

    report must come from aaa_fit on the same samples at a tol no larger
    than tol.  Its trajectory is cut at the first step whose error meets
    tol * max|values|, or at max_degree; that is the step where the shorter
    fit stops, and every step before it is the same.  Raises ValueError if
    report stops before that step.
    """
    bound = tol * float(np.max(np.abs(samples.values)))
    for k, (degree, err) in enumerate(report.history):
        if err <= bound or degree >= max_degree:
            return FitReport(
                model=report.snapshots[k],
                history=report.history[:k + 1],
                converged=err <= bound,
                tol=tol,
                final_error=err,
                snapshots=report.snapshots[:k + 1],
            )
    raise ValueError(
        f"the trajectory stops at degree {report.history[-1][0]}, before "
        f"it meets tol {tol:g} or reaches max_degree {max_degree}"
    )


def _real_if_exact(*arrays):
    """The arrays' real parts if none has a nonzero imaginary part, else
    the arrays unchanged."""
    if any(np.any(a.imag) for a in arrays):
        return arrays
    return tuple(a.real for a in arrays)


def _arrowhead(r, first_row):
    supports, first_row = _real_if_exact(r.supports, first_row)
    m = supports.size
    E = np.zeros((m + 1, m + 1), dtype=first_row.dtype)
    E[0, 1:] = first_row
    E[1:, 0] = 1.0
    E[1:, 1:] = np.diag(supports)
    mask = np.ones(m + 1, dtype=bool)
    mask[0] = False
    return E, mask


def poles(r):
    """Poles of r: finite eigenvalues of the standard arrowhead pencil."""
    if r.degree < 1:
        raise ValueError("a degree-0 model has no poles")
    E, mask = _arrowhead(r, r.weights)
    return linalg.finite_generalized_eigenvalues(E, mask)


def zeros(r):
    """Zeros of r: same pencil with the weighted values in the first row."""
    if r.degree < 1:
        return np.empty(0, dtype=complex)
    E, mask = _arrowhead(r, r.weights * r.values)
    return linalg.finite_generalized_eigenvalues(E, mask)


def residues(r, pole_list):
    """Residues of r at the given (simple) poles, as N(p)/D'(p)."""
    p = np.asarray(pole_list, dtype=complex)
    if p.size == 0:
        return np.empty(0, dtype=complex)
    D = p[:, None] - r.supports[None, :]
    scale = max(np.max(np.abs(r.supports)), 1.0)
    with np.errstate(all="ignore"):
        N = (r.weights[None, :] * r.values[None, :] / D).sum(axis=1)
        Dp = -(r.weights[None, :] / (D * D)).sum(axis=1)
        res = N / Dp
    # a pole colliding with a support signals a spurious pair
    near_support = np.min(np.abs(D), axis=1) < 1e-13 * scale
    res[near_support] = 0.0
    return res


def cleanup(report, samples):
    """Remove spurious (Froissart) poles with negligible residue from the
    model of an aaa_fit report on the same samples.

    For each pole whose |residue| falls below 1e-13 * max|values| *
    diameter(samples), the nearest support is dropped and the weights are
    re-solved; this repeats until no spurious poles remain.  The Loewner
    matrix over the initial supports is built and QR-factored once.  A
    removal deletes its column from the R factor and appends its sample's
    row, and the weights come from an SVD of the re-triangularized k-by-k
    R, so no removal factors the tall matrix again.  When that model has
    no negligible pole left, the weights are solved once more from the
    Loewner matrix on the final supports, and the stop is judged on that
    fresh model.  The returned report carries the cleaned model, the
    number of removals, its max error over the non-support samples as
    final_error, and converged re-judged on that error against the
    report's tol.  The history and snapshots stay those of the greedy run.
    """
    Z, F = _real_if_exact(samples.points, samples.values)
    fscale = float(np.max(np.abs(F)))
    diam = _diameter(Z)
    thresh = 1e-13 * fscale * diam
    model = report.model
    removed = 0
    worst = _negligible_pole(model, thresh)
    if worst is not None:
        cols = np.array([np.flatnonzero(Z == s)[0] for s in model.supports])
        keep = np.ones(cols.size, dtype=bool)
        free = np.ones(Z.size, dtype=bool)
        free[cols] = False
        with np.errstate(divide="ignore", invalid="ignore"):
            L = F[:, None] - F[None, cols]
            L /= Z[:, None] - Z[None, cols]
        # L[free, keep] = QR, and only R is kept: deleting a column of both
        # and appending a row to both leaves them the same singular values
        # and right singular vectors
        R = linalg.r_factor(L[free])
    while worst is not None:
        # drop the support nearest the most negligible pole, one per pass
        i = np.argmin(np.abs(model.supports - worst))
        q = np.flatnonzero(keep)[i]
        keep[q] = False
        free[cols[q]] = True
        R = linalg.r_factor(np.vstack([np.delete(R, i, axis=1), L[cols[q], keep]]))
        _, w = linalg.min_singular_right_vector(R)
        model = BarycentricRational(Z[cols[keep]], F[cols[keep]], w)
        removed += 1
        worst = _negligible_pole(model, thresh)
        if worst is None:
            _, w = linalg.min_singular_right_vector(L[np.ix_(free, keep)])
            model = BarycentricRational(Z[cols[keep]], F[cols[keep]], w)
            worst = _negligible_pole(model, thresh)
    final_error = _max_error(model, samples)
    return replace(
        report, model=model, cleanup_removed=removed, final_error=final_error,
        converged=final_error <= report.tol * fscale,
    )


def _negligible_pole(model, thresh):
    """The pole of smallest |residue| if that is below thresh, else None."""
    p = model.pole_list
    res = np.abs(residues(model, p))
    if not (res < thresh).any():
        return None
    return p[np.argmin(res)]


def _max_error(model, samples):
    mask = ~np.isin(samples.points, model.supports)
    if not mask.any():
        return 0.0
    pred = evaluate(model, samples.points[mask])
    err = np.abs(samples.values[mask] - pred)
    return float(np.max(np.where(np.isfinite(err), err, np.inf)))


def _diameter(points):
    pts = np.asarray(points)
    if pts.size > 600:  # pairwise distances on the hull candidates only
        idx = np.argsort(np.abs(pts - pts.mean()))[-600:]
        pts = pts[idx]
    d = np.abs(pts[:, None] - pts[None, :])
    return float(d.max())
