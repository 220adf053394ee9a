"""Greedy barycentric rational fitting with pole/zero/residue extraction.

The fitter selects support points one at a time at the sample of largest
current error, solves for barycentric weights as the smallest right
singular vector of the Loewner matrix over the remaining samples, and
stops at a relative error tolerance.  The Loewner matrix grows by one
column per support, and its singular pair comes from an SVD of its QR
R factor (see linalg.min_singular_right_vector).  Spurious pole-zero
pairs with negligible residue are removed afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .geometry import SampleSet


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

    def __call__(self, z):
        return evaluate(self, z)


@dataclass(frozen=True)
class FitReport:
    model: BarycentricRational
    history: tuple          # ((degree, max_error), ...) over the greedy run
    converged: bool
    cleanup_removed: int = 0
    final_error: float = np.nan
    snapshots: tuple = field(default=(), repr=False)


def evaluate(r, z):
    """Evaluate the barycentric quotient; exact support hits return f_k.

    A point that is numerically a pole (zero denominator, nonzero
    numerator) yields an explicit complex infinity.
    """
    zv = np.asarray(z, dtype=complex)
    scalar = zv.ndim == 0
    zv = np.atleast_1d(zv).ravel()
    D = zv[:, None] - r.supports[None, :]
    hit_rows, hit_cols = np.nonzero(D == 0)
    with np.errstate(all="ignore"):
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


def aaa_fit(samples, tol=1e-12, max_degree=150, keep_models=False):
    """Greedy barycentric rational fit of a SampleSet.

    Stops when the max error over non-support samples drops below
    tol * max|values|, or at max_degree.  The returned report carries the
    cleaned final model and the per-degree error history; with
    keep_models=True it also carries the intermediate models.
    """
    if not isinstance(samples, SampleSet):
        samples = SampleSet(*samples)
    Z, F = samples.points, samples.values
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
    snapshots = []
    converged = False
    # Loewner column (F - F[j]) / (Z - Z[j]) of each support j, in the order
    # the supports join; column-major, so a fit that stops early never
    # touches the memory of the columns it does not reach
    L = np.empty((Z.size, max_degree + 1), dtype=complex, order="F")
    is_support = np.zeros(Z.size, dtype=bool)
    # first support: largest deviation from the mean, ties at lowest index
    err = np.abs(F - F.mean())
    next_j = int(np.argmax(err))
    model = None
    while True:
        k = len(support_idx)
        support_idx.append(next_j)
        is_support[next_j] = True
        with np.errstate(divide="ignore", invalid="ignore"):
            L[:, k] = (F - F[next_j]) / (Z - Z[next_j])
        rows = np.flatnonzero(~is_support)
        _, w = linalg.min_singular_right_vector(L[rows, :k + 1])
        cols = np.asarray(support_idx, dtype=int)
        model = BarycentricRational(Z[cols], F[cols], w)
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
        if keep_models:
            snapshots.append(model)
        if max_err <= tol * fscale:
            converged = True
            break
        if degree >= max_degree or rows.size <= 1:
            break
        next_j = int(rows[np.argmax(resid)])
    report = FitReport(
        model=model,
        history=tuple(history),
        converged=converged,
        final_error=history[-1][1],
        snapshots=tuple(snapshots),
    )
    del L  # cleanup builds its own Loewner matrix; free this one first
    return cleanup(report, samples)


def _arrowhead(r, first_row):
    m = r.supports.size
    E = np.zeros((m + 1, m + 1), dtype=complex)
    E[0, 1:] = first_row
    E[1:, 0] = 1.0
    E[1:, 1:] = np.diag(r.supports)
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
    """Remove spurious (Froissart) poles with negligible residue.

    For each pole whose |residue| falls below 1e-13 * max|values| *
    diameter(samples), the nearest support is dropped and the weights are
    re-solved; this repeats until no spurious poles remain.  The Loewner
    matrix over the initial supports is built once; each removal drops its
    column and re-admits its sample as a row.
    """
    if not isinstance(samples, SampleSet):
        samples = SampleSet(*samples)
    Z, F = samples.points, samples.values
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
    while worst is not None:
        # drop the support nearest the most negligible pole, one per pass
        q = np.flatnonzero(keep)[np.argmin(np.abs(model.supports - worst))]
        keep[q] = False
        free[cols[q]] = True
        _, w = linalg.min_singular_right_vector(L[np.ix_(free, keep)])
        model = BarycentricRational(Z[cols[keep]], F[cols[keep]], w)
        removed += 1
        worst = _negligible_pole(model, thresh)
    final_error = _max_error(model, samples)
    return replace(
        report, model=model, cleanup_removed=removed, final_error=final_error
    )


def _negligible_pole(model, thresh):
    """The pole of smallest |residue| if that is below thresh, else None."""
    if model.degree < 1:
        return None
    p = poles(model)
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
