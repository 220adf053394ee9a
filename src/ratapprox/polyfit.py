"""Polynomial least-squares fitting on arbitrary point sets.

Builds a discretely orthonormal polynomial basis by an Arnoldi recurrence
with the diagonal matrix of sample points, sidestepping the
ill-conditioning of raw Vandermonde matrices.  The basis is orthonormal by
construction, so the coefficients are the projections of the data onto
it.  A fit is its recurrence and coefficients, and its degree follows from
the coefficients; at new points it is va_basis(model, z) @ model.coeffs,
the stored recurrence re-run there.
The recurrence runs in the data's dtype, as geometry.SampleSet decides it:
a fit to real data, and its basis at real points, are float64.
The basis is nested in degree: one degree-N fit and basis serve every
lower degree, and a fit stops at the last column its points determine.
The recurrence is homogeneous in the points, and va_fit runs it on data
divided by exact powers of two (linalg.pow2_scale): no column norm
overflows, and the breakdown threshold is relative to the points' scale.
Both the fit's basis Q and the regenerated one W are stored column-major,
so each step's products read the leading columns contiguously, and the
projections Q^H q are taken as conj(q^H Q), which conjugates a vector, not
a block of Q.  Each point's row of W depends on that point alone, so a
caller can regenerate the basis a block of points at a time, as the
degree sweep does on the test grid, and never hold it on all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg


@dataclass(frozen=True)
class ArnoldiPolynomial:
    """Degree-n polynomial stored as recurrence coefficients plus a
    coefficient vector in the induced orthonormal basis."""

    hessenberg: np.ndarray      # (n+1) x n, positive real subdiagonal
    coeffs: np.ndarray          # n+1

    @property
    def degree(self):
        return self.coeffs.size - 1


def va_fit(samples, degree):
    """Least-squares polynomial fit of SampleSet data at the given degree.

    The coefficients are the projections Q^H F / M onto the basis.  A
    lower-degree fit's Hessenberg matrix is a leading block of this one,
    and its coefficients are a prefix of these up to rounding.  The fit
    runs on Z / s and F / t, for s and t the powers of two nearest max|Z|
    and max|F| on a log scale (1 for all zeros), and H and the
    coefficients are scaled back by s and t.  If basis column k + 1's norm
    falls below 1e-14 relative to s (fewer than k + 2 distinct points to
    rounding), the fit stops there and has degree k.
    """
    s, t = (linalg.pow2_scale(x) for x in (samples.points, samples.values))
    Z, F = samples.points / s, samples.values / t
    M = Z.size
    n = int(degree)
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if M < n + 1:
        raise ValueError(f"need at least degree + 1 = {n + 1} samples, got {M}")
    Q = np.zeros((M, n + 1), dtype=Z.dtype, order="F")
    H = np.zeros((n + 1, n), dtype=Z.dtype)
    Q[:, 0] = 1.0
    root_m = np.sqrt(M)
    for k in range(n):
        q = Z * Q[:, k]
        # block classical Gram-Schmidt, run twice (CGS2): each pass
        # projects q against all previous columns at once
        for _ in range(2):
            h = (q.conj() @ Q[:, : k + 1]).conj() / M
            q = q - Q[:, : k + 1] @ h
            H[: k + 1, k] += h
        sub = np.linalg.norm(q) / root_m
        if sub < 1e-14:
            n = k
            break
        H[k + 1, k] = sub
        Q[:, k + 1] = q / sub
    # Q^H Q = M I, and the breakdown test keeps every column independent
    c = (F.conj() @ Q[:, : n + 1]).conj() / M
    return ArnoldiPolynomial(hessenberg=H[: n + 1, :n] * s, coeffs=c * t)


def va_basis(model, points):
    """Basis matrix W (len(points) x (degree+1)) regenerated at the points
    by the stored recurrence; its first k+1 columns are the degree-k basis."""
    zv = np.atleast_1d(np.asarray(points)).ravel()
    H = model.hessenberg
    n = model.degree
    W = np.zeros((zv.size, n + 1), dtype=np.result_type(zv, H), order="F")
    W[:, 0] = 1.0
    for k in range(n):
        w = zv * W[:, k] - W[:, : k + 1] @ H[: k + 1, k]
        W[:, k + 1] = w / H[k + 1, k]
    return W
