"""Polynomial least-squares fitting on arbitrary point sets.

Builds a discretely orthonormal polynomial basis by an Arnoldi recurrence
with the diagonal matrix of sample points, sidestepping the
ill-conditioning of raw Vandermonde matrices.  The basis is orthonormal by
construction, so the coefficients are the projections of the data onto
it.  Evaluation at new points re-runs the stored recurrence (va_basis).
The basis is nested in degree: one degree-N fit and basis serve every
lower degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ArnoldiBreakdownError(RuntimeError):
    """Basis generation broke down (fewer distinct points than degree + 1)."""

    def __init__(self, step):
        self.step = step
        super().__init__(
            f"Arnoldi breakdown at column {step}: subdiagonal entry below 1e-14"
        )


@dataclass(frozen=True)
class ArnoldiPolynomial:
    """Degree-n polynomial stored as recurrence coefficients plus a
    coefficient vector in the induced orthonormal basis."""

    hessenberg: np.ndarray      # (n+1) x n, positive real subdiagonal
    coeffs: np.ndarray          # n+1
    degree: int

    def __call__(self, z):
        return va_eval(self, z)


def va_fit(samples, degree):
    """Least-squares polynomial fit of SampleSet data at the given degree.

    The coefficients are the projections Q^H F / M onto the basis.  A
    lower-degree fit's Hessenberg matrix is a leading block of this one,
    and its coefficients are a prefix of these up to rounding.
    """
    Z, F = samples.points, samples.values
    M = Z.size
    n = int(degree)
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if M < n + 1:
        raise ValueError(f"need at least degree + 1 = {n + 1} samples, got {M}")
    Q = np.zeros((M, n + 1), dtype=complex)
    H = np.zeros((n + 1, n), dtype=complex)
    Q[:, 0] = 1.0
    root_m = np.sqrt(M)
    for k in range(n):
        q = Z * Q[:, k]
        # modified Gram-Schmidt plus one reorthogonalization sweep
        for _ in range(2):
            h = Q[:, : k + 1].conj().T @ q / M
            q = q - Q[:, : k + 1] @ h
            H[: k + 1, k] += h
        sub = np.linalg.norm(q) / root_m
        if sub < 1e-14:
            raise ArnoldiBreakdownError(k + 1)
        H[k + 1, k] = sub
        Q[:, k + 1] = q / sub
    # Q^H Q = M I, and the breakdown guard keeps every column independent
    c = Q.conj().T @ F / M
    return ArnoldiPolynomial(hessenberg=H, coeffs=c, degree=n)


def va_basis(model, points):
    """Basis matrix W (len(points) x (degree+1)) regenerated at the points
    by the stored recurrence; its first k+1 columns are the degree-k basis."""
    zv = np.atleast_1d(np.asarray(points, dtype=complex)).ravel()
    n = model.degree
    W = np.zeros((zv.size, n + 1), dtype=complex)
    W[:, 0] = 1.0
    H = model.hessenberg
    for k in range(n):
        w = zv * W[:, k] - W[:, : k + 1] @ H[: k + 1, k]
        W[:, k + 1] = w / H[k + 1, k]
    return W


def va_eval(model, points):
    """Evaluate the polynomial by regenerating the basis at new points."""
    out = va_basis(model, points) @ model.coeffs
    if np.ndim(points) == 0:
        return complex(out[0])
    return out.reshape(np.shape(points))
