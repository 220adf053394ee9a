"""Dense linear-algebra kernel for the fitting modules.

Wraps LAPACK (via numpy/scipy) behind the small set of operations the
fitters need: the R factor of a QR factorization, smallest singular
pair, eigenvalues, and finite eigenvalues of diagonal-mask pencils.  The
smallest singular pair of a tall matrix comes from an SVD of its R
factor, which has the same singular values and right singular vectors.
Deleting a column of both, or appending a row to both, keeps that true,
so a caller can update a small R instead of re-factoring a tall A.  Real
input is factored in real (float64) arithmetic and complex input in
complex128; the complex eigenvalues of a real matrix or pencil come in
conjugate pairs.
All functions are pure and deterministic; returned eigenvalue multisets
are complex, sorted by real part, then imaginary part.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


class SingularPencilError(ValueError):
    """The pencil (E, diag(mask)) is singular; eigenvalues are undefined."""


def _as_matrix(A):
    """A as a 2-D float64 array, or complex128 if A is complex.

    Real input stays real so that LAPACK runs its real routines on it.
    """
    A = np.asarray(A)
    A = A.astype(complex if np.iscomplexobj(A) else float, copy=False)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={A.ndim}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


def r_factor(A):
    """The upper-trapezoidal R of A = QR, min(m, k)-by-k.

    float64 for real input and complex128 for complex.  A^H A = R^H R, so
    R has the singular values and right singular vectors of A.
    """
    return np.linalg.qr(_as_matrix(A), mode="r")


def min_singular_right_vector(A):
    """Smallest singular value of A and an associated unit right vector.

    For m >= 2k the SVD runs on the k-by-k R factor of A = QR; no m-by-k
    singular-vector matrix is formed.
    """
    A = _as_matrix(A)
    m, k = A.shape
    if m == 0 or k == 0:
        raise ValueError("matrix must be nonempty")
    if m < k:
        raise ValueError(f"need m >= k, got shape {A.shape}")
    if m >= 2 * k:
        # gesdd itself starts with this geqrf step for m >= 11k/6, so the
        # pair equals that of the thin SVD of A (bit for bit on OpenBLAS)
        A = np.linalg.qr(A, mode="r")
    _, s, Vh = np.linalg.svd(A, full_matrices=False)
    v = Vh[-1].conj()
    return float(s[-1]), v / np.linalg.norm(v)


def _sort_eigs(vals):
    vals = np.asarray(vals, dtype=complex)
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def eigenvalues(A):
    """All eigenvalues of a square matrix, sorted by (real, imag)."""
    A = _as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    if A.shape[0] == 0:
        return np.empty(0, dtype=complex)
    # np.linalg.eigvals raises LinAlgError on non-convergence; never silent.
    return _sort_eigs(np.linalg.eigvals(A))


def finite_generalized_eigenvalues(E, mask):
    """Finite eigenvalues of the pencil (E, diag(mask)) with 0/1 mask.

    Infinite eigenvalues (from zero mask entries) are discarded.  With an
    all-ones mask this reduces exactly to eigenvalues(E).  A real E gives
    a real QZ (LAPACK dggev), whose complex eigenvalues come in conjugate
    pairs (equal to a few ulps).
    """
    E = _as_matrix(E)
    n = E.shape[0]
    if E.shape[0] != E.shape[1]:
        raise ValueError(f"matrix must be square, got shape {E.shape}")
    mask = np.asarray(mask, dtype=bool).ravel()
    if mask.shape[0] != n:
        raise ValueError(f"mask has length {mask.shape[0]}, expected {n}")
    if mask.all():
        return eigenvalues(E)
    B = np.diag(mask.astype(float))
    a, b = scipy.linalg.eig(E, B, right=False, homogeneous_eigvals=True)
    if np.any((a == 0) & (b == 0)) or np.any(np.isnan(a)) or np.any(np.isnan(b)):
        raise SingularPencilError("singular pencil: indeterminate eigenvalue")
    finite = np.abs(b) > 1e-13 * (np.abs(a) + np.abs(b))
    return _sort_eigs(a[finite] / b[finite])
