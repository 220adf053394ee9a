"""Dense complex linear-algebra kernel for the fitting modules.

Wraps LAPACK (via numpy/scipy) behind the small set of operations the
fitters need: least squares, smallest singular pair, eigenvalues, and
finite eigenvalues of diagonal-mask pencils.  The smallest singular pair
of a tall matrix comes from an SVD of its QR R factor, which has the same
singular values and right singular vectors.  All functions are pure and
deterministic; returned eigenvalue multisets are sorted by real part,
then imaginary part.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


class RankDeficientError(ValueError):
    """Least-squares matrix is numerically rank deficient."""

    def __init__(self, numerical_rank, shape):
        self.numerical_rank = numerical_rank
        super().__init__(
            f"matrix of shape {shape} is rank deficient "
            f"(numerical rank {numerical_rank})"
        )


class SingularPencilError(ValueError):
    """The pencil (E, diag(mask)) is singular; eigenvalues are undefined."""


def _as_matrix(A):
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={A.ndim}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


def solve_least_squares(A, b):
    """Minimize ||A x - b||_2 for an m-by-k matrix A with m >= k.

    Raises RankDeficientError (carrying the numerical rank) when
    sigma_min < 1e-13 * sigma_max.
    """
    A = _as_matrix(A)
    b = np.asarray(b, dtype=complex).ravel()
    m, k = A.shape
    if m < k:
        raise ValueError(f"need m >= k, got shape {A.shape}")
    if b.shape[0] != m:
        raise ValueError(f"b has length {b.shape[0]}, expected {m}")
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    smax = s[0] if s.size else 0.0
    if smax == 0.0 or s[-1] < 1e-13 * smax:
        rank = int(np.count_nonzero(s >= 1e-13 * smax)) if smax else 0
        raise RankDeficientError(rank, A.shape)
    return Vh.conj().T @ ((U.conj().T @ b) / s)


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
    all-ones mask this reduces exactly to eigenvalues(E).
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
