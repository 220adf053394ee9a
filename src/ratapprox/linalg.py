"""Dense linear-algebra kernel for the fitting modules.

Wraps LAPACK (via numpy/scipy) behind the small set of operations the
fitters need: the R factor of a QR factorization, smallest singular
pair, eigenvalues, and finite eigenvalues of diagonal-mask pencils.  The
smallest singular pair of a tall matrix comes from an SVD of its R
factor, which has the same singular values and right singular vectors.
Keeping some columns of both, or appending rows to both, keeps that
true, so a caller can reuse a small R instead of re-factoring a tall A.
RowBlockedR keeps a tall matrix that loses a row and gains a column at
each step as the R factors of blocks of its rows, and never downdates: a
block that loses a row is factored again from its raw rows.  Real input is
factored in real (float64) arithmetic and complex input in complex128;
the complex eigenvalues of a real matrix or pencil come in conjugate pairs.
All functions are pure and deterministic; returned eigenvalue multisets
are complex, sorted by real part, then imaginary part.  scipy.linalg is
imported where it is called, so importing this module loads numpy only.
"""

from __future__ import annotations

import numpy as np


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


# rows per block of RowBlockedR; a matrix of at most this many rows is one
# block, and its stack is the matrix itself
BLOCK_ROWS = 1024


class RowBlockedR:
    """A tall matrix A[rows, :cols] that loses a row and gains a column at
    each step, kept as one R factor per block of BLOCK_ROWS contiguous rows.

    entries(rows, cols) returns A[rows][:, cols] for an index array rows
    and a slice cols.  Each block holds the Householder QR of its remaining
    rows in LAPACK geqrf form: a Fortran-order (rows, max_cols) array.
    step(i) removes row i and applies every other block's Q^H to the new
    column, then forms one reflector, O(rows * cols).  It does not
    downdate: the block that lost row i goes raw, and the next step factors
    it again from entries unless it loses a row again.  stack() has the
    singular values and right singular vectors of A[rows, :cols]: it stacks
    the raw block's rows and the R of the others, so a single block stacks
    to A[rows, :cols] itself.
    """

    def __init__(self, entries, m, max_cols, dtype):
        self._entries = entries
        self.cols = 0
        self._rows = [np.arange(lo, min(lo + BLOCK_ROWS, m))
                      for lo in range(0, m, BLOCK_ROWS)]
        self._qr = [np.empty((r.size, max_cols), dtype, order="F")
                    for r in self._rows]
        self._tau = [np.empty(min(r.size, max_cols), dtype) for r in self._rows]
        self._raw = None        # the block that lost a row at the last step
        import scipy.linalg
        self._geqrf, geqrf_lwork, self._ormqr, self._larfg = (
            scipy.linalg.get_lapack_funcs(
                ("geqrf", "geqrf_lwork", "ormqr", "larfg"), dtype=dtype))
        # geqrf's optimal workspace for the largest block serves them all
        self._lwork = int(geqrf_lwork(min(m, BLOCK_ROWS), max_cols)[0].real)
        self._trans = "C" if np.dtype(dtype).kind == "c" else "T"

    def rows(self):
        """The remaining rows of A, ascending."""
        return np.concatenate(self._rows)

    def step(self, i):
        """Remove row i of A, then append column self.cols of A."""
        lost = i // BLOCK_ROWS
        self._rows[lost] = self._rows[lost][self._rows[lost] != i]
        self.cols += 1
        for b, rows in enumerate(self._rows):
            if b == lost or rows.size == 0:
                continue
            if b == self._raw:
                self._factor(b)
            else:
                self._append(b)
        self._raw = lost

    def _factor(self, b):
        # the QR of the rows left reuses the start of the block's memory: an
        # array per factor grows the resident set (freed ones stay resident)
        n, m = self._rows[b].size, self._qr[b].shape[1]
        flat = self._qr[b].reshape(-1, order="F")
        self._qr[b] = flat[:n * m].reshape((n, m), order="F")
        A = self._qr[b][:, :self.cols]
        A[...] = self._entries(self._rows[b], slice(0, self.cols))
        # A is Fortran-contiguous, so geqrf overwrites it in place
        _, tau, _, _ = self._geqrf(A, lwork=self._lwork, overwrite_a=True)
        self._tau[b][:tau.size] = tau

    def _append(self, b):
        c = self.cols - 1
        rows = self._rows[b]
        n = rows.size
        QR, tau = self._qr[b], self._tau[b]
        v = self._entries(rows, slice(c, c + 1))
        k = min(n, c)
        if k:
            v, _, _ = self._ormqr("L", self._trans, QR[:, :k], tau[:k], v, 1,
                                  overwrite_c=True)
        QR[:, c] = v[:, 0]
        if c < n:
            QR[c, c], QR[c + 1:, c], tau[c] = self._larfg(n - c, v[c, 0], v[c + 1:, 0])

    def stack(self):
        """The raw block's rows and the R of the others."""
        parts = []
        for b, rows in enumerate(self._rows):
            if b == self._raw:
                parts.append(self._entries(rows, slice(0, self.cols)))
            else:
                r = min(rows.size, self.cols)
                parts.append(np.triu(self._qr[b][:r, :self.cols]))
        return parts[0] if len(parts) == 1 else np.vstack(parts)


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

    Infinite eigenvalues (from zero mask entries) are discarded.  A real E
    gives a real QZ (LAPACK dggev), whose complex eigenvalues come in
    conjugate pairs (equal to a few ulps).
    """
    E = _as_matrix(E)
    n = E.shape[0]
    if E.shape[0] != E.shape[1]:
        raise ValueError(f"matrix must be square, got shape {E.shape}")
    mask = np.asarray(mask, dtype=bool).ravel()
    if mask.shape[0] != n:
        raise ValueError(f"mask has length {mask.shape[0]}, expected {n}")
    import scipy.linalg
    B = np.diag(mask.astype(float))
    a, b = scipy.linalg.eig(E, B, right=False, homogeneous_eigvals=True)
    if np.any((a == 0) & (b == 0)) or np.any(np.isnan(a)) or np.any(np.isnan(b)):
        raise SingularPencilError("singular pencil: indeterminate eigenvalue")
    finite = np.abs(b) > 1e-13 * (np.abs(a) + np.abs(b))
    return _sort_eigs(a[finite] / b[finite])
