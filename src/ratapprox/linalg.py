"""Dense linear-algebra kernel for the fitting modules.

Wraps LAPACK (via numpy, and scipy for RowBlockedR's block updates) behind
the small set of operations the fitters need: the R factor of a QR
factorization, smallest singular pair, eigenvalues, and the finite
eigenvalues of arrowhead pencils.  The smallest singular pair of a tall
matrix comes from an SVD of its R factor, which has the same singular
values and right singular vectors.
Keeping some columns of both, or appending rows to both, keeps that
true, so a caller can reuse a small R instead of re-factoring a tall A.
RowBlockedR keeps a tall matrix that loses a row and gains a column at
each step as the R factors of blocks of its rows, and never downdates: a
block that loses a row is factored again from its raw rows.  Real input is
factored in real (float64) arithmetic and complex input in complex128.
The complex eigenvalues of a real matrix come in conjugate pairs, and
those of a real arrowhead pencil in exactly conjugate pairs: its
shift-and-invert solve runs at a real shift.
All functions are pure and deterministic; returned eigenvalue multisets
are complex, sorted by real part, then imaginary part.  Only a RowBlockedR
of two or more blocks imports scipy.linalg, for its LAPACK handles;
importing this module and calling anything else in it loads numpy only.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


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
        if len(self._rows) == 1:
            return              # one block never reaches _factor or _append
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


def arrowhead_eigenvalues(supports, first_row):
    """The finite eigenvalues of the arrowhead pencil
    ([0, c^T; 1, diag(z)], diag(0, I)) for distinct supports z and
    c = first_row, sorted by (real, imag): the roots of the polynomial
    N(x) = prod_k (x - z_k) * sum_k c_k/(x - z_k), which are the roots of
    the sum and the supports whose c_k is 0.

    A root counts as finite if |x| < 1e13.  Both infinite eigenvalues of
    the pencil are deflated exactly.  The Householder reflector H with
    H 1 = -sqrt(m) e_1 makes it equivalent to the m-by-m pencil
    (A, B = diag(0, 1, ..., 1)), where A is H diag(z) H with c^T H for its
    first row; there is no division by sum(c).  At a shift s, (A - s B)^-1 B
    has a zero first column, for the other infinite eigenvalue, and numpy's
    eigvals of the rest gives the 1 / (x - s).  Newton steps on N, two in
    complex128 and one in extended precision (numpy.clongdouble), polish
    the roots; unlike steps on the sum, they keep a root at a support whose
    c_k is 0.  Real z and c get a real shift, so their complex roots come
    in exactly conjugate pairs; one root of each pair is polished, and the
    other is its conjugate.  For m >= 2, c = 0 (a singular pencil) raises
    numpy.linalg.LinAlgError.
    """
    z = np.asarray(supports)
    c = np.asarray(first_row)
    m = z.size
    if z.shape != (m,) or c.shape != (m,):
        raise ValueError(f"need 1-D supports and first_row of equal length, "
                         f"got shapes {z.shape} and {c.shape}")
    if m < 2:
        return np.empty(0, dtype=complex)
    # the shift need only not be a root: a point off the center of the
    # supports' disk, since symmetric data often have a root at the center
    center = z.sum() / m
    radius = np.abs(z - center).max()
    real = np.isrealobj(z) and np.isrealobj(c)
    shift = center + radius * (0.37 if real else cmath.exp(0.7j))
    r = math.sqrt(m)
    u = np.ones(m)
    u[0] += r
    H = np.eye(m) - np.outer(u, u) / (m + r)     # 2 / (u^T u) = 1 / (m + r)
    # A - s B: H diag(z - s) H = H diag(z) H - s I below its first row
    C = (H * (z - shift)) @ H
    C[0] = c @ H
    # (A - s B)^-1 B is inv(A - s B) with its first column zeroed
    mu = np.linalg.eigvals(np.linalg.inv(C)[1:, 1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        x = shift + 1 / mu
        if real:
            x = x[x.imag >= 0]
            upper = x.imag > 0
        for ctype in (complex, complex, np.clongdouble):
            # N'/N = sum_k 1/(x - z_k) + g'/g for g = sum_k c_k/(x - z_k)
            inv = 1 / (x.astype(ctype, copy=False)[:, None] - z)
            g = inv @ c
            step = g / (g * inv.sum(axis=1) - (inv * inv) @ c)
            step[~np.isfinite(step)] = 0.0
            x = (x - step).astype(complex, copy=False)
    if real:
        x = np.concatenate([x, x[upper].conj()])
    return _sort_eigs(x[np.abs(x) < 1e13])
