"""Dense linear-algebra kernel for the fitting modules, on numpy alone.

Wraps numpy's LAPACK behind the small set of operations the fitters need:
the R factor of a QR factorization, smallest singular pair, eigenvalues,
and the finite eigenvalues of arrowhead pencils.  The smallest singular
pair of a tall matrix comes from an SVD of its R factor, which has the
same singular values and right singular vectors.
Keeping some columns of both, or appending rows to both, keeps that
true, so a caller can reuse a small R instead of re-factoring a tall A.
RowBlockedR keeps a tall matrix that loses a row and gains a column at
each step as the R factors of blocks of its rows, and never downdates: a
block that loses a row is factored again at once from its raw rows, and
the others take the new column through their Householder reflectors.
Every reflector is LAPACK's (larfg, through numpy's QR).
Real input is factored in real (float64) arithmetic and complex input in
complex128.  The complex eigenvalues of a real matrix come in conjugate
pairs, and those of a real arrowhead pencil in exactly conjugate pairs:
its shift-and-invert solve runs at a real shift.
All functions are pure and deterministic; returned eigenvalue multisets
are complex, sorted by real part, then imaginary part.
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


def pow2_scale(x):
    """Power of two nearest max|x| on a log scale; 1 if that is 0 or inf."""
    m = float(np.max(np.abs(x), initial=0.0))
    if not 0 < m < math.inf:
        return 1.0
    return math.ldexp(1.0, min(round(math.log2(m)), 1023))


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


# rows per block of RowBlockedR
BLOCK_ROWS = 1024


class RowBlockedR:
    """A tall matrix A[rows, :cols] that loses a row and gains a column at
    each step, kept as one R factor per block of BLOCK_ROWS contiguous rows.

    entries(rows, cols) returns A[rows][:, cols] for an index array rows
    and a slice cols.  step(i) removes row i and factors the block that held
    it again, with the new column, by numpy's Householder QR (LAPACK geqrf):
    nothing is downdated.  Each other block applies its Q^H to the new
    column in compact WY form, Q = I - V T V^H (Schreiber and Van Loan,
    1989), and forms one more reflector by numpy's QR of the column's
    trailing part (LAPACK larfg), in O(rows * cols).  V and T come
    from a factor's reflectors and tau, T^-1 = striu(V^H V) + diag(1/tau),
    only when the block first takes a column after it; a single block loses
    a row at every step and never forms them.  stack() has the singular
    values and right singular vectors of A[rows, :cols]: the blocks' R.
    """

    def __init__(self, entries, m, max_cols, dtype):
        self._entries = entries
        self.cols = 0
        self._rows = [np.arange(lo, min(lo + BLOCK_ROWS, m))
                      for lo in range(0, m, BLOCK_ROWS)]
        self._R = [np.zeros((min(r.size, max_cols), max_cols), dtype)
                   for r in self._rows]
        # a block's geqrf output and tau from its last factor, until it takes
        # a column; then its V and T, kept for later factors
        self._geqrf = [(np.zeros((r.size, 0), dtype), np.zeros(0, dtype))
                       for r in self._rows]
        self._wy = [None] * len(self._rows)

    def rows(self):
        """The remaining rows of A, ascending."""
        return np.concatenate(self._rows)

    def step(self, i):
        """Remove row i of A, then append column self.cols of A."""
        lost = i // BLOCK_ROWS
        self._rows[lost] = self._rows[lost][self._rows[lost] != i]
        self.cols += 1
        for b, rows in enumerate(self._rows):
            if rows.size and b == lost:
                self._geqrf[b] = None   # free the last factor first
                h, tau = np.linalg.qr(self._entries(rows, slice(0, self.cols)),
                                      mode="raw")
                self._geqrf[b] = h.T, tau
                self._R[b][:tau.size, :self.cols] = np.triu(h.T[:tau.size])
            elif rows.size:
                self._append(b)

    def _form_wy(self, b, n):
        h, tau = self._geqrf[b]
        self._geqrf[b] = None
        if self._wy[b] is None:
            m = self._R[b].shape[1]
            self._wy[b] = (np.empty((n, m), h.dtype, order="F"),
                           np.empty((m, m), h.dtype))
        k = tau.size
        V, T = self._wy[b][0][:n, :k], self._wy[b][1]
        V[...] = np.tril(h[:, :k], -1)
        np.fill_diagonal(V, 1)
        # tau = 0 where a column is already zero below the diagonal: no
        # reflector, so a zero column of V
        none = tau == 0
        V[:, none] = 0
        Tinv = np.triu(V.conj().T @ V, 1)
        np.fill_diagonal(Tinv, 1 / np.where(none, 1, tau))
        T[:k, :k] = np.linalg.inv(Tinv)

    def _append(self, b):
        c, n, R = self.cols - 1, self._rows[b].size, self._R[b]
        if self._geqrf[b] is not None:
            self._form_wy(b, n)
        V, T = self._wy[b][0][:n], self._wy[b][1]
        k = min(n, c)
        a = self._entries(self._rows[b], slice(c, c + 1))[:, 0]
        if k:   # a = Q^H a
            a -= V[:, :k] @ (a.conj() @ V[:, :k] @ T[:k, :k]).conj()
        R[:k, c] = a[:k]
        if c < n:
            R[c, :c] = T[c, :c] = V[:c, c] = 0
            # geqrf's reflector: beta = h[0, 0] is real, v = (1, h[0, 1:])
            h, (tau,) = np.linalg.qr(a[c:, None], mode="raw")
            R[c, c], V[c, c], V[c + 1:, c] = h[0, 0], 1, h[0, 1:]
            u = (V[c:, c].conj() @ V[c:, :c]).conj()    # V[:, :c]^H v
            T[:c, c], T[c, c] = -tau * (T[:c, :c] @ u), tau

    def stack(self):
        """The R factors of the blocks, stacked."""
        return np.vstack([R[:min(rows.size, self.cols), :self.cols]
                          for R, rows in zip(self._R, self._rows)])


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

    The solve runs on z / pow2_scale(z): a copy 2^k z gives the roots
    times 2^k bit for bit, and supports below 2^-1074 of the largest merge.
    A root counts as finite if |x - z0| < 1e13 max|z - z0|, z0 = mean(z).
    Both infinite eigenvalues of the pencil are deflated exactly.  The
    Householder reflector H with H 1 = -sqrt(m) e_1 makes it equivalent to
    the m-by-m pencil (A, B = diag(0, 1, ..., 1)), where A is H diag(z) H
    with c^T H for its first row; there is no division by sum(c).  At a
    shift s, (A - s B)^-1 B has a zero first column, for the other infinite
    eigenvalue, and numpy's eigvals of the rest gives the 1 / (x - s).
    Newton steps on N, two in complex128 and one in extended precision
    (numpy.clongdouble), polish the roots; unlike steps on the sum, they
    keep a root at a support whose c_k is 0.  Real z and c get a real
    shift, so their complex roots come in exactly conjugate pairs; one root
    of each pair is polished, and the other is its conjugate.  For m >= 2,
    c = 0 (a singular pencil) raises numpy.linalg.LinAlgError.
    """
    z = np.asarray(supports)
    c = np.asarray(first_row)
    m = z.size
    if z.shape != (m,) or c.shape != (m,):
        raise ValueError(f"need 1-D supports and first_row of equal length, "
                         f"got shapes {z.shape} and {c.shape}")
    if m < 2:
        return np.empty(0, dtype=complex)
    scale = pow2_scale(z)
    z = z / scale
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
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
        return _sort_eigs(x[np.abs(x - center) / radius < 1e13]) * scale
