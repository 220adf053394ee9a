from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ratapprox import linalg


def test_min_singular_diagonal():
    s, v = linalg.min_singular_right_vector(np.diag([1.0, 2.0]))
    assert abs(s - 1.0) < 1e-12
    assert abs(abs(v[0]) - 1.0) < 1e-12 and abs(v[1]) < 1e-12


def test_min_singular_zero_matrix():
    s, v = linalg.min_singular_right_vector(np.zeros((2, 2)))
    assert s == 0.0
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_min_singular_rank_one():
    # singular values of [[3,0],[4,0]] are {5, 0}
    s, v = linalg.min_singular_right_vector(np.array([[3.0, 0.0], [4.0, 0.0]]))
    assert s < 1e-14
    assert abs(abs(v[1]) - 1.0) < 1e-12


def test_min_singular_is_minimal():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(12, 5)) + 1j * rng.normal(size=(12, 5))
    s, v = linalg.min_singular_right_vector(A)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    assert abs(np.linalg.norm(A @ v) - s) < 1e-10 * np.linalg.norm(A, 2)
    for _ in range(100):
        u = rng.normal(size=5) + 1j * rng.normal(size=5)
        u /= np.linalg.norm(u)
        assert s <= np.linalg.norm(A @ u) + 1e-12


@pytest.mark.parametrize("k", [1, 4, 12])
@pytest.mark.parametrize("rows_per_col", ["k+1", "2k", "50k"])
def test_min_singular_matches_thin_svd(k, rows_per_col):
    # m = 2k and 50k take the QR-then-SVD path, m = k+1 the direct SVD
    m = {"k+1": k + 1, "2k": 2 * k, "50k": 50 * k}[rows_per_col]
    rng = np.random.default_rng(100 * k + m)
    A = rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))
    s, v = linalg.min_singular_right_vector(A)
    _, s_ref, Vh = np.linalg.svd(A, full_matrices=False)
    assert abs(s - s_ref[-1]) <= 1e-12 * s_ref[-1]
    assert abs(abs(np.vdot(v, Vh[-1].conj())) - 1.0) <= 1e-12


@pytest.mark.parametrize("x, scale", [
    ([0.0], 1.0), ([], 1.0), ([np.inf], 1.0),
    ([1.4, -0.5], 1.0), ([1.5j], 2.0), ([3.0, 0.0], 4.0),
    ([np.finfo(float).max], 2.0 ** 1023), ([5e-324], 5e-324),
])
def test_pow2_scale_is_the_nearest_power_of_two_on_a_log_scale(x, scale):
    # 1.4 < sqrt(2) < 1.5; the top binade clamps to 2^1023, which is finite
    assert linalg.pow2_scale(np.array(x)) == scale


def test_eigenvalues_examples():
    ev = linalg.eigenvalues(np.diag([2.0, 3.0]))
    assert np.allclose(sorted(ev.real), [2.0, 3.0], atol=1e-12)
    ev = linalg.eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.allclose(sorted(ev, key=lambda z: z.imag), [-1j, 1j], atol=1e-12)
    ev = linalg.eigenvalues(np.array([[7.0 + 1.0j]]))
    assert abs(ev[0] - (7 + 1j)) < 1e-14


def test_eigenvalues_trace_and_determinant():
    rng = np.random.default_rng(11)
    for n in (2, 4, 8):
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        ev = linalg.eigenvalues(A)
        assert abs(np.sum(ev) - np.trace(A)) <= 1e-9 * np.linalg.norm(A, 2)
        assert abs(np.prod(ev) - np.linalg.det(A)) <= 1e-8 * abs(np.linalg.det(A)) + 1e-9
    for n in (16, 64):
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        ev = linalg.eigenvalues(A)
        assert abs(np.sum(ev) - np.trace(A)) <= 1e-9 * n * np.linalg.norm(A, 2)


def test_eigenvalues_rejects_non_square():
    with pytest.raises(ValueError):
        linalg.eigenvalues(np.zeros((2, 3)))


def test_generalized_no_finite_eigenvalue():
    # det([[0, 1], [1, 5 - lambda]]) = -1 identically: 1/(x - 5) has no root
    assert linalg.arrowhead_eigenvalues(np.array([5.0]), np.array([1.0])).size == 0


def test_generalized_three_by_three():
    # 1/(x - 2) + 1/(x - 3) = 0 at x = 2.5: det(E - lambda diag(0, 1, 1))
    # = 2 lambda - 5 for E = [[0, 1, 1], [1, 2, 0], [1, 0, 3]]
    ev = linalg.arrowhead_eigenvalues(np.array([2.0, 3.0]), np.array([1.0, 1.0]))
    assert ev.size == 1
    assert abs(ev[0] - 2.5) < 1e-10


def test_arrowhead_keeps_a_support_whose_coefficient_is_zero():
    # 0/x + 1/(x - 1) + 1/(x - 2): the pencil's eigenvalues are the roots of
    # x (2x - 3), so 0 is one, though the sum is -1.5 there, not 0
    ev = linalg.arrowhead_eigenvalues(np.array([0.0, 1.0, 2.0]),
                                      np.array([0.0, 1.0, 1.0]))
    assert np.allclose(ev, [0.0, 1.5], rtol=0, atol=1e-15)


def test_arrowhead_zero_first_row_is_singular():
    with pytest.raises(np.linalg.LinAlgError):
        linalg.arrowhead_eigenvalues(np.array([1.0, 2.0]), np.zeros(2))


@pytest.mark.parametrize("shape", [(6, 6), (13, 6), (300, 6)])
def test_min_singular_real_matches_complex(shape):
    # real input runs the real LAPACK routines; the pair must agree with the
    # complex routines on the same matrix up to the unit factor of v
    rng = np.random.default_rng(sum(shape))
    A = rng.normal(size=shape)
    s, v = linalg.min_singular_right_vector(A)
    s_ref, v_ref = linalg.min_singular_right_vector(A.astype(complex))
    assert v.dtype == np.float64
    assert abs(s - s_ref) <= 1e-12 * s_ref
    assert abs(abs(np.vdot(v, v_ref)) - 1.0) <= 1e-12


@pytest.mark.parametrize("m", [3, 9])
def test_generalized_real_matches_complex(m):
    # random real supports, and c_k = N(z_k) / prod_{j != k} (z_k - z_j) for
    # N with m - 1 random roots, conjugate pairs among them: the real solve
    # (at a real shift) gives exact conjugate pairs, and each root is the
    # complex solve's to within 8 eps times its condition number for
    # relative changes of c, sum |c_k/(x - z_k)| / |sum c_k/(x - z_k)^2|
    rng = np.random.default_rng(8)
    pairs = rng.normal(size=(m - 1) // 2) + 1j * rng.uniform(0.5, 2, (m - 1) // 2)
    roots = np.concatenate([pairs, pairs.conj(), rng.normal(size=(m - 1) % 2)])
    z = rng.normal(size=m)
    D = z[:, None] - z
    np.fill_diagonal(D, 1.0)
    c = np.prod(z[:, None] - roots, axis=1).real / D.prod(axis=1)
    ev = linalg.arrowhead_eigenvalues(z, c)
    ev_ref = linalg.arrowhead_eigenvalues(z.astype(complex), c.astype(complex))
    assert ev.size == ev_ref.size == m - 1 and np.any(ev.imag != 0)
    assert np.array_equal(np.sort_complex(ev.conj()), np.sort_complex(ev))
    q = c / (ev[:, None] - z)
    cond = np.abs(q).sum(axis=1) / np.abs((q / (ev[:, None] - z)).sum(axis=1))
    # match the two multisets pairwise: nearest remaining partner
    rest = list(ev_ref)
    for lam, bound in zip(ev, 8 * np.finfo(float).eps * cond):
        k = int(np.argmin(np.abs(np.array(rest) - lam)))
        assert abs(rest.pop(k) - lam) <= bound


def test_integer_input_accepted():
    s, v = linalg.min_singular_right_vector(np.array([[3, 0], [4, 0], [0, 1]]))
    assert abs(s - 1.0) < 1e-12 and abs(abs(v[1]) - 1.0) < 1e-12
    ev = linalg.arrowhead_eigenvalues(np.array([2, 3]), np.array([1, 1]))
    assert ev.size == 1 and abs(ev[0] - 2.5) < 1e-10
    ev = linalg.eigenvalues(np.array([[0, 1], [-1, 0]]))
    assert np.allclose(sorted(ev, key=lambda z: z.imag), [-1j, 1j], atol=1e-12)


@pytest.mark.parametrize("shape", [(9, 4), (4, 4), (2, 5)])
@pytest.mark.parametrize("real", [True, False])
def test_r_factor_shape_dtype_and_gram(shape, real):
    rng = np.random.default_rng(sum(shape))
    A = rng.normal(size=shape)
    if not real:
        A = A + 1j * rng.normal(size=shape)
    R = linalg.r_factor(A)
    assert R.shape == (min(shape), shape[1])
    assert R.dtype == (np.float64 if real else np.complex128)
    assert np.array_equal(R, np.triu(R))
    assert np.allclose(R.conj().T @ R, A.conj().T @ A, rtol=0, atol=1e-12)


def test_r_factor_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        linalg.r_factor(np.array([[1.0, np.inf], [0.0, 1.0]]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 24),
       extra=st.integers(-24, 40), steps=st.integers(1, 12), real=st.booleans())
def test_r_updates_keep_the_singular_values(seed, k, extra, steps, real):
    # deleting a column of R and appending a row of L, then re-factoring
    # the small matrix, is the R factor of L with that column deleted and
    # that row appended: the same singular values, to rounding
    rng = np.random.default_rng(seed)

    def draw(*shape):
        x = rng.normal(size=shape)
        return x if real else x + 1j * rng.normal(size=shape)

    L = draw(max(k + extra, 1), k)     # fewer rows than columns too
    R = linalg.r_factor(L)
    for _ in range(min(steps, k - 1)):
        i = int(rng.integers(L.shape[1]))
        row = draw(1, L.shape[1] - 1)
        L = np.vstack([np.delete(L, i, axis=1), row])
        R = linalg.r_factor(np.vstack([np.delete(R, i, axis=1), row]))
    s_upd = np.linalg.svd(R, compute_uv=False)
    s_ref = np.linalg.svd(linalg.r_factor(L), compute_uv=False)
    eps = np.finfo(float).eps
    assert np.max(np.abs(s_upd - s_ref)) <= 64 * eps * np.linalg.norm(L, 2)


def _draw(rng, real, *shape):
    x = rng.normal(size=shape)
    return x if real else x + 1j * rng.normal(size=shape)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), real=st.booleans(),
       m=st.integers(2, 90), max_cols=st.integers(1, 16),
       block_rows=st.integers(1, 24), steps=st.integers(1, 16),
       scale=st.integers(-500, 500),
       zero_cols=st.sets(st.integers(0, 15), max_size=4))
def test_row_blocked_r_keeps_the_smallest_singular_pair(
        seed, real, m, max_cols, block_rows, steps, scale, zero_cols):
    # after each step, which removes a random row and appends a column, rows()
    # lists the rows left and the stack has the smallest singular pair of
    # A[rows, :cols]: its sigma_min and the residual of its vector are a fresh
    # SVD's to 64 eps sigma_max.  A is scaled by 2**scale, and its zero
    # columns give reflectors with tau = 0, both in a block's factor and in
    # an appended column
    rng = np.random.default_rng(seed)
    A = np.ldexp(1.0, scale) * _draw(rng, real, m, max_cols)
    A[:, [j for j in zero_cols if j < max_cols]] = 0
    rows = list(range(m))
    eps = np.finfo(float).eps
    with mock.patch.object(linalg, "BLOCK_ROWS", block_rows):
        R = linalg.RowBlockedR(lambda r, c: A[r][:, c], m, max_cols, A.dtype)
        # keep the matrix tall, as the greedy fit does
        while R.cols < min(steps, max_cols) and len(rows) >= R.cols + 2:
            R.step(rows.pop(int(rng.integers(len(rows)))))
            assert R.rows().tolist() == rows
            S = R.stack()
            assert S.dtype == A.dtype and S.shape[1] == R.cols
            Ak = A[rows][:, :R.cols]
            s_ref = np.linalg.svd(Ak, compute_uv=False)
            s, v = linalg.min_singular_right_vector(S)
            bound = 64 * eps * s_ref[0]
            assert abs(s - s_ref[-1]) <= bound
            assert abs(np.linalg.norm(Ak @ v) - s_ref[-1]) <= bound
