import numpy as np
import pytest

from ratapprox import linalg
from ratapprox.linalg import RankDeficientError


def test_least_squares_identity():
    x = linalg.solve_least_squares(np.eye(2), np.array([3.0, 4.0j]))
    assert np.allclose(x, [3.0, 4.0j], atol=1e-14)


def test_least_squares_mean_of_two():
    x = linalg.solve_least_squares(np.array([[1.0], [1.0]]), np.array([0.0, 2.0]))
    assert abs(x[0] - 1.0) < 1e-14


def test_least_squares_exact_solution():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 1.0, 2.0])
    x = linalg.solve_least_squares(A, b)
    # normal equations by hand: [[2,1],[1,2]] x = [3,3] -> x = (1,1)
    assert np.allclose(x, [1.0, 1.0], atol=1e-13)
    assert np.linalg.norm(A @ x - b) < 1e-13


def test_least_squares_rank_deficient():
    A = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(RankDeficientError) as exc:
        linalg.solve_least_squares(A, np.array([1.0, 2.0, 3.0]))
    assert exc.value.numerical_rank == 1


def test_least_squares_residual_orthogonality_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.integers(3, 64)
        k = rng.integers(1, m + 1)
        A = rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))
        b = rng.normal(size=m) + 1j * rng.normal(size=m)
        x = linalg.solve_least_squares(A, b)
        lhs = np.linalg.norm(A.conj().T @ (A @ x - b))
        assert lhs <= 1e-9 * np.linalg.norm(A, 2) * np.linalg.norm(b)


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
    # det(E - lambda*diag(0,1)) = -1 identically: empty spectrum
    E = np.array([[0.0, 1.0], [1.0, 5.0]])
    ev = linalg.finite_generalized_eigenvalues(E, np.array([False, True]))
    assert ev.size == 0


def test_generalized_three_by_three():
    # det(E - lambda*diag(0,1,1)) = 2*lambda - 5 by cofactor expansion
    E = np.array([[0.0, 1.0, 1.0], [1.0, 2.0, 0.0], [1.0, 0.0, 3.0]])
    ev = linalg.finite_generalized_eigenvalues(E, np.array([False, True, True]))
    assert ev.size == 1
    assert abs(ev[0] - 2.5) < 1e-10


def test_generalized_all_ones_mask_matches_standard():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    ev1 = linalg.finite_generalized_eigenvalues(A, np.ones(6, dtype=bool))
    ev2 = linalg.eigenvalues(A)
    assert np.max(np.abs(np.sort_complex(ev1) - np.sort_complex(ev2))) < 1e-10
