import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ratapprox import polyfit
from ratapprox.geometry import Disk, SampleSet, test_grid as eval_grid
from ratapprox.polyfit import va_fit


def circle(n):
    return np.exp(2j * np.pi * np.arange(n) / n)


def test_constant_fit():
    pts = circle(20)
    m = va_fit(SampleSet(pts, np.full(20, 3.0 - 1.0j)), 0)
    out = polyfit.va_basis(m, np.array([0j, 5.0 + 5.0j])) @ m.coeffs
    assert np.max(np.abs(out - (3.0 - 1.0j))) < 1e-13


def test_cubic_exact():
    pts = circle(50)
    m = va_fit(SampleSet(pts, pts ** 3), 3)
    fresh = 0.9 * np.exp(2j * np.pi * (np.arange(97) + 0.37) / 97)
    assert np.max(np.abs(polyfit.va_basis(m, fresh) @ m.coeffs - fresh ** 3)) < 1e-13


def test_cubic_extrapolation():
    pts = circle(50)
    m = va_fit(SampleSet(pts, pts ** 3), 3)
    assert abs((polyfit.va_basis(m, np.array([2.0 + 0j])) @ m.coeffs)[0] - 8.0) < 1e-10


def test_exp_degree_10():
    pts = circle(500)
    m = va_fit(SampleSet(pts, np.exp(pts)), 10)
    grid = eval_grid(Disk(0j, 1.0), 4000)
    # Taylor remainder sum_{k>=11} 1/k! ~ 2.73e-8 bounds the best error
    assert np.max(np.abs(polyfit.va_basis(m, grid) @ m.coeffs - np.exp(grid))) <= 2.8e-8
    assert abs((polyfit.va_basis(m, np.array([0j])) @ m.coeffs)[0] - 1.0) < 1e-8


def test_degree_exceeds_samples():
    pts = circle(5)
    with pytest.raises(ValueError):
        va_fit(SampleSet(pts, np.exp(pts)), 5)


def test_breakdown_on_too_few_distinct_points():
    # effectively 3 distinct points determine no basis past degree 2: the
    # recurrence collapses at column 3, and va_fit returns the least-squares
    # fit in the nested basis built so far, which interpolates the points
    near = np.array([0.0, 1.0, 2.0, 1e-300j, 1.0 + 1e-300j, 2.0 + 1e-300j])
    m = va_fit(SampleSet(near, np.exp(near)), 5)
    assert m.degree == 2
    assert m.hessenberg.shape == (3, 2) and m.coeffs.shape == (3,)
    x = np.array([0.0, 1.0, 2.0])
    assert np.max(np.abs(polyfit.va_basis(m, x) @ m.coeffs - np.exp(x))) <= 1e-13


_CIRCLE_300 = circle(300)
_EXP_40 = va_fit(SampleSet(_CIRCLE_300, np.exp(_CIRCLE_300)), 40)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(k=st.integers(-300, 300))
@example(k=-600)
@example(k=-50)
@example(k=900)
@example(k=1000)
def test_fit_to_points_scaled_by_a_power_of_two_is_exact(k):
    # the recurrence is homogeneous in the points; at 2^-600 and 2^-50 the
    # absolute breakdown test fired, and from 2^900 a column norm overflowed
    scale = math.ldexp(1.0, k)
    scaled = scale * _CIRCLE_300
    m = va_fit(SampleSet(scaled, np.exp(_CIRCLE_300)), 40)
    assert np.array_equal(m.coeffs, _EXP_40.coeffs)
    assert np.array_equal(m.hessenberg, scale * _EXP_40.hessenberg)
    assert np.array_equal(polyfit.va_basis(m, scaled) @ m.coeffs,
                          polyfit.va_basis(_EXP_40, _CIRCLE_300) @ _EXP_40.coeffs)


def test_orthonormality_degree_100():
    pts = circle(500)
    m = va_fit(SampleSet(pts, np.exp(pts)), 100)
    H, n = m.hessenberg, m.degree
    W = np.zeros((pts.size, n + 1), dtype=complex)
    W[:, 0] = 1.0
    for k in range(n):
        q = pts * W[:, k]
        for i in range(k + 1):
            q = q - H[i, k] * W[:, i]
        W[:, k + 1] = q / H[k + 1, k]
    Q = W / np.sqrt(pts.size)
    assert np.max(np.abs(Q.conj().T @ Q - np.eye(n + 1))) <= 1e-10


def test_subdiagonal_positive_real():
    pts = circle(64)
    m = va_fit(SampleSet(pts, np.tan(pts)), 12)
    sub = np.array([m.hessenberg[k + 1, k] for k in range(12)])
    assert np.all(sub.real > 0) and np.max(np.abs(sub.imag)) == 0


def test_degree_monotonicity():
    pts = circle(300)
    s = SampleSet(pts, np.exp(pts))
    prev = np.inf
    for n in range(0, 16, 3):
        m = va_fit(s, n)
        err = np.max(np.abs(polyfit.va_basis(m, pts) @ m.coeffs - s.values))
        assert err <= prev + 1e-15
        prev = err


def test_linearity():
    pts = circle(200)
    f = np.exp(pts)
    g = np.tan(0.5 * pts)
    a, b = 2.0 - 1.0j, 0.3 + 0.7j
    cf = va_fit(SampleSet(pts, f), 8).coeffs
    cg = va_fit(SampleSet(pts, g), 8).coeffs
    cfg = va_fit(SampleSet(pts, a * f + b * g), 8).coeffs
    assert np.max(np.abs(cfg - (a * cf + b * cg))) < 1e-12 * max(
        np.max(np.abs(cf)), np.max(np.abs(cg)))


def test_refit_matches_projection():
    pts = circle(150)
    s = SampleSet(pts, np.exp(pts))
    m = va_fit(s, 9)
    back = polyfit.va_basis(m, pts) @ m.coeffs
    # evaluating at the original points reproduces the fit-time projection
    m2 = va_fit(SampleSet(pts, back), 9)
    assert np.max(np.abs(polyfit.va_basis(m2, pts) @ m2.coeffs - back)) \
        <= 1e-12 * np.max(np.abs(back))


@pytest.mark.parametrize("m,n", [(40, 5), (200, 30), (500, 100)])
def test_coeffs_match_lstsq_on_regenerated_basis(m, n):
    rng = np.random.default_rng(m + n)
    pts = np.sqrt(rng.uniform(size=m)) * np.exp(2j * np.pi * rng.uniform(size=m))
    vals = np.exp(pts) + rng.normal(size=m) + 1j * rng.normal(size=m)
    model = va_fit(SampleSet(pts, vals), n)
    W = polyfit.va_basis(model, pts)
    ref = np.linalg.lstsq(W, vals, rcond=None)[0]
    assert np.linalg.norm(model.coeffs - ref) <= 1e-12 * np.linalg.norm(ref)


def test_lower_degree_fit_is_prefix_of_top_fit():
    pts = circle(300)
    s = SampleSet(pts, np.tan(pts))
    top = va_fit(s, 60)
    scale = np.linalg.norm(top.coeffs)
    for n in (0, 1, 7, 30, 59, 60):
        m = va_fit(s, n)
        assert np.array_equal(m.hessenberg, top.hessenberg[: n + 1, :n])
        assert np.max(np.abs(m.coeffs - top.coeffs[: n + 1])) <= 1e-14 * scale


def test_basis_columns_are_nested():
    pts = circle(300)
    s = SampleSet(pts, np.tan(pts))
    grid = eval_grid(Disk(0j, 1.0), 4000)
    W = polyfit.va_basis(va_fit(s, 40), grid)
    assert W.shape == (4000, 41)
    assert np.array_equal(polyfit.va_basis(va_fit(s, 12), grid), W[:, :13])
