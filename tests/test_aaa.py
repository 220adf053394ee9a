import numpy as np
import pytest

import ratapprox as ra
from ratapprox import aaa
from ratapprox.geometry import Disk, FunctionSpec, Interval, SampleSet


def circle(n=500):
    return np.exp(2j * np.pi * np.arange(n) / n)


def test_exp_disk_degree_and_error(exp_disk_fit):
    rep = exp_disk_fit
    assert rep.converged
    assert rep.model.degree <= 7
    assert rep.final_error <= 1e-11 * np.e


def test_constant_samples():
    pts = circle(100)
    rep = aaa.aaa_fit(SampleSet(pts, np.full(100, 5.0 + 0j)), tol=1e-12, max_degree=10)
    assert rep.model.degree == 0
    # the barycentric quotient rounds at the last bit even for constant
    # data, so "zero error" lands at eps scale rather than exactly 0
    assert rep.history[-1][1] <= 5e-15
    assert rep.final_error <= 5e-15


def test_simple_pole_recovered():
    pts = circle(200)
    rep = aaa.aaa_fit(SampleSet(pts, 1.0 / (pts - 2)), tol=1e-10, max_degree=20)
    assert rep.model.degree == 1
    p = aaa.poles(rep.model)
    assert p.size == 1
    assert abs(p[0] - 2.0) < 1e-8
    res = aaa.residues(rep.model, p)
    assert abs(res[0] - 1.0) < 1e-8


def test_too_few_samples_rejected():
    pts = circle(10)
    with pytest.raises(ValueError):
        aaa.aaa_fit(SampleSet(pts, np.exp(pts)), tol=1e-12, max_degree=20)


def test_negative_max_degree_rejected():
    pts = circle(10)
    with pytest.raises(ValueError):
        aaa.aaa_fit(SampleSet(pts, np.exp(pts)), tol=1e-12, max_degree=-1)


def test_eval_at_support_is_exact(exp_disk_fit):
    m = exp_disk_fit.model
    for zk, fk in zip(m.supports, m.values):
        assert aaa.evaluate(m, zk) == fk


def test_eval_linear_model():
    m = aaa.BarycentricRational(
        np.array([0.0, 1.0], dtype=complex),
        np.array([0.0, 1.0], dtype=complex),
        np.array([1.0, -1.0], dtype=complex),
    )
    # the quotient simplifies symbolically to r(z) = z
    assert abs(aaa.evaluate(m, 0.5 + 0j) - 0.5) < 1e-15
    assert abs(aaa.evaluate(m, 2.0 + 3.0j) - (2 + 3j)) < 1e-13


def test_eval_degree_zero():
    m = aaa.BarycentricRational(
        np.array([0.3 + 0j]), np.array([7.0 + 0j]), np.array([1.0 + 0j])
    )
    assert aaa.evaluate(m, 42.0 + 1j) == 7.0


def test_eval_at_pole_returns_infinity_marker():
    m = aaa.BarycentricRational(
        np.array([1.0 + 0j, -1.0 + 0j]),
        np.array([1.0 + 0j, 2.0 + 0j]),
        np.array([1.0 + 0j, 1.0 + 0j]),
    )
    p = aaa.poles(m)[0]
    v = aaa.evaluate(m, p)
    assert not np.isfinite(v.real) or abs(v) > 1e12


def test_poles_requires_degree_one():
    m = aaa.BarycentricRational(
        np.array([0j]), np.array([1.0 + 0j]), np.array([1.0 + 0j])
    )
    with pytest.raises(ValueError):
        aaa.poles(m)


def test_pole_count_equals_degree(exp_disk_fit):
    m = exp_disk_fit.model
    assert aaa.poles(m).size == m.degree


def test_zeros_of_linear_data():
    pts = circle(100)
    rep = aaa.aaa_fit(SampleSet(pts, pts - 0.5), tol=1e-12, max_degree=10)
    zs = aaa.zeros(rep.model)
    assert np.min(np.abs(zs - 0.5)) < 1e-10


def test_zeros_exp_model_avoid_disk(exp_disk_fit):
    zs = aaa.zeros(exp_disk_fit.model)
    assert np.all(np.abs(zs) > 1.0)


def test_residue_ignores_analytic_part():
    pts = circle(200)
    for shift in (0.0, 3.0):
        rep = aaa.aaa_fit(SampleSet(pts, shift + 1.0 / (pts - 2)), tol=1e-10,
                          max_degree=20)
        p = aaa.poles(rep.model)
        res = aaa.residues(rep.model, p)
        k = np.argmin(np.abs(p - 2.0))
        assert abs(res[k] - 1.0) < 1e-7


def test_residue_scaling():
    pts = circle(200)
    rep = aaa.aaa_fit(SampleSet(pts, 2.0 / (pts - 2j)), tol=1e-10, max_degree=20)
    p = aaa.poles(rep.model)
    res = aaa.residues(rep.model, p)
    k = np.argmin(np.abs(p - 2j))
    assert abs(res[k] - 2.0) < 1e-7


def test_cleanup_clean_model_unchanged(exp_disk_fit):
    assert exp_disk_fit.cleanup_removed == 0


def test_cleanup_removes_overfit_pairs():
    # forcing the degree far past convergence manufactures spurious
    # pole-zero pairs with negligible residue
    pts = circle(500)
    rep = aaa.aaa_fit(SampleSet(pts, np.exp(pts)), tol=1e-20, max_degree=20)
    assert rep.cleanup_removed >= 1
    assert rep.final_error <= 10 * max(e for _, e in rep.history[-3:])


def test_history_trends_downward():
    # greedy AAA is not monotone step to step (symmetric functions bounce),
    # but the trajectory never blows up and decays by many orders overall
    for fn, tol in ((FunctionSpec.EXP, 1e-12), (FunctionSpec.TAN_SQ, 1e-12),
                    (FunctionSpec.TWO_BRANCH_SQRT, 1e-10)):
        s = ra.sample_function(fn, Disk(0j, 1.0), 500)
        rep = aaa.aaa_fit(s, tol=tol, max_degree=150)
        errs = [e for _, e in rep.history]
        assert all(errs[i + 1] <= 10 * errs[i] for i in range(len(errs) - 1))
        assert errs[-1] <= 1e-9 * errs[0]


def test_degree_d_rational_exactness():
    rng = np.random.default_rng(0)
    pts = circle(400)
    for d in (1, 2, 3):
        pl = 1.5 + rng.uniform(0.5, 1.5, d) * np.exp(2j * np.pi * rng.uniform(size=d))
        res = rng.normal(size=d) + 1j * rng.normal(size=d)
        vals = np.sum(res[:, None] / (pts[None, :] - pl[:, None]), axis=0) + 0.7
        rep = aaa.aaa_fit(SampleSet(pts, vals), tol=1e-12, max_degree=20)
        assert rep.model.degree <= d + 1
        scale = np.max(np.abs(vals))
        tst = np.exp(2j * np.pi * (np.arange(1000) + 0.5) / 1000)
        tvals = np.sum(res[:, None] / (tst[None, :] - pl[:, None]), axis=0) + 0.7
        err = np.max(np.abs(aaa.evaluate(rep.model, tst) - tvals))
        assert err <= 1e-11 * scale


def test_interpolation_property(exp_disk_fit):
    m = exp_disk_fit.model
    nz = m.weights != 0
    ev = aaa.evaluate(m, m.supports[nz])
    assert np.array_equal(ev, m.values[nz])


def _reference_fit(samples, tol, max_degree):
    """Greedy fit and cleanup with a fresh Loewner matrix and thin SVD per solve."""
    Z, F = samples.points, samples.values

    def solve(idx):
        rows = np.setdiff1d(np.arange(Z.size), idx)
        A = (F[rows, None] - F[None, idx]) / (Z[rows, None] - Z[None, idx])
        _, _, Vh = np.linalg.svd(A, full_matrices=False)
        w = Vh[-1].conj()
        return rows, w / np.linalg.norm(w)

    fscale = np.max(np.abs(F))
    idx = [int(np.argmax(np.abs(F - F.mean())))]
    history = []
    while True:
        rows, w = solve(idx)
        with np.errstate(all="ignore"):
            C = 1.0 / (Z[rows, None] - Z[None, idx])
            resid = np.abs(F[rows] - (C @ (w * F[idx])) / (C @ w))
        resid = np.where(np.isfinite(resid), resid, np.inf)
        history.append((len(idx) - 1, float(resid.max())))
        if resid.max() <= tol * fscale or len(idx) - 1 >= max_degree:
            break
        idx.append(int(rows[np.argmax(resid)]))
    thresh = 1e-13 * fscale * np.max(np.abs(Z[:, None] - Z[None, :]))
    removed = 0
    while len(idx) > 1:
        model = aaa.BarycentricRational(Z[idx], F[idx], w)
        p = aaa.poles(model)
        res = np.abs(aaa.residues(model, p))
        if not (res < thresh).any():
            break
        idx.pop(int(np.argmin(np.abs(Z[idx] - p[np.argmin(res)]))))
        _, w = solve(idx)
        removed += 1
    return history, Z[idx], w, removed


@pytest.mark.parametrize("case", ["abs-interval", "exp-disk"])
def test_fit_matches_full_rebuild_reference(case):
    if case == "abs-interval":
        s = ra.sample_function(FunctionSpec.ABS_VAL, Interval(-1.0, 1.0), 500)
        tol, max_degree = 1e-8, 60
    else:
        s = ra.sample_function(FunctionSpec.EXP, Disk(0j, 1.0), 500)
        tol, max_degree = 1e-12, 150
    rep = aaa.aaa_fit(s, tol=tol, max_degree=max_degree)
    history, supports, w, removed = _reference_fit(s, tol, max_degree)
    if case == "abs-interval":
        assert removed > 0          # the case runs the cleanup path
    fscale = np.max(np.abs(s.values))
    assert [d for d, _ in rep.history] == [d for d, _ in history]
    assert np.allclose([e for _, e in rep.history], [e for _, e in history],
                       rtol=0, atol=1e-12 * fscale)
    assert np.array_equal(rep.model.supports, supports)
    assert rep.cleanup_removed == removed
    # singular vectors are unique up to a unit factor
    phase = np.vdot(w, rep.model.weights)
    phase /= abs(phase)
    assert np.max(np.abs(rep.model.weights - phase * w)) <= 1e-12
