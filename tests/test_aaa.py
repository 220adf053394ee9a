import functools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

import ratapprox as ra
from ratapprox import aaa, linalg
from ratapprox.geometry import Disk, FunctionSpec, Horseshoe, Interval, SampleSet


def circle(n=500):
    return np.exp(2j * np.pi * np.arange(n) / n)


def test_exp_disk_degree_and_error(exp_disk_fit):
    rep = exp_disk_fit
    assert rep.converged
    assert rep.model.degree <= 7
    assert rep.final_error <= 1e-11 * np.e


def test_constant_samples():
    pts = circle(100)
    s = SampleSet(pts, np.full(100, 5.0 + 0j))
    rep = aaa.cleanup(aaa.aaa_fit(s, tol=1e-12, max_degree=10), s)
    assert rep.model.degree == 0
    # the barycentric quotient rounds at the last bit even for constant
    # data, so "zero error" lands at eps scale rather than exactly 0
    assert rep.history[-1][1] <= 5e-15
    assert rep.final_error <= 5e-15


def test_simple_pole_recovered():
    pts = circle(200)
    s = SampleSet(pts, 1.0 / (pts - 2))
    rep = aaa.cleanup(aaa.aaa_fit(s, tol=1e-10, max_degree=20), s)
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


@pytest.mark.parametrize("m", [9, 10, 11])
def test_fit_stops_at_the_last_square_step(m):
    # degree k leaves m - k - 1 rows for k + 1 columns: the last step
    # whose Loewner matrix is not wide is m // 2 - 1
    pts = circle(m)
    rep = aaa.aaa_fit(SampleSet(pts, np.exp(pts)), tol=1e-15, max_degree=m - 2)
    assert rep.history[-1][0] == rep.model.degree == m // 2 - 1
    assert not rep.converged


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
    assert m.pole_list.size == 0


def test_pole_count_equals_degree(exp_disk_fit):
    m = exp_disk_fit.model
    assert aaa.poles(m).size == m.degree
    # pole_list is one read-only solve of the same pencil
    p = m.pole_list
    assert p is m.pole_list and not p.flags.writeable
    assert p.tobytes() == aaa.poles(m).tobytes()


def test_zeros_of_linear_data():
    pts = circle(100)
    s = SampleSet(pts, pts - 0.5)
    rep = aaa.cleanup(aaa.aaa_fit(s, tol=1e-12, max_degree=10), s)
    zs = aaa.zeros(rep.model)
    assert np.min(np.abs(zs - 0.5)) < 1e-10


def test_zeros_exp_model_avoid_disk(exp_disk_fit):
    zs = aaa.zeros(exp_disk_fit.model)
    assert np.all(np.abs(zs) > 1.0)


def test_residue_ignores_analytic_part():
    pts = circle(200)
    for shift in (0.0, 3.0):
        s = SampleSet(pts, shift + 1.0 / (pts - 2))
        rep = aaa.cleanup(aaa.aaa_fit(s, tol=1e-10, max_degree=20), s)
        p = aaa.poles(rep.model)
        res = aaa.residues(rep.model, p)
        k = np.argmin(np.abs(p - 2.0))
        assert abs(res[k] - 1.0) < 1e-7


def test_residue_scaling():
    pts = circle(200)
    s = SampleSet(pts, 2.0 / (pts - 2j))
    rep = aaa.cleanup(aaa.aaa_fit(s, tol=1e-10, max_degree=20), s)
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
    s = SampleSet(pts, np.exp(pts))
    rep = aaa.cleanup(aaa.aaa_fit(s, tol=1e-20, max_degree=20), s)
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
        s = SampleSet(pts, vals)
        rep = aaa.cleanup(aaa.aaa_fit(s, tol=1e-12, max_degree=20), s)
        assert rep.model.degree <= d + 1
        scale = np.max(np.abs(vals))
        tst = np.exp(2j * np.pi * (np.arange(1000) + 0.5) / 1000)
        tvals = np.sum(res[:, None] / (tst[None, :] - pl[:, None]), axis=0) + 0.7
        err = np.max(np.abs(aaa.evaluate(rep.model, tst) - tvals))
        assert err <= 1e-11 * scale


def _matched_gap(got, want, scale):
    """Largest |got - want| / scale over the best matching of the multisets."""
    cost = np.abs(got[:, None] - want[None, :]) / scale[None, :]
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6),
       a_abs=st.floats(0.1, 10), a_arg=st.floats(-np.pi, np.pi),
       b=st.complex_numbers(max_magnitude=10))
def test_affine_map_of_supports_maps_poles_and_zeros(seed, d, a_abs, a_arg, b):
    # r'(z) = r((z - b)/a) has supports a z_k + b and the same values and
    # weights, so its poles and zeros are a p + b; rtol is relative to
    # |a| max(1, |p|) + |b|, the size of the mapped pencil and pole (the
    # largest gap over 3000 random draws was 3e-15)
    rtol = 1e-12
    rng = np.random.default_rng(seed)
    z = np.exp(2j * np.pi * (np.arange(d + 1) + rng.uniform(0, 0.5, d + 1)) / (d + 1))
    f = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
    w = rng.uniform(0.5, 2, d + 1) * np.exp(2j * np.pi * rng.uniform(size=d + 1))
    a = a_abs * np.exp(1j * a_arg)
    r = aaa.BarycentricRational(z, f, w)
    mapped = aaa.BarycentricRational(a * z + b, f, w)
    for solve in (aaa.poles, aaa.zeros):
        p, q = solve(r), solve(mapped)
        assert p.size == q.size
        if p.size:
            scale = np.abs(a) * np.maximum(1, np.abs(p)) + abs(b)
            assert _matched_gap(q, a * p + b, scale) <= rtol


def _vectors(real, n, unique=False):
    elem = (st.floats(allow_nan=False, allow_infinity=False) if real
            else st.complex_numbers(allow_nan=False, allow_infinity=False))
    return st.lists(elem, min_size=n, max_size=n, unique=unique)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), real=st.booleans(), n=st.integers(1, 12))
def test_interpolation_property(data, real, n):
    # evaluate returns f_k at every support z_k bit for bit, for real and
    # complex models, zero weights and overflowing terms included
    z, f, w = (np.array(data.draw(_vectors(real, n, unique)), dtype=complex)
               for unique in (True, False, False))
    assume(np.any(w != 0))
    m = aaa.BarycentricRational(z, f, w)
    assert aaa.evaluate(m, m.supports).tobytes() == m.values.tobytes()


def _reference_fit(samples, tol, max_degree):
    """Greedy fit and cleanup with a fresh Loewner matrix and thin SVD per solve.

    The Loewner matrix is real when every sample point and value is real,
    as the fit's is.
    """
    Z, F = samples.points, samples.values
    if not (np.any(Z.imag) or np.any(F.imag)):
        Z, F = Z.real, F.real

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
    rep = aaa.cleanup(aaa.aaa_fit(s, tol=tol, max_degree=max_degree), s)
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


_PREFIX_CASES = {
    "exp-disk": (FunctionSpec.EXP, Disk(0j, 1.0)),
    "abs-interval": (FunctionSpec.ABS_VAL, Interval(-1.0, 1.0)),
    "sqrtneg-horseshoe": (FunctionSpec.SQRT_NEG, Horseshoe()),
}


@functools.cache
def _trajectory(case):
    """Samples of a case and one greedy run on them to tol 1e-13, degree 60."""
    s = ra.sample_function(*_PREFIX_CASES[case], 500)
    return s, aaa.aaa_fit(s, tol=1e-13, max_degree=60)


def _same_model(a, b):
    return (np.array_equal(a.supports, b.supports)
            and np.array_equal(a.values, b.values)
            and np.array_equal(a.weights, b.weights))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=st.sampled_from(sorted(_PREFIX_CASES)),
       log_tol=st.floats(-13.0, -6.0), max_degree=st.integers(0, 60))
@example(case="abs-interval", log_tol=-7.0, max_degree=60)     # converges
def test_truncate_equals_the_shorter_fit(case, log_tol, max_degree):
    # the greedy choices do not depend on the stop rule, so a fit at a
    # looser tol or lower degree is a prefix of the longer run, bit for bit
    tol = 10.0 ** log_tol
    s, full = _trajectory(case)
    cut = aaa.truncate(full, s, tol, max_degree)
    ref = aaa.aaa_fit(s, tol=tol, max_degree=max_degree)
    assert cut.history == ref.history
    assert cut.converged == ref.converged
    assert cut.final_error == ref.final_error
    assert cut.tol == ref.tol
    assert _same_model(cut.model, ref.model)
    assert len(cut.snapshots) == len(ref.snapshots)
    assert all(_same_model(a, b) for a, b in zip(cut.snapshots, ref.snapshots))


def test_truncate_rejects_a_short_trajectory():
    s, full = _trajectory("abs-interval")
    with pytest.raises(ValueError):
        aaa.truncate(full, s, 1e-14, 80)


def _abs_interval_samples():
    # the samples of figure 5: real points and real values
    return ra.sample_function(FunctionSpec.ABS_VAL, Interval(-1.0, 1.0), 500)


@pytest.mark.parametrize("case", ["abs-interval", "exp-disk"])
def test_solves_follow_the_data_dtype(case, monkeypatch):
    # real data must be solved in real arithmetic, greedy steps and cleanup
    # alike, and complex data in complex arithmetic
    seen = []
    kernel = linalg.min_singular_right_vector

    def recording(A):
        seen.append(np.asarray(A).dtype)
        return kernel(A)

    monkeypatch.setattr(linalg, "min_singular_right_vector", recording)
    if case == "abs-interval":
        s = _abs_interval_samples()
        rep = aaa.cleanup(aaa.aaa_fit(s, tol=1e-8, max_degree=60), s)
        assert rep.cleanup_removed > 0
        expected = np.float64
    else:
        s = ra.sample_function(FunctionSpec.EXP, Disk(0j, 1.0), 500)
        rep = aaa.cleanup(aaa.aaa_fit(s, tol=1e-12, max_degree=150), s)
        expected = np.complex128
    # one solve per greedy step and per removal, and a cleanup that removes
    # anything re-solves once more on its final supports
    assert len(seen) == len(rep.history) + rep.cleanup_removed + (rep.cleanup_removed > 0)
    assert set(seen) == {np.dtype(expected)}


def _conjugation_gap(v):
    """Largest relative distance between v and conj(v), matched as multisets."""
    cost = np.abs(v[:, None] - v.conj()[None, :]) / np.abs(v)[:, None]
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def test_real_data_poles_and_zeros_are_conjugate_pairs():
    s = _abs_interval_samples()
    rep = aaa.cleanup(aaa.aaa_fit(s, tol=1e-8, max_degree=60), s)
    p, z = aaa.poles(rep.model), aaa.zeros(rep.model)
    assert p.size == z.size == rep.model.degree
    assert np.count_nonzero(p.imag) > 0 and np.count_nonzero(z.imag) > 0
    assert _conjugation_gap(p) <= 4 * np.finfo(float).eps
    assert _conjugation_gap(z) <= 4 * np.finfo(float).eps


def _degree_d_data(seed, d, real):
    """Samples of c + sum res/(z - p) with d simple poles well off the set.

    Real data sit on [-1,1]: real poles beyond +-1.3 and conjugate pairs with
    conjugate residues.  Complex data sit on the unit circle, poles at radius
    1.5..3.  Returns points, values and test points.
    """
    rng = np.random.default_rng(seed)
    if real:
        n_pairs = int(rng.integers(0, d // 2 + 1))
        n_real = d - 2 * n_pairs
        pc = (np.linspace(-1, 1, n_pairs + 2)[1:-1]
              + 1j * rng.uniform(0.3, 1.0, n_pairs))
        rc = rng.uniform(0.5, 2, n_pairs) * np.exp(2j * np.pi * rng.uniform(size=n_pairs))
        side = np.where(np.arange(n_real) % 2, 1.0, -1.0)
        pr = side * (1.3 + 0.3 * (np.arange(n_real) // 2)
                     + rng.uniform(0, 0.1, n_real))
        rr = rng.uniform(0.5, 2, n_real) * rng.choice([-1.0, 1.0], n_real)
        pl = np.concatenate([pc, pc.conj(), pr])
        res = np.concatenate([rc, rc.conj(), rr])
        pts = np.cos(np.pi * (np.arange(300) + 0.5) / 300)
        tst = np.linspace(-0.95, 0.95, 41)
        c = rng.normal()
    else:
        ang = 2 * np.pi * (np.arange(d) + rng.uniform(0, 0.5, d)) / d
        pl = rng.uniform(1.5, 3, d) * np.exp(1j * ang)
        res = rng.uniform(0.5, 2, d) * np.exp(2j * np.pi * rng.uniform(size=d))
        pts = circle(300)
        tst = 0.8 * np.exp(2j * np.pi * (np.arange(41) + 0.5) / 41)
        c = rng.normal() + 1j * rng.normal()
    vals = c + np.sum(res[:, None] / (pts[None, :] - pl[:, None]), axis=0)
    if real:
        vals = vals.real    # conjugate pairs cancel to rounding; drop it
    return pts, vals, tst


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5), real=st.booleans())
def test_partial_fraction_identity(seed, d, real):
    # r(z) = r(inf) + sum res/(z - p) on the fitted model, to rounding
    # relative to the sizes of the terms
    pts, vals, tst = _degree_d_data(seed, d, real)
    s = SampleSet(pts, vals)
    m = aaa.cleanup(aaa.aaa_fit(s, tol=1e-13, max_degree=d + 4), s).model
    pl = aaa.poles(m)
    terms = aaa.residues(m, pl)[:, None] / (tst[None, :] - pl[:, None])
    r_inf = np.sum(m.weights * m.values) / np.sum(m.weights)
    scale = abs(r_inf) + np.sum(np.abs(terms), axis=0)
    assert np.all(np.abs(m(tst) - (r_inf + terms.sum(axis=0))) <= 1e-12 * scale)


def _refactor_cleanup(report, samples):
    """cleanup with a fresh solve of L[free, keep] on every removal, the
    oracle of cleanup's R-factor updates: (supports, weights, removed)."""
    Z, F = aaa._real_if_exact(samples.points, samples.values)
    thresh = 1e-13 * float(np.max(np.abs(F))) * aaa._diameter(Z)
    model = report.model
    removed = 0
    cols = np.array([np.flatnonzero(Z == s)[0] for s in model.supports])
    keep = np.ones(cols.size, dtype=bool)
    free = np.ones(Z.size, dtype=bool)
    free[cols] = False
    with np.errstate(divide="ignore", invalid="ignore"):
        L = (F[:, None] - F[None, cols]) / (Z[:, None] - Z[None, cols])
    worst = aaa._negligible_pole(model, thresh)
    while worst is not None:
        q = np.flatnonzero(keep)[np.argmin(np.abs(model.supports - worst))]
        keep[q] = False
        free[cols[q]] = True
        _, w = linalg.min_singular_right_vector(L[np.ix_(free, keep)])
        model = aaa.BarycentricRational(Z[cols[keep]], F[cols[keep]], w)
        removed += 1
        worst = aaa._negligible_pole(model, thresh)
    return model.supports, model.weights, removed


@functools.cache
def _cleanup_case(case):
    if case == "figure5":
        s = _abs_interval_samples()
        fit = aaa.aaa_fit(s, tol=1e-8, max_degree=60)
    else:
        s = ra.sample_function(FunctionSpec.ABS_VAL, Interval(-1.0, 1.0), 2000)
        fit = aaa.aaa_fit(s, tol=1e-13, max_degree=100)
    return s, fit, aaa.cleanup(fit, s)


@pytest.mark.parametrize("case", ["figure5", "abs-2000"])
def test_cleanup_weights_are_a_fresh_solve(case):
    # the R updates only steer the removals; the returned weights are the
    # solve of the Loewner matrix on the final supports, bit for bit
    s, _, rep = _cleanup_case(case)
    assert rep.cleanup_removed > 0
    Z, F = aaa._real_if_exact(s.points, s.values)
    cols = np.array([np.flatnonzero(Z == z)[0] for z in rep.model.supports])
    free = np.ones(Z.size, dtype=bool)
    free[cols] = False
    L = (F[free, None] - F[None, cols]) / (Z[free, None] - Z[None, cols])
    _, w = linalg.min_singular_right_vector(L)
    assert rep.model.weights.tobytes() == w.astype(complex).tobytes()


@pytest.mark.parametrize("case", ["figure5", "abs-2000"])
def test_cleanup_removes_what_the_refactor_oracle_removes(case):
    s, fit, rep = _cleanup_case(case)
    supports, weights, removed = _refactor_cleanup(fit, s)
    assert rep.cleanup_removed == removed
    assert np.array_equal(rep.model.supports, supports)
    assert rep.model.weights.tobytes() == weights.tobytes()


def test_cleanup_with_fewer_free_rows_than_columns_raises_as_before():
    # a degree-(M-2) model of 1/(z - 3) on M samples: all but one sample
    # are supports, so L[free] has one row and R is 1-by-(M-1), and the
    # model's 19 cancelling pole-zero pairs have negligible residue
    pts = np.exp(2j * np.pi * np.arange(22) / 22)
    s = SampleSet(pts, 1.0 / (pts - 3.0))
    z, f = s.points[:21], s.values[:21]
    row = (s.values[21] - f) / (s.points[21] - z)
    w = np.linalg.svd(row[None, :])[2][-1].conj()
    model = aaa.BarycentricRational(z, f, w)
    fit = aaa.FitReport(model=model, history=((20, 0.0),), converged=True,
                        tol=1e-13, final_error=0.0, snapshots=(model,))
    with pytest.raises(ValueError) as expected:
        _refactor_cleanup(fit, s)
    assert str(expected.value) == "need m >= k, got shape (2, 20)"
    with pytest.raises(ValueError) as got:
        aaa.cleanup(fit, s)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)
