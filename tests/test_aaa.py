import functools
import math
from dataclasses import replace

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


@pytest.mark.parametrize("m", [9, 10, 11])
def test_fit_stops_at_the_last_square_step(m):
    # degree k leaves m - k - 1 rows for k + 1 columns: the last step
    # whose Loewner matrix is not wide is m // 2 - 1, and any higher
    # max_degree is capped there
    pts = circle(m)
    s = SampleSet(pts, np.exp(pts))
    capped = aaa.aaa_fit(s, tol=1e-15, max_degree=m // 2 - 1)
    for max_degree in (m - 2, 10 * m):
        rep = aaa.aaa_fit(s, tol=1e-15, max_degree=max_degree)
        assert rep.history[-1][0] == rep.model.degree == m // 2 - 1
        assert not rep.converged
        assert rep.history == capped.history
        assert np.array_equal(rep.model.supports, capped.model.supports)
        assert np.array_equal(rep.model.weights, capped.model.weights)


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
    # 0 is an exact pole of both; a real model gives the division's signed
    # inf there, and a complex one complex infinity
    real = aaa.BarycentricRational(np.array([1.0, -1.0]), np.array([2.0, 1.0]),
                                   np.ones(2))
    assert aaa.evaluate(real, 0.0) == -np.inf
    assert aaa.evaluate(m, 0.0) == complex(np.inf, np.inf)


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
    # weights, so its poles are a p + b; rtol is relative to
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
    p, q = aaa.poles(r), aaa.poles(mapped)
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
    # evaluate returns f_k at every support z_k bit for bit, for real
    # (float64) and complex models, zero weights and overflowing terms
    # included
    z, f, w = (np.array(data.draw(_vectors(real, n, unique)))
               for unique in (True, False, False))
    assume(np.any(w != 0))
    m = aaa.BarycentricRational(z, f, w)
    assert aaa.evaluate(m, m.supports).tobytes() == m.values.tobytes()


def _reference_evaluate(r, z):
    """The barycentric quotient as evaluate computed it for one model alone,
    before it shared the greedy's quotient with prefix_evaluator, in the
    arithmetic of the model and the points: real for a real model at real
    points, where an exact pole gives the division's +-inf."""
    z = np.asarray(z)
    zv = np.atleast_1d(z.astype(np.result_type(z, r.supports))).ravel()
    with np.errstate(all="ignore"):
        D = zv[:, None] - r.supports[None, :]
        hit_rows, hit_cols = np.nonzero(D == 0)
        C = r.weights[None, :] / D
        num = C @ r.values
        den = C.sum(axis=1)
        out = num / den
    if np.iscomplexobj(out):
        out[(den == 0) & (num != 0)] = complex(np.inf, np.inf)
    out[hit_rows] = r.values[hit_cols]
    return out


def _rounding_bound(r, z):
    """A bound on |q1 - q2| for two floating-point evaluations q1, q2 of the
    barycentric quotient r(z) = N / D at points z off the supports, with
    N = sum_k a_k, a_k = w_k f_k / (z - z_k), and D = sum_k b_k,
    b_k = w_k / (z - z_k):

        eps (K + 17) (sum_k |a_k| + |r| sum_k |b_k|) / |D|.

    Either evaluation forms each term with one subtraction z - z_k
    (relative error u = eps / 2), at most one complex division (sqrt(2)
    gamma_4, Higham, Accuracy and Stability, sec. 3.6) and at most two
    complex multiplications (sqrt(2) gamma_2 each), then sums K terms in
    some order (gamma_(K-1)).  To first order each term carries a relative
    error of at most (1 + 4 sqrt(2) + 4 sqrt(2) + K - 1) u < (K + 11.4) u,
    so N and D are off by at most (K + 11.4) u sum|a_k| and (K + 11.4) u
    sum|b_k|, and N / D by (|dN| + |r| |dD|) / |D|.  The final division
    adds sqrt(2) gamma_4 |r| < 5.7 u |r|, itself at most 5.7 u times the
    bracket over |D|, since |D| <= sum|b_k|.  That is (K + 17.1) u per
    evaluation, and twice that for the difference of two; the powers of two
    both evaluations scale the values by are exact.  Real arithmetic
    rounds less.
    """
    with np.errstate(all="ignore"):
        C = 1.0 / (np.asarray(z)[:, None] - r.supports)
        a, b = C * (r.weights * r.values), C * r.weights
        q = a.sum(axis=1) / b.sum(axis=1)
        spread = np.abs(a).sum(axis=1) + np.abs(q) * np.abs(b).sum(axis=1)
        return (np.finfo(float).eps * (r.supports.size + 17)
                * spread / np.abs(b.sum(axis=1)))


def _prefix_models(rng, real, sizes):
    """Models along a trajectory: supports and values are prefixes of the
    last model's, each model has weights of its own.  The first two
    supports are 0 and 1 with values (1, 2); the first model has weights
    (1, 1), so 0.5 is its exact pole."""
    def vec(n):
        v = rng.standard_normal(n)
        return v if real else v + 1j * rng.standard_normal(n)

    n = sizes[-1]
    z = np.concatenate([[0.0, 1.0], 3.0 + vec(n - 2)])
    f = np.concatenate([[1.0, 2.0], vec(n - 2)])
    models = [aaa.BarycentricRational(z[:k], f[:k], vec(k)) for k in sizes]
    models[0] = aaa.BarycentricRational(z[:2], f[:2], np.ones(2))
    return models, vec


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), real=st.booleans(),
       n_supports=st.integers(3, 40), data=st.data())
def test_evaluate_prefixes_matches_evaluate_to_rounding(seed, real,
                                                        n_supports, data):
    # the points include every support, so each model meets hits inside
    # its prefix and outside it.  evaluate keeps its own arithmetic, bit for
    # bit; prefix_evaluator runs the greedy's, so its rows agree with
    # evaluate to the rounding bound off the supports, and exactly at
    # support hits inside a model's prefix and at the exact pole
    rng = np.random.default_rng(seed)
    sizes = sorted(data.draw(st.sets(st.integers(3, n_supports), max_size=6))
                   | {2, n_supports})
    models, vec = _prefix_models(rng, real, sizes)
    z = models[-1].supports
    pts = np.concatenate([vec(50), z, [0.5]])
    rows = aaa.prefix_evaluator(models, pts)(slice(None))
    assert rows.shape == (len(models), pts.size)
    assert np.isinf(rows[0, -1])
    off = slice(0, 50)
    for m, row in zip(models, rows):
        ref = _reference_evaluate(m, pts)
        assert aaa.evaluate(m, pts).tobytes() == ref.tobytes()
        assert np.all(np.abs(row[off] - ref[off]) <= _rounding_bound(m, pts[off]))
        k = m.supports.size
        assert row[50:50 + k].tobytes() == m.values.tobytes()
        grid = pts[:50].reshape(5, 10)
        assert aaa.evaluate(m, grid).shape == (5, 10)
        assert (aaa.evaluate(m, grid).tobytes()
                == _reference_evaluate(m, grid).tobytes())
        # a scalar is a one-point set, whose product can round differently;
        # it gives a Python float or complex, in the model's dtype
        for zi in (pts[0], z[1], z[-1], 0.5):
            value = aaa.evaluate(m, zi)
            assert type(value) is (float if real else complex)
            assert (np.asarray(value).tobytes()
                    == _reference_evaluate(m, zi).tobytes())
    # the bound has teeth: a weight off by 1e-8 relative breaks it
    m = models[-1]
    j = int(np.argmax(np.abs(m.weights)))
    w = m.weights.copy()
    w[j] *= 1 + 1e-8
    moved = aaa.prefix_evaluator([aaa.BarycentricRational(z, m.values, w)],
                                 pts[off])(slice(None))[0]
    assert np.any(np.abs(moved - _reference_evaluate(m, pts[off]))
                  > _rounding_bound(m, pts[off]))
    # the supports must be prefixes of the last model's
    with pytest.raises(ValueError):
        aaa.prefix_evaluator(models[::-1], pts)
    shifted = aaa.BarycentricRational(z[1:3], m.values[1:3], np.ones(2))
    with pytest.raises(ValueError):
        aaa.prefix_evaluator([shifted, models[-1]], pts)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_evaluate_prefixes_at_supports_beyond_a_prefix(real):
    # a point on a support that a model's prefix does not reach: the
    # Cauchy entry there is set to 0, not inf, so the model's zero-padded
    # weight forms no 0 * inf, and its value is the quotient's, to rounding
    models, _ = _prefix_models(np.random.default_rng(7), real, [2, 5, 9, 14])
    z = models[-1].supports
    rows = aaa.prefix_evaluator(models, z)(slice(None))
    for m, row in zip(models, rows):
        k = m.supports.size
        beyond = row[k:]
        assert np.all(np.isfinite(beyond))
        assert np.all(np.abs(beyond - _reference_evaluate(m, z[k:]))
                      <= _rounding_bound(m, z[k:]))
        assert row[:k].tobytes() == m.values.tobytes()


def _reference_fit(samples, tol, max_degree):
    """Greedy fit and cleanup with a fresh Loewner matrix and thin SVD per solve.

    The Loewner matrix is in the samples' dtype, as the fit's is.
    """
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


def _rebuild_fit(samples, tol, max_degree):
    """aaa_fit with the Cauchy matrix 1 / (Z[rows] - Z[cols]) of the
    non-support samples built anew at every step: (history, sigma_min,
    each step's weights)."""
    Z, F = samples.points, samples.values
    max_degree = min(max_degree, Z.size // 2 - 1)
    fscale = float(np.max(np.abs(F)))
    t = linalg.pow2_scale(F)
    Ft = F / t
    support_idx, history, sigma_min, weights = [], [], [], []
    L = linalg.RowBlockedR(
        lambda rows, cols: aaa._loewner(Z, Ft, rows, support_idx[cols]),
        Z.size, max_degree + 1, F.dtype)
    j = int(np.argmax(np.abs(Ft - Ft.mean())))
    for k in range(max_degree + 1):
        support_idx.append(j)
        L.step(j)
        rows = L.rows()
        sigma, w = linalg.min_singular_right_vector(L.stack())
        sigma_min.append(sigma * t)
        weights.append(w)
        cols = np.asarray(support_idx, dtype=int)
        with np.errstate(all="ignore"):
            C = 1.0 / (Z[rows, None] - Z[None, cols])
            resid = np.abs(Ft[rows] - (C @ (w * Ft[cols])) / (C @ w))
        resid = np.where(np.isfinite(resid), resid, np.inf)
        history.append((k, float(resid.max()) * t))
        if history[-1][1] <= tol * fscale:
            break
        j = int(rows[np.argmax(resid)])
    return tuple(history), tuple(sigma_min), weights


@pytest.mark.parametrize("case, m", [("exp-disk", 500), ("abs-interval", 500),
                                     ("sqrtneg-horseshoe", 500),
                                     ("sqrtneg-horseshoe", 2000)])
def test_cauchy_cache_matches_a_per_step_rebuild_bit_for_bit(case, m):
    # aaa_fit writes one Cauchy column per step into a cache that it frees
    # and refills wider when it runs out; the errors, sigma_min and weights
    # are those of building the whole matrix at every step.  The abs and
    # sqrtneg fits run past two growths of the cache (to degrees 60 and
    # 33), and exp converges at degree 7 on the first.  The 2000 complex
    # samples span two row blocks
    s = ra.sample_function(*_PREFIX_CASES[case], m)
    rep = aaa.aaa_fit(s, tol=1e-13, max_degree=60)
    history, sigma_min, weights = _rebuild_fit(s, 1e-13, 60)
    assert (len(weights) > 2 * aaa._CAUCHY_GROWTH) == (case != "exp-disk")
    assert rep.history == history
    assert rep.sigma_min == sigma_min
    assert len(rep.snapshots) == len(weights)
    for snap, w in zip(rep.snapshots, weights):
        assert snap.weights.tobytes() == w.tobytes()


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
        # figure 5: 55 greedy steps, 8 cleanup rounds that drop 10 supports,
        # and one fresh solve on the final supports
        assert (len(rep.history), rep.cleanup_removed) == (55, 10)
        expected, solves = np.float64, 55 + 8 + 1
    else:
        s = ra.sample_function(FunctionSpec.EXP, Disk(0j, 1.0), 500)
        rep = aaa.cleanup(aaa.aaa_fit(s, tol=1e-12, max_degree=150), s)
        assert rep.cleanup_removed == 0
        expected, solves = np.complex128, len(rep.history)
    # one solve per greedy step and per cleanup round, and a cleanup that
    # drops anything re-solves once more on its final supports
    assert len(seen) == solves
    assert set(seen) == {np.dtype(expected)}


def _conjugation_gap(v):
    """Largest relative distance between v and conj(v), matched as multisets."""
    cost = np.abs(v[:, None] - v.conj()[None, :]) / np.abs(v)[:, None]
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def test_real_data_poles_and_zeros_are_conjugate_pairs():
    s = _abs_interval_samples()
    rep = aaa.cleanup(aaa.aaa_fit(s, tol=1e-8, max_degree=60), s)
    p = aaa.poles(rep.model)
    assert p.size == rep.model.degree
    assert np.count_nonzero(p.imag) > 0
    assert _conjugation_gap(p) <= 4 * np.finfo(float).eps


@functools.cache
def _figure_models():
    """The model each figure returns, and the hard greedy snapshots: figure
    4 at degree 13 (sum(w)/|w| = 1.3e-10, poles up to |p| = 7e6), and
    figure 5 at degree 44 (poles clustered at 0, where QZ is least
    accurate) and 48 (zeros clustered at 0)."""
    from ratapprox.analysis import TOL_FLOOR
    from ratapprox.cli import N_BOUNDARY, PRESETS

    models = {}
    for fig, preset in PRESETS.items():
        s = ra.sample_function(preset.fn, preset.domain, N_BOUNDARY)
        run = aaa.aaa_fit(s, tol=min(preset.tol, TOL_FLOOR),
                          max_degree=max(preset.max_degree, max(preset.degrees)))
        models[f"figure{fig}"] = aaa.cleanup(
            aaa.truncate(run, s, preset.tol, preset.max_degree), s).model
        for degree in {4: (13,), 5: (44, 48)}.get(fig, ()):
            models[f"figure{fig}-degree{degree}"] = run.snapshots[degree]
    return models


def _qz_roots(z, c):
    """The finite eigenvalues of the arrowhead pencil by QZ (LAPACK ggev)."""
    import scipy.linalg

    m = z.size
    E = np.zeros((m + 1, m + 1), dtype=np.result_type(z, c))
    E[0, 1:] = c
    E[1:, 0] = 1.0
    E[1:, 1:] = np.diag(z)
    a, b = scipy.linalg.eig(E, np.diag(np.r_[0.0, np.ones(m)]), right=False,
                            homogeneous_eigvals=True)
    finite = np.abs(b) > 1e-13 * (np.abs(a) + np.abs(b))
    return a[finite] / b[finite]


def _polished(z, c, x0, dps=40):
    """The roots of sum_k c_k/(x - z_k) from x0 after 8 Newton steps in
    dps-digit arithmetic on the float64 z and c."""
    import mpmath

    with mpmath.workdps(dps):
        zm = [mpmath.mpc(complex(t)) for t in z]
        cm = [mpmath.mpc(complex(t)) for t in c]
        out = []
        for x in map(complex, x0):
            x = mpmath.mpc(x)
            for _ in range(8):
                q = [ck / (x - zk) for ck, zk in zip(cm, zm)]
                x += mpmath.fsum(q) / mpmath.fsum(qk / (x - zk) for qk, zk in zip(q, zm))
            out.append(complex(x))
    return np.array(out)


def _backward_error(x, z, c):
    """|sum_k c_k/(x - z_k)| / sum_k |c_k/(x - z_k)| at each x, evaluated in
    extended precision."""
    ld = np.clongdouble
    q = c.astype(ld) / (x.astype(ld)[:, None] - z.astype(ld))
    return (np.abs(q.sum(axis=1)) / np.abs(q).sum(axis=1)).astype(float)


@pytest.mark.parametrize("name", ["figure1", "figure2", "figure3", "figure4",
                                  "figure4-degree13", "figure5",
                                  "figure5-degree44", "figure5-degree48",
                                  "figure6"])
def test_poles_and_zeros_against_qz_and_a_40_digit_oracle(name):
    # each pole is as close to its 40-digit Newton-polished value as QZ's
    # (or within 2 eps of it), and both solves agree on the counts
    r = _figure_models()[name]
    eps = np.finfo(float).eps
    z, w = r.supports, r.weights
    p, p_qz = aaa.poles(r), _qz_roots(z, w)
    assert p.size == p_qz.size == r.degree
    ref = _polished(z, w, p_qz)
    cost = np.abs(p[:, None] - ref[None, :])
    rows, cols = linear_sum_assignment(cost)
    err, err_qz = cost[rows, cols], np.abs(p_qz - ref)[cols]
    assert np.all(err <= np.maximum(err_qz, 2 * eps * np.abs(ref[cols])))
    assert _backward_error(p, z, w).max() <= 4 * eps


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
    """cleanup one support at a time, with a fresh solve of L[free, keep] on
    every removal: the oracle of cleanup's rounds and of their R stack,
    (supports, weights, removed)."""
    Z, F = samples.points, samples.values
    thresh = 1e-13 * float(np.max(np.abs(F))) * aaa._diameter(Z)

    def most_negligible_pole(model):
        # the pole of smallest |residue| if that is below thresh, else None
        p = model.pole_list
        res = np.abs(aaa.residues(model, p))
        return p[np.argmin(res)] if (res < thresh).any() else None

    model = report.model
    removed = 0
    cols = np.array([np.flatnonzero(Z == s)[0] for s in model.supports])
    keep = np.ones(cols.size, dtype=bool)
    free = np.ones(Z.size, dtype=bool)
    free[cols] = False
    with np.errstate(divide="ignore", invalid="ignore"):
        L = (F[:, None] - F[None, cols]) / (Z[:, None] - Z[None, cols])
    worst = most_negligible_pole(model)
    while worst is not None:
        q = np.flatnonzero(keep)[np.argmin(np.abs(model.supports - worst))]
        keep[q] = False
        free[cols[q]] = True
        _, w = linalg.min_singular_right_vector(L[np.ix_(free, keep)])
        model = aaa.BarycentricRational(Z[cols[keep]], F[cols[keep]], w)
        removed += 1
        worst = most_negligible_pole(model)
    return model.supports, model.weights, removed


@functools.cache
def _cleanup_case(case):
    if case == "figure5":
        s = _abs_interval_samples()
        fit = aaa.aaa_fit(s, tol=1e-8, max_degree=60)
    elif case == "abs-500":
        # 44 removals in 21 rounds
        s = _abs_interval_samples()
        fit = aaa.aaa_fit(s, tol=1e-13, max_degree=249)
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
    Z, F = s.points, s.values
    cols = np.array([np.flatnonzero(Z == z)[0] for z in rep.model.supports])
    free = np.ones(Z.size, dtype=bool)
    free[cols] = False
    L = (F[free, None] - F[None, cols]) / (Z[free, None] - Z[None, cols])
    _, w = linalg.min_singular_right_vector(L)
    assert rep.model.weights.tobytes() == w.tobytes()


def test_cleanup_rejects_a_model_of_other_samples():
    # cleanup finds each support among the samples by one sorted lookup,
    # and a support that is not a sample point is an error
    s, fit, _ = _cleanup_case("figure5")
    other = ra.sample_function(FunctionSpec.ABS_VAL, Interval(-1.0, 1.0), 502)
    assert not np.all(np.isin(fit.model.supports, other.points))
    with pytest.raises(ValueError, match="sample points"):
        aaa.cleanup(fit, other)


@pytest.mark.parametrize("case", ["figure5", "abs-2000"])
def test_a_fit_to_real_data_is_a_real_model(case):
    # real samples keep the fit, every snapshot and the cleaned model in
    # float64, and evaluate at real points in real arithmetic; a complex
    # copy of the model agrees to rounding
    s, fit, rep = _cleanup_case(case)
    assert s.points.dtype == s.values.dtype == np.float64
    for m in (*fit.snapshots, rep.model):
        assert m.supports.dtype == m.values.dtype == m.weights.dtype == np.float64
    m = rep.model
    mc = aaa.BarycentricRational(m.supports.astype(complex), m.values,
                                 m.weights)
    assert mc.values.dtype == mc.weights.dtype == np.complex128
    z = s.points[~np.isin(s.points, m.supports)]
    q = aaa.evaluate(m, z)
    assert q.dtype == np.float64
    assert np.all(np.abs(q - aaa.evaluate(mc, z)) <= _rounding_bound(m, z))
    # at complex points, real coefficients give exactly conjugate values
    zc = z + 1j * np.geomspace(1e-9, 1.0, z.size)
    assert (aaa.evaluate(m, zc.conj()).tobytes()
            == aaa.evaluate(m, zc).conj().tobytes())


@pytest.mark.parametrize("case", ["figure5", "abs-500", "abs-2000"])
def test_cleanup_removes_what_the_refactor_oracle_removes(case):
    s, fit, rep = _cleanup_case(case)
    supports, weights, removed = _refactor_cleanup(fit, s)
    assert rep.cleanup_removed == removed
    assert np.array_equal(rep.model.supports, supports)
    assert rep.model.weights.tobytes() == weights.tobytes()


def test_cleanup_with_fewer_free_rows_than_columns():
    # a degree-(M-2) model of 1/(z - 3) on M samples: all but one sample
    # are supports, so R is 1-by-(M-1), and the model's 19 cancelling
    # pole-zero pairs have negligible residue.  Dropping their supports
    # frees enough rows to solve, and leaves the exact degree-1 model
    pts = np.exp(2j * np.pi * np.arange(22) / 22)
    s = SampleSet(pts, 1.0 / (pts - 3.0))
    z, f = s.points[:21], s.values[:21]
    row = (s.values[21] - f) / (s.points[21] - z)
    w = np.linalg.svd(row[None, :])[2][-1].conj()
    model = aaa.BarycentricRational(z, f, w)
    fit = aaa.FitReport(model=model, history=((20, 0.0),), converged=True,
                        tol=1e-13, final_error=0.0, snapshots=(model,))
    rep = aaa.cleanup(fit, s)
    assert rep.model.degree == 1
    assert rep.cleanup_removed == 19
    assert abs(aaa.poles(rep.model)[0] - 3.0) <= 1e-14
    assert rep.final_error <= 1e-15
    assert rep.converged


@pytest.mark.parametrize("m", [500, 2000, 8000])
@pytest.mark.parametrize("domain", [
    Disk(), Disk(0.3 - 0.2j, 2.5), Interval(), Interval(0.5, 3.0),
    Horseshoe(), Horseshoe(0.2, 2.0, 0.7),
], ids=["disk", "disk-shifted", "interval", "interval-shifted", "horseshoe",
        "horseshoe-wide"])
def test_diameter_is_within_cos_pi_over_128_of_the_exact_one(domain, m):
    # the cleanup threshold scales with it; the largest pairwise distance,
    # in chunks of rows, is the exact diameter
    z = ra.boundary_samples(domain, m)
    if isinstance(domain, Interval):
        z = z.real      # the points of real data, as cleanup sees them
    exact = max(float(np.abs(z[i:i + 256, None] - z).max())
                for i in range(0, z.size, 256))
    assert np.cos(np.pi / 128) * exact <= aaa._diameter(z) <= exact


def _loewner(samples, supports):
    """The Loewner matrix over the non-support samples, in the arithmetic of
    the data."""
    Z, F = samples.points, samples.values
    idx = np.array([np.flatnonzero(samples.points == z)[0] for z in supports])
    rows = np.setdiff1d(np.arange(Z.size), idx)
    return (F[rows, None] - F[idx]) / (Z[rows, None] - Z[idx])


@pytest.mark.parametrize("fn,domain", [
    (FunctionSpec.ABS_VAL, Interval(-1.0, 1.0)),
    (FunctionSpec.SQRT_NEG, Horseshoe()),
    (FunctionSpec.EXP_TAN_SQ, Disk(0j, 1.0)),
])
def test_greedy_weights_are_optimal_on_several_blocks(fn, domain):
    # 3000 samples make three row blocks: at every step the recorded
    # sigma_min and the residual of the weights are a fresh SVD's smallest
    # singular value of the Loewner matrix, to 64 eps sigma_max
    s = ra.sample_function(fn, domain, 3000)
    assert s.points.size > 2 * linalg.BLOCK_ROWS
    rep = aaa.aaa_fit(s, tol=1e-13, max_degree=60)
    assert len(rep.sigma_min) == len(rep.history) == len(rep.snapshots) > 20
    eps = np.finfo(float).eps
    for sigma, snap in zip(rep.sigma_min, rep.snapshots):
        L = _loewner(s, snap.supports)
        sv = np.linalg.svd(L, compute_uv=False)
        bound = 64 * eps * sv[0]
        assert abs(sigma - sv[-1]) <= bound
        assert abs(np.linalg.norm(L @ snap.weights) - sv[-1]) <= bound


@pytest.mark.parametrize("case", ["abs-interval", "sqrtneg-horseshoe"])
def test_one_block_weights_are_the_tall_solve_bit_for_bit(case):
    # at most BLOCK_ROWS samples: each step's weights and sigma_min are
    # those of min_singular_right_vector on the gathered Loewner matrix
    s = ra.sample_function(*_PREFIX_CASES[case], linalg.BLOCK_ROWS)
    rep = aaa.aaa_fit(s, tol=1e-13, max_degree=60)
    Z, F = s.points, s.values
    L = np.empty((Z.size, len(rep.snapshots)), dtype=F.dtype)
    free = np.ones(Z.size, dtype=bool)
    for k, (sigma, snap) in enumerate(zip(rep.sigma_min, rep.snapshots)):
        j = np.flatnonzero(s.points == snap.supports[-1])[0]
        free[j] = False
        with np.errstate(divide="ignore", invalid="ignore"):
            L[:, k] = (F - F[j]) / (Z - Z[j])
        sigma_ref, w = linalg.min_singular_right_vector(L[free, :k + 1])
        assert sigma == sigma_ref
        assert snap.weights.tobytes() == w.tobytes()


@pytest.mark.parametrize("n", [linalg.BLOCK_ROWS, 2000])
def test_tiny_complex_columns_fit_on_two_blocks(n):
    # exp on the disk about -700 has values near 1e-304, so the appended
    # columns' reflectors see subnormal alpha - beta; the two-block fit
    # converges at degree 6 as the one-block fit does, and warns of no
    # overflow (a RuntimeWarning fails the suite)
    s = ra.sample_function(FunctionSpec.EXP, Disk(-700 + 0j, 1.0), n)
    assert (s.points.size > linalg.BLOCK_ROWS) == (n == 2000)
    rep = aaa.cleanup(aaa.aaa_fit(s, tol=1e-10, max_degree=40), s)
    assert rep.converged and rep.model.degree == 6


_COPY_CASES = {
    "abs": (FunctionSpec.ABS_VAL, Interval(-1.0, 1.0), 500, 1e-8),
    "exp": (FunctionSpec.EXP, Disk(0j, 1.0), 300, 1e-13),
    "sqrtneg": (FunctionSpec.SQRT_NEG, Horseshoe(), 600, 1e-13),
}


@functools.cache
def _scaled_copy_fit(case, k):
    """The cleaned fit of a case on points times 2^k and values times
    2^-floor(k/2), and those samples."""
    fn, domain, m, tol = _COPY_CASES[case]
    s = ra.sample_function(fn, domain, m)
    s = SampleSet(math.ldexp(1.0, k) * s.points,
                  math.ldexp(1.0, -(k // 2)) * s.values)
    return s, aaa.cleanup(aaa.aaa_fit(s, tol=tol, max_degree=60), s)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(k=st.integers(-300, 300))
@example(k=-300)
@example(k=-100)
@example(k=100)
@example(k=300)
def test_fit_to_a_power_of_two_scaled_copy_is_the_same_fit(k):
    # the greedy runs on values divided by a power of two, the residue
    # rule of cleanup and the finite-root test of the pole solve are
    # relative, and the pole solve runs on supports divided by a power of
    # two, so a copy scaled by powers of two is fitted and cleaned as the
    # original: from 2^-100 down, an absolute near-support cut made every
    # residue 0 and cleanup removed every support, and from 2^100 up an
    # absolute |x| < 1e13 test found no pole.  The errors, weights and
    # poles scale exactly
    fscale = math.ldexp(1.0, -(k // 2))
    for case in _COPY_CASES:
        _, ref = _scaled_copy_fit(case, 0)
        _, rep = _scaled_copy_fit(case, k)
        assert rep.model.degree == ref.model.degree >= 1
        assert rep.cleanup_removed == ref.cleanup_removed
        assert rep.converged == ref.converged
        assert rep.history == tuple((d, e * fscale) for d, e in ref.history)
        assert rep.final_error == ref.final_error * fscale
        assert np.array_equal(rep.model.weights, ref.model.weights)
        assert ref.model.pole_list.size == ref.model.degree
        assert np.array_equal(rep.model.pole_list / math.ldexp(1.0, k),
                              ref.model.pole_list)


@pytest.mark.parametrize("k", [-900, -600, 600, 900])
def test_fit_to_a_far_scaled_copy_keeps_its_supports(k):
    # beyond 2^512 the residues' squared pole-to-support differences under-
    # or overflow unless they are scaled first, every residue is then NaN,
    # and cleanup removes the supports; at 2^900 evaluate's w f / (z - z_k)
    # does unless the values are.  The weights are not bit-identical here,
    # as LAPACK rescales a Loewner matrix whose entries are that small or
    # large
    fscale = math.ldexp(1.0, -(k // 2))
    for case in _COPY_CASES:
        _, ref = _scaled_copy_fit(case, 0)
        _, rep = _scaled_copy_fit(case, k)
        assert rep.model.degree == ref.model.degree >= 1
        assert rep.cleanup_removed == ref.cleanup_removed
        assert rep.converged == ref.converged
        # at rounding level, as exp's is, the errors differ by up to 35%
        assert rep.final_error <= 10 * ref.final_error * fscale
        p = rep.model.pole_list
        assert p.size == rep.model.degree
        assert np.all(np.isfinite(aaa.residues(rep.model, p)))


def test_pole_solve_on_a_copy_with_subnormal_samples():
    # at points times 2^-1000 the clustered samples near 0 are subnormal,
    # and the pole solve on those supports raised LinAlgError (a non-finite
    # inverse of the pencil) until it ran on the supports divided by
    # pow2_scale; the fit now ends, with its poles and an honest converged
    s, rep = _scaled_copy_fit("abs", -1000)
    p = rep.model.pole_list
    assert p.size == rep.model.degree >= 1 and np.all(np.isfinite(p))
    tol = _COPY_CASES["abs"][3]
    assert rep.converged == (rep.final_error
                             <= tol * np.max(np.abs(s.values)))


@pytest.mark.parametrize("k", [-665, -600, 600, 665])
def test_cleanup_judges_a_copy_with_points_and_values_far_scaled(k):
    # points and values both times 2^k: max|f| * diam(samples) and the
    # residues, value times length, pass the float range, so cleanup judged
    # no pole spurious (0 removals against 10 at k = 0) until it compared
    # both in units of pow2_scale(values) * pow2_scale(points)
    _, ref = _scaled_copy_fit("abs", 0)
    fn, domain, m, tol = _COPY_CASES["abs"]
    s = ra.sample_function(fn, domain, m)
    c = math.ldexp(1.0, k)
    s = SampleSet(c * s.points, c * s.values)
    rep = aaa.cleanup(aaa.aaa_fit(s, tol=tol, max_degree=60), s)
    assert rep.cleanup_removed == ref.cleanup_removed == 10
    assert rep.model.degree == ref.model.degree
    assert rep.converged == ref.converged


def test_cleanup_removes_the_support_of_a_zero_weight():
    # a zero weight leaves a root of the denominator's numerator, a pole,
    # exactly on its support, where the residue is NaN; cleanup counts it
    # spurious, drops that support, and the error returns to the fit's
    # scale (1.26 with the zero weight, 1.1e-12 after cleanup)
    s = ra.sample_function(FunctionSpec.EXP, Disk(0j, 1.0), 300)
    fit = aaa.aaa_fit(s, tol=1e-13, max_degree=60)
    m = fit.model
    w = m.weights.copy()
    w[3] = 0.0
    broken = aaa.BarycentricRational(m.supports, m.values, w)
    p = broken.pole_list
    on_support = p == m.supports[3]
    assert np.count_nonzero(on_support) == 1
    assert np.isnan(aaa.residues(broken, p)[on_support]).all()
    assert aaa._max_error(broken, s) > 1.0
    rep = aaa.cleanup(replace(fit, model=broken), s)
    assert rep.cleanup_removed == 1
    assert m.supports[3] not in rep.model.supports
    assert rep.final_error <= 1e-11 * np.max(np.abs(s.values))
