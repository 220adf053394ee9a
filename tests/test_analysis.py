import tracemalloc

import numpy as np
import pytest

import ratapprox as ra
from ratapprox import aaa, analysis, geometry, polyfit
from ratapprox.analysis import (
    ConvergenceRecord,
    Entry,
    Method,
    classify_rate,
    convergence_study,
    estimate_sup_error,
)
from ratapprox.geometry import Disk, FunctionSpec, Horseshoe, Interval, SampleSet


def synthetic_record(errors, degrees=None):
    degrees = degrees if degrees is not None else list(range(1, len(errors) + 1))
    entries = tuple(
        Entry(d, Method.RATIONAL, float(e)) for d, e in zip(degrees, errors)
    )
    return ConvergenceRecord(entries)


def test_sup_error_exact_rational():
    pts = np.exp(2j * np.pi * np.arange(300) / 300)
    vals = np.exp(pts)
    s = SampleSet(pts, vals)
    rep = aaa.cleanup(aaa.aaa_fit(s, tol=1e-12, max_degree=20), s)
    sup = estimate_sup_error(FunctionSpec.EXP, rep.model, Disk(0j, 1.0))
    assert sup.value <= 1e-11 * np.e
    assert not sup.pole_in_domain


def test_sup_error_fig1_band(exp_disk_fit):
    sup = estimate_sup_error(FunctionSpec.EXP, exp_disk_fit.model, Disk(0j, 1.0))
    assert 1e-14 <= sup.value <= 1e-11 * np.e


def test_sup_error_degree0_absval():
    s = ra.sample_function(FunctionSpec.ABS_VAL, Interval(-1.0, 1.0), 500)
    m = polyfit.va_fit(s, 0)
    sup = estimate_sup_error(FunctionSpec.ABS_VAL, m, Interval(-1.0, 1.0))
    # best constant for |x| sits in (0, 1); sup error at least 0.25 and at
    # most 1 for any such constant
    assert 0.25 <= sup.value <= 1.0


def _model_with_pole(pole, supports):
    """A degree-1 model with its one pole at pole: the weights w_k =
    (z_k - pole) / (z_k - z_j) make the denominator 1 / (z - z_0)(z - z_1)
    times z - pole."""
    z0, z1 = supports
    return aaa.BarycentricRational(
        np.array([z0, z1], dtype=complex), np.array([1.0, 2.0], dtype=complex),
        np.array([(z0 - pole) / (z0 - z1), (z1 - pole) / (z1 - z0)],
                 dtype=complex))


def test_sup_error_flags_pole_in_domain():
    # on each domain kind, a pole in the closed domain is flagged and its
    # error is inf; one 1e-12 of the domain's size outside (flagged by a
    # 1e-9 tolerance) and a far one (on the horseshoe, +1 on the excluded
    # ray) are not, and their errors are the finite grid sups
    cases = [
        (FunctionSpec.EXP, Disk(0j, 1.0), (-0.5, 0.25), (0.0, 1 + 1e-12, 3.0)),
        (FunctionSpec.ABS_VAL, Interval(-1.0, 1.0), (-0.5, 0.25),
         (0.5, 1 + 1e-12, 3.0)),
        (FunctionSpec.SQRT_NEG, Horseshoe(), (-0.75, -1.25),
         (-1.0, -1.5 * (1 + 1e-12), 1.0)),
    ]
    for fn, domain, supports, poles in cases:
        inside, near, far = (_model_with_pole(p, supports) for p in poles)
        for m, p in zip((inside, near, far), poles):
            assert m.pole_list.tolist() == [pytest.approx(p, rel=1e-14,
                                                          abs=1e-14)]
        assert geometry.contains(domain, inside.pole_list).all()
        assert not geometry.contains(domain, near.pole_list).any()
        assert estimate_sup_error(fn, inside, domain) == (np.inf, True)
        for m in (near, far):
            sup = estimate_sup_error(fn, m, domain)
            assert not sup.pole_in_domain and np.isfinite(sup.value), domain


def test_classify_exponential():
    n = np.arange(1, 25)
    rc = classify_rate(synthetic_record(10.0 ** (-0.5 * n), n), Method.RATIONAL)
    assert rc.kind == "exponential"
    assert abs(rc.rate - 0.5) < 1e-6
    assert rc.diagnostics["r2_exponential"] >= 0.999


def test_classify_root_exponential():
    n = np.arange(1, 40)
    rc = classify_rate(synthetic_record(10.0 ** (-np.sqrt(n)), n), Method.RATIONAL)
    assert rc.kind == "root-exponential"
    assert abs(rc.rate - 1.0) < 1e-6


def test_classify_superexponential():
    n = np.arange(1, 15)
    rc = classify_rate(synthetic_record(10.0 ** (-0.05 * n * n), n), Method.RATIONAL)
    assert rc.kind == "superexponential"


def test_classify_algebraic_not_exponential():
    n = np.arange(1, 201)
    rc = classify_rate(synthetic_record(0.3 / n, n), Method.RATIONAL)
    assert rc.kind == "algebraic"


def test_classify_scale_invariance():
    n = np.arange(1, 25)
    errs = 10.0 ** (-0.5 * n)
    a = classify_rate(synthetic_record(errs, n), Method.RATIONAL)
    b = classify_rate(synthetic_record(17.0 * errs, n), Method.RATIONAL)
    assert a.kind == b.kind
    assert abs(a.rate - b.rate) < 1e-9


def test_classify_needs_four_points():
    with pytest.raises(ValueError):
        classify_rate(synthetic_record([1.0, 0.1, 0.01]), Method.RATIONAL)


def test_study_exp_disk():
    rec = convergence_study(FunctionSpec.EXP, Disk(0j, 1.0), list(range(0, 21)))
    rat = {e.degree: e for e in rec.for_method(Method.RATIONAL)}
    pol = {e.degree: e for e in rec.for_method(Method.POLYNOMIAL)}
    assert min(d for d, e in rat.items() if e.error <= 1e-12 * np.e) <= 7
    assert min(d for d, e in pol.items() if e.error <= 1e-12 * np.e) <= 16
    # both curves decreasing overall (the greedy run stops at convergence,
    # so only degrees up to the final one carry rational entries)
    top = max(rat)
    assert rat[top].error < rat[1].error and pol[16].error < pol[4].error


def test_study_degenerate_single_degree():
    rec = convergence_study(FunctionSpec.EXP, Disk(0j, 1.0), [0])
    assert all(e.degree == 0 for e in rec.entries)
    with pytest.raises(ValueError):
        classify_rate(rec, Method.RATIONAL)


def test_study_rejects_bad_degrees():
    with pytest.raises(ValueError):
        convergence_study(FunctionSpec.EXP, Disk(0j, 1.0), [4, 2])
    with pytest.raises(ValueError):
        convergence_study(FunctionSpec.EXP, Disk(0j, 1.0), [])
    # W[:, :n + 1] with n < 0 would drop basis columns from the end
    with pytest.raises(ValueError, match="nonnegative"):
        convergence_study(FunctionSpec.EXP, Disk(0j, 1.0), [-2, 0, 2])


def test_study_final_degree_consistent_with_history(exp_disk_fit):
    rec = convergence_study(
        FunctionSpec.EXP, Disk(0j, 1.0),
        list(range(0, exp_disk_fit.model.degree + 1)),
    )
    rat = rec.for_method(Method.RATIONAL)
    last = rat[-1]
    hist_err = dict(exp_disk_fit.history).get(last.degree)
    if hist_err is not None and hist_err > 0:
        assert last.error <= 10 * hist_err and last.error >= hist_err / 10


def test_study_runs_no_cleanup(monkeypatch):
    # rational entries re-measure the greedy snapshots; a cleanup of the
    # last model would be discarded
    def forbidden(report, samples):
        raise AssertionError("convergence_study ran a cleanup")

    monkeypatch.setattr(aaa, "cleanup", forbidden)
    rec = convergence_study(FunctionSpec.ABS_VAL, Interval(-1.0, 1.0),
                            list(range(4, 61, 2)))
    assert rec.for_method(Method.RATIONAL)


def test_floor_flagging():
    rec = convergence_study(FunctionSpec.EXP, Disk(0j, 1.0), list(range(0, 21)),
                            tol_floor=1e-6)
    rat = rec.for_method(Method.RATIONAL)
    assert any(e.flag == "floor" for e in rat)
    assert all(e.flag == "floor" for e in rat if e.error < 1e-6 * np.e)


@pytest.mark.parametrize("fn,domain,degrees", [
    (FunctionSpec.EXP, Disk(0j, 1.0), list(range(0, 21))),
    (FunctionSpec.ABS_VAL, Interval(-1.0, 1.0), list(range(4, 61, 4))),
], ids=["exp-disk", "abs-interval"])
def test_study_polynomial_entries_match_per_degree_fits(fn, domain, degrees):
    # oracle: a fresh fit and sup-error estimate at every degree
    rec = convergence_study(fn, domain, degrees)
    samples = ra.sample_function(fn, domain, 500)
    floor = 1e-13 * np.max(np.abs(samples.values))
    pol = rec.for_method(Method.POLYNOMIAL)
    assert [e.degree for e in pol] == degrees
    for e in pol:
        ref = estimate_sup_error(fn, polyfit.va_fit(samples, e.degree), domain)
        assert abs(e.error - ref.value) <= 1e-14
        assert e.flag == ("floor" if ref.value < floor else "ok")


def _entries(record):
    return [(e.degree, e.method, e.error.hex(), e.flag) for e in record.entries]


@pytest.fixture(scope="module")
def abs300_study():
    # the study of test_study_flags_overflowing_errors: its polynomial
    # basis overflows on the test grid at high degree
    fn, domain = FunctionSpec.ABS_VAL, Interval(-1.0, 1.0)
    degrees = list(range(2, 291, 2))
    samples = ra.sample_function(fn, domain, 300)
    trajectory = aaa.aaa_fit(samples, tol=analysis.TOL_FLOOR,
                             max_degree=degrees[-1])

    def sweep(tests):
        return analysis.degree_sweep(degrees, analysis.TOL_FLOOR, samples,
                                     trajectory, tests)
    tests = analysis.grid_values(fn, domain)
    return samples, tests, sweep, sweep(tests)


@pytest.mark.parametrize("degree", [176, 200])
def test_sup_error_of_an_overflowing_polynomial_is_inf(abs300_study, degree):
    # past column 175 the basis overflows on the test grid: estimate_sup_error
    # measures the polynomial as the sweep does, so it reads inf, as the
    # sweep's overflow entry does, and warns nothing (a RuntimeWarning
    # fails the test)
    samples, _, _, record = abs300_study
    m = polyfit.va_fit(samples, degree)
    assert m.degree == degree
    (entry,) = [e for e in record.for_method(Method.POLYNOMIAL)
                if e.degree == degree]
    assert (entry.error, entry.flag) == (np.inf, "overflow")
    assert estimate_sup_error(FunctionSpec.ABS_VAL, m,
                              Interval(-1.0, 1.0)) == (np.inf, False)


@pytest.mark.parametrize("order", ["overflow-first", "shuffled"])
def test_sweep_errors_do_not_depend_on_block_boundaries(abs300_study, order):
    # the sweep folds each block's sups into a running max, so permuting
    # the test grid moves the block boundaries and changes no entry.  The
    # basis first overflows in column 175, at the points near +-1; packed
    # first, they leave the last blocks with finite columns past 175, where
    # the fold must still read inf from the others.  A shuffle spreads them
    # over every block
    samples, tests, sweep, record = abs300_study
    with np.errstate(all="ignore"):
        finite = np.isfinite(polyfit.va_basis(polyfit.va_fit(samples, 290),
                                              tests.grid))
    first_bad = np.where(finite.all(axis=1), finite.shape[1],
                         np.argmin(finite, axis=1))
    assert first_bad.min() == 175
    overflowing = first_bad == 175
    if order == "overflow-first":
        perm = np.argsort(~overflowing, kind="stable")
        assert not overflowing[perm][-analysis.GRID_BLOCK:].any()
    else:
        perm = np.random.default_rng(0).permutation(tests.grid.size)
    permuted = sweep(analysis.GridValues(tests.domain, tests.grid[perm],
                                         tests.values[perm]))
    assert _entries(permuted) == _entries(record)
    poly = permuted.for_method(Method.POLYNOMIAL)
    assert [e.degree for e in poly if e.flag == "overflow"] == [
        e.degree for e in poly if e.degree >= 176]


def test_degree_sweep_memory_is_bounded_by_a_block():
    # tansq on the unit disk, 500 samples, degrees 2:2:150: 151 basis
    # columns.  What the sweep allocates is complex, 16 bytes an entry:
    # the fit's basis (samples x columns) and Hessenberg matrices (two of
    # columns x columns), then per block of the test grid the block's basis
    # (GRID_BLOCK x columns) and at most three arrays of products and
    # errors of (degrees x GRID_BLOCK), degrees <= columns.  The rational
    # side, after it, holds a Cauchy block (GRID_BLOCK x supports) and
    # (models x GRID_BLOCK) products, supports and models <= columns.  The
    # whole-grid basis alone is above that bound
    fn, domain, degrees = FunctionSpec.TAN_SQ, Disk(0j, 1.0), list(range(2, 151, 2))
    samples = ra.sample_function(fn, domain, 500)
    trajectory = aaa.aaa_fit(samples, tol=analysis.TOL_FLOOR,
                             max_degree=degrees[-1])
    for m in trajectory.snapshots:
        m.pole_list  # solved before the measurement, as in a figure
    tests = analysis.grid_values(fn, domain)
    columns = polyfit.va_fit(samples, degrees[-1]).degree + 1
    assert columns == 151
    bound = 16 * columns * (samples.points.size + 2 * columns
                            + 4 * analysis.GRID_BLOCK)
    assert 16 * columns * tests.grid.size > bound
    tracemalloc.start()
    try:
        analysis.degree_sweep(degrees, analysis.TOL_FLOOR, samples,
                              trajectory, tests)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound
