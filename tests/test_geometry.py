import cmath

import numpy as np
import pytest

from ratapprox import geometry
from ratapprox.geometry import (
    Disk,
    FunctionSpec,
    Horseshoe,
    Interval,
    SampleSet,
    boundary_samples,
    eval_function,
    sample_function,
    test_grid as eval_grid,
)


def test_domain_validation():
    with pytest.raises(ValueError):
        Disk(0j, 0.0)
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError, match="finite length"):
        Interval(-1e308, 1e308)
    with pytest.raises(ValueError):
        Horseshoe(1.5, 0.5, 0.3)
    with pytest.raises(ValueError):
        Horseshoe(0.5, 1.5, 2.0)


def test_disk_boundary_equiangular():
    pts = boundary_samples(Disk(0j, 1.0), 8)
    assert pts.size == 8
    # starts at angle 0, steps by pi/4: contains 1, i, -1, -i
    for target in (1.0, 1j, -1.0, -1j):
        assert np.min(np.abs(pts - target)) < 1e-14
    assert np.allclose(np.abs(pts), 1.0, atol=1e-14)


def test_boundary_samples_minimum_count():
    # an interval through 0 needs 2 Chebyshev points besides the 112
    # cluster points on each side of 0 that fall inside it
    for sampler, m, dom, least in (
            (boundary_samples, 7, Disk(0j, 1.0), 8),
            (eval_grid, 63, Disk(0j, 1.0), 64),
            (boundary_samples, 225, Interval(-1.0, 1.0), 226),
            (eval_grid, 225, Interval(-1.0, 1.0), 226),
            (boundary_samples, 65, Interval(-1e-10, 1.0), 66),
            (boundary_samples, 0, Interval(-1.0, 1.0), 226)):
        with pytest.raises(geometry.SampleCountError,
                           match=f"at least {least} .*, got {m}$"):
            sampler(dom, m)
        assert sampler(dom, least).size == least


def test_interval_boundary_symmetric():
    pts = boundary_samples(Interval(-1.0, 1.0), 501).real
    assert pts.min() >= -1.0 and pts.max() <= 1.0
    # symmetric point set about 0
    assert np.max(np.abs(np.sort(pts) + np.sort(pts)[::-1])) < 1e-13


@pytest.mark.parametrize("sampler, m", [(boundary_samples, 500),
                                        (eval_grid, 4000)])
def test_interval_sampling_spans_a_width_beyond_float_max(sampler, m):
    # b - a = 1.6e308 is finite, but (b - a) * (x + 1) reached 3.2e308 in
    # the Chebyshev map and overflowed with a RuntimeWarning
    dom = Interval(-8e307, 8e307)
    pts = sampler(dom, m)
    assert pts.size == m and np.unique(pts).size == m
    assert np.all(np.isfinite(pts)) and np.all(pts.imag == 0)
    assert pts.real.min() >= dom.a and pts.real.max() <= dom.b


def test_interval_grid_reaches_tiny_magnitudes():
    pts = eval_grid(Interval(-1.0, 1.0), 1001).real
    assert np.min(np.abs(pts[pts != 0])) < 1e-12


def test_horseshoe_boundary_membership():
    dom = Horseshoe(0.5, 1.5, 0.3)
    pts = boundary_samples(dom, 400)
    c_plus, c_minus = dom.cap_centers
    on_cap = (np.abs(np.abs(pts - c_plus) - dom.cap_radius) < 1e-9) | (
        np.abs(np.abs(pts - c_minus) - dom.cap_radius) < 1e-9
    )
    mod_ok = (np.abs(pts) >= 0.5 - 1e-9) & (np.abs(pts) <= 1.5 + 1e-9)
    assert np.all(mod_ok | on_cap)
    assert np.all((np.abs(np.angle(pts)) >= 0.3 - 1e-9) | on_cap)
    # the boundary never enters the open sector around the positive real axis
    assert not np.any((np.abs(np.angle(pts)) < 0.3 - 1e-9) & (np.abs(pts) > 1e-9))


def test_horseshoe_boundary_closes():
    dom = Horseshoe()
    m = 1000
    pts = boundary_samples(dom, m)
    step = np.max(np.abs(np.diff(pts)))
    assert abs(pts[0] - pts[-1]) <= 2 * step


def test_fit_and_test_sets_disjoint():
    for dom in (Disk(0j, 1.0), Interval(-1.0, 1.0), Horseshoe()):
        fit = boundary_samples(dom, 500)
        tst = eval_grid(dom, 4000)
        assert len(np.unique(fit)) == fit.size
        assert len(np.unique(tst)) == tst.size
        assert not np.intersect1d(fit, tst).size


def test_boundary_samples_deterministic():
    a = boundary_samples(Horseshoe(), 500)
    b = boundary_samples(Horseshoe(), 500)
    assert np.array_equal(a, b)


def test_eval_function_basics():
    assert eval_function(FunctionSpec.EXP, 0j) == 1.0
    assert eval_function(FunctionSpec.ABS_VAL, -0.5 + 0j) == 0.5
    # sqrt((1.5-0)(1.5i-0)) = sqrt(2.25 e^{i pi/2}) = 1.5 e^{i pi/4}
    oracle = cmath.exp(0.5 * (cmath.log(1.5) + cmath.log(1.5j)))
    assert abs(oracle - 1.5 * cmath.exp(1j * cmath.pi / 4)) < 1e-14
    got = eval_function(FunctionSpec.TWO_BRANCH_SQRT, 0j)
    assert abs(got - oracle) < 1e-14


def test_eval_function_nonfinite_markers():
    # pole of tan(z^2) at z = sqrt(pi/2): nearby evaluation blows up, and a
    # genuinely non-finite result is surfaced as a NaN marker, never garbage
    w = eval_function(FunctionSpec.EXP_TAN_SQ, complex(np.sqrt(np.pi / 2)) * 1.0000000001)
    assert np.isnan(w.real) or abs(w) > 1e100 or np.isfinite(w)
    cut = eval_function(FunctionSpec.SQRT_NEG, 0.7 + 0j)
    assert np.isnan(cut.real) and np.isnan(cut.imag)


def test_sqrtneg_schwarz_reflection():
    rng = np.random.default_rng(1)
    z = rng.normal(size=50) + 1j * rng.normal(size=50)
    z = z[np.abs(z.imag) > 1e-6]
    a = eval_function(FunctionSpec.SQRT_NEG, np.conj(z))
    b = np.conj(eval_function(FunctionSpec.SQRT_NEG, z))
    assert np.max(np.abs(a - b)) < 1e-13


def test_disk_samples_finite():
    for f in (FunctionSpec.EXP, FunctionSpec.TAN_SQ, FunctionSpec.EXP_TAN_SQ,
              FunctionSpec.TWO_BRANCH_SQRT):
        s = sample_function(f, Disk(0j, 1.0), 500)
        assert np.all(np.isfinite(s.values.real) & np.all(np.isfinite(s.values.imag)))


def test_sampleset_validation():
    with pytest.raises(ValueError):
        SampleSet(np.array([1.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        SampleSet(np.array([1.0, 2.0]), np.array([np.nan, 2.0]))
    with pytest.raises(ValueError):
        SampleSet(np.array([1.0]), np.array([1.0]))


@pytest.mark.parametrize("fn, domain, real", [
    (FunctionSpec.ABS_VAL, Interval(-1.0, 1.0), True),
    (FunctionSpec.EXP, Interval(0.5, 3.0), True),
    (FunctionSpec.SQRT_NEG, Interval(-2.0, -0.5), True),
    (FunctionSpec.ABS_VAL, Disk(0j, 1.0), False),
    (FunctionSpec.TWO_BRANCH_SQRT, Interval(0.5, 3.0), False),
], ids=["abs-interval", "exp-interval", "sqrtneg-left", "abs-disk",
        "sqrt2branch-interval"])
def test_sampleset_is_real_when_points_and_values_are(fn, domain, real):
    # float64 exactly when neither array has a nonzero imaginary part: the
    # real parts, bit for bit, of the complex evaluation.  |z| on a disk is
    # real at complex points, and sqrt((1.5 - z)(1.5i - z)) complex at real
    # ones; both stay complex
    pts = boundary_samples(domain, 500)
    vals = eval_function(fn, pts)
    s = SampleSet(pts, vals)
    assert s.points.dtype == s.values.dtype == (float if real else complex)
    assert s.points.tobytes() == (pts.real if real else pts).tobytes()
    assert s.values.tobytes() == (vals.real if real else vals).tobytes()
    t = sample_function(fn, domain, 500)
    assert t.points.tobytes() == s.points.tobytes()
    assert t.values.tobytes() == s.values.tobytes()


def test_contains():
    assert geometry.contains(Disk(0j, 1.0), 0.5 + 0.5j)
    assert not geometry.contains(Disk(0j, 1.0), 1.5 + 0j)
    assert geometry.contains(Interval(-1, 1), 0.3 + 0j)
    assert not geometry.contains(Interval(-1, 1), 0.3 + 0.1j)
    dom = Horseshoe()
    assert geometry.contains(dom, -1.0 + 0j)
    assert not geometry.contains(dom, 1.0 + 0j)      # on the excluded ray
    assert not geometry.contains(dom, 0.2 + 0j)      # inside the hole


def test_contains_is_exact_on_the_boundary():
    # the closed domain and nothing more: no tolerance around it
    above = np.nextafter(1.0, 2.0)
    assert geometry.contains(Disk(0j, 1.0), 1.0 + 0j)
    assert not geometry.contains(Disk(0j, 1.0), above + 0j)
    assert geometry.contains(Interval(-1, 1), 1.0 + 0j)
    assert not geometry.contains(Interval(-1, 1), above + 0j)
    assert not geometry.contains(Interval(-1, 1), 0.3 + 1e-300j)
    dom = Horseshoe()
    assert geometry.contains(dom, -1.5 + 0j)
    assert not geometry.contains(dom, -1.5 * above + 0j)
    assert not geometry.contains(dom, -np.nextafter(0.5, 0.0) + 0j)
