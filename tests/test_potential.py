import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ratapprox as ra
from ratapprox import aaa, cli, potential
from ratapprox.aaa import BarycentricRational
from ratapprox.geometry import Disk, FunctionSpec, SampleSet
from ratapprox.potential import (
    ContourSpec,
    PotentialField,
    default_window,
    potential_gap,
    potential_grid,
    walsh_error,
)


def circle(n=500):
    return np.exp(2j * np.pi * np.arange(n) / n)


def _model(supports, pole_list):
    """A model with these supports and poles, one more support than poles:
    its denominator is prod_j (z - p_j) / prod_k (z - z_k), whose partial
    fractions give the weights."""
    z = np.asarray(supports, dtype=complex)
    w = [np.prod(zk - np.asarray(pole_list, dtype=complex))
         / np.prod(zk - np.delete(z, k)) for k, zk in enumerate(z)]
    return BarycentricRational(z, np.ones(z.size), np.array(w))


def _log_abs_product(z, supports, pole_list):
    """log10|phi| as the product form over the given supports and poles,
    summed in logs so that it neither overflows nor underflows."""
    with np.errstate(divide="ignore"):
        return (sum(np.log10(np.abs(z - s)) for s in supports)
                - sum(np.log10(np.abs(z - p)) for p in pole_list))


def test_contour_spec_validation():
    with pytest.raises(ValueError):
        ContourSpec(0j, -1.0, 64)
    with pytest.raises(ValueError):
        ContourSpec(0j, 1.0, 8)


def test_potential_grid_single_support():
    f = potential_grid(_model([0j], []), (-1, 1, -1, 1), (64, 64))
    xs, ys = f.cell_centers()
    i = np.argmin(np.abs(xs - 1.0))
    j = np.argmin(np.abs(ys))
    cell = 2.0 / 64
    assert abs(f.log_abs_phi[j, i] - 0.0) <= np.log10(1 + 2 * cell)


def test_potential_grid_symmetry():
    # d(-z) = -d(z) term for term, with the terms of +-1 swapped
    m = _model([1.0, -1.0, 0.0], [2j, -2j])
    assert m.weights.tolist() == [2.5, 2.5, -4.0]
    f = potential_grid(m, (-3, 3, -3, 3), (64, 64))
    assert np.max(np.abs(f.log_abs_phi - f.log_abs_phi[::-1, ::-1])) < 1e-12


def test_potential_grid_validation():
    m = _model([0j], [])
    with pytest.raises(ValueError):
        potential_grid(m, (1, 1, -1, 1), (64, 64))
    with pytest.raises(ValueError):
        potential_grid(m, (-1, 1, -1, 1), (16, 64))


@pytest.mark.parametrize("weights, pole_count", [((1.0, -1.0), 0),
                                                 ((1.0, 1.0, -2.0), 2)])
def test_degenerate_model_takes_its_offset_from_one_cell(weights, pole_count):
    # sum w = 0, so q has lower degree than the model: on 1, -1 (and 0),
    # d = 2 / prod_k (z - z_k) in both cases.  The first model has no pole
    # and phi = z^2 - 1; for the second the pole solve returns spurious
    # poles at +-4.95e10i, and phi is the product form over them.  Either
    # way the offset is log10|phi d| at one cell, and the field is the
    # product form's to rounding: d's relative error, (n + 8) eps kappa with
    # kappa = sum |w_k / (z - z_k)| / |d|, at the cell and at the reference
    # cell, and eps per unit of the logs' modulus.  kappa <= 36 on this
    # window; it grows like |z|^2 far out, where d's terms cancel to 2/z^3
    m = BarycentricRational(np.array([1.0, -1.0, 0.0][:len(weights)]),
                            np.zeros(len(weights)), np.array(weights))
    assert m.weights.sum() == 0 and m.pole_list.size == pole_count
    f = potential_grid(m, (-3, 3, -3, 3), (64, 64))
    xs, ys = f.cell_centers()
    z = xs[None, :] + 1j * ys[:, None]
    oracle = _log_abs_product(z, m.supports, m.pole_list)
    kappa = (sum(np.abs(w / (z - s)) for s, w in zip(m.supports, m.weights))
             * np.prod([np.abs(z - s) for s in m.supports], axis=0) / 2)
    eps, n = np.finfo(float).eps, m.supports.size
    bound = 2 * (n + 8) * eps * (2 * kappa.max() / np.log(10) + np.abs(oracle) + 1)
    l_max = f.log_abs_phi.max()
    assert np.all(np.abs(f.log_abs_phi - np.clip(oracle, l_max - 16, l_max)) <= bound)


def test_potential_grid_at_a_support_and_at_a_pole():
    # d = 1/(z - 1) + 1/(z + 1) = 2z / (z^2 - 1), so phi = (z^2 - 1) / z.
    # On 33 x 33 cells of width 1/11 centers fall exactly on the supports
    # +-1, where the sum is nan, and on the pole 0, where it is exactly 0:
    # the field takes its bottom and its top there
    m = BarycentricRational(np.array([1.0, -1.0]), np.zeros(2), np.ones(2))
    assert m.pole_list.tolist() == [0j]
    f = potential_grid(m, (-1.5, 1.5, -1.5, 1.5), (33, 33))
    xs, ys = f.cell_centers()
    g = f.log_abs_phi
    l_max = g.max()
    assert xs[16] == ys[16] == 0 and xs[27] == 1 and xs[5] == -1
    assert g[16, 16] == l_max
    assert g[16, 27] == g[16, 5] == g.min() == l_max - 16
    z = xs[None, :] + 1j * ys[:, None]
    off = np.ones(g.shape, dtype=bool)
    off[16, [5, 16, 27]] = False
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = np.log10(np.abs((z * z - 1) / z))
    assert np.all(np.abs(g - np.clip(exact, l_max - 16, l_max))[off] <= 1e-14)


def test_potential_grid_does_not_depend_on_the_block(monkeypatch):
    # d is summed block by block; blocks of 7 cells end mid-row and leave a
    # short last block, and each cell's sum is the same dot product of
    # n terms in any block, to n eps times the sum of their moduli
    rng = np.random.default_rng(5)
    sup = rng.normal(size=6) + 1j * rng.normal(size=6)
    m = _model(sup, 3 + rng.normal(size=5) + 1j * rng.normal(size=5))
    window, res = (-4.0, 4.0, -3.0, 3.0), (45, 38)
    whole = potential_grid(m, window, res)
    monkeypatch.setattr(potential, "GRID_BLOCK", 7)
    blocked = potential_grid(m, window, res)
    xs, ys = whole.cell_centers()
    z = xs[None, :] + 1j * ys[:, None]
    terms = sum(np.abs(w / (z - s)) for s, w in zip(m.supports, m.weights))
    d = np.abs(sum(w / (z - s) for s, w in zip(m.supports, m.weights)))
    bound = 2 * 6 * np.finfo(float).eps * terms / d / np.log(10)
    assert np.all(np.abs(blocked.log_abs_phi - whole.log_abs_phi) <= bound)
    assert np.array_equal(blocked.levels, whole.levels)


def test_potential_grid_grows_like_z_at_infinity():
    # phi = prod_k (z - z_k) / prod_j (z - p_j) over n supports and n - 1
    # poles is z (1 + O(sum|z_k| + sum|p_j|) / |z|) far out, whatever
    # constant scales the weights: the offset, read at one cell, takes it out
    rng = np.random.default_rng(2)
    R = 1e6
    for _ in range(5):
        sup = rng.normal(size=4) + 1j * rng.normal(size=4)
        m = _model(sup, rng.normal(size=3) + 1j * rng.normal(size=3))
        c = complex(rng.normal(), rng.normal())
        scaled = BarycentricRational(m.supports, m.values, c * m.weights)
        f = potential_grid(scaled, (R - 1, R + 1, -1, 1), (32, 32))
        xs, ys = f.cell_centers()
        z = xs[None, :] + 1j * ys[:, None]
        assert np.all(np.abs(f.log_abs_phi - np.log10(np.abs(z))) <= 10 / R)


def test_potential_grid_fig1_extrema(exp_disk_fit, exp_disk_samples):
    m = exp_disk_fit.model
    pl = aaa.poles(m)
    win = default_window(exp_disk_samples.points, pl)
    f = potential_grid(m, win, (128, 128))
    xs, ys = f.cell_centers()
    zz = xs[None, :] + 1j * ys[:, None]
    zmin = zz[np.unravel_index(np.argmin(f.log_abs_phi), zz.shape)]
    zmax = zz[np.unravel_index(np.argmax(f.log_abs_phi), zz.shape)]
    assert abs(zmin) < 1.0                       # minimum inside the disk
    assert np.min(np.abs(zmax - pl)) < 0.5       # maximum near a pole


def test_gap_single_support_closed_form():
    window = (-1.0, 1.0, -1.0, 1.0)
    f = potential_grid(_model([0j], []), window, (100, 100))
    xs, ys = f.cell_centers()
    zz = xs[None, :] + 1j * ys[:, None]
    excl = 0.01 * np.hypot(2.0, 2.0)
    keep = np.abs(zz) > excl
    vals = np.log10(np.abs(zz))
    l_max = np.percentile(vals, 99.5)            # documented colorbar clipping
    vals = np.clip(vals, l_max - 16.0, l_max)
    oracle = float(vals[keep].max() - vals[keep].min())
    assert abs(potential_gap(f) - oracle) < 1e-12


def test_gap_scale_invariance():
    rng = np.random.default_rng(4)
    sup = rng.normal(size=5) + 1j * rng.normal(size=5)
    pol = 3 + rng.normal(size=4) + 1j * rng.normal(size=4)
    f1 = potential_grid(_model(sup, pol), (-6, 6, -6, 6), (64, 64))
    s = 17.0
    f2 = potential_grid(_model(s * sup, s * pol),
                        (-6 * s, 6 * s, -6 * s, 6 * s), (64, 64))
    assert abs(potential_gap(f1) - potential_gap(f2)) < 1e-9


def _gap_whole_grid(field):
    """potential_gap with |z - pt| over the whole grid per point: its oracle."""
    xmin, xmax, ymin, ymax = field.window
    radius = 0.01 * np.hypot(xmax - xmin, ymax - ymin)
    xs, ys = field.cell_centers()
    zz = xs[None, :] + 1j * ys[:, None]
    keep = np.ones(zz.shape, dtype=bool)
    for pt in np.concatenate([field.supports, field.pole_list]):
        keep &= np.abs(zz - pt) > radius
    vals = field.log_abs_phi[keep]
    if vals.size == 0:
        return 0.0
    return float(vals.max() - vals.min())


def test_gap_matches_whole_grid_oracle_on_figures(tmp_path, monkeypatch):
    grids = []
    grid = potential.potential_grid

    def recording(model, window, resolution):
        grids.append((model, grid(model, window, resolution)))
        return grids[-1][1]

    monkeypatch.setattr(potential, "potential_grid", recording)
    for n in range(1, 7):
        cli.run_figure(n, str(tmp_path / str(n)))
    assert len(grids) == 6
    eps = np.finfo(float).eps
    for model, field in grids:
        assert potential_gap(field) == _gap_whole_grid(field)
        # the field is log10|phi d| at one reference cell minus log10|d|;
        # the product form over the model's poles is the oracle.  On each
        # figure q has degree n and leading coefficient sum w, so
        # |d| = |sum w| / |phi| with phi from the oracle
        s, w, p = model.supports, model.weights, model.pole_list
        n, total = s.size, abs(w.sum())
        assert p.size == model.degree and total > 0
        xs, ys = field.cell_centers()
        z = xs[None, :] + 1j * ys[:, None]
        oracle = _log_abs_product(z, s, p)
        # d's terms carry a relative error of about (n + 8) eps each, so its
        # sum one of (n + 8) eps kappa, kappa = sum |w_k / (z - z_k)| / |d|.
        # Near a pole the oracle's own error, |dp| / |z - p| for the pole's
        # error dp, is of the same size, since a pole is a zero of d known
        # to d's rounding: hence the factor 2.  The 2n logs, each rounded
        # and summed one after another, add at most 2n eps times the sum of
        # their moduli.  The offset adds both errors once more, at the
        # reference cell, the one of largest |d|.  Measured: at most 1/5
        # of the bound, and 7.3e-8 at most (figure 4, 99 from its pole at
        # |p| = 1.3e5, where d's sum cancels).
        kappa = sum(np.abs(wk / (z - sk)) for sk, wk in zip(s, w)) * (
            10.0 ** oracle / total)
        logs = sum(np.abs(np.log10(np.abs(z - x))) for x in np.concatenate([s, p]))
        per_cell = (2 * (n + 8) * eps * kappa / np.log(10)
                    + 2 * n * eps * (logs + 1))
        bound = per_cell + per_cell.flat[np.argmin(oracle)]
        # both fields clipped to the field's [l_max - 16, l_max], which moves
        # neither apart; l_max is the oracle's 99.5th percentile to the bound
        g = field.log_abs_phi
        l_max = g.max()
        assert np.all(np.abs(g - np.clip(oracle, l_max - 16, l_max)) <= bound)
        assert abs(l_max - np.percentile(oracle, 99.5)) <= bound.max()


def _field(window, resolution, supports, pole_list, seed=0):
    """A PotentialField with these points and random values: potential_gap
    reads the values only at the cells it keeps."""
    nx, ny = resolution
    vals = np.random.default_rng(seed).normal(size=(ny, nx))
    levels = np.arange(np.ceil(vals.min()), np.floor(vals.max()) + 1)
    return PotentialField(window, vals, levels,
                          np.asarray(supports, dtype=complex),
                          np.asarray(pole_list, dtype=complex))


def test_gap_block_keeps_its_edge():
    # the radius is exactly one cell width, so the cells beside each point
    # sit at |z - pt| = radius: excluded, and on the edge of the block
    field = _field((0.0, 60.0, 0.0, 80.0), (60, 80), [10.5 + 20.5j],
                   [40.5 + 60.5j])
    assert 0.01 * np.hypot(60.0, 80.0) == 1.0
    assert potential_gap(field) == _gap_whole_grid(field)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_sup=st.integers(1, 12),
       n_pol=st.integers(0, 12), nx=st.integers(32, 70), ny=st.integers(32, 70),
       on_centers=st.booleans())
def test_gap_matches_whole_grid_oracle_on_random_fields(seed, n_sup, n_pol, nx,
                                                        ny, on_centers):
    rng = np.random.default_rng(seed)
    x0, y0 = rng.normal(size=2) * 10.0 ** rng.integers(-3, 4)
    w, h = 10.0 ** rng.uniform(-3, 3, size=2)
    window = (x0, x0 + w, y0, y0 + h)
    if on_centers:     # points on cell centers and on the window edges
        xs, ys = potential._cell_centers(window, (nx, ny))
        xs = np.concatenate([xs, [x0, x0 + w]])
        ys = np.concatenate([ys, [y0, y0 + h]])
        pts = rng.choice(xs, n_sup + n_pol) + 1j * rng.choice(ys, n_sup + n_pol)
    else:              # points inside and around the window
        pts = (x0 + w * rng.uniform(-0.2, 1.2, n_sup + n_pol)
               + 1j * (y0 + h * rng.uniform(-0.2, 1.2, n_sup + n_pol)))
    pts = np.unique(pts)
    field = _field(window, (nx, ny), pts[:n_sup], pts[n_sup:], seed)
    assert potential_gap(field) == _gap_whole_grid(field)


def test_walsh_exact_rational_reconstruction():
    pts = circle(300)
    vals = 1.0 / (pts - 2) + 0.5
    s = SampleSet(pts, vals)
    rep = ra.cleanup(ra.aaa_fit(s, tol=1e-13, max_degree=10), s)
    c = ContourSpec(0j, 1.5, 128)
    fc = 1.0 / (c.points() - 2) + 0.5
    est = walsh_error(c, fc, rep.model, 0.1 + 0.2j)
    assert abs(est) <= 1e-12 * np.max(np.abs(vals))


def test_walsh_matches_direct_fig1(exp_disk_fit):
    # the reconstruction is exact for the interpolant of the *true* f
    # values; the stored values are rounded to double precision, so the
    # agreement floor is absolute, at the scale of eps * |f| -- far below
    # the quadrature's own estimate but above a relative 1e-6 of the
    # ~1e-13-sized error being measured
    m = exp_disk_fit.model
    c = ContourSpec(0j, 2.0, 256)
    fc = np.exp(c.points())
    for z in (0.3 + 0.2j, -0.4 + 0.1j, 0.6j, 0.8 + 0.3j, -0.2 - 0.7j):
        est = walsh_error(c, fc, m, z)
        direct = np.exp(z) - aaa.evaluate(m, z)
        assert abs(est - direct) <= 5e-15


def _ext_nodes(contour):
    """walsh_error's quadrature nodes, computed in extended precision."""
    ext = np.clongdouble
    theta = 2 * np.pi * np.arange(contour.nodes, dtype=np.longdouble) / contour.nodes
    return ext(contour.center) + ext(contour.radius) * np.exp(1j * theta).astype(ext)


def _walsh_interleaved(contour, fvals, r, z):
    """The trapezoid sum with one interleaved extended-precision loop."""
    ext = np.clongdouble
    t = _ext_nodes(contour)
    ze, sup, pol = ext(z), r.supports.astype(ext), aaa.poles(r).astype(ext)
    ratio = np.ones_like(t)
    for k in range(max(sup.size, pol.size)):
        if k < sup.size:
            ratio = ratio * ((ze - sup[k]) / (t - sup[k]))
        if k < pol.size:
            ratio = ratio * ((t - pol[k]) / (ze - pol[k]))
    total = np.sum(ratio * fvals.astype(ext) / (t - ze) * (t - ext(contour.center)))
    return complex(total / contour.nodes)


def _walsh_mp(contour, fvals, r, z, dps=40):
    """walsh_error's d(t)/d(z) trapezoid sum in mpmath at dps digits, on
    the same data: its extended-precision nodes, read exactly, and the
    given f values, supports and weights."""
    import mpmath

    def exact(x):
        num, den = x.as_integer_ratio()
        return mpmath.mpf(num) / den

    with mpmath.workdps(dps):
        sup = [mpmath.mpc(complex(x)) for x in r.supports]
        w = [mpmath.mpc(complex(x)) for x in r.weights]
        d = lambda x: mpmath.fsum(wk / (x - sk) for sk, wk in zip(sup, w))
        zm, cm = mpmath.mpc(complex(z)), mpmath.mpc(complex(contour.center))
        dz = d(zm)
        terms = []
        for te, f in zip(_ext_nodes(contour), fvals):
            t = mpmath.mpc(exact(te.real), exact(te.imag))
            terms.append(d(t) / dz * mpmath.mpc(complex(f)) / (t - zm) * (t - cm))
        return complex(mpmath.fsum(terms) / contour.nodes)


def _integrand_scale(contour, fvals, r, z):
    """A, the mean modulus of the trapezoid sum's terms f(t) d(t)/d(z)
    (t - c)/(t - z): rounding each f value, or each term, by eps moves
    the estimate by at most eps A."""
    t = contour.points()
    d = lambda x: np.sum(r.weights / np.subtract.outer(x, r.supports), axis=-1)
    return float(np.mean(np.abs(fvals * d(t) / d(z) * (t - contour.center)
                                / (t - z))))


def test_walsh_runs_in_extended_precision(exp_disk_fit):
    # the sum cancels by ~13 orders of magnitude, from terms of mean modulus
    # A ~ 1e-2 to an estimate of ~1e-15.  Against a 40-digit sum of the same
    # data only the clongdouble rounding is left: each term's is at most
    # (n + 8) eps_ld kappa(t) of it, kappa(t) = sum |w_k / (t - z_k)| / |d(t)|
    # (~120 here, weighted by the terms), and independent from term to
    # term, so their mean over N nodes moves by about (n + 8) kappa eps_ld
    # A / sqrt(N) ~ 110 eps_ld A; the bound is N eps_ld A.  Measured: 1.3-2.1
    # eps_ld A; the same sum in complex128 misses by 12-23 times the bound.
    # The pole-based oracle takes the same f values, and its poles are
    # rounded to double, which moves it by a fraction of eps A (measured:
    # 0.34 eps A).
    m = exp_disk_fit.model
    c = ContourSpec(0j, 2.0, 256)
    fc = np.exp(c.points())
    eps, eps_ld = np.finfo(float).eps, np.finfo(np.longdouble).eps
    for z in (0.3 + 0.2j, 0.9 * np.exp(0.6j * np.pi), -0.2 - 0.7j):
        est = walsh_error(c, fc, m, z)
        scale = _integrand_scale(c, fc, m, z)
        assert abs(est - _walsh_mp(c, fc, m, z)) <= c.nodes * eps_ld * scale
        assert abs(est - _walsh_interleaved(c, fc, m, z)) <= eps * scale


def test_walsh_doubling_stability(exp_disk_fit):
    m = exp_disk_fit.model
    z = 0.3 + 0.2j
    ests = []
    for nodes in (256, 512):
        c = ContourSpec(0j, 2.0, nodes)
        ests.append(walsh_error(c, np.exp(c.points()), m, z))
    assert abs(ests[1] - ests[0]) <= 1e-16


@pytest.mark.parametrize("k", [-40, 40])
def test_walsh_on_a_scaled_copy_matches_scale_one(exp_disk_samples,
                                                   exp_disk_fit, k):
    # scaling the points by 2^k scales d by 2^-k, at the contour's nodes
    # and at z alike, so d(t)/d(z) and the estimate stay those at scale one
    scale = 2.0 ** k
    s = SampleSet(exp_disk_samples.points * scale, exp_disk_samples.values)
    m = ra.cleanup(ra.aaa_fit(s, tol=1e-12, max_degree=150), s).model
    assert m.degree == exp_disk_fit.model.degree
    c, cs = ContourSpec(0j, 2.0, 256), ContourSpec(0j, 2.0 * scale, 256)
    fc = np.exp(c.points())
    for z in (0.3 + 0.2j, -0.4 + 0.1j, 0.6j):
        ref = walsh_error(c, fc, exp_disk_fit.model, z)
        assert abs(walsh_error(cs, fc, m, z * scale) - ref) <= 1e-17


def test_walsh_preconditions(exp_disk_fit):
    m = exp_disk_fit.model
    c = ContourSpec(0j, 2.0, 256)
    fc = np.exp(c.points())
    with pytest.raises(ValueError):
        walsh_error(c, fc, m, 2.5 + 0j)
    with pytest.raises(ValueError):
        walsh_error(c, fc[:100], m, 0.1 + 0j)
    # a pole on the contour is none: d(t)/d(z) has no pole on or outside
    # it, so a contour of radius |p| through r's nearest pole (|p| = 8.73,
    # 0.025 from a node) gives the estimate of the radius-2 contour.  Each
    # estimate is the exact integral of its f values to within
    # eps (1 + rho) A: eps A for rounding f on the contour, and eps rho A
    # for taking f at the nodes in double, where |f'| = |f| for exp.  A is
    # ~1e-2 on radius 2 and ~1e-5 on radius 8.73, against an estimate of
    # ~7.4e-16 (measured: the two differ by 1e-18; the direct error is
    # -8.2e-16i)
    p = m.pole_list[np.argmin(np.abs(m.pole_list))]
    eps = np.finfo(float).eps
    z = 0.1 + 0j
    ests, bound = [], 0.0
    for contour in (ContourSpec(0j, float(abs(p)), 256), c):
        fvals = np.exp(contour.points())
        ests.append(walsh_error(contour, fvals, m, z))
        bound += eps * (1 + contour.radius) * _integrand_scale(contour, fvals, m, z)
    assert abs(ests[0] - ests[1]) <= bound < 0.05 * abs(ests[1])
