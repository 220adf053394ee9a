import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ratapprox as ra
from ratapprox import aaa, cli, potential
from ratapprox.geometry import Disk, FunctionSpec, SampleSet
from ratapprox.potential import (
    ContourSpec,
    PoleNearContourError,
    default_window,
    phi,
    potential_gap,
    potential_grid,
    walsh_error,
)


def circle(n=500):
    return np.exp(2j * np.pi * np.arange(n) / n)


def test_phi_examples():
    assert phi(0.5 + 0j, [0.5 + 0j, 1.0], [3.0]) == 0.0
    assert abs(phi(3.0 + 0j, [0.0, 1.0], [2.0]) - 6.0) < 1e-14
    # no poles: the node polynomial
    assert abs(phi(2.0 + 0j, [0.0, 1.0], []) - 2.0) < 1e-14


def test_phi_follows_input_precision():
    # lists and float input give complex128; extended input stays extended
    assert phi([0.5, 1.5], [0.0], [2.0]).dtype == np.complex128
    assert phi(np.float32(0.5), [0.0], []) == 0.5
    ext = np.array([0.5 + 0.25j], dtype=np.clongdouble)
    assert phi(ext, [0.0, 1.0], [2.0]).dtype == np.clongdouble
    assert phi([0.5], np.array([0.0], dtype=np.clongdouble), []).dtype == np.clongdouble


def test_phi_at_pole_is_infinite():
    v = phi(2.0 + 0j, [0.0], [2.0 + 0j])
    assert not np.isfinite(v.real)


def test_phi_monic_ratio_at_infinity():
    rng = np.random.default_rng(2)
    for _ in range(5):
        sup = rng.normal(size=4) + 1j * rng.normal(size=4)
        pol = rng.normal(size=3) + 1j * rng.normal(size=3)
        R = 1e6
        assert abs(phi(R + 0j, sup, pol) / R - 1.0) <= 10 / R


def test_contour_spec_validation():
    with pytest.raises(ValueError):
        ContourSpec(0j, -1.0, 64)
    with pytest.raises(ValueError):
        ContourSpec(0j, 1.0, 8)


def test_potential_grid_single_support():
    f = potential_grid([0j], [], (-1, 1, -1, 1), (64, 64))
    xs, ys = f.cell_centers()
    i = np.argmin(np.abs(xs - 1.0))
    j = np.argmin(np.abs(ys))
    cell = 2.0 / 64
    assert abs(f.log_abs_phi[j, i] - 0.0) <= np.log10(1 + 2 * cell)


def test_potential_grid_symmetry():
    f = potential_grid([1.0 + 0j, -1.0 + 0j], [2j, -2j], (-3, 3, -3, 3), (64, 64))
    assert np.max(np.abs(f.log_abs_phi - f.log_abs_phi[::-1, ::-1])) < 1e-12


def test_potential_grid_validation():
    with pytest.raises(ValueError):
        potential_grid([0j], [], (1, 1, -1, 1), (64, 64))
    with pytest.raises(ValueError):
        potential_grid([0j], [], (-1, 1, -1, 1), (16, 64))


def test_potential_grid_fig1_extrema(exp_disk_fit, exp_disk_samples):
    m = exp_disk_fit.model
    pl = aaa.poles(m)
    win = default_window(exp_disk_samples.points, pl)
    f = potential_grid(m.supports, pl, win, (128, 128))
    xs, ys = f.cell_centers()
    zz = xs[None, :] + 1j * ys[:, None]
    zmin = zz[np.unravel_index(np.argmin(f.log_abs_phi), zz.shape)]
    zmax = zz[np.unravel_index(np.argmax(f.log_abs_phi), zz.shape)]
    assert abs(zmin) < 1.0                       # minimum inside the disk
    assert np.min(np.abs(zmax - pl)) < 0.5       # maximum near a pole


def test_gap_single_support_closed_form():
    window = (-1.0, 1.0, -1.0, 1.0)
    f = potential_grid([0j], [], window, (100, 100))
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
    f1 = potential_grid(sup, pol, (-6, 6, -6, 6), (64, 64))
    s = 17.0
    f2 = potential_grid(s * sup, s * pol, (-6 * s, 6 * s, -6 * s, 6 * s), (64, 64))
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
    fields = []
    gap = potential.potential_gap

    def recording(field):
        fields.append(field)
        return gap(field)

    monkeypatch.setattr(potential, "potential_gap", recording)
    for n in range(1, 7):
        cli.run_figure(n, str(tmp_path / str(n)))
    assert len(fields) == 6
    for field in fields:
        assert gap(field) == _gap_whole_grid(field)


def test_gap_block_keeps_its_edge():
    # the radius is exactly one cell width, so the cells beside each point
    # sit at |z - pt| = radius: excluded, and on the edge of the block
    field = potential_grid([10.5 + 20.5j], [40.5 + 60.5j],
                           (0.0, 60.0, 0.0, 80.0), (60, 80))
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
    sup, pol = pts[:n_sup], pts[n_sup:]
    field = potential_grid(sup, pol, window, (nx, ny))
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


def _walsh_interleaved(contour, fvals, r, z):
    """The trapezoid sum with one interleaved extended-precision loop."""
    ext = np.clongdouble
    nodes = contour.nodes
    theta = 2 * np.pi * np.arange(nodes, dtype=np.longdouble) / nodes
    t = ext(contour.center) + ext(contour.radius) * np.exp(1j * theta).astype(ext)
    ze, sup, pol = ext(z), r.supports.astype(ext), aaa.poles(r).astype(ext)
    ratio = np.ones_like(t)
    for k in range(max(sup.size, pol.size)):
        if k < sup.size:
            ratio = ratio * ((ze - sup[k]) / (t - sup[k]))
        if k < pol.size:
            ratio = ratio * ((t - pol[k]) / (ze - pol[k]))
    total = np.sum(ratio * fvals.astype(ext) / (t - ze) * (t - ext(contour.center)))
    return complex(total / nodes)


def test_walsh_runs_in_extended_precision(exp_disk_fit):
    # the sum cancels by ~13 orders of magnitude: in complex128 it moves by
    # ~3e-4 relative, while the quotient of two phi products and the
    # interleaved loop agree to ~3e-7
    m = exp_disk_fit.model
    c = ContourSpec(0j, 2.0, 256)
    fc = np.exp(c.points())
    for z in (0.3 + 0.2j, 0.9 * np.exp(0.6j * np.pi), -0.2 - 0.7j):
        ref = _walsh_interleaved(c, fc, m, z)
        assert abs(walsh_error(c, fc, m, z) - ref) <= 1e-5 * abs(ref)


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
    # the pole-to-contour test is relative to the radius: with an absolute
    # 1e-8, the copy scaled by 2^-40 raised PoleNearContourError, though
    # its nearest pole lies 6.7 * 2^-40 from the contour of radius 2 * 2^-40
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
    # contour through a pole of r
    p = aaa.poles(m)[0]
    bad = ContourSpec(0j, float(abs(p)), 256)
    with pytest.raises(PoleNearContourError):
        walsh_error(bad, np.exp(bad.points()), m, 0.1 + 0j)
    with pytest.raises(ValueError):
        walsh_error(c, fc[:100], m, 0.1 + 0j)
