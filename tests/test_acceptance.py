"""Acceptance gate: the eleven regime-level checks, one test per criterion.

Each test prints a single PASS/FAIL line naming the criterion, then asserts
all of its clauses.  Expensive fits are shared through session fixtures.
"""

import json
import time

import numpy as np
import pytest

import ratapprox as ra
from ratapprox import aaa, analysis, linalg, polyfit
from ratapprox.analysis import Entry, ConvergenceRecord, Method
from ratapprox.cli import run_figure
from ratapprox.geometry import Disk, FunctionSpec, Horseshoe, Interval, SampleSet
from ratapprox.potential import ContourSpec, walsh_error


def check(num, name, clauses):
    failed = [label for label, ok in clauses if not ok]
    status = "FAIL" if failed else "PASS"
    detail = f"  ({'; '.join(failed)})" if failed else ""
    print(f"\ncriterion {num:2d} [{name}]: {status}{detail}")
    assert not failed, f"criterion {num} [{name}] failed: {failed}"


def dist_to_segment(z, a, b):
    d = b - a
    t = np.clip(((z - a) * np.conj(d)).real / abs(d) ** 2, 0.0, 1.0)
    return np.abs(z - (a + t * d))


def dist_to_ray(z):
    """Distance to the ray [0, inf) on the real axis."""
    return np.where(z.real >= 0, np.abs(z.imag), np.abs(z))


# ---------------------------------------------------------------------------
# shared experiment fixtures

@pytest.fixture(scope="session")
def exp_study():
    return analysis.convergence_study(
        FunctionSpec.EXP, Disk(0j, 1.0), list(range(0, 21)))


@pytest.fixture(scope="session")
def tansq_fit():
    s = ra.sample_function(FunctionSpec.TAN_SQ, Disk(0j, 1.0), 500)
    return ra.cleanup(ra.aaa_fit(s, tol=1e-12, max_degree=150), s)


@pytest.fixture(scope="session")
def tansq_study():
    degrees = list(range(2, 41, 2)) + list(range(44, 121, 4))
    return analysis.convergence_study(FunctionSpec.TAN_SQ, Disk(0j, 1.0), degrees)


@pytest.fixture(scope="session")
def exptansq_fit():
    s = ra.sample_function(FunctionSpec.EXP_TAN_SQ, Disk(0j, 1.0), 500)
    return ra.cleanup(ra.aaa_fit(s, tol=1e-12, max_degree=150), s)


@pytest.fixture(scope="session")
def exptansq_study():
    return analysis.convergence_study(
        FunctionSpec.EXP_TAN_SQ, Disk(0j, 1.0), list(range(0, 81, 4)))


@pytest.fixture(scope="session")
def sqrt2_fit():
    s = ra.sample_function(FunctionSpec.TWO_BRANCH_SQRT, Disk(0j, 1.0), 500)
    return ra.cleanup(ra.aaa_fit(s, tol=1e-10, max_degree=150), s)


@pytest.fixture(scope="session")
def sqrt2_study():
    return analysis.convergence_study(
        FunctionSpec.TWO_BRANCH_SQRT, Disk(0j, 1.0), list(range(1, 61)))


@pytest.fixture(scope="session")
def abs_fit():
    s = ra.sample_function(FunctionSpec.ABS_VAL, Interval(-1.0, 1.0), 500)
    return ra.cleanup(ra.aaa_fit(s, tol=1e-8, max_degree=60), s)


@pytest.fixture(scope="session")
def abs_study():
    return analysis.convergence_study(
        FunctionSpec.ABS_VAL, Interval(-1.0, 1.0), list(range(4, 61, 2)))


@pytest.fixture(scope="session")
def horseshoe_fit():
    s = ra.sample_function(FunctionSpec.SQRT_NEG, Horseshoe(), 500)
    return ra.cleanup(ra.aaa_fit(s, tol=1e-9, max_degree=60), s)


@pytest.fixture(scope="session")
def figure1_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("fig1")
    run_figure(1, str(base / "a"))
    run_figure(1, str(base / "b"))
    return base


def test_criterion_01_fig1_regime(exp_disk_samples):
    t0 = time.perf_counter()
    rep = ra.cleanup(ra.aaa_fit(exp_disk_samples, tol=1e-12, max_degree=150),
                     exp_disk_samples)
    sup = analysis.estimate_sup_error(FunctionSpec.EXP, rep.model, Disk(0j, 1.0))
    elapsed = time.perf_counter() - t0
    check(1, "exp on disk converges at low degree", [
        ("converged", rep.converged),
        (f"degree {rep.model.degree} <= 7", rep.model.degree <= 7),
        (f"sup error {sup.value:.2e} <= 1e-11*e", sup.value <= 1e-11 * np.e),
        (f"runtime {elapsed:.2f}s < 2s", elapsed < 2.0),
    ])


def test_criterion_02_entire_function_rates(exp_study):
    rr = analysis.classify_rate(exp_study, Method.RATIONAL)
    rp = analysis.classify_rate(exp_study, Method.POLYNOMIAL)
    check(2, "exp: both methods superexponential", [
        (f"rational {rr.kind}", rr.kind == "superexponential"),
        (f"polynomial {rp.kind}", rp.kind == "superexponential"),
    ])


def test_criterion_03_fig2_regime(tansq_fit, tansq_study):
    rr = analysis.classify_rate(tansq_study, Method.RATIONAL)
    rp = analysis.classify_rate(tansq_study, Method.POLYNOMIAL)
    d = rp.diagnostics
    targets = 1.2533141 * np.array([1, -1, 1j, -1j])
    pl = aaa.poles(tansq_fit.model)
    hits = [np.min(np.abs(pl - t)) < 1e-4 for t in targets]
    check(3, "tan(z^2): poly exponential, rational superexponential", [
        (f"polynomial {rp.kind}", rp.kind == "exponential"),
        ("exponential R2 beats sqrt-n", d["r2_exponential"] > d["r2_root_exponential"]),
        ("exponential R2 beats log-n", d["r2_exponential"] > d["r2_algebraic"]),
        (f"rational {rr.kind}", rr.kind == "superexponential"),
        ("poles near all four +-sqrt(pi/2), +-i sqrt(pi/2)", all(hits)),
    ])


def test_criterion_04_fig3_regime(exptansq_fit, exptansq_study):
    rr = analysis.classify_rate(exptansq_study, Method.RATIONAL)
    rat = exptansq_study.for_method(Method.RATIONAL)
    reach = [e.degree for e in rat if e.error <= 1e-10]
    targets = np.sqrt(np.pi / 2) * np.array([1, -1, 1j, -1j])
    pl = aaa.poles(exptansq_fit.model)
    clusters = [int(np.sum(np.abs(pl - t) < 0.15)) for t in targets]
    check(4, "exp(tan(z^2)): pole clusters at essential singularities", [
        (f"reaches 1e-10 by degree {min(reach) if reach else 'never'} <= 60",
         bool(reach) and min(reach) <= 60),
        (f"cluster sizes {clusters} all >= 3", all(c >= 3 for c in clusters)),
        (f"rational {rr.kind}", rr.kind == "superexponential"),
    ])


def test_criterion_05_fig4_regime(sqrt2_fit, sqrt2_study):
    pl = aaa.poles(sqrt2_fit.model)
    seg = dist_to_segment(pl, 1.5 + 0j, 1.5j)
    frac = float(np.mean(seg <= 0.3))
    rr = analysis.classify_rate(sqrt2_study, Method.RATIONAL)
    rp = analysis.classify_rate(sqrt2_study, Method.POLYNOMIAL)
    check(5, "two-branch sqrt: poles align along a branch-cut arc", [
        (f"all pole moduli >= 1.01 (min {np.min(np.abs(pl)):.3f})",
         bool(np.all(np.abs(pl) >= 1.01))),
        (f"{frac:.0%} of poles within 0.3 of segment [1.5, 1.5i] (need >= 90%)",
         frac >= 0.9),
        (f"rational {rr.kind}", rr.kind == "exponential"),
        (f"polynomial {rp.kind}", rp.kind == "exponential"),
    ])


def test_criterion_06_fig5_regime(abs_fit, abs_study):
    rr = analysis.classify_rate(abs_study, Method.RATIONAL)
    rp = analysis.classify_rate(abs_study, Method.POLYNOMIAL)
    s = ra.sample_function(FunctionSpec.ABS_VAL, Interval(-1.0, 1.0), 500)
    n_en = {}
    for n in (20, 40, 80):
        m = polyfit.va_fit(s, n)
        err = analysis.estimate_sup_error(FunctionSpec.ABS_VAL, m,
                                          Interval(-1.0, 1.0)).value
        n_en[n] = n * err
    pl = aaa.poles(abs_fit.model)
    im = np.abs(pl.imag)
    ratio = np.median(np.abs(pl.real)[im > 0] / im[im > 0])
    span = np.log10(im[im > 0].max() / im[im > 0].min())
    check(6, "|x|: root-exponential rational, O(1/n) polynomial", [
        (f"sqrt-n regression R2 {rr.diagnostics['r2_root_exponential']:.4f} >= 0.97",
         rr.diagnostics["r2_root_exponential"] >= 0.97),
        (f"rational {rr.kind}", rr.kind == "root-exponential"),
        (f"polynomial {rp.kind}", rp.kind == "algebraic"),
        (f"n*E_n {[round(v, 3) for v in n_en.values()]} all in [0.1, 1.0]",
         all(0.1 <= v <= 1.0 for v in n_en.values())),
        (f"median |Re|/|Im| {ratio:.4f} < 0.05", ratio < 0.05),
        (f"|Im| span {span:.2f} >= 4 orders", span >= 4.0),
    ])


def test_criterion_07_fig6_regime(horseshoe_fit):
    dom = Horseshoe()
    reach = None
    for snap in horseshoe_fit.snapshots:
        err = analysis.estimate_sup_error(FunctionSpec.SQRT_NEG, snap, dom).value
        if err <= 1e-8:
            reach = snap.degree
            break
    pl = aaa.poles(horseshoe_fit.model)
    ray = dist_to_ray(pl)
    s = ra.sample_function(FunctionSpec.SQRT_NEG, dom, 500)
    p80 = polyfit.va_fit(s, 80)
    poly_err = analysis.estimate_sup_error(FunctionSpec.SQRT_NEG, p80, dom).value
    check(7, "sqrt(-z) on horseshoe: rational cut, polynomial stagnation", [
        (f"reaches 1e-8 at degree {reach} <= 40",
         reach is not None and reach <= 40),
        (f"max pole-to-ray distance {ray.max():.2f} <= 0.2",
         bool(np.all(ray <= 0.2))),
        (f"poly degree-80 error {poly_err:.2e} >= 1e-2", poly_err >= 1e-2),
    ])


def test_criterion_08_walsh_identity(exp_disk_fit):
    m = exp_disk_fit.model
    pts = np.concatenate([
        [0.3 + 0.2j],
        0.9 * np.exp(2j * np.pi * (np.arange(9) + 0.3) / 9),
    ])
    rel, dbl = [], []
    for nodes in (256, 512):
        c = ContourSpec(0j, 2.0, nodes)
        fc = np.exp(c.points())
        ests = np.array([walsh_error(c, fc, m, z) for z in pts])
        if nodes == 256:
            direct = np.exp(pts) - aaa.evaluate(m, pts)
            rel = np.abs(ests - direct) / np.abs(direct)
            base = ests
        else:
            dbl = np.abs(ests - base) / np.abs(base)
    check(8, "contour-integral estimate matches direct error", [
        (f"worst relative mismatch {np.max(rel):.2e} <= 1e-6",
         bool(np.max(rel) <= 1e-6)),
        (f"worst doubling change {np.max(dbl):.2e} < 1e-10",
         bool(np.max(dbl) < 1e-10)),
    ])


def test_criterion_09_gap_diagnostic(figure1_runs):
    report = json.loads((figure1_runs / "a" / "report.json").read_text())
    gap = report["potential_gap"]
    digits = -np.log10(report["rational"]["sup_error"])
    ratio = digits / gap
    check(9, "colorbar gap vs achieved digits (rho^2 effect)", [
        (f"gap {gap:.2f} in [5, 9]", 5.0 <= gap <= 9.0),
        (f"digits {digits:.1f} ~ 12", 10.0 <= digits <= 14.0),
        (f"digits/gap {ratio:.3f} in [1.3, 2.4]", 1.3 <= ratio <= 2.4),
    ])


def test_criterion_10_property_suites(exp_disk_fit):
    rng = np.random.default_rng(42)
    clauses = []

    A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    ev = linalg.eigenvalues(A)
    clauses.append(("eigenvalue trace invariant",
                    abs(np.sum(ev) - np.trace(A)) <= 1e-9 * np.linalg.norm(A, 2)))
    clauses.append(("eigenvalue determinant invariant",
                    abs(np.prod(ev) - np.linalg.det(A))
                    <= 1e-8 * abs(np.linalg.det(A))))
    B = rng.normal(size=(12, 5)) + 1j * rng.normal(size=(12, 5))
    s, v = linalg.min_singular_right_vector(B)
    mins = min(np.linalg.norm(B @ (u / np.linalg.norm(u)))
               for u in rng.normal(size=(100, 5)) + 1j * rng.normal(size=(100, 5)))
    clauses.append(("sigma_min minimality", s <= mins + 1e-12))

    mdl = exp_disk_fit.model
    clauses.append(("barycentric interpolation exactness",
                    bool(np.array_equal(aaa.evaluate(mdl, mdl.supports),
                                        mdl.values))))
    clauses.append(("pole count equals degree",
                    aaa.poles(mdl).size == mdl.degree))

    circ = np.exp(2j * np.pi * np.arange(400) / 400)
    ok = True
    for d in (1, 2, 3):
        pl = 1.5 + rng.uniform(0.5, 1.5, d) * np.exp(2j * np.pi * rng.uniform(size=d))
        res = rng.normal(size=d) + 1j * rng.normal(size=d)
        vals = np.sum(res[:, None] / (circ[None, :] - pl[:, None]), axis=0) + 1.0
        samples = SampleSet(circ, vals)
        rep = ra.cleanup(ra.aaa_fit(samples, tol=1e-12, max_degree=20), samples)
        tst = np.exp(2j * np.pi * (np.arange(1000) + 0.5) / 1000)
        tvals = np.sum(res[:, None] / (tst[None, :] - pl[:, None]), axis=0) + 1.0
        err = np.max(np.abs(aaa.evaluate(rep.model, tst) - tvals))
        ok &= rep.model.degree <= d + 1 and err <= 1e-11 * np.max(np.abs(vals))
    clauses.append(("rational degree-d exactness, d = 1..3", bool(ok)))

    pts = np.exp(2j * np.pi * np.arange(500) / 500)
    m100 = polyfit.va_fit(SampleSet(pts, np.exp(pts)), 100)
    H = m100.hessenberg
    W = np.zeros((500, 101), dtype=complex)
    W[:, 0] = 1.0
    for k in range(100):
        q = pts * W[:, k] - W[:, : k + 1] @ H[: k + 1, k]
        W[:, k + 1] = q / H[k + 1, k]
    Q = W / np.sqrt(500)
    clauses.append(("Arnoldi orthogonality at degree 100",
                    float(np.max(np.abs(Q.conj().T @ Q - np.eye(101)))) <= 1e-10))

    m10 = polyfit.va_fit(SampleSet(pts, np.exp(pts)), 10)
    e10 = analysis.estimate_sup_error(FunctionSpec.EXP, m10, Disk(0j, 1.0)).value
    clauses.append(("polynomial degree-10 exp error <= 2.8e-8", e10 <= 2.8e-8))

    def synth(errs, ns):
        entries = tuple(Entry(int(n), Method.RATIONAL, float(e))
                        for n, e in zip(ns, errs))
        return ConvergenceRecord(entries)

    ns = np.arange(1, 25)
    kinds = [
        analysis.classify_rate(synth(10.0 ** (-0.5 * ns), ns), Method.RATIONAL).kind,
        analysis.classify_rate(synth(10.0 ** (-np.sqrt(ns)), ns), Method.RATIONAL).kind,
        analysis.classify_rate(synth(10.0 ** (-0.05 * ns * ns), ns), Method.RATIONAL).kind,
    ]
    clauses.append((f"synthetic rate classes {kinds}",
                    kinds == ["exponential", "root-exponential", "superexponential"]))

    check(10, "property suites", clauses)


def test_criterion_11_determinism(figure1_runs):
    same = all(
        (figure1_runs / "a" / name).read_bytes()
        == (figure1_runs / "b" / name).read_bytes()
        for name in ("convergence.csv", "model.json", "potential.svg",
                     "report.json")
    )
    check(11, "byte-identical artifacts across runs", [
        ("all four emitted files byte-identical", same),
    ])
