import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ratapprox import aaa, analysis, cli, geometry
from ratapprox.aaa import BarycentricRational
from ratapprox.cli import (
    UsageError,
    load_model,
    main,
    model_from_json,
    model_to_json,
    parse_degrees,
    parse_domain,
    parse_function,
    parse_window,
)
from ratapprox.geometry import Disk, FunctionSpec, Horseshoe, Interval, SampleSet


def circle(n):
    return np.exp(2j * np.pi * np.arange(n) / n)


def test_parse_function():
    assert parse_function("exp") is FunctionSpec.EXP
    assert parse_function("ABS") is FunctionSpec.ABS_VAL
    with pytest.raises(UsageError) as exc:
        parse_function("nope")
    assert "valid" in str(exc.value)


def test_parse_domain():
    assert parse_domain("disk:0,0,1") == Disk(0j, 1.0)
    assert parse_domain("interval:-1,1") == Interval(-1.0, 1.0)
    assert parse_domain("horseshoe") == Horseshoe()
    assert parse_domain("horseshoe:0.4,2.0,0.25") == Horseshoe(0.4, 2.0, 0.25)
    with pytest.raises(UsageError):
        parse_domain("square:1")
    with pytest.raises(UsageError):
        parse_domain("disk:1")


def test_parse_degrees():
    assert parse_degrees("4:4:60") == list(range(4, 61, 4))
    assert parse_degrees("1,2,5") == [1, 2, 5]
    assert parse_degrees(f"0:{cli.MAX_DEGREE}") == list(range(cli.MAX_DEGREE + 1))
    for bad in ("a,b", "-2:2:6", "3,-1", "0:1:100001", "-10**30", "0:1:" + "9" * 40,
                "4,2", "2,2", "10:-2:0"):
        with pytest.raises(UsageError):
            parse_degrees(bad)


_DOMAIN_TEXT = st.builds(
    "{}:{}".format, st.sampled_from(["disk", "interval", "horseshoe", "", "x"]),
    st.lists(st.one_of(st.floats(), st.integers(), st.text(max_size=4)).map(str),
             max_size=4).map(",".join))
_WINDOW_TEXT = st.lists(
    st.one_of(st.floats(), st.sampled_from(["1e308", "-1e308"]),
              st.text(max_size=3)).map(str), max_size=5).map(",".join)
_DEGREE_TEXT = st.builds(
    str.join, st.sampled_from([":", ","]),
    st.lists(st.one_of(st.integers(-10**6, 10**6), st.integers(),
                       st.text(max_size=3)).map(str), min_size=1, max_size=4))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(parser=st.sampled_from([parse_function, parse_domain, parse_degrees,
                               parse_window]),
       text=st.one_of(st.text(), _DOMAIN_TEXT, _DEGREE_TEXT, _WINDOW_TEXT))
def test_parsers_raise_only_usage_errors(parser, text):
    # any text either parses or is a usage error (exit 2), never a traceback
    try:
        parser(text)
    except UsageError:
        pass


def _reload(path, model):
    cli._write_json(str(path), model_to_json(model))
    return load_model(str(path))


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_model_json_roundtrip_barycentric(tmp_path):
    pts = circle(200)
    s = SampleSet(pts, np.exp(pts))
    rep = aaa.cleanup(aaa.aaa_fit(s, tol=1e-12, max_degree=20), s)
    m = rep.model
    m2 = _reload(tmp_path / "model.json", m)
    # shortest round-trip floats reload every double bit for bit
    for key in ("supports", "values", "weights"):
        assert _same_bits(getattr(m, key), getattr(m2, key))
    z = 0.3 + 0.4j
    assert aaa.evaluate(m, z) == aaa.evaluate(m2, z)


# signed zeros, subnormals, the smallest normal and values near +-1e308
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                0.1, 1e308, -1e308, 1.7976931348623157e308,
                -1.7976931348623157e308]
_doubles = st.one_of(st.sampled_from(_EDGE_FLOATS),
                     st.floats(allow_nan=False, allow_infinity=False))
_complexes = st.builds(complex, _doubles, _doubles)


def _complex_array(n):
    return st.lists(_complexes, min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=complex))


@st.composite
def _models(draw):
    n = draw(st.integers(1, 6))
    supports = draw(_complex_array(n).filter(
        lambda z: np.unique(z).size == z.size))
    weights = draw(_complex_array(n).filter(lambda w: np.any(w != 0)))
    return BarycentricRational(supports, draw(_complex_array(n)), weights)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(model=_models())
@example(model=BarycentricRational(                  # figure 6's first weight
    np.array([1.4 + 0.4j]), np.array([0.2 - 1.2j]),
    np.array([complex(0.25, -0.0)])))
def test_model_json_roundtrip_is_bit_exact(model, tmp_path_factory):
    path = tmp_path_factory.mktemp("roundtrip") / "model.json"
    loaded = _reload(path, model)
    assert type(loaded) is type(model)
    for key in ("supports", "values", "weights"):
        assert _same_bits(getattr(model, key), getattr(loaded, key)), key


def test_fit_command(tmp_path):
    out = tmp_path / "model.json"
    rpt = tmp_path / "report.json"
    rc = main(["fit", "--fn", "exp", "--domain", "disk:0,0,1",
               "--tol", "1e-12", "--out", str(out), "--report", str(rpt)])
    assert rc == 0
    model = load_model(str(out))
    assert model.degree <= 7
    summary = json.loads(rpt.read_text())
    assert summary["tol"] == 1e-12 and summary["converged"]


def test_study_command_even_degrees(tmp_path):
    out = tmp_path / "conv.csv"
    rc = main(["study", "--fn", "abs", "--domain", "interval:-1,1",
               "--degrees", "4:4:24", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "degree,method,error,flag"
    degrees = {int(line.split(",")[0]) for line in lines[1:]}
    assert degrees == set(range(4, 25, 4))


def test_study_degrees_above_samples_are_capped(tmp_path):
    # the greedy fit stops by samples // 2 - 1 = 49; higher rational degrees
    # are left out, as polynomial degrees above samples - 1 are
    out = tmp_path / "conv.csv"
    rc = main(["study", "--fn", "exp", "--domain", "disk:0,0,1",
               "--degrees", "2:2:150", "--samples", "100", "--out", str(out)])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    rational = [int(r[0]) for r in rows if r[1] == "rational"]
    polynomial = [int(r[0]) for r in rows if r[1] == "polynomial"]
    assert rational and max(rational) <= 49
    assert max(polynomial) <= 99


def test_study_survives_arnoldi_breakdown(tmp_path):
    # the 300-sample basis breaks down at column 298, so degree 297 is the
    # last one the nested basis supports; rational entries are unaffected
    out = tmp_path / "conv.csv"
    rc = main(["study", "--fn", "abs", "--domain", "interval:-1,1",
               "--samples", "300", "--degrees", "2:2:400", "--out", str(out)])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    polynomial = [int(r[0]) for r in rows if r[1] == "polynomial"]
    assert polynomial == list(range(2, 297, 2))
    assert any(r[1] == "rational" for r in rows)


def test_study_flags_overflowing_errors(tmp_path):
    # the polynomial basis regenerated on the test grid overflows at high
    # degree (inf from 176 on); an infinite error must not count as ok
    out, rpt = tmp_path / "conv.csv", tmp_path / "report.json"
    # the overflow is flagged, not warned about
    rc = main(["study", "--fn", "abs", "--domain", "interval:-1,1",
               "--samples", "300", "--degrees", "2:2:290", "--out",
               str(out), "--report", str(rpt)])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert any(r[3] == "overflow" for r in rows)
    for *_, error, flag in rows:
        assert (flag == "overflow") == (not np.isfinite(float(error)))
    json.loads(rpt.read_text(), parse_constant=_reject)


def test_study_rejects_negative_degrees(tmp_path, capsys):
    # W[:, :n + 1] with n = -2 kept all but the last basis column, and the
    # study wrote a false polynomial row for degree -2
    out = tmp_path / "c.csv"
    rc = main(["study", "--fn", "exp", "--domain", "disk:0,0,1",
               "--degrees=-2:2:6", "--samples", "100", "--out", str(out)])
    assert rc == 2
    assert "negative degree -2" in capsys.readouterr().err
    assert not out.exists()
    # the sweep needs each degree once, in increasing order
    for spec in ("4,2", "2,2", "10:-2:0"):
        rc = main(["study", "--fn", "exp", "--domain", "disk:0,0,1",
                   f"--degrees={spec}", "--samples", "100", "--out", str(out)])
        assert rc == 2
        assert (f"degrees in {spec!r} must be strictly increasing"
                in capsys.readouterr().err)
        assert not out.exists()


@pytest.mark.parametrize("command", [
    ["fit", "--tol"], ["study", "--degrees", "2:2:10", "--floor"]],
    ids=["fit-tol", "study-floor"])
def test_tol_not_positive_finite_is_usage_error(command, tmp_path, capsys):
    # nan and inf ran before: nan to max_degree with a null tol in the
    # report, inf to a degree-0 model reported as converged
    for value in ("0", "-1", "nan", "inf", "1e-400"):
        rc = main([*command[:-1], "--fn", "exp", "--domain", "disk:0,0,1",
                   f"{command[-1]}={value}", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert (f"{command[-1]} must be a positive finite number, "
                f"got {float(value)}" in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("domain", ["disk:nan,0,1", "disk:0,0,1e400",
                                    "interval:1,inf", "horseshoe:0.4,inf,0.25"])
def test_non_finite_domain_number_is_usage_error(domain, tmp_path, capsys):
    rc = main(["study", "--fn", "exp", "--domain", domain,
               "--degrees", "2:2:10", "--out", str(tmp_path / "c.csv")])
    assert rc == 2
    assert "must be finite" in capsys.readouterr().err


def test_bad_number_in_domain_is_usage_error(tmp_path, capsys):
    # -1e308,1e308: finite ends whose difference b - a overflows
    for domain in ("disk:a", "interval:-1e308,1e308"):
        rc = main(["study", "--fn", "exp", "--domain", domain,
                   "--degrees", "2:2:6", "--samples", "100",
                   "--out", str(tmp_path / "c.csv")])
        assert rc == 2
        assert "bad domain parameters" in capsys.readouterr().err


def test_potential_command(tmp_path):
    model_path = tmp_path / "model.json"
    main(["fit", "--fn", "exp", "--domain", "disk:0,0,1", "--out",
          str(model_path)])
    svg = tmp_path / "plot.svg"
    rc = main(["potential", "--model", str(model_path), "--window=-2,2,-2,2", "--res", "64", "--out", str(svg)])
    assert rc == 0
    text = svg.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert 'fill="#d62728"' in text      # pole markers
    assert 'fill="#ffd500"' in text      # support markers


def test_bad_number_in_window_is_usage_error(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    main(["fit", "--fn", "exp", "--domain", "disk:0,0,1", "--out",
          str(model_path)])
    # -1e308,1e308: finite ends whose width overflows
    for args, message in (
            (["--window=a,1,2,3"], "bad --window 'a,1,2,3', want xmin"),
            (["--window=1,2,3"], "bad --window '1,2,3', want xmin"),
            (["--window=-inf,inf,-1,1"], "need finite numbers"),
            (["--window=nan,1,-1,1"], "need finite numbers"),
            (["--window=-1e308,1e308,-1,1"], "need finite numbers"),
            (["--window=1,-1,-1,1"], "need finite numbers"),
            (["--res", "0"], "--res must be at least 32, got 0"),
            (["--res", "31"], "--res must be at least 32, got 31")):
        rc = main(["potential", "--model", str(model_path), *args,
                   "--out", str(tmp_path / "plot.svg")])
        assert rc == 2, args
        assert message in capsys.readouterr().err
        assert not (tmp_path / "plot.svg").exists()


@pytest.mark.parametrize("command", [
    ["fit"], ["study", "--degrees", "2:2:10"]], ids=["fit", "study"])
def test_too_few_samples_is_usage_error(command, tmp_path, capsys):
    # 112 cluster points on each side of 0 plus 2 Chebyshev points
    for samples in ("0", "100", "225"):
        rc = main([*command, "--fn", "abs", "--domain", "interval:-1,1",
                   "--samples", samples, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert (f"need at least 226 boundary samples on "
                f"Interval(a=-1.0, b=1.0), got {samples}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()
    # sqrt(-z) is cut along [0, inf): f has no value at half the samples
    rc = main([*command, "--fn", "sqrtneg", "--domain", "interval:-1,1",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "sample values must be finite" in capsys.readouterr().err


def test_invalid_figure_id_is_usage_error(tmp_path):
    assert main(["figure", "7", "--out", str(tmp_path)]) == 2


def test_unknown_function_is_usage_error(tmp_path):
    rc = main(["fit", "--fn", "bogus", "--domain", "disk:0,0,1",
               "--out", str(tmp_path / "m.json")])
    assert rc == 2


def test_figure_outputs_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["figure", "1", "--out", str(a)]) == 0
    assert main(["figure", "1", "--out", str(b)]) == 0
    for name in ("convergence.csv", "model.json", "potential.svg",
                 "report.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_figure_report_contents(tmp_path):
    assert main(["figure", "1", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["rational"]["final_degree"] <= 7
    assert report["rational"]["converged"]
    assert report["rational"]["sup_error"] <= 1e-11 * np.e


_GOOD_MODEL = {
    "type": "barycentric",
    "supports": [[0.0, 0.0], [1.0, 0.0]],
    "values": [[0.0, 0.0], [1.0, 0.0]],
    "weights": [[1.0, 0.0], [-1.0, 0.0]],
}


@pytest.mark.parametrize("bad", [
    {k: v for k, v in _GOOD_MODEL.items() if k != "weights"},
    {**_GOOD_MODEL, "values": [[0.0, 0.0]]},
    {**_GOOD_MODEL, "weights": [[1.0, float("nan")], [-1.0, 0.0]]},
    {**_GOOD_MODEL, "supports": [[0.0, 0.0], [float("inf"), 0.0]]},
    {**_GOOD_MODEL, "supports": [[0.0], [1.0, 0.0]]},
    {"type": "arnoldi", "degree": 2, "hessenberg": [[1.0, 0.0]] * 6,
     "coeffs": [[1.0, 0.0]] * 2},
    {"type": "arnoldi", "hessenberg": [], "coeffs": [[1.0, 0.0]]},
    [1, 2, 3],
], ids=["missing-key", "length-mismatch", "nan-weight", "inf-support",
        "bad-pair", "arnoldi-lengths", "arnoldi-missing-degree", "not-object"])
def test_bad_model_file_is_usage_error(tmp_path, bad):
    with pytest.raises(UsageError):
        model_from_json(bad)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(bad))     # writes NaN/Infinity tokens as given
    rc = main(["potential", "--model", str(path), "--res", "16",
               "--out", str(tmp_path / "plot.svg")])
    assert rc == 2
    assert not (tmp_path / "plot.svg").exists()


def test_model_file_not_json_is_usage_error(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{\"type\": ")
    with pytest.raises(UsageError):
        load_model(str(path))


def _reject(name):
    raise ValueError(f"non-standard constant {name}")


def test_json_non_finite_floats_are_null(tmp_path):
    exact = _EDGE_FLOATS + [np.float64(1 / 3), np.nextafter(1.0, 2.0)]
    report = {"sup_error": float("inf"), "ok": 1.5,
              "nested": {"errors": [np.nan, 2.0, -np.inf], "rate": np.float64("nan")},
              "exact": exact}
    path = tmp_path / "report.json"
    cli._write_json(str(path), report)
    text = path.read_text()
    data = json.loads(text, parse_constant=_reject)
    back = data.pop("exact")
    assert data == {"sup_error": None, "ok": 1.5,
                    "nested": {"errors": [None, 2.0, None], "rate": None}}
    assert text.endswith("}\n") and text.count("\n") == 1
    # finite floats read back as the same doubles, signed zeros included
    assert all(isinstance(v, float) for v in back)
    assert np.array(back).tobytes() == np.array(exact, dtype=float).tobytes()


def test_fit_not_converged_when_cleanup_misses_tol(tmp_path):
    # the greedy fit meets 1e-8 at degree 54, but cleanup removes supports
    # and the returned model misses it, so the report must not claim it
    out, rpt = tmp_path / "model.json", tmp_path / "report.json"
    rc = main(["fit", "--fn", "abs", "--domain", "interval:-1,1", "--samples",
               "500", "--max-degree", "60", "--tol", "1e-8", "--out", str(out),
               "--report", str(rpt)])
    assert rc == 0
    summary = json.loads(rpt.read_text())
    assert summary["cleanup_removed"] > 0
    assert summary["sample_error"] > 1e-8
    assert summary["converged"] is False


@pytest.mark.parametrize("figure_id,max_degree", [
    (1, None), (5, None), (6, None), (6, 20),
], ids=["fig1", "fig5", "fig6", "fig6-max20"])
def test_figure_runs_one_greedy_fit(figure_id, max_degree, tmp_path,
                                    monkeypatch):
    # 1: preset max_degree above the study's degree cap; 5: cleanup
    # removes supports; 6: preset max_degree below the study's degree cap,
    # and with max_degree 20 the preset fit stops there, short of the degree
    # the study's fit converges at
    preset = cli.PRESETS[figure_id]
    if max_degree is not None:
        preset = dataclasses.replace(preset, max_degree=max_degree)
        monkeypatch.setitem(cli.PRESETS, figure_id, preset)
    samples = geometry.sample_function(preset.fn, preset.domain,
                                       cli.N_BOUNDARY)
    # reference: a preset fit with cleanup and a study with its own fit
    ref = aaa.cleanup(aaa.aaa_fit(samples, tol=preset.tol,
                                  max_degree=preset.max_degree), samples)
    ref_record = analysis.convergence_study(
        preset.fn, preset.domain, preset.degrees, tol_floor=1e-13,
        n_samples=cli.N_BOUNDARY)
    cli.write_convergence_csv(str(tmp_path / "ref.csv"), ref_record)
    if figure_id == 1:
        assert preset.max_degree > max(preset.degrees)
    elif figure_id == 5:
        assert ref.cleanup_removed > 0
    else:
        assert preset.max_degree < max(preset.degrees)
    if max_degree is not None:
        assert not ref.converged and ref.history[-1][0] == max_degree

    # the figure samples f once, builds one test grid, and solves the
    # returned model's poles once in all: in cleanup's last check, for the
    # report, the plot, the sup error and, when it is a swept snapshot, the
    # sweep
    calls = {"aaa_fit": 0, "sample_function": 0, "test_grid": 0}
    for module, name in ((aaa, "aaa_fit"), (geometry, "sample_function"),
                         (geometry, "test_grid")):
        def counting(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    solved, final = [], []
    poles, clean = aaa.poles, aaa.cleanup

    def recording_poles(r):
        solved.append(r)
        return poles(r)

    def recording_cleanup(*args):
        rep = clean(*args)
        final.append(rep.model)
        return rep

    monkeypatch.setattr(aaa, "poles", recording_poles)
    monkeypatch.setattr(aaa, "cleanup", recording_cleanup)
    cli.run_figure(figure_id, str(tmp_path / "fig"))
    assert calls == {"aaa_fit": 1, "sample_function": 1, "test_grid": 1}
    assert len(final) == 1
    assert sum(r is final[0] for r in solved) == 1
    assert ((tmp_path / "fig" / "convergence.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())
    cli._write_json(str(tmp_path / "ref.json"), model_to_json(ref.model))
    assert ((tmp_path / "fig" / "model.json").read_bytes()
            == (tmp_path / "ref.json").read_bytes())


def test_fit_default_max_degree_follows_samples(tmp_path):
    out, rpt = tmp_path / "model.json", tmp_path / "report.json"
    rc = main(["fit", "--fn", "exp", "--domain", "disk:0,0,1", "--samples",
               "100", "--out", str(out), "--report", str(rpt)])
    assert rc == 0
    summary = json.loads(rpt.read_text())
    assert summary["max_degree"] == 98 and summary["converged"]
    assert load_model(str(out)).degree <= 98


def test_fit_max_degree_above_samples_is_usage_error(tmp_path, capsys):
    out = tmp_path / "model.json"
    rc = main(["fit", "--fn", "exp", "--domain", "disk:0,0,1", "--samples",
               "100", "--max-degree", "99", "--out", str(out)])
    assert rc == 2
    assert "--max-degree 99" in capsys.readouterr().err
    assert not out.exists()
    rc = main(["fit", "--fn", "exp", "--domain", "disk:0,0,1",
               "--max-degree=-1", "--out", str(out)])
    assert rc == 2
    assert "--max-degree must be nonnegative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_fit_stops_before_the_loewner_matrix_is_wide(tmp_path):
    # at degree k on M samples the matrix is M - k - 1 by k + 1; with 10
    # samples the default max_degree 8 is allowed, and the fit stops at 4,
    # the last square step, where degree 5 raised "need m >= k"
    out, rpt = tmp_path / "model.json", tmp_path / "report.json"
    rc = main(["fit", "--fn", "exp", "--domain", "disk:0,0,1", "--samples",
               "10", "--out", str(out), "--report", str(rpt)])
    assert rc == 0
    summary = json.loads(rpt.read_text())
    assert summary["max_degree"] == 8 and summary["degree"] == 4
    assert summary["converged"] is False
    assert load_model(str(out)).degree == 4


def test_module_entry_point_runs():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "ratapprox", "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "usage: ratapprox" in proc.stdout
