import dataclasses
import json
import os
import re
import subprocess
import sys
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ratapprox import aaa, analysis, cli, geometry, polyfit, potential, svgplot
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
from svgpath import plot_map, polylines, printed


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


def _array(n, real):
    return st.lists(_doubles if real else _complexes, min_size=n,
                    max_size=n).map(np.array)


@st.composite
def _models(draw):
    # a real model (plain numbers in the file) or a complex one (pairs)
    n, real = draw(st.integers(1, 6)), draw(st.booleans())
    supports = draw(_array(n, real).filter(
        lambda z: np.unique(z).size == z.size))
    weights = draw(_array(n, real).filter(lambda w: np.any(w != 0)))
    return BarycentricRational(supports, draw(_array(n, real)), weights)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(model=_models())
@example(model=BarycentricRational(                  # figure 6's first weight
    np.array([1.4 + 0.4j]), np.array([0.2 - 1.2j]),
    np.array([complex(0.25, -0.0)])))
@example(model=BarycentricRational(                  # signed zeros, real
    np.array([-0.0, 0.5]), np.array([-0.0, 0.0]), np.array([-1.0, 0.0])))
@example(model=BarycentricRational(                  # zero imaginary parts
    np.array([-0.0j, 0.5]), np.array([0j, 1.0]), np.array([1.0 + 0j, 2.0])))
def test_model_json_roundtrip_is_bit_exact(model, tmp_path_factory):
    # each array's form sets its dtype: plain numbers reload as float64 and
    # pairs as complex128, also where every imaginary part is 0
    path = tmp_path_factory.mktemp("roundtrip") / "model.json"
    data = model_to_json(model)
    form = list if np.iscomplexobj(model.supports) else float
    assert all(type(v) is form for key in ("supports", "values", "weights")
               for v in data[key])
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


@pytest.mark.parametrize("center", ["-690", "-700"])
def test_fit_on_two_blocks_of_tiny_complex_values(tmp_path, center):
    # 2000 samples make two row blocks, and exp about -700 is near 1e-304:
    # the fit converges at degree 6 with no overflow warning, which the
    # suite turns into an error
    out, rpt = tmp_path / "model.json", tmp_path / "report.json"
    rc = main(["fit", "--fn", "exp", "--domain", f"disk:{center},0,1",
               "--samples", "2000", "--max-degree", "40", "--tol", "1e-10",
               "--out", str(out), "--report", str(rpt)])
    assert rc == 0
    summary = json.loads(rpt.read_text())
    assert summary["degree"] == 6 and summary["converged"] is True


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


def test_study_runs_one_polynomial_fit_through_a_breakdown(tmp_path,
                                                            monkeypatch):
    # the nested basis serves every degree: the fit asked for degree 298
    # breaks down at column 298 and is the degree-297 fit, and no second
    # fit is run
    fit, calls = polyfit.va_fit, []

    def counted(samples, degree):
        calls.append(degree)
        return fit(samples, degree)

    monkeypatch.setattr(polyfit, "va_fit", counted)
    rc = main(["study", "--fn", "abs", "--domain", "interval:-1,1",
               "--samples", "300", "--degrees", "2:2:400",
               "--out", str(tmp_path / "conv.csv")])
    assert rc == 0
    assert calls == [298]


def test_study_flags_overflowing_errors(tmp_path):
    # the polynomial basis regenerated on the test grid overflows at high
    # degree (inf from 176 on); an infinite error must not count as ok.
    # Rational rows with a real pole in [-1, 1] read inf too, flagged
    # pole-in-domain
    out, rpt = tmp_path / "conv.csv", tmp_path / "report.json"
    # the overflow is flagged, not warned about
    rc = main(["study", "--fn", "abs", "--domain", "interval:-1,1",
               "--samples", "300", "--degrees", "2:2:290", "--out",
               str(out), "--report", str(rpt)])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert any(r[3] == "overflow" for r in rows)
    for *_, error, flag in rows:
        if flag == "overflow":
            assert not np.isfinite(float(error))
        if not np.isfinite(float(error)):
            assert flag not in ("ok", "floor")
    # only the degrees that reach an overflowing basis column read inf;
    # the ones below stay finite, up to 3e299 at degree 174
    poly = [(int(r[0]), r[3]) for r in rows if r[1] == "polynomial"]
    assert [d for d, flag in poly if flag == "overflow"] == [
        d for d, _ in poly if d >= 176]
    json.loads(rpt.read_text(), parse_constant=_reject)


def test_study_on_a_tiny_disk_fits_every_polynomial_degree(tmp_path):
    # radius 2^-50: an absolute breakdown threshold of 1e-14 stopped the
    # polynomial fit at basis column 1, so only degree 0 had a row
    out = tmp_path / "conv.csv"
    rc = main(["study", "--fn", "exp", "--domain", "disk:0,0,8.881784197001252e-16",
               "--degrees", "0:4:40", "--out", str(out)])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert [int(r[0]) for r in rows if r[1] == "polynomial"] == list(range(0, 41, 4))


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


def test_potential_steps_are_exact_far_outside_a_tiny_window(tmp_path,
                                                            monkeypatch):
    # the unit circle lies ~3e202 px outside this window: %.2f prints
    # 200-digit coordinates there, and int64 steps would overflow
    model_path = tmp_path / "model.json"
    main(["fit", "--fn", "exp", "--domain", "disk:0,0,1", "--out",
          str(model_path)])
    fields = []
    render = svgplot.render_potential_svg
    monkeypatch.setattr(svgplot, "render_potential_svg", lambda field, domain:
                        fields.append(field) or render(field, domain))
    rc = main(["potential", "--model", str(model_path),
               "--window=-1e-200,1e-200,-1e-200,1e-200",
               "--domain", "disk:0,0,1", "--res", "32",
               "--out", str(tmp_path / "plot.svg")])
    assert rc == 0
    svg = (tmp_path / "plot.svg").read_text()
    ElementTree.fromstring(svg)
    (field,) = fields
    px, py = plot_map(field)
    z = geometry.boundary_samples(Disk(0j, 1.0), 400)
    (boundary,) = re.findall(r'<path d="([^"]*)" fill="none" stroke="black" '
                             r'stroke-width="1.5"/>', svg)
    expected = list(zip(map(printed, px(z.real).tolist()),
                        map(printed, py(z.imag).tolist())))
    assert polylines(boundary) == [(expected, True)]
    assert max(map(len, re.findall(r"[0-9]+", boundary))) > 200


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("domain", [["--domain", "disk:0,0,1"], []],
                         ids=["boundary", "markers"])
def test_plot_coordinates_that_overflow_are_a_failure(domain, tmp_path, capsys):
    # the unit circle and the model's poles and supports lie up to ~3e309
    # px outside this window, past the largest float
    model_path = tmp_path / "model.json"
    main(["fit", "--fn", "exp", "--domain", "disk:0,0,1", "--out",
          str(model_path)])
    rc = main(["potential", "--model", str(model_path),
               "--window=-1e-307,1e-307,-1e-307,1e-307", *domain,
               "--res", "32", "--out", str(tmp_path / "plot.svg")])
    assert rc == 1
    assert "a plot coordinate overflows" in capsys.readouterr().err
    assert not (tmp_path / "plot.svg").exists()


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
    # every id is checked before any figure runs
    assert main(["figure", "1", "7", "--out", str(tmp_path)]) == 2
    assert os.listdir(tmp_path) == []


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
    {"type": "barycentric", "supports": [[True, False], [2, 0]],
     "values": [[1, 0], [False, 0]], "weights": [[1, 0], [1, 0]]},
    {**_GOOD_MODEL, "supports": [0.0, "1+2j"]},
    {**_GOOD_MODEL, "supports": [[0.0, 0.0], 1.0]},
    {"type": "arnoldi", "degree": 2, "hessenberg": [[1.0, 0.0]] * 6,
     "coeffs": [[1.0, 0.0]] * 2},
    {"type": "arnoldi", "hessenberg": [], "coeffs": [[1.0, 0.0]]},
    [1, 2, 3],
], ids=["missing-key", "length-mismatch", "nan-weight", "inf-support",
        "bad-pair", "bool-entry", "string-entry", "mixed-forms",
        "arnoldi-lengths", "arnoldi-missing-degree", "not-object"])
def test_bad_model_file_is_usage_error(tmp_path, bad):
    with pytest.raises(UsageError):
        model_from_json(bad)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(bad))     # writes NaN/Infinity tokens as given
    rc = main(["potential", "--model", str(path), "--res", "16",
               "--out", str(tmp_path / "plot.svg")])
    assert rc == 2
    assert not (tmp_path / "plot.svg").exists()


@pytest.mark.parametrize("content", [
    json.dumps({**_GOOD_MODEL, "supports": [[0.0, 0.0], [10 ** 400, 0.0]]}).encode(),
    json.dumps(_GOOD_MODEL).encode("utf-16"),
    b"[" * 100000,
], ids=["int-too-large-for-a-float", "not-utf-8", "nested-too-deep"])
def test_unparsable_model_file_is_usage_error(tmp_path, capsys, content):
    # a usage error (exit 2, an error line), not a traceback or a failure
    path = tmp_path / "model.json"
    path.write_bytes(content)
    rc = main(["potential", "--model", str(path), "--res", "64",
               "--out", str(tmp_path / "plot.svg")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "plot.svg").exists()


def test_out_of_memory_is_a_failure(tmp_path, capsys, monkeypatch):
    # a --res too large for memory: a failure message and exit 1, no traceback
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 149. GiB")

    monkeypatch.setattr(potential, "potential_grid", out_of_memory)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_GOOD_MODEL))
    rc = main(["potential", "--model", str(path), "--res", "100000",
               "--out", str(tmp_path / "plot.svg")])
    assert rc == 1
    assert "failure: Unable to allocate 149. GiB" in capsys.readouterr().err
    assert not (tmp_path / "plot.svg").exists()


def test_window_without_a_plot_height_is_usage_error(tmp_path, capsys):
    # a plot height of inf px overflowed in the renderer, and one that
    # rounds to 0 px wrote nan coordinates
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_GOOD_MODEL))
    for window, height in (("0,1e-320,0,1", "inf px"),
                           ("0,1,0,1e-320", "6.39993e-318 px")):
        rc = main(["potential", "--model", str(path), f"--window={window}",
                   "--res", "32", "--out", str(tmp_path / "plot.svg")])
        assert rc == 2, window
        assert f"its plot height is {height}" in capsys.readouterr().err
        assert not (tmp_path / "plot.svg").exists()


def test_grid_too_fine_for_a_wide_window_is_usage_error(tmp_path, capsys):
    # the cell centers form (i + 0.5) * width for i < res: at --res 240 that
    # overflowed and wrote inf coordinates; at --res 32 it is finite
    path = tmp_path / "model.json"
    assert main(["fit", "--fn", "exp", "--domain", "disk:0,0,1", "--samples",
                 "64", "--out", str(path)]) == 0
    svg = tmp_path / "plot.svg"
    args = ["potential", "--model", str(path),
            "--window=-5e305,5e305,-5e304,5e304", "--out", str(svg)]
    assert main([*args, "--res", "240"]) == 2
    assert "--res 240 is too fine for the window" in capsys.readouterr().err
    assert not svg.exists()
    assert main([*args, "--res", "32"]) == 0
    assert "inf" not in svg.read_text()


def test_failed_write_leaves_no_temporary_file(tmp_path, capsys):
    # --out names a directory: the rename fails, exit 1, and the temporary
    # file beside it is removed
    out = tmp_path / "outdir"
    out.mkdir()
    rc = main(["fit", "--fn", "exp", "--domain", "disk:0,0,1",
               "--out", str(out)])
    assert rc == 1
    assert "failure:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["outdir"]
    assert not any(out.iterdir())


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


@pytest.mark.parametrize("case", ["fig5", "abs-study"])
def test_sweep_measures_each_point_set_once(case, monkeypatch):
    # figure 5's sweep and the 500-sample abs study flag many snapshots
    # pole-in-domain, exactly those with a pole in the closed domain, and
    # their error is inf.  The sweep sets up the prefix quotient once, over
    # the unflagged snapshots, and walks the test grid in blocks; each other
    # rational entry is, bit for bit, the sup of one prefix_evaluator call
    # on the whole grid
    if case == "fig5":
        preset = cli.PRESETS[5]
        fn, domain, degrees = preset.fn, preset.domain, list(preset.degrees)
        samples = geometry.sample_function(fn, domain, cli.N_BOUNDARY)
        trajectory = aaa.aaa_fit(
            samples, tol=min(preset.tol, analysis.TOL_FLOOR),
            max_degree=max(preset.max_degree, max(degrees)))

        def sweep():
            return analysis.degree_sweep(degrees, analysis.TOL_FLOOR, samples,
                                         trajectory,
                                         analysis.grid_values(fn, domain))
    else:
        fn, domain, degrees = (FunctionSpec.ABS_VAL, Interval(-1.0, 1.0),
                               list(range(4, 101, 2)))
        samples = geometry.sample_function(fn, domain, 500)
        trajectory = aaa.aaa_fit(samples, tol=analysis.TOL_FLOOR,
                                 max_degree=degrees[-1])

        def sweep():
            return analysis.convergence_study(fn, domain, degrees)
    tests = analysis.grid_values(fn, domain)
    swept = [m for m in trajectory.snapshots if m.degree in degrees]
    flagged = {m.degree: bool(np.any(geometry.contains(domain, m.pole_list)))
               for m in swept}
    assert sum(flagged.values()) > 1
    assert not all(flagged.values())
    kept = [m for m in swept if not flagged[m.degree]]
    ref = {m.degree: analysis._sup(tests.values - row) for m, row in
           zip(kept, aaa.prefix_evaluator(kept, tests.grid)(slice(None)))}

    calls, blocks = [], []
    prefix_evaluator = aaa.prefix_evaluator

    def counting(models, z):
        calls.append([m.degree for m in models])
        evaluate_block = prefix_evaluator(models, z)

        def block(rows):
            blocks.append(np.arange(z.size)[rows])
            return evaluate_block(rows)
        return block

    monkeypatch.setattr(aaa, "prefix_evaluator", counting)
    record = sweep()
    assert calls == [list(ref)]
    # each grid point is evaluated once, in more than one block
    assert len(blocks) > 1
    assert np.array_equal(np.concatenate(blocks), np.arange(tests.grid.size))
    got = {e.degree: e for e in record.for_method(analysis.Method.RATIONAL)}
    assert got.keys() == flagged.keys()
    for n, entry in got.items():
        assert (entry.flag == "pole-in-domain") == flagged[n]
        expected = np.inf if flagged[n] else ref[n]
        assert entry.error.hex() == expected.hex()


@pytest.mark.parametrize("figure_id,max_degree", [
    (1, None), (5, None), (5, 8), (6, None), (6, 20),
], ids=["fig1", "fig5", "fig5-max8", "fig6", "fig6-max20"])
def test_figure_runs_one_greedy_fit(figure_id, max_degree, tmp_path,
                                    monkeypatch):
    # 1: preset max_degree above the study's degree cap; 5: cleanup
    # removes supports; 6: preset max_degree below the study's degree cap,
    # and with max_degree 20 the preset fit stops there, short of the degree
    # the study's fit converges at.  With max_degree 8, figure 5's returned
    # model has a real pole in the domain, as have swept snapshots
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
    elif figure_id == 5 and max_degree is None:
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
    assert summary["max_degree"] == 49 and summary["converged"]
    assert load_model(str(out)).degree <= 49


def test_fit_max_degree_above_samples_is_usage_error(tmp_path, capsys):
    out = tmp_path / "model.json"
    rc = main(["fit", "--fn", "exp", "--domain", "disk:0,0,1", "--samples",
               "100", "--max-degree", "99", "--out", str(out)])
    assert rc == 2
    assert "--max-degree 99" in capsys.readouterr().err
    assert not out.exists()
    # the cap is samples // 2 - 1, where the fit stops
    rc = main(["fit", "--fn", "exp", "--domain", "disk:0,0,1", "--samples",
               "100", "--max-degree", "50", "--out", str(out)])
    assert rc == 2
    assert "above samples // 2 - 1 = 49" in capsys.readouterr().err
    assert not out.exists()
    rc = main(["fit", "--fn", "exp", "--domain", "disk:0,0,1", "--samples",
               "100", "--max-degree", "49", "--out", str(out)])
    assert rc == 0 and out.exists()
    out.unlink()
    rc = main(["fit", "--fn", "exp", "--domain", "disk:0,0,1",
               "--max-degree=-1", "--out", str(out)])
    assert rc == 2
    assert "--max-degree must be nonnegative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_fit_stops_before_the_loewner_matrix_is_wide(tmp_path):
    # at degree k on M samples the matrix is M - k - 1 by k + 1; with 10
    # samples the default max_degree is 4, the last step whose matrix is
    # not wide (degree 5 would be 4 by 6), and the report says so
    out, rpt = tmp_path / "model.json", tmp_path / "report.json"
    rc = main(["fit", "--fn", "exp", "--domain", "disk:0,0,1", "--samples",
               "10", "--out", str(out), "--report", str(rpt)])
    assert rc == 0
    summary = json.loads(rpt.read_text())
    assert summary["max_degree"] == 4 and summary["degree"] == 4
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


def test_figure_bytes_do_not_depend_on_unset_thread_variables(run_python,
                                                               tmp_path):
    # unset, the command line runs BLAS on one thread: two BLAS threads sum
    # in another order and change all four files of figure 3
    names = ("convergence.csv", "model.json", "potential.svg", "report.json")
    for out, env in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        proc = run_python("-m", "ratapprox", "figure", "3", "--out",
                          str(tmp_path / out), **env)
        assert proc.returncode == 0, proc.stderr
    for name in names:
        assert ((tmp_path / "unset" / name).read_bytes()
                == (tmp_path / "one" / name).read_bytes()), name


def test_several_figure_ids_write_what_one_id_runs_write(run_python,
                                                         tmp_path):
    names = ("convergence.csv", "model.json", "potential.svg", "report.json")
    ids = [str(n) for n in range(1, 7)]
    proc = run_python("-m", "ratapprox", "figure", *ids, "--out",
                      str(tmp_path / "all"))
    assert proc.returncode == 0, proc.stderr
    assert sorted(os.listdir(tmp_path / "all")) == [f"fig{n}" for n in ids]
    for n in ids:
        proc = run_python("-m", "ratapprox", "figure", n, "--out",
                          str(tmp_path / n))
        assert proc.returncode == 0, proc.stderr
        assert sorted(os.listdir(tmp_path / n)) == sorted(names)
        for name in names:
            assert ((tmp_path / "all" / f"fig{n}" / name).read_bytes()
                    == (tmp_path / n / name).read_bytes()), (n, name)


def test_thread_count_set_by_the_user_is_kept(run_python):
    proc = run_python("-c", "import os, ratapprox.cli; print([os.environ.get(v) "
                      "for v in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', "
                      "'MKL_NUM_THREADS')])", OMP_NUM_THREADS="2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[None, '2', None]"


def _main_and_scipy_modules(run_python, argv):
    """cli.main(argv) in a fresh interpreter: its exit code and the scipy
    modules loaded, as printed."""
    proc = run_python("-c", "import sys; from ratapprox import cli; "
                      f"rc = cli.main({argv!r}); "
                      "print(rc, sorted(m for m in sys.modules if m == 'scipy' "
                      "or m.startswith('scipy.')))")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["figure", "9"], 2)])
def test_help_and_usage_errors_load_no_scipy(run_python, argv, code):
    assert _main_and_scipy_modules(run_python, argv) == f"{code} []"


@pytest.mark.parametrize("commands, degree", [
    ([["figure", "1", "--out", "{tmp}"]], None),
    # the benchmark's warm-up fit
    ([["fit", "--fn", "exp", "--domain", "disk:0,0,1", "--samples", "64",
       "--max-degree", "12", "--tol", "1e-10", "--out", "{tmp}/model.json"]],
     None),
    # 2000 samples make two row blocks of linalg.RowBlockedR, then the
    # potential of that model
    ([["fit", "--fn", "abs", "--domain", "interval:-1,1", "--samples", "2000",
       "--max-degree", "20", "--out", "{tmp}/model.json"],
      ["potential", "--model", "{tmp}/model.json", "--res", "32", "--out",
       "{tmp}/potential.svg"]], 20),
    ([["study", "--fn", "abs", "--domain", "interval:-1,1", "--degrees",
       "4:4:20", "--out", "{tmp}/conv.csv"]], None),
], ids=["figure", "warm-up-fit", "two-block-fit-and-potential", "study"])
def test_no_command_loads_scipy(run_python, tmp_path, commands, degree):
    # poles come from numpy, and so do the QR updates of a fit's row blocks
    for argv in commands:
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        assert _main_and_scipy_modules(run_python, argv) == "0 []", argv
    if degree is not None:
        assert load_model(str(tmp_path / "model.json")).degree == degree


@pytest.mark.parametrize("bound", ["1e153", "1e155", "1e160", "1e300", "1e306",
                                   "1e307", "8e307"])
def test_study_at_a_large_scale_warns_nothing(run_python, tmp_path, bound):
    # the pole solve's Newton step overflowed here with a RuntimeWarning,
    # which -W error turned into a traceback; a non-finite step is set to 0.
    # Arnoldi column norms overflowed from 1e153 on, which gave inf
    # polynomial errors, at 1e307 the mean of f overflowed in aaa_fit, and
    # at 8e307 its residual did, before the greedy ran on scaled values.
    # A rational row reads inf exactly when a real pole lies in the
    # interval, its true sup: at 8e307 degrees 4, 6 and 10-20, whatever
    # evaluate's terms w / (z - z_k), subnormal for the farthest supports,
    # give on the test grid
    out = tmp_path / "conv.csv"
    proc = run_python("-W", "error", "-m", "ratapprox", "study", "--fn", "abs",
                      "--domain", f"interval:-{bound},{bound}", "--degrees",
                      "4:2:20", "--out", str(out))
    assert proc.returncode == 0 and proc.stderr == ""
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert ([(int(n), bool(np.isfinite(float(e))), flag)
             for n, method, e, flag in rows if method == "polynomial"]
            == [(n, True, "ok") for n in range(4, 21, 2)])
    rational = [(int(n), float(e), flag)
                for n, method, e, flag in rows if method == "rational"]
    assert [n for n, _, _ in rational] == list(range(4, 21, 2))
    for n, error, flag in rational:
        assert (error == np.inf) == (flag == "pole-in-domain"), n
    if bound == "8e307":
        assert [n for n, error, _ in rational if error < np.inf] == [8]


@pytest.mark.parametrize("bound", ["1e-200", "1e-30", "1e30", "1e200"])
def test_fit_at_a_far_scale_keeps_its_poles(run_python, tmp_path, bound):
    # at 1e-30 cleanup's absolute near-support cut set every residue to 0
    # and removed every support (degree 0); from 1e30 up the pole solve's
    # absolute |x| < 1e13 test found no pole, and cleanup judged none.
    # At 1e-200 and 1e200 the residues' squared pole-to-support differences
    # under- or overflow unless they are scaled first; then every residue
    # is NaN, and cleanup removes nearly every support.  At 1e200 max|f| *
    # diam(samples) is about 4e400: cleanup's threshold and every residue
    # were inf, and inf >= inf kept every pole, until both were compared in
    # units of pow2_scale(values) * pow2_scale(points)
    out, rpt = tmp_path / "model.json", tmp_path / "report.json"
    proc = run_python("-W", "error", "-m", "ratapprox", "fit", "--fn", "abs",
                      "--domain", f"interval:-{bound},{bound}", "--samples",
                      "500", "--max-degree", "60", "--tol", "1e-8", "--out",
                      str(out), "--report", str(rpt))
    assert proc.returncode == 0 and proc.stderr == ""
    summary = json.loads(rpt.read_text())
    model = load_model(str(out))
    assert model.degree == summary["degree"] >= 1
    assert model.pole_list.size == model.degree
    assert summary["converged"]
    assert summary["sample_error"] <= 1e-8 * float(bound)
    assert summary["cleanup_removed"] == (bound in ("1e30", "1e200"))


def test_study_flags_a_pole_in_a_large_domain(tmp_path):
    # the pole-in-domain test is relative to the domain's size; with an
    # absolute 1e-9 the study on +-1e150 flagged degree 4 ok, though its
    # error is 386 times max|f|, while on [-1, 1] it is flagged.  The
    # samples there are no scaled copy of [-1, 1]'s (the cluster radii are
    # absolute), so only degree 4 is checked
    out = tmp_path / "conv.csv"
    rc = main(["study", "--fn", "abs", "--domain", "interval:-1e150,1e150",
               "--degrees", "4:4:20", "--out", str(out)])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert [flag for n, method, _, flag in rows
            if method == "rational" and n == "4"] == ["pole-in-domain"]
