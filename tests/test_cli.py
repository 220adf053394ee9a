import json
import os

import numpy as np
import pytest

from ratapprox import aaa, cli, polyfit
from ratapprox.cli import (
    UsageError,
    load_model,
    main,
    model_from_json,
    model_to_json,
    parse_degrees,
    parse_domain,
    parse_function,
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
    with pytest.raises(UsageError):
        parse_degrees("a,b")


def test_model_json_roundtrip_barycentric():
    pts = circle(200)
    rep = aaa.aaa_fit(SampleSet(pts, np.exp(pts)), tol=1e-12, max_degree=20)
    m = rep.model
    m2 = model_from_json(json.loads(cli._json_dumps(model_to_json(m))))
    # round trip through 17-significant-digit text is exact for doubles
    assert np.array_equal(m.supports, m2.supports)
    assert np.array_equal(m.values, m2.values)
    assert np.array_equal(m.weights, m2.weights)
    z = 0.3 + 0.4j
    assert aaa.evaluate(m, z) == aaa.evaluate(m2, z)


def test_model_json_roundtrip_arnoldi():
    pts = circle(100)
    m = polyfit.va_fit(SampleSet(pts, np.exp(pts)), 7)
    m2 = model_from_json(json.loads(cli._json_dumps(model_to_json(m))))
    assert np.array_equal(m.hessenberg, m2.hessenberg)
    assert np.array_equal(m.coeffs, m2.coeffs)
    z = np.array([0.3 + 0.4j])
    assert polyfit.va_eval(m, z) == polyfit.va_eval(m2, z)


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
