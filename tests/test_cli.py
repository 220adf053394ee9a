import json
import os
import subprocess
import sys

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


def test_study_degrees_above_samples_are_capped(tmp_path):
    # the greedy fit stops at samples - 2 = 98; higher rational degrees are
    # left out, as polynomial degrees above samples - 1 are
    out = tmp_path / "conv.csv"
    rc = main(["study", "--fn", "exp", "--domain", "disk:0,0,1",
               "--degrees", "2:2:150", "--samples", "100", "--out", str(out)])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    rational = [int(r[0]) for r in rows if r[1] == "rational"]
    polynomial = [int(r[0]) for r in rows if r[1] == "polynomial"]
    assert rational and max(rational) <= 98
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


def test_bad_number_in_domain_is_usage_error(tmp_path, capsys):
    rc = main(["study", "--fn", "exp", "--domain", "disk:a",
               "--degrees", "2:2:10", "--out", str(tmp_path / "c.csv")])
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
    rc = main(["potential", "--model", str(model_path), "--window", "a,1,2,3",
               "--out", str(tmp_path / "plot.svg")])
    assert rc == 2
    assert "bad --window" in capsys.readouterr().err


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


def test_json_non_finite_floats_are_null():
    report = {"sup_error": float("inf"), "ok": 1.5,
              "nested": {"errors": [np.nan, 2.0, -np.inf], "rate": np.float64("nan")}}
    text = cli._json_dumps(report)

    def reject(name):
        raise ValueError(f"non-standard constant {name}")

    data = json.loads(text, parse_constant=reject)
    assert data == {"sup_error": None, "ok": 1.5,
                    "nested": {"errors": [None, 2.0, None], "rate": None}}
    # finite floats keep their 17-significant-digit form
    assert cli._json_dumps(0.1) == "0.10000000000000001"


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


def test_module_entry_point_runs():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "ratapprox", "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "usage: ratapprox" in proc.stdout
