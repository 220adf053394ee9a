"""Output checks for one operation's artifacts.

Two kinds of finding are kept apart:

- ``failures``: the operation or its files are broken.  A non-zero exit,
  a missing file, JSON that strict stdlib ``json`` rejects (bare ``inf`` or
  ``nan`` included), a model that ``cli.load_model`` cannot reload, a CSV
  or SVG that does not parse, or a reported error that the benchmark's own
  recomputation does not reproduce to rounding.
- ``claims``: the files are sound but a report states something false.
  Today that is ``converged: true`` while the sample error exceeds
  tol * max|f| (figure 5 at the parent commit of this benchmark).

Both count against ``pass_frac``/``fail_frac``; only ``failures`` make a run
incorrect.  ``digits`` is -log10(sup error / max|f|) on
``geometry.test_grid``: recomputed from ``model.json`` for figures and fits,
and taken from the best rational CSV entry for studies.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import xml.etree.ElementTree as ET

import numpy as np
from ratapprox import cli, geometry

GRID_SIZE = 4000            # the program's own sup-error grid size
EPS = np.finfo(float).eps
FLAGS = {"ok", "floor", "pole-in-domain"}


class CheckFailure(Exception):
    pass


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(path):
    """Parse a JSON file with the stdlib, refusing NaN and Infinity."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        raise CheckFailure(f"{os.path.basename(path)}: invalid JSON: {exc}")


def file_digests(out_dir, names):
    """{name: (sha256 hex, size)} of each artifact that exists."""
    out = {}
    for name in names:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
            out[name] = (hashlib.sha256(data).hexdigest(), len(data))
    return out


def bary_eval(model, z):
    """Barycentric quotient evaluated here, independently of aaa.evaluate."""
    D = z[:, None] - model.supports[None, :]
    with np.errstate(all="ignore"):
        C = model.weights[None, :] / D
        r = (C @ model.values) / C.sum(axis=1)
    rows, cols = np.nonzero(D == 0)
    r[rows] = model.values[cols]
    return r


def _sup(err):
    return float(np.max(np.where(np.isfinite(err), err, np.inf)))


def _agree(reported, recomputed, fscale):
    """Equal to rounding: relative 1e-6, or 64 ulps of max|f| absolute."""
    return abs(reported - recomputed) <= (
        1e-6 * max(abs(reported), abs(recomputed)) + 64 * EPS * fscale)


def _digits(sup, fscale):
    return float(-np.log10(max(sup / fscale, EPS)))


def _test_grid_error(fn, domain, model, interior):
    """(sup error, max|f|) of a model on the test grid, as the program
    measures it: with the interior grid added when a pole is in the domain."""
    grid = geometry.test_grid(domain, GRID_SIZE)
    fv = geometry.eval_function(fn, grid)
    sup = _sup(np.abs(fv - bary_eval(model, grid)))
    if interior:
        pts = geometry.interior_grid(domain)
        fi = geometry.eval_function(fn, pts)
        ok = np.isfinite(fi.real) & np.isfinite(fi.imag)
        if ok.any():
            sup = max(sup, _sup(np.abs(fi[ok] - bary_eval(model, pts[ok]))))
    return sup, float(np.max(np.abs(fv)))


def _check_model(path, fn, domain, samples, tol, reported, claims):
    """Reload model.json and verify the reported errors; returns digits."""
    strict_json(path)
    try:
        model = cli.load_model(path)
    except (cli.UsageError, KeyError, TypeError, ValueError) as exc:
        raise CheckFailure(f"model.json does not reload: {exc!r}")
    if reported["degree"] != model.degree:
        raise CheckFailure(
            f"reported degree {reported['degree']} != model degree {model.degree}")
    sample_set = geometry.sample_function(fn, domain, samples)
    fscale = float(np.max(np.abs(sample_set.values)))
    mask = ~np.isin(sample_set.points, model.supports)
    err = np.abs(sample_set.values[mask] - bary_eval(model, sample_set.points[mask]))
    sample_error = _sup(err) if mask.any() else 0.0
    if not _agree(reported["sample_error"], sample_error, fscale):
        raise CheckFailure(f"sample_error {reported['sample_error']!r} != "
                           f"recomputed {sample_error!r}")
    if reported["converged"] and reported["sample_error"] > tol * fscale:
        claims.append(f"converged: true but sample_error "
                      f"{reported['sample_error']:.3g} > tol*max|f| "
                      f"{tol * fscale:.3g}")
    sup, gscale = _test_grid_error(fn, domain, model,
                                   reported.get("pole_in_domain", False))
    if "sup_error" in reported and not _agree(reported["sup_error"], sup, gscale):
        raise CheckFailure(f"sup_error {reported['sup_error']!r} != "
                           f"recomputed {sup!r}")
    return _digits(sup, gscale)


def _read_csv(path, degrees):
    """Parse convergence.csv strictly; returns the rational errors."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["degree", "method", "error", "flag"]:
        raise CheckFailure("convergence.csv: bad header")
    rational, poly_degrees = [], set()
    for row in rows[1:]:
        try:
            degree, method, error, flag = int(row[0]), row[1], float(row[2]), row[3]
        except (ValueError, IndexError):
            raise CheckFailure(f"convergence.csv: bad row {row!r}")
        if (degree not in degrees or method not in ("rational", "polynomial")
                or flag not in FLAGS or not error >= 0):
            raise CheckFailure(f"convergence.csv: bad row {row!r}")
        if method == "rational":
            rational.append(error)
        else:
            poly_degrees.add(degree)
    if poly_degrees != set(degrees):
        raise CheckFailure("convergence.csv: polynomial degrees missing")
    return rational


def _check_figure(op, out_dir, claims):
    preset = cli.PRESETS[int(op.argv[1])]
    ET.parse(os.path.join(out_dir, "potential.svg"))
    _read_csv(os.path.join(out_dir, "convergence.csv"), preset.degrees)
    report = strict_json(os.path.join(out_dir, "report.json"))
    rational = dict(report["rational"], degree=report["rational"]["final_degree"])
    return _check_model(os.path.join(out_dir, "model.json"), preset.fn,
                        preset.domain, cli.N_BOUNDARY, preset.tol, rational, claims)


def _check_fit(op, out_dir, claims):
    report = strict_json(os.path.join(out_dir, "report.json"))
    return _check_model(os.path.join(out_dir, "model.json"),
                        cli.parse_function(op.fn), cli.parse_domain(op.domain),
                        op.samples, op.tol, report, claims)


def _check_study(op, out_dir, claims):
    degrees = cli.parse_degrees(op.argv[op.argv.index("--degrees") + 1])
    report = strict_json(os.path.join(out_dir, "report.json"))
    if report["degrees"] != degrees:
        raise CheckFailure("report.json: degrees differ from the request")
    rational = _read_csv(os.path.join(out_dir, "convergence.csv"), degrees)
    if not rational:
        raise CheckFailure("convergence.csv: no rational entries")
    fn, domain = cli.parse_function(op.fn), cli.parse_domain(op.domain)
    fv = geometry.eval_function(fn, geometry.test_grid(domain, GRID_SIZE))
    return _digits(min(rational), float(np.max(np.abs(fv))))


_CHECKERS = {"figure": _check_figure, "fit": _check_fit, "study": _check_study}


def check_op(op, out_dir):
    """(failures, claims, digits) for one finished operation."""
    failures, claims, digits = [], [], None
    missing = [n for n in op.artifacts
               if not os.path.exists(os.path.join(out_dir, n))]
    if missing:
        return [f"missing {', '.join(missing)}"], claims, digits
    try:
        digits = _CHECKERS[op.kind](op, out_dir, claims)
    except CheckFailure as exc:
        failures.append(str(exc))
    except (KeyError, TypeError, ET.ParseError) as exc:
        failures.append(f"malformed output: {exc!r}")
    return failures, claims, digits
