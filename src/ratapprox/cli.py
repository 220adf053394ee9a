"""Command-line front end.

Subcommands:

    figure N --out DIR      reproduce one of the six built-in experiments
    fit ...                 ad-hoc rational fit, writes model.json
    study ...               ad-hoc degree sweep, writes convergence CSV
    potential ...           render a potential contour plot from a model

Emitted CSV/JSON/SVG files are byte-stable across runs: floats are
serialized with 17 significant digits in a fixed ordering (non-finite
floats as null in JSON), and files are written atomically (write to a
temp name, then rename).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import aaa as aaa_mod
from . import analysis, geometry, polyfit, potential, svgplot
from .aaa import BarycentricRational
from .analysis import Method
from .geometry import Disk, FunctionSpec, Horseshoe, Interval
from .polyfit import ArnoldiPolynomial


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# serialization

def _fmt_float(x):
    return format(float(x), ".17g")


def _json_dumps(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {_json_dumps(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) or
                   (isinstance(v, (list, tuple)) and len(v) <= 2 and
                    all(isinstance(u, (int, float)) for u in v))
                   for v in obj)
        if flat:
            return "[" + ", ".join(_json_dumps(v) for v in obj) + "]"
        items = ",\n".join(f"{pad}  {_json_dumps(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        # strict JSON has no inf or nan
        return _fmt_float(obj) if np.isfinite(obj) else "null"
    if isinstance(obj, str):
        import json
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _complex_pairs(arr):
    return [[float(v.real), float(v.imag)] for v in np.asarray(arr).ravel()]


def model_to_json(model):
    if isinstance(model, BarycentricRational):
        return {
            "type": "barycentric",
            "supports": _complex_pairs(model.supports),
            "values": _complex_pairs(model.values),
            "weights": _complex_pairs(model.weights),
        }
    if isinstance(model, ArnoldiPolynomial):
        return {
            "type": "arnoldi",
            "degree": model.degree,
            "hessenberg": _complex_pairs(model.hessenberg),
            "coeffs": _complex_pairs(model.coeffs),
            "normalization_points": model.normalization_points,
        }
    raise TypeError(f"cannot serialize model of type {type(model)!r}")


def model_from_json(data):
    """Rebuild a model from model_to_json output.

    Raises UsageError for a missing key, an entry that is not a finite
    [re, im] pair, or arrays whose lengths do not fit together.
    """
    if not isinstance(data, dict):
        raise UsageError("model file must hold a JSON object")

    def field(key):
        if key not in data:
            raise UsageError(f"model file lacks the key {key!r}")
        return data[key]

    def arr(key):
        try:
            a = np.array([complex(re, im) for re, im in field(key)],
                         dtype=complex)
        except (TypeError, ValueError):
            raise UsageError(f"model {key!r} must be a list of [re, im] pairs")
        if not np.all(np.isfinite(a)):
            raise UsageError(f"model {key!r} has non-finite entries")
        return a

    kind = data.get("type")
    if kind == "barycentric":
        try:  # unequal lengths, repeated supports, all-zero weights
            return BarycentricRational(
                arr("supports"), arr("values"), arr("weights")
            )
        except ValueError as exc:
            raise UsageError(f"invalid barycentric model: {exc}")
    if kind == "arnoldi":
        try:
            n = int(field("degree"))
            m = int(data.get("normalization_points", 0))
        except (TypeError, ValueError):
            raise UsageError(
                "model 'degree' and 'normalization_points' must be integers"
            )
        H, c = arr("hessenberg"), arr("coeffs")
        if n < 0 or H.size != (n + 1) * n or c.size != n + 1:
            raise UsageError(
                f"a degree-{n} arnoldi model needs {(n + 1) * n} hessenberg "
                f"entries and {n + 1} coeffs, got {H.size} and {c.size}"
            )
        return ArnoldiPolynomial(
            hessenberg=H.reshape(n + 1, n), coeffs=c, degree=n,
            normalization_points=m,
        )
    raise UsageError(f"unknown model type {kind!r}")


def load_model(path):
    import json
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"model file {path!r} is not valid JSON: {exc}")
    return model_from_json(data)


def _atomic_write(path, text):
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_convergence_csv(path, record):
    lines = ["degree,method,error,flag"]
    for e in record.entries:
        lines.append(f"{e.degree},{e.method.value},{_fmt_float(e.error)},{e.flag}")
    _atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# argument parsing helpers

_FN_NAMES = {
    "exp": FunctionSpec.EXP,
    "tansq": FunctionSpec.TAN_SQ,
    "exptansq": FunctionSpec.EXP_TAN_SQ,
    "sqrt2branch": FunctionSpec.TWO_BRANCH_SQRT,
    "abs": FunctionSpec.ABS_VAL,
    "sqrtneg": FunctionSpec.SQRT_NEG,
}


def parse_function(name):
    try:
        return _FN_NAMES[name.lower()]
    except KeyError:
        raise UsageError(
            f"unknown function {name!r}; valid: {', '.join(sorted(_FN_NAMES))}"
        )


def parse_domain(spec):
    name, _, rest = spec.partition(":")
    try:
        args = [float(v) for v in rest.split(",")] if rest else []
        if name == "disk":
            cx, cy, r = args if args else (0.0, 0.0, 1.0)
            return Disk(complex(cx, cy), r)
        if name == "interval":
            a, b = args if args else (-1.0, 1.0)
            return Interval(a, b)
        if name == "horseshoe":
            if not args:
                return Horseshoe()
            r, big_r, alpha = args
            return Horseshoe(r, big_r, alpha)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad domain parameters in {spec!r}: {exc}")
    raise UsageError(
        f"unknown domain {name!r}; valid: disk:cx,cy,r interval:a,b "
        "horseshoe[:inner,outer,halfangle]"
    )


def parse_degrees(spec):
    try:
        if ":" in spec:
            parts = [int(v) for v in spec.split(":")]
            if len(parts) == 2:
                start, stop, step = parts[0], parts[1], 1
            elif len(parts) == 3:
                start, step, stop = parts
            else:
                raise ValueError("expected start:step:stop")
            degrees = list(range(start, stop + 1, step))
        else:
            degrees = [int(v) for v in spec.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad degree spec {spec!r}: {exc}")
    if not degrees:
        raise UsageError(f"empty degree spec {spec!r}")
    return degrees


def _domain_to_json(domain):
    if isinstance(domain, Disk):
        return {"kind": "disk", "center": [domain.center.real, domain.center.imag],
                "radius": domain.radius}
    if isinstance(domain, Interval):
        return {"kind": "interval", "a": domain.a, "b": domain.b}
    return {"kind": "horseshoe", "inner_radius": domain.inner_radius,
            "outer_radius": domain.outer_radius,
            "opening_half_angle": domain.opening_half_angle}


# ---------------------------------------------------------------------------
# figure presets

@dataclass(frozen=True)
class FigurePreset:
    id: int
    fn: FunctionSpec
    domain: object
    tol: float
    max_degree: int
    degrees: tuple


PRESETS = {
    1: FigurePreset(1, FunctionSpec.EXP, Disk(0j, 1.0), 1e-12, 150,
                    tuple(range(0, 21))),
    # dense low-degree grid so the rational sweep has enough points before
    # hitting the accuracy floor; coarser past degree 40 where only the
    # polynomial curve is still moving
    2: FigurePreset(2, FunctionSpec.TAN_SQ, Disk(0j, 1.0), 1e-12, 150,
                    tuple(range(2, 41, 2)) + tuple(range(44, 121, 4))),
    3: FigurePreset(3, FunctionSpec.EXP_TAN_SQ, Disk(0j, 1.0), 1e-12, 150,
                    tuple(range(0, 81, 4))),
    4: FigurePreset(4, FunctionSpec.TWO_BRANCH_SQRT, Disk(0j, 1.0), 1e-10, 150,
                    tuple(range(1, 61))),
    # even degrees only: |z| is even, odd degrees add nothing
    5: FigurePreset(5, FunctionSpec.ABS_VAL, Interval(-1.0, 1.0), 1e-8, 60,
                    tuple(range(4, 61, 2))),
    # tol one notch below the 1e-8 target so the re-measured sup error on the
    # independent grid still clears it
    6: FigurePreset(6, FunctionSpec.SQRT_NEG, Horseshoe(), 1e-9, 60,
                    tuple(range(0, 81, 4))),
}

N_BOUNDARY = 500
DEFAULT_MAX_DEGREE = 150


def _rate_class_json(record, method):
    try:
        rc = analysis.classify_rate(record, method)
    except ValueError as exc:
        return {"kind": None, "reason": str(exc)}
    out = {"kind": rc.kind}
    if rc.rate is not None:
        out["rate"] = rc.rate
    out["diagnostics"] = dict(rc.diagnostics)
    return out


def _pole_diagnostics(pole_list):
    p = np.asarray(pole_list, dtype=complex)
    out = {"count": int(p.size)}
    if p.size:
        out["min_modulus"] = float(np.min(np.abs(p)))
        out["max_modulus"] = float(np.max(np.abs(p)))
        im = np.abs(p.imag)
        re = np.abs(p.real)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(im > 0, re / np.where(im > 0, im, 1.0), np.inf)
        out["median_abs_re_over_im"] = float(np.median(ratio))
        im_pos = im[im > 0]
        out["im_span_orders"] = (
            float(np.log10(im_pos.max() / im_pos.min())) if im_pos.size else 0.0
        )
    return out


def run_figure(figure_id, out_dir):
    """Run one preset experiment; emits convergence.csv, model.json,
    potential.svg, and report.json into out_dir."""
    if figure_id not in PRESETS:
        raise UsageError(f"figure id must be 1..6, got {figure_id}")
    preset = PRESETS[figure_id]
    os.makedirs(out_dir, exist_ok=True)

    samples = geometry.sample_function(preset.fn, preset.domain, N_BOUNDARY)
    report = aaa_mod.aaa_fit(samples, tol=preset.tol, max_degree=preset.max_degree)
    model = report.model
    sup = analysis.estimate_sup_error(preset.fn, model, preset.domain)
    pole_list = aaa_mod.poles(model) if model.degree >= 1 else np.empty(0, complex)

    record = analysis.convergence_study(
        preset.fn, preset.domain, preset.degrees, tol_floor=1e-13,
        n_samples=N_BOUNDARY,
    )

    window = potential.default_window(samples.points, pole_list)
    nx = 220
    ny = max(32, int(round(nx * (window[3] - window[2]) / (window[1] - window[0]))))
    field = potential.potential_grid(model.supports, pole_list, window, (nx, ny))

    report_json = {
        "figure": preset.id,
        "fn": preset.fn.value,
        "domain": _domain_to_json(preset.domain),
        "tol": preset.tol,
        "max_degree": preset.max_degree,
        "boundary_samples": N_BOUNDARY,
        "degrees": list(preset.degrees),
        "rational": {
            "final_degree": model.degree,
            "converged": report.converged,
            "cleanup_removed": report.cleanup_removed,
            "sample_error": report.final_error,
            "sup_error": sup.value,
            "pole_in_domain": sup.pole_in_domain,
            "rate_class": _rate_class_json(record, Method.RATIONAL),
        },
        "polynomial": {
            "rate_class": _rate_class_json(record, Method.POLYNOMIAL),
        },
        "poles": _complex_pairs(pole_list),
        "pole_diagnostics": _pole_diagnostics(pole_list),
        "potential_gap": potential.potential_gap(field),
    }

    paths = {
        "convergence.csv": os.path.join(out_dir, "convergence.csv"),
        "model.json": os.path.join(out_dir, "model.json"),
        "potential.svg": os.path.join(out_dir, "potential.svg"),
        "report.json": os.path.join(out_dir, "report.json"),
    }
    write_convergence_csv(paths["convergence.csv"], record)
    _atomic_write(paths["model.json"], _json_dumps(model_to_json(model)) + "\n")
    _atomic_write(paths["potential.svg"],
                  svgplot.render_potential_svg(field, preset.domain))
    _atomic_write(paths["report.json"], _json_dumps(report_json) + "\n")
    return set(paths.values())


# ---------------------------------------------------------------------------
# subcommands

def cmd_figure(args):
    run_figure(args.id, args.out)
    return 0


def cmd_fit(args):
    fn = parse_function(args.fn)
    domain = parse_domain(args.domain)
    # the greedy fit keeps at least one sample off the supports
    max_degree = args.max_degree
    if max_degree is None:
        max_degree = min(DEFAULT_MAX_DEGREE, args.samples - 2)
    elif max_degree > args.samples - 2:
        raise UsageError(
            f"--max-degree {max_degree} needs at least {max_degree + 2} "
            f"samples, got --samples {args.samples}"
        )
    samples = geometry.sample_function(fn, domain, args.samples)
    report = aaa_mod.aaa_fit(samples, tol=args.tol, max_degree=max_degree)
    _atomic_write(args.out, _json_dumps(model_to_json(report.model)) + "\n")
    if args.report:
        summary = {
            "fn": fn.value,
            "domain": _domain_to_json(domain),
            "tol": args.tol,
            "max_degree": max_degree,
            "samples": args.samples,
            "degree": report.model.degree,
            "converged": report.converged,
            "sample_error": report.final_error,
            "cleanup_removed": report.cleanup_removed,
        }
        _atomic_write(args.report, _json_dumps(summary) + "\n")
    return 0


def cmd_study(args):
    fn = parse_function(args.fn)
    domain = parse_domain(args.domain)
    degrees = parse_degrees(args.degrees)
    record = analysis.convergence_study(
        fn, domain, degrees, tol_floor=args.floor, n_samples=args.samples
    )
    write_convergence_csv(args.out, record)
    if args.report:
        summary = {
            "fn": fn.value,
            "domain": _domain_to_json(domain),
            "degrees": degrees,
            "floor": args.floor,
            "samples": args.samples,
            "rational_rate": _rate_class_json(record, Method.RATIONAL),
            "polynomial_rate": _rate_class_json(record, Method.POLYNOMIAL),
        }
        _atomic_write(args.report, _json_dumps(summary) + "\n")
    return 0


def cmd_potential(args):
    model = load_model(args.model)
    if not isinstance(model, BarycentricRational):
        raise UsageError("potential plots require a barycentric model")
    pole_list = (aaa_mod.poles(model) if model.degree >= 1
                 else np.empty(0, complex))
    if args.window:
        try:
            vals = [float(v) for v in args.window.split(",")]
        except ValueError as exc:
            raise UsageError(f"bad --window {args.window!r}: {exc}")
        if len(vals) != 4:
            raise UsageError("--window expects xmin,xmax,ymin,ymax")
        window = tuple(vals)
    else:
        window = potential.default_window(model.supports, pole_list)
    field = potential.potential_grid(
        model.supports, pole_list, window, (args.res, args.res)
    )
    domain = parse_domain(args.domain) if args.domain else None
    _atomic_write(args.out, svgplot.render_potential_svg(field, domain))
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="ratapprox",
        description="Rational and polynomial approximation toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("figure", help="run a built-in experiment (1-6)")
    f.add_argument("id", type=int)
    f.add_argument("--out", default=".", help="output directory")
    f.set_defaults(func=cmd_figure)

    fit = sub.add_parser("fit", help="greedy rational fit")
    fit.add_argument("--fn", required=True)
    fit.add_argument("--domain", required=True)
    fit.add_argument("--tol", type=float, default=1e-12)
    fit.add_argument("--max-degree", type=int, default=None,
                     help=f"at most samples - 2 (default: "
                          f"min({DEFAULT_MAX_DEGREE}, samples - 2))")
    fit.add_argument("--samples", type=int, default=N_BOUNDARY)
    fit.add_argument("--out", default="model.json")
    fit.add_argument("--report", default=None)
    fit.set_defaults(func=cmd_fit)

    st = sub.add_parser("study", help="degree sweep of both methods")
    st.add_argument("--fn", required=True)
    st.add_argument("--domain", required=True)
    st.add_argument("--degrees", required=True,
                    help="start:step:stop or comma list")
    st.add_argument("--floor", type=float, default=1e-13)
    st.add_argument("--samples", type=int, default=N_BOUNDARY)
    st.add_argument("--out", default="convergence.csv")
    st.add_argument("--report", default=None)
    st.set_defaults(func=cmd_study)

    pot = sub.add_parser("potential", help="render a potential contour plot")
    pot.add_argument("--model", required=True)
    pot.add_argument("--window", default=None)
    pot.add_argument("--res", type=int, default=240)
    pot.add_argument("--domain", default=None)
    pot.add_argument("--out", default="potential.svg")
    pot.set_defaults(func=cmd_potential)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
