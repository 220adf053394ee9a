"""Command-line front end.

Subcommands:

    figure N... --out DIR   reproduce built-in experiments: one id writes
                            into DIR, several each into DIR/fig<N>/
    fit ...                 ad-hoc rational fit, writes model.json
    study ...               ad-hoc degree sweep, writes convergence CSV
    potential ...           render a potential contour plot from a model

model.json holds a barycentric model only: its supports, values and
weights, each a list of plain JSON numbers when the model is real
(float64, as a fit to real data is) and of [re, im] pairs when it is
complex.  The form sets the dtype: a model file reloads as float64 when
all three arrays are plain numbers and as complex128 otherwise, so a file
of pairs reloads as a complex model even where every imaginary part is 0.
An array that mixes the two forms is invalid.  Bad input exits with
code 2:
an unknown function, a bad domain, --window or --res, a degree list that
is not strictly increasing in 0..MAX_DEGREE, a --tol or --floor that is
not a positive finite number, a negative --max-degree or one above
samples // 2 - 1, too few --samples for the domain, or an invalid model
file (also one that is not UTF-8, nests deeper than json parses, or holds
a number too large for a float).
A failed computation exits with code 1, and so does one that runs out of
memory (say, a --res too large for the potential grid).

Importing this module sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 before numpy loads, unless the user has set one of
them, so emitted CSV/JSON/SVG files are byte-stable across runs: BLAS
sums in an order that depends on its thread count.  Files are written
atomically (write to a temp name, then rename; a failed write removes
the temp file).  CSV floats carry 17 significant digits.  Each JSON file
is one line from stdlib json: keys in a fixed order, floats in their
shortest form that reads back to the same double, non-finite floats as
null.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass

# one BLAS thread unless the user chose a count; must run before numpy loads
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(var in os.environ for var in _BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

import numpy as np

from . import aaa as aaa_mod
from . import analysis, geometry, potential, svgplot
from .aaa import BarycentricRational
from .analysis import Method
from .geometry import Disk, FunctionSpec, Horseshoe, Interval


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# serialization

def _finite(obj):
    """obj with every non-finite float as None: strict JSON has no inf or nan."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _complex_pairs(arr):
    return [[float(v.real), float(v.imag)] for v in np.asarray(arr).ravel()]


def _json_array(arr):
    """A real array as a list of plain numbers, a complex one as pairs."""
    return _complex_pairs(arr) if np.iscomplexobj(arr) else arr.tolist()


def model_to_json(model):
    return {
        "type": "barycentric",
        "supports": _json_array(model.supports),
        "values": _json_array(model.values),
        "weights": _json_array(model.weights),
    }


def _is_number(x):
    # json reads true and false as bool, a subclass of int
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def model_from_json(data):
    """Rebuild a barycentric model from model_to_json output.

    Each array is a list of plain numbers, read as float64, or a list of
    [re, im] pairs, read as complex128; the model is real when all three
    are.  Raises UsageError for another model type, a missing key, an
    array in neither form (booleans, strings, or pairs mixed with plain
    numbers), a non-finite entry or a number too large for a float, or
    arrays whose lengths do not fit together.
    """
    if not isinstance(data, dict):
        raise UsageError("model file must hold a JSON object")

    def arr(key):
        if key not in data:
            raise UsageError(f"model file lacks the key {key!r}")
        entries = data[key]
        if not (isinstance(entries, list) and (
                all(map(_is_number, entries))
                or all(isinstance(e, list) and len(e) == 2
                       and all(map(_is_number, e)) for e in entries))):
            raise UsageError(f"model {key!r} must be a list of numbers or a "
                             "list of [re, im] pairs")
        try:
            a = np.array(entries, dtype=float)
        except OverflowError:
            raise UsageError(f"model {key!r} has a number too large for a float")
        if not np.all(np.isfinite(a)):
            raise UsageError(f"model {key!r} has non-finite entries")
        return a.view(complex).ravel() if a.ndim == 2 else a

    kind = data.get("type")
    if kind != "barycentric":
        raise UsageError(f"unknown model type {kind!r}")
    try:  # unequal lengths, repeated supports, all-zero weights
        return BarycentricRational(arr("supports"), arr("values"), arr("weights"))
    except ValueError as exc:
        raise UsageError(f"invalid barycentric model: {exc}")


def load_model(path):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise UsageError(f"model file {path!r} is not valid JSON: {exc}")
    return model_from_json(data)


def _atomic_write(path, text):
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _write_json(path, obj):
    _atomic_write(path, json.dumps(_finite(obj), allow_nan=False) + "\n")


def write_convergence_csv(path, record):
    lines = ["degree,method,error,flag"]
    for e in record.entries:
        lines.append(f"{e.degree},{e.method.value},{float(e.error):.17g},{e.flag}")
    _atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# argument parsing helpers

def parse_function(name):
    try:
        return FunctionSpec(name.lower())
    except ValueError:
        valid = ", ".join(sorted(f.value for f in FunctionSpec))
        raise UsageError(f"unknown function {name!r}; valid: {valid}")


def parse_domain(spec):
    name, _, rest = spec.partition(":")
    try:
        args = [float(v) for v in rest.split(",")] if rest else []
        if not all(math.isfinite(v) for v in args):
            raise ValueError("parameters must be finite")
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


def parse_window(spec):
    """xmin,xmax,ymin,ymax: finite, with a positive finite width and height,
    and a plot height (at svgplot.PLOT_WIDTH) that is finite and at least
    1 px when rounded."""
    try:
        xmin, xmax, ymin, ymax = (float(v) for v in spec.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --window {spec!r}, want xmin,xmax,ymin,ymax: {exc}")
    if not (all(map(math.isfinite, (xmin, xmax, ymin, ymax)))
            and 0 < xmax - xmin < math.inf and 0 < ymax - ymin < math.inf):
        raise UsageError(f"bad --window {spec!r}: need finite numbers, xmin < "
                         "xmax, ymin < ymax, and a finite width and height")
    plot_h = svgplot.plot_height((xmin, xmax, ymin, ymax))
    if not (math.isfinite(plot_h) and round(plot_h) >= 1):
        raise UsageError(f"bad --window {spec!r}: at width {svgplot.PLOT_WIDTH} "
                         f"px its plot height is {plot_h:g} px, need a finite "
                         "height of at least 1 px")
    return xmin, xmax, ymin, ymax


# a degree-n fit needs more than n samples and an (n + 1)-column matrix over
# them, so a larger degree could not be fitted in memory
MAX_DEGREE = 100_000


def parse_degrees(spec):
    """Strictly increasing degrees from start:step:stop, start:stop or a
    comma list, each in 0..MAX_DEGREE."""
    try:
        if ":" in spec:
            parts = [int(v) for v in spec.split(":")]
            if len(parts) == 2:
                start, stop, step = parts[0], parts[1], 1
            elif len(parts) == 3:
                start, step, stop = parts
            else:
                raise ValueError("expected start:step:stop")
            degrees = range(start, stop + 1, step)
        else:
            degrees = [int(v) for v in spec.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad degree spec {spec!r}: {exc}")
    if not degrees:
        raise UsageError(f"empty degree spec {spec!r}")
    # a range is monotone: its ends bound it before it is listed
    ends = (degrees[0], degrees[-1]) if isinstance(degrees, range) else degrees
    if min(ends) < 0:
        raise UsageError(f"negative degree {min(ends)} in {spec!r}")
    if max(ends) > MAX_DEGREE:
        raise UsageError(f"degree {max(ends)} in {spec!r} is above {MAX_DEGREE}")
    degrees = list(degrees)
    if any(b <= a for a, b in zip(degrees, degrees[1:])):
        raise UsageError(f"degrees in {spec!r} must be strictly increasing")
    return degrees


def _check_positive(flag, value):
    if not 0 < value < math.inf:
        raise UsageError(f"{flag} must be a positive finite number, got {value}")


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
    fn: FunctionSpec
    domain: object
    tol: float
    max_degree: int
    degrees: tuple


PRESETS = {
    1: FigurePreset(FunctionSpec.EXP, Disk(0j, 1.0), 1e-12, 150,
                    tuple(range(0, 21))),
    # dense low-degree grid so the rational sweep has enough points before
    # hitting the accuracy floor; coarser past degree 40 where only the
    # polynomial curve is still moving
    2: FigurePreset(FunctionSpec.TAN_SQ, Disk(0j, 1.0), 1e-12, 150,
                    tuple(range(2, 41, 2)) + tuple(range(44, 121, 4))),
    3: FigurePreset(FunctionSpec.EXP_TAN_SQ, Disk(0j, 1.0), 1e-12, 150,
                    tuple(range(0, 81, 4))),
    4: FigurePreset(FunctionSpec.TWO_BRANCH_SQRT, Disk(0j, 1.0), 1e-10, 150,
                    tuple(range(1, 61))),
    # even degrees only: |z| is even, odd degrees add nothing
    5: FigurePreset(FunctionSpec.ABS_VAL, Interval(-1.0, 1.0), 1e-8, 60,
                    tuple(range(4, 61, 2))),
    # tol one notch below the 1e-8 target so the re-measured sup error on the
    # independent grid still clears it
    6: FigurePreset(FunctionSpec.SQRT_NEG, Horseshoe(), 1e-9, 60,
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


def run_figure(figure_id, out_dir):
    """Run one preset experiment; emits convergence.csv, model.json,
    potential.svg, and report.json into out_dir."""
    if figure_id not in PRESETS:
        raise UsageError(f"figure id must be 1..6, got {figure_id}")
    preset = PRESETS[figure_id]
    os.makedirs(out_dir, exist_ok=True)

    samples = geometry.sample_function(preset.fn, preset.domain, N_BOUNDARY)
    # one greedy run serves the preset fit and the study: it goes to the
    # tighter tol and the higher degree cap of the two
    trajectory = aaa_mod.aaa_fit(
        samples, tol=min(preset.tol, analysis.TOL_FLOOR),
        max_degree=max(preset.max_degree, max(preset.degrees)),
    )
    report = aaa_mod.cleanup(
        aaa_mod.truncate(trajectory, samples, preset.tol, preset.max_degree),
        samples,
    )
    model = report.model
    pole_list = model.pole_list
    tests = analysis.grid_values(preset.fn, preset.domain)
    sup = analysis.sup_errors_on([model], tests)[0]
    record = analysis.degree_sweep(preset.degrees, analysis.TOL_FLOOR,
                                   samples, trajectory, tests)

    window = potential.default_window(samples.points, pole_list)
    nx = 220
    ny = max(32, int(round(nx * (window[3] - window[2]) / (window[1] - window[0]))))
    field = potential.potential_grid(model.supports, pole_list, window, (nx, ny))

    report_json = {
        "figure": figure_id,
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
        "potential_gap": potential.potential_gap(field),
    }

    paths = {name: os.path.join(out_dir, name) for name in (
        "convergence.csv", "model.json", "potential.svg", "report.json")}
    write_convergence_csv(paths["convergence.csv"], record)
    _write_json(paths["model.json"], model_to_json(model))
    _atomic_write(paths["potential.svg"],
                  svgplot.render_potential_svg(field, preset.domain))
    _write_json(paths["report.json"], report_json)
    return set(paths.values())


# ---------------------------------------------------------------------------
# subcommands

def cmd_figure(args):
    for figure_id in args.id:
        if figure_id not in PRESETS:
            raise UsageError(f"figure id must be 1..6, got {figure_id}")
    for figure_id in args.id:
        run_figure(figure_id, args.out if len(args.id) == 1
                   else os.path.join(args.out, f"fig{figure_id}"))
    return 0


def cmd_fit(args):
    fn = parse_function(args.fn)
    domain = parse_domain(args.domain)
    _check_positive("--tol", args.tol)
    # the greedy fit stops at the last degree whose Loewner matrix is not
    # wide: samples - degree - 1 rows for degree + 1 columns
    cap = args.samples // 2 - 1
    max_degree = args.max_degree
    if max_degree is None:
        max_degree = min(DEFAULT_MAX_DEGREE, cap)
    elif max_degree < 0:
        raise UsageError(f"--max-degree must be nonnegative, got {max_degree}")
    elif max_degree > cap:
        raise UsageError(
            f"--max-degree {max_degree} is above samples // 2 - 1 = {cap} "
            f"for --samples {args.samples}"
        )
    samples = geometry.sample_function(fn, domain, args.samples)
    report = aaa_mod.cleanup(
        aaa_mod.aaa_fit(samples, tol=args.tol, max_degree=max_degree), samples
    )
    _write_json(args.out, model_to_json(report.model))
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
        _write_json(args.report, summary)
    return 0


def cmd_study(args):
    fn = parse_function(args.fn)
    domain = parse_domain(args.domain)
    degrees = parse_degrees(args.degrees)
    _check_positive("--floor", args.floor)
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
        _write_json(args.report, summary)
    return 0


def cmd_potential(args):
    model = load_model(args.model)
    if args.res < 32:
        raise UsageError(f"--res must be at least 32, got {args.res}")
    window = (parse_window(args.window) if args.window
              else potential.default_window(model.supports, model.pole_list))
    # the cell centers are xmin + (i + 0.5) * (xmax - xmin) / res, i < res
    xmin, xmax, ymin, ymax = map(float, window)
    if not all(math.isfinite((args.res - 0.5) * side)
               for side in (xmax - xmin, ymax - ymin)):
        raise UsageError(f"--res {args.res} is too fine for the window "
                         f"{window}: (res - 0.5) times its width or height "
                         "overflows")
    domain = parse_domain(args.domain) if args.domain else None
    field = potential.potential_grid(
        model.supports, model.pole_list, window, (args.res, args.res)
    )
    _atomic_write(args.out, svgplot.render_potential_svg(field, domain))
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="ratapprox",
        description="Rational and polynomial approximation toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("figure", help="run built-in experiments (1-6)")
    f.add_argument("id", type=int, nargs="+", metavar="N", help="1..6")
    f.add_argument("--out", default=".",
                   help="output directory: one id writes its four files "
                        "into it, several ids each into OUT/fig<id>/")
    f.set_defaults(func=cmd_figure)

    fit = sub.add_parser("fit", help="greedy rational fit")
    fit.add_argument("--fn", required=True)
    fit.add_argument("--domain", required=True)
    fit.add_argument("--tol", type=float, default=1e-12)
    fit.add_argument("--max-degree", type=int, default=None,
                     help=f"at most samples // 2 - 1 (default: "
                          f"min({DEFAULT_MAX_DEGREE}, samples // 2 - 1))")
    fit.add_argument("--samples", type=int, default=N_BOUNDARY)
    fit.add_argument("--out", default="model.json")
    fit.add_argument("--report", default=None)
    fit.set_defaults(func=cmd_fit)

    st = sub.add_parser("study", help="degree sweep of both methods")
    st.add_argument("--fn", required=True)
    st.add_argument("--domain", required=True)
    st.add_argument("--degrees", required=True,
                    help="start:step:stop or comma list; rational degrees "
                         "above samples // 2 - 1 get no row")
    st.add_argument("--floor", type=float, default=analysis.TOL_FLOOR)
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
    except (UsageError, geometry.SampleCountError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError, MemoryError,
            np.linalg.LinAlgError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
