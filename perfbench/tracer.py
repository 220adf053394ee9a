"""Span tracing of ratapprox from inside the benchmark process.

``Tracer.install`` replaces every public module-level function of the
traced modules (plus ``cli._atomic_write``, the file-write boundary) with a
recording wrapper, in every module namespace that binds it -- including
aliases such as ``potential._poles``.  The program's source is not touched.
A span is ``[name, start, end, parent, op, attrs]``: name is
``module.function`` of the definition, parent the index of the enclosing
span (-1 at the top), op the benchmark's operation id, and attrs the work
counts that ``_ATTRS`` derives from arguments and results.  Spans stay in
memory until the benchmark writes them out at exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("geometry", "linalg", "aaa", "polyfit", "analysis", "potential",
           "svgplot", "cli")
EXTRA = {"cli._atomic_write"}


def _shape_counts(args, kwargs, result):
    m, k = np.shape(args[0])
    return {"mk2": m * k * k, "bytes": 16 * m * k}


def _fit_counts(args, kwargs, result):
    return {"steps": len(result.history), "supports": result.model.supports.size,
            "snapshots": len(result.snapshots)}


def _grid_counts(args, kwargs, result):
    nx, ny = result.resolution
    return {"cells": nx * ny,
            "factors": nx * ny * (result.supports.size + result.pole_list.size)}


def _march_counts(args, kwargs, result):
    ny, nx = np.shape(args[2])
    return {"cells": (ny - 1) * (nx - 1), "segments": len(result)}


def _study_counts(args, kwargs, result):
    return {"rational": sum(e.method.value == "rational" for e in result.entries)}


# work counts per span; the svd, grid, cell and factor counts are computed
# from argument shapes, the rest are read off the results
_ATTRS = {
    "linalg.min_singular_right_vector": _shape_counts,
    "aaa.aaa_fit": _fit_counts,
    "aaa.cleanup": lambda a, k, r: {"removed": r.cleanup_removed},
    "aaa.evaluate": lambda a, k, r: {"points": int(np.size(a[1]))},
    "polyfit.va_fit": lambda a, k, r: {"columns": r.degree + 1},
    "analysis.convergence_study": _study_counts,
    "potential.potential_grid": _grid_counts,
    "svgplot.marching_squares": _march_counts,
    "svgplot.render_potential_svg": lambda a, k, r: {"bytes": len(r.encode())},
    "cli._atomic_write": lambda a, k, r: {"bytes": len(a[1].encode())},
}


class Tracer:
    """Records spans while installed; ``op`` None pauses recording."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patched = []      # (module, attribute, original)

    def _wrap(self, fn, name):
        attrs = _ATTRS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self):
        mods = {m: importlib.import_module(f"ratapprox.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or name in EXTRA)):
                    wrappers[obj] = self._wrap(obj, name)
        for mod in [importlib.import_module("ratapprox"), *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()


def self_times(spans):
    """Duration minus the time covered by direct children, per span."""
    selfs = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            selfs[s[3]] -= s[2] - s[1]
    return selfs


# name -> (unit, better); the order is the order of BENCHMARK.json
LAYER_METRICS = {
    "svgplot.marching_s": ("s", "lower"),
    "svgplot.cells_scanned": ("cells.computed", "lower"),
    "svgplot.segments": ("count", "lower"),
    "svgplot.render_self_s": ("s", "lower"),
    "svgplot.bytes": ("bytes", "lower"),
    "linalg.svd_calls": ("count", "lower"),
    "linalg.svd_s": ("s", "lower"),
    "linalg.svd_mk2": ("mk2.computed", "lower"),
    "linalg.svd_bytes": ("bytes.computed", "lower"),
    "linalg.eig_calls": ("count", "lower"),
    "linalg.eig_s": ("s", "lower"),
    "linalg.lstsq_calls": ("count", "lower"),
    "linalg.lstsq_s": ("s", "lower"),
    "aaa.fit_calls": ("count", "lower"),
    "aaa.greedy_steps": ("count", "lower"),
    "aaa.fit_self_s": ("s", "lower"),
    "aaa.cleanup_s": ("s", "lower"),
    "aaa.cleanup_removed": ("count", "lower"),
    "aaa.support_yield": ("ratio", "higher"),
    "aaa.evaluate_calls": ("count", "lower"),
    "aaa.evaluate_points": ("count", "lower"),
    "aaa.evaluate_s": ("s", "lower"),
    "aaa.poles_calls": ("count", "lower"),
    "aaa.poles_s": ("s", "lower"),
    "polyfit.fit_calls": ("count", "lower"),
    "polyfit.fit_self_s": ("s", "lower"),
    "polyfit.basis_columns": ("columns.computed", "lower"),
    "polyfit.basis_yield": ("ratio", "higher"),
    "polyfit.eval_s": ("s", "lower"),
    "analysis.sup_error_calls": ("count", "lower"),
    "analysis.sup_error_self_s": ("s", "lower"),
    "analysis.study_self_s": ("s", "lower"),
    "analysis.snapshot_yield": ("ratio", "higher"),
    "geometry.test_grid_calls": ("count", "lower"),
    "potential.grid_s": ("s", "lower"),
    "potential.grid_cells": ("cells.computed", "lower"),
    "potential.factor_evals": ("evals.computed", "lower"),
    "potential.gap_s": ("s", "lower"),
    "cli.op_self_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    **{f"{m}.self_s": ("s", "lower") for m in MODULES},
    "trace.spans": ("count", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "fail_frac": ("frac", "lower"),
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer metrics of the spans of one pass (all but the last two,
    which need untraced passes and the output checks)."""
    selfs = self_times(spans)
    by = defaultdict(list)
    for i, s in enumerate(spans):
        by[s[0]].append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def parent(i):
        return spans[spans[i][3]][0] if spans[i][3] >= 0 else ""

    def count(name):
        return len(by[name])

    def total(name):
        return sum(dur(i) for i in by[name])

    def self_total(name):
        return sum(selfs[i] for i in by[name])

    def attr(name, key, agg=sum):
        values = [spans[i][5][key] for i in by[name]]
        return agg(values) if values else 0

    eig = [i for n in ("linalg.eigenvalues", "linalg.finite_generalized_eigenvalues")
           for i in by[n] if not parent(i).startswith("linalg.")]
    study_fits = [i for i in by["aaa.aaa_fit"]
                  if parent(i) == "analysis.convergence_study"]
    top_columns = defaultdict(int)      # per op: columns of its largest fit
    for i in by["polyfit.va_fit"]:
        op = spans[i][4]
        top_columns[op] = max(top_columns[op], spans[i][5]["columns"])
    greedy = attr("aaa.aaa_fit", "steps")
    columns = attr("polyfit.va_fit", "columns")
    write = "cli._atomic_write"

    out = {
        "svgplot.marching_s": total("svgplot.marching_squares"),
        "svgplot.cells_scanned": attr("svgplot.marching_squares", "cells"),
        "svgplot.segments": attr("svgplot.marching_squares", "segments"),
        "svgplot.render_self_s": self_total("svgplot.render_potential_svg"),
        "svgplot.bytes": attr("svgplot.render_potential_svg", "bytes"),
        "linalg.svd_calls": count("linalg.min_singular_right_vector"),
        "linalg.svd_s": total("linalg.min_singular_right_vector"),
        "linalg.svd_mk2": attr("linalg.min_singular_right_vector", "mk2"),
        "linalg.svd_bytes": attr("linalg.min_singular_right_vector", "bytes", max),
        "linalg.eig_calls": len(eig),
        "linalg.eig_s": sum(dur(i) for i in eig),
        "linalg.lstsq_calls": count("linalg.solve_least_squares"),
        "linalg.lstsq_s": total("linalg.solve_least_squares"),
        "aaa.fit_calls": count("aaa.aaa_fit"),
        "aaa.greedy_steps": greedy,
        "aaa.fit_self_s": self_total("aaa.aaa_fit"),
        "aaa.cleanup_s": total("aaa.cleanup"),
        "aaa.cleanup_removed": attr("aaa.cleanup", "removed"),
        "aaa.support_yield": _ratio(attr("aaa.aaa_fit", "supports"), greedy),
        "aaa.evaluate_calls": count("aaa.evaluate"),
        "aaa.evaluate_points": attr("aaa.evaluate", "points"),
        "aaa.evaluate_s": total("aaa.evaluate"),
        "aaa.poles_calls": count("aaa.poles"),
        "aaa.poles_s": total("aaa.poles"),
        "polyfit.fit_calls": count("polyfit.va_fit"),
        "polyfit.fit_self_s": self_total("polyfit.va_fit"),
        "polyfit.basis_columns": columns,
        "polyfit.basis_yield": _ratio(sum(top_columns.values()), columns),
        "polyfit.eval_s": total("polyfit.va_eval"),
        "analysis.sup_error_calls": count("analysis.estimate_sup_error"),
        "analysis.sup_error_self_s": self_total("analysis.estimate_sup_error"),
        "analysis.study_self_s": self_total("analysis.convergence_study"),
        "analysis.snapshot_yield": _ratio(
            attr("analysis.convergence_study", "rational"),
            sum(spans[i][5]["snapshots"] for i in study_fits)),
        "geometry.test_grid_calls": count("geometry.test_grid"),
        "potential.grid_s": total("potential.potential_grid"),
        "potential.grid_cells": attr("potential.potential_grid", "cells"),
        "potential.factor_evals": attr("potential.potential_grid", "factors"),
        "potential.gap_s": total("potential.potential_gap"),
        "cli.op_self_s": sum(selfs[i] for i, s in enumerate(spans)
                             if s[0].startswith("cli.") and s[0] != write),
        "cli.write_s": total(write),
        "cli.bytes_written": attr(write, "bytes"),
        "trace.spans": len(spans),
    }
    for m in MODULES:
        out[f"{m}.self_s"] = sum(selfs[i] for i, s in enumerate(spans)
                                 if s[0].startswith(m + "."))
    return out
