"""Rational and polynomial approximation toolkit.

Greedy barycentric rational fitting, Arnoldi-orthogonalized polynomial
least squares, potential-field error analysis, and a convergence-study
harness with six built-in experiments.

Importing the package does not load numpy: each exported name imports its
module on first use.  Only the command line (ratapprox.cli)
sets the BLAS thread count; a library caller chooses its own.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "aaa": ("BarycentricRational", "FitReport", "aaa_fit", "cleanup",
            "evaluate", "poles", "residues"),
    "analysis": ("ConvergenceRecord", "Method", "RateClass", "classify_rate",
                 "convergence_study", "estimate_sup_error"),
    "geometry": ("Disk", "FunctionSpec", "Horseshoe", "Interval", "SampleSet",
                 "boundary_samples", "eval_function", "sample_function",
                 "test_grid"),
    "polyfit": ("ArnoldiPolynomial", "va_fit"),
    "potential": ("ContourSpec", "PotentialField", "potential_gap",
                  "potential_grid", "walsh_error"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
