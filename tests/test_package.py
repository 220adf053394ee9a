import importlib
import inspect
import sys

import pytest

import ratapprox as ra


def test_import_loads_neither_numpy_nor_scipy(run_python):
    proc = run_python("-c", "import sys, ratapprox; print(sorted(m for m in "
                      "sys.modules if m.split('.')[0] in ('numpy', 'scipy')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_export_is_its_module_attribute():
    assert len(ra.__all__) == len(set(ra.__all__)) == 29
    listed = set(dir(ra))
    for module, names in ra._EXPORTS.items():
        mod = importlib.import_module(f"ratapprox.{module}")
        for name in names:
            assert getattr(ra, name) is getattr(mod, name), name
            assert getattr(mod, name).__module__ == mod.__name__, name
            assert name in listed, name
    exported = [n for names in ra._EXPORTS.values() for n in names]
    assert sorted(exported) == sorted(ra.__all__)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from ratapprox import *", namespace)
    for name in ra.__all__:
        assert namespace[name] is getattr(ra, name), name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ra.no_such_name
    assert not hasattr(ra, "no_such_name")


# exported functions that no command runs, each with the caller that keeps it
_UNRUN_EXPORTS = {
    "estimate_sup_error": "acceptance criteria 1, 6, 7 and 10 call it",
    "walsh_error": "acceptance criterion 8 calls it; ROADMAP item 6 gives it "
                   "a pipeline caller",
    "residues": "the public wrapper of aaa._scaled_residues, which cleanup runs",
}


def test_every_exported_function_runs_in_a_command(tmp_path):
    from ratapprox.cli import main

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    fit = ["fit", "--fn", "tansq", "--domain", "disk:0,0,1", "--samples", "200",
           "--out", str(tmp_path / "model.json")]
    study = ["study", "--fn", "sqrtneg", "--domain", "horseshoe:0.5,1.5,0.3",
             "--degrees", "2:4:14", "--samples", "200",
             "--out", str(tmp_path / "convergence.csv")]
    potential = ["potential", "--model", str(tmp_path / "model.json"),
                 "--res", "64", "--out", str(tmp_path / "potential.svg")]
    sys.setprofile(profile)
    try:
        codes = [main(["figure", "6", "--out", str(tmp_path / "fig6")]),
                 main(study), main(fit), main(potential)]
    finally:
        sys.setprofile(None)
    assert codes == [0, 0, 0, 0]
    unrun = {name for name in ra.__all__ if inspect.isfunction(fn := getattr(ra, name))
             and fn.__code__ not in called}
    assert unrun == set(_UNRUN_EXPORTS)
