import importlib

import pytest

import ratapprox as ra


def test_import_loads_neither_numpy_nor_scipy(run_python):
    proc = run_python("-c", "import sys, ratapprox; print(sorted(m for m in "
                      "sys.modules if m.split('.')[0] in ('numpy', 'scipy')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_export_is_its_module_attribute():
    assert len(ra.__all__) == len(set(ra.__all__)) == 31
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
