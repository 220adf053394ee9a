"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import checks, tracer, workloads  # noqa: E402
from ratapprox import aaa, cli, potential  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_prints_declared_metrics(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_benchmark_json_matches_code():
    assert [m["name"] for m in BENCH["per_layer"]] == list(tracer.LAYER_METRICS)
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "sweep", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no ratapprox source" in proc.stderr


def _run_all(ops, out_root):
    digests = {}
    for key, op in ops:
        out = os.path.join(out_root, key)
        os.makedirs(out)
        assert cli.main(op.command(out)) == 0
        digests[key] = checks.file_digests(out, op.artifacts)
    return digests


def test_traced_run_leaves_artifacts_byte_identical(tmp_path):
    ops = [(f"{w}-{op.name}", op) for w in workloads.WORKLOADS
           for op in workloads.make_ops(w, 5, tiny=True)]
    plain = _run_all(ops, tmp_path / "plain")
    tr = tracer.Tracer()
    tr.install()
    try:
        assert potential._poles is aaa.poles and hasattr(aaa.poles, "__wrapped__")
        tr.op = 0
        traced = _run_all(ops, tmp_path / "traced")
    finally:
        tr.uninstall()
    assert not hasattr(aaa.poles, "__wrapped__")
    assert traced == plain
    names = {s[0] for s in tr.spans}
    for module in tracer.MODULES:
        assert any(n.startswith(module + ".") for n in names), module
    assert all(s[3] < i for i, s in enumerate(tr.spans))


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1, 0, None], ["b", 1.0, 4.0, 0, 0, None],
             ["c", 5.0, 6.0, 0, 0, None], ["d", 2.0, 3.0, 1, 0, None]]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def _edit_report(path, **changes):
    with open(path) as fh:
        report = json.load(fh)
    report.update(changes)
    with open(path, "w") as fh:
        json.dump(report, fh)


def test_checks_flag_false_claims_and_bad_files(tmp_path):
    op = workloads.make_ops("bigfit", 1, tiny=True)[0]    # abs: not converged
    out = str(tmp_path)
    assert cli.main(op.command(out)) == 0
    assert checks.check_op(op, out)[:2] == ([], [])
    report = os.path.join(out, "report.json")

    _edit_report(report, converged=True)
    failures, claims, digits = checks.check_op(op, out)
    assert failures == [] and len(claims) == 1 and digits > 0

    _edit_report(report, sample_error=1.0)
    assert "recomputed" in checks.check_op(op, out)[0][0]

    with open(report, "w") as fh:
        fh.write('{"converged": false, "sample_error": inf, "degree": 1}\n')
    assert "invalid JSON" in checks.check_op(op, out)[0][0]
    os.remove(report)
    assert checks.check_op(op, out)[0] == ["missing report.json"]
