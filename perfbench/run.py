"""Benchmark of the ratapprox pipeline.

    python3 perfbench/run.py --workload {sweep,bigfit} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
One client drives ``ratapprox.cli.main`` in this process, closed loop: the
operations of a pass (see ``workloads.py``) run back to back in a
seed-determined order, and passes repeat while another one fits in S
seconds (at least one runs).  BLAS is pinned to one thread.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs untraced
passes for S/2 and traced passes for S/2, reports the per-layer metrics of
the traced passes (medians; counts are per pass) and writes the spans to
``.perfbench_work/trace-<workload>-<seed>.json``.  Every operation's files
are checked (``checks.py``) and hashed; an operation whose bytes differ
from its first pass, traced or not, fails.

Standard output: an environment record, one line per operation of the
first pass, the SHA-256 manifest of every artifact of the first pass, and
last the result object
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
``failed`` counts operations with broken runs or files; ``pass_frac`` and
``fail_frac`` also count operations whose report makes a false claim.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)    # before numpy is imported

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, ROOT)
from perfbench import workloads  # noqa: E402  (needs ROOT on the path)

WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "slowest_op_s": "s", "digits": "digits",
    "peak_rss_mb": "MB", "pass_frac": "frac", "artifact_kb": "KiB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="seconds-long variant of each workload, for tests")
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment(args):
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


class Runner:
    """Runs passes of one workload and keeps what the metrics need."""

    def __init__(self, ops, seed, work, tracer):
        from ratapprox import cli

        self.cli = cli
        self.ops = ops
        self.orders = workloads.pass_orders(len(ops), seed)
        self.work = work
        self.tracer = tracer
        self.passes = []        # {"wall", "traced", "ops": {name: result}, "spans"}
        self.reference = {}     # op name -> digests of its first pass
        self.traced_ops = []    # (pass, op name, argv), indexed by op id

    def run_op(self, op, out_dir, op_id):
        os.makedirs(out_dir)
        argv = op.command(out_dir)
        if op_id is not None:
            self.traced_ops.append((len(self.passes), op.name, argv))
            self.tracer.op = op_id
        error = None
        t0 = perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception:       # an op that crashes is a failed op, not a stop
            rc, error = None, traceback.format_exc(limit=3)
        seconds = perf_counter() - t0
        if op_id is not None:
            self.tracer.op = None
        return {"seconds": seconds, "rc": rc, "error": error}

    def run_pass(self, traced):
        from perfbench import checks

        k = len(self.passes)
        pass_dir = os.path.join(self.work, f"pass{k}")
        first_span = len(self.tracer.spans) if traced else 0
        results = {}
        t0 = perf_counter()
        for idx in next(self.orders):
            op = self.ops[idx]
            op_id = len(self.traced_ops) if traced else None
            results[op.name] = self.run_op(op, os.path.join(pass_dir, op.name), op_id)
        wall = perf_counter() - t0
        spans = None
        if traced:
            spans = [s[:3] + [s[3] - first_span if s[3] >= 0 else -1] + s[4:]
                     for s in self.tracer.spans[first_span:]]
        for op in self.ops:
            res, out_dir = results[op.name], os.path.join(pass_dir, op.name)
            failures, claims, digits = [], [], None
            if res["rc"] != 0:
                failures.append(f"exit {res['rc']}: {res['error'] or ''}".strip())
            else:
                failures, claims, digits = checks.check_op(op, out_dir)
            files = checks.file_digests(out_dir, op.artifacts)
            ref = self.reference.setdefault(op.name, files)
            drift = sorted(n for n in set(ref) | set(files) if ref.get(n) != files.get(n))
            if drift:
                failures.append(f"bytes differ from pass 0: {', '.join(drift)}")
            res.update(failures=failures, claims=claims, digits=digits, files=files)
        shutil.rmtree(pass_dir)
        self.passes.append({"wall": wall, "traced": traced, "ops": results,
                            "spans": spans})

    def run_for(self, budget, traced):
        """Closed loop: passes until the next would overrun the budget."""
        start, walls = perf_counter(), []
        while True:
            self.run_pass(traced)
            walls.append(self.passes[-1]["wall"])
            if perf_counter() - start + statistics.median(walls) > budget:
                return

    def op_results(self):
        return [r for p in self.passes for r in p["ops"].values()]

    def failing_share(self):
        """Share of attempted ops with a failure or a false claim."""
        results = self.op_results()
        return sum(bool(r["failures"] or r["claims"]) for r in results) / len(results)


def measure_setup(args, work):
    """Median wall time of fresh interpreters that import ratapprox, build
    the workload's inputs and run the warm-up op."""
    times = []
    for k in range(1 if args.tiny else SETUP_REPEATS):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds", "0",
               "--setup-probe", os.path.join(work, f"setup{k}")]
        if args.tiny:
            cmd.append("--tiny")
        t0 = perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return statistics.median(times)


def setup_probe(args):
    from ratapprox import cli

    workloads.make_ops(args.workload, args.seed, args.tiny)  # input generation
    os.makedirs(args.setup_probe)
    return cli.main(workloads.WARMUP.command(args.setup_probe))


def end_to_end_metrics(runner, setup_s):
    passes = runner.passes
    pass_digits = [min(d) for d in ([r["digits"] for r in p["ops"].values()
                                     if r["digits"] is not None] for p in passes)
                   if d]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p["wall"] for p in passes),
        "slowest_op_s": statistics.median(
            max(r["seconds"] for r in p["ops"].values()) for p in passes),
        "digits": statistics.median(pass_digits) if pass_digits else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_frac": 1.0 - runner.failing_share(),
        "artifact_kb": statistics.median(
            sum(f[1] for r in p["ops"].values() for f in r["files"].values())
            for p in passes) / 1024,
    }


def per_layer_metrics(runner):
    from perfbench import tracer

    traced = [p for p in runner.passes if p["traced"]]
    plain = [p for p in runner.passes if not p["traced"]]
    per_pass = [tracer.layer_metrics(p["spans"]) for p in traced]
    # everything but times must repeat exactly from pass to pass
    exact = {k for k, (unit, _) in tracer.LAYER_METRICS.items() if unit != "s"}
    unsteady = sorted(k for k in exact & set(per_pass[0])
                      if len({m[k] for m in per_pass}) > 1)
    out = {k: per_pass[0][k] if k in exact else
           statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    out["trace.overhead_frac"] = (
        statistics.median(p["wall"] for p in traced)
        / statistics.median(p["wall"] for p in plain) - 1.0)
    out["fail_frac"] = runner.failing_share()
    return out, unsteady


def report_lines(runner):
    """Per-op lines and the artifact manifest of the first pass."""
    lines = [f"pass {k} {'traced' if p['traced'] else 'plain'} {p['wall']:.3f}s "
             + " ".join(f"{n}={r['seconds']:.3f}" for n, r in p["ops"].items())
             for k, p in enumerate(runner.passes)]
    first = runner.passes[0]["ops"]
    for name, r in first.items():
        status = "; ".join(r["failures"] + [f"claim: {c}" for c in r["claims"]])
        lines.append(f"op {name} {r['seconds']:.3f}s {status or 'ok'}")
    for name, r in first.items():
        for fname, (digest, size) in sorted(r["files"].items()):
            lines.append(f"sha256 {digest} {size} {name}/{fname}")
    for k, p in enumerate(runner.passes[1:], 1):
        for name, r in p["ops"].items():
            if r["failures"] != first[name]["failures"]:
                lines.append(f"pass {k} op {name}: {'; '.join(r['failures'])}")
    return lines


def write_spans(path, runner, env):
    spans = [s for p in runner.passes if p["traced"] for s in p["spans"]]
    ops = [{"id": i, "pass": k, "name": n, "argv": a}
           for i, (k, n, a) in enumerate(runner.traced_ops)]
    with open(path, "w") as fh:
        json.dump({"environment": env, "ops": ops,
                   "span_fields": ["name", "start", "end", "parent", "op", "attrs"],
                   "spans": spans}, fh)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ratapprox", "cli.py")):
        print(f"perfbench: no ratapprox source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    if args.setup_probe:
        return setup_probe(args)

    from perfbench import tracer
    from ratapprox import cli

    ops = workloads.make_ops(args.workload, args.seed, args.tiny)
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        setup_s = None if args.trace else measure_setup(args, work)
        env = environment(args)
        tr = tracer.Tracer() if args.trace else None
        if cli.main(workloads.WARMUP.command(work)) != 0:
            raise RuntimeError("warm-up op failed")
        runner = Runner(ops, args.seed, work, tr)
        if args.trace:
            runner.run_for(args.seconds / 2, traced=False)
            tr.install()
            try:
                runner.run_for(args.seconds / 2, traced=True)
            finally:
                tr.uninstall()
            values, unsteady = per_layer_metrics(runner)
            units = {k: u for k, (u, _) in tracer.LAYER_METRICS.items()}
            write_spans(os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json"),
                        runner, env)
        else:
            runner.run_for(args.seconds, traced=False)
            values, unsteady = end_to_end_metrics(runner, setup_s), []
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"environment": env}))
    for line in report_lines(runner):
        print(line)
    if unsteady:
        print(f"counts differ between traced passes: {', '.join(unsteady)}")
    results = runner.op_results()
    failed = sum(bool(r["failures"]) for r in results)
    print(json.dumps({
        "correct": failed == 0 and not unsteady,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
