"""The cspherelab benchmark: workloads of `cspherelab` commands, timed end to end.

    python3 bench/run.py --workload {exact-basis,levy-mc,spectrum-io,all}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is taken from its `src/`. A
run is a closed loop with one client: each op of the workload (see
workloads.py) is one fresh process, started only after the previous one
ended, and no threads are added. A pass runs every op once, in the order
the seed chooses, and checks every output (checks.py). Passes repeat until
another would end more than S seconds after the run began (set-up
included); there is always at least one.

--trace 0 reports the end-to-end metrics:
  wall_s       sum over the ops of the op's median wall time across passes,
               i.e. the time a user waits for the whole op list;
  setup_s      median wall time of SETUP_REPS cold `import cspherelab.cli`
               processes, the start-up cost every command pays;
  peak_rss_mb  largest resident set of any op (its median across passes).

--trace 1 alternates traced and untraced passes (at least two traced) and
reports the per-layer metrics from tracer.py, each the median across the
traced passes of its sum over the ops; `cli.import_s` is the median over
the ops. `trace.overhead_s` is the traced wall_s minus the untraced one.
The counts in DETERMINISTIC must repeat exactly between traced passes.

Which end-to-end metric each layer should move, on which workload:
  cli.import_s                          setup_s everywhere, wall_s per op
  cli.self_s (mostly the CSV reader)    wall_s on spectrum-io
  basis.build_basis.*, basis.monomial_inner.calls, MonomialPoly.inner.calls
                                        wall_s on exact-basis; ~0 on levy-mc
  basis.MonomialPoly.eval.*, HarmonicBasis.eval_orthonormal.s, levy.*,
  polynomials.*                         wall_s on levy-mc
  sphere.sample_points.*                wall_s, peak_rss_mb on levy-mc
  multipliers.*                         wall_s on spectrum-io
  dimensions.*                          wall_s on spectrum-io (a little)
  widths.*, report.csv_lines.s, report.write_output.s, report.bytes_out
                                        wall_s, peak_rss_mb on spectrum-io
  report.dumps.s                        wall_s on exact-basis

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. A record of the machine, the op list and every op's timing goes to
.bench_work/records/. Nothing at machine level is controlled.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_REPS = 9
OP_TIMEOUT_S = 120

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.run.s": "s",
    "cli.self_s": "s",
    "cli.child_share": "ratio",
    "basis.build_basis.s": "s",
    "basis.build_basis.misses": "count",
    "basis.monomial_inner.calls": "count",
    "basis.MonomialPoly.inner.calls": "count",
    "basis.MonomialPoly.eval.s": "s",
    "basis.MonomialPoly.eval.term_points": "count",
    "basis.HarmonicBasis.eval_orthonormal.s": "s",
    "levy.build_real_system.self_s": "s",
    "levy.RealCoordinateSystem.eval_matrix.self_s": "s",
    "levy.levy_mean_mc.self_s": "s",
    "levy.levy_mean_mc.matmul_flops": "flop",
    "levy.levy_mean_mc.rel_stderr": "ratio",
    "levy.nikolskii_check.self_s": "s",
    "sphere.sample_points.s": "s",
    "sphere.sample_points.points": "count",
    "polynomials.disk_poly_eval.s": "s",
    "polynomials.gegenbauer_eval.s": "s",
    "multipliers.build_level_sequence.s": "s",
    "multipliers.lambda_value.calls": "count",
    "dimensions.layer.s": "s",
    "dimensions.check_dim_bounds.s": "s",
    "widths.l2_width_table.s": "s",
    "widths.WidthTable.values.s": "s",
    "widths.table_from_values.s": "s",
    "widths.fit.s": "s",
    "report.dumps.s": "s",
    "report.csv_lines.s": "s",
    "report.write_output.s": "s",
    "report.bytes_out": "B",
    "trace.overhead_s": "s",
}

DETERMINISTIC = (
    "basis.monomial_inner.calls",
    "basis.MonomialPoly.inner.calls",
    "basis.MonomialPoly.eval.term_points",
    "multipliers.lambda_value.calls",
    "report.bytes_out",
    "sphere.sample_points.points",
)


class BenchError(Exception):
    """The run cannot produce a result."""


def spawn(cmd, cwd, env, out_path, err_path):
    """Run cmd to completion: (exit code or None on timeout, wall s, max RSS MB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
    pidfd = os.pidfd_open(proc.pid)
    ready = []
    try:
        ready, _, _ = select.select([pidfd], [], [], OP_TIMEOUT_S)
    finally:
        os.close(pidfd)
        if not ready:  # timed out, or the benchmark itself is being stopped
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode if ready else None), wall, usage.ru_maxrss / 1024.0


class Bench:
    """One workload's op schedule, run in fresh processes under .bench_work/ops."""

    def __init__(self, workload, seed, trace, golden):
        self.trace = trace
        self.schedule = workloads.schedule(workload, seed)
        self.golden = golden
        self.ops_dir = WORK / "ops"
        self.ops_dir.mkdir(parents=True, exist_ok=True)
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)

    def setup_s(self):
        times = []
        for _ in range(SETUP_REPS):
            code, wall, _ = spawn([sys.executable, "-c", "import cspherelab.cli"], ROOT, self.env,
                                  self.ops_dir / "setup.out", self.ops_dir / "setup.err")
            if code != 0:
                raise BenchError("`import cspherelab.cli` failed: "
                                 + (self.ops_dir / "setup.err").read_text(errors="replace"))
            times.append(wall)
        return statistics.median(times)

    def execute(self, op, argv, traced=False):
        """Run one op: (exit code or None on timeout, wall s, RSS MB, output bytes or reason)."""
        out, err = self.ops_dir / f"{op.name}.out", self.ops_dir / f"{op.name}.err"
        written = self.ops_dir / op.output if op.output else None
        for stale in (self.trace_path(op), written):
            if stale is not None and stale.exists():
                stale.unlink()
        if traced:
            cmd = [sys.executable, str(Path(tracer.__file__).resolve()), str(self.trace_path(op))]
        else:
            cmd = [sys.executable, "-m", "cspherelab.cli"]
        code, wall, rss = spawn(cmd + argv, self.ops_dir, self.env, out, err)
        if traced and code == tracer.MISSING_TARGET_EXIT:
            raise BenchError(err.read_text(errors="replace").strip())
        if code is None:
            data = f"timed out after {OP_TIMEOUT_S} s"
        elif written and out.stat().st_size:
            data = "printed to stdout although --out was given"
        elif written and not written.exists():
            data = f"did not write {op.output}"
        else:
            data = (written or out).read_bytes()
        return code, wall, rss, data

    def trace_path(self, op):
        return self.ops_dir / f"{op.name}.trace.json"

    def run_op(self, op, argv, traced):
        code, wall, rss, data = self.execute(op, argv, traced)
        if isinstance(data, str):
            reason = data
        else:
            reason = checks.check(op, argv, code, data, self.golden[op.name])
        result = {"op": op.name, "exit": code, "wall_s": wall, "rss_mb": rss, "error": reason}
        if traced and self.trace_path(op).exists():
            with open(self.trace_path(op), encoding="utf-8") as handle:
                result["layers"] = tracer.summarize(json.load(handle))
        if op.check in ("levy", "parseval") and reason is None:
            doc = json.loads(data)
            result["rel_stderr"] = doc["stderr"] / doc["estimate"]
        return result

    def run_pass(self, traced):
        results = [self.run_op(op, argv, traced) for op, argv in self.schedule]
        for r in results:
            if r["error"]:
                print(f"FAILED {r['op']}: {r['error']}", file=sys.stderr)
        return {"traced": traced, "ops": results}

    def run(self, deadline):
        """Passes until another would end after `deadline`; the trace run alternates."""
        passes, longest = [], 0.0
        while True:
            traced = bool(self.trace) and len(passes) % 2 == 0
            began = time.perf_counter()
            passes.append(self.run_pass(traced))
            longest = max(longest, time.perf_counter() - began)
            enough = not self.trace or len(passes) >= 3
            if enough and time.perf_counter() + longest > deadline:
                return passes


def _median_by_op(passes, key):
    per_op = {}
    for p in passes:
        for r in p["ops"]:
            per_op.setdefault(r["op"], []).append(r[key])
    return {name: statistics.median(v) for name, v in per_op.items()}


def wall_s(passes):
    return sum(_median_by_op(passes, "wall_s").values())


def layer_totals(one_pass):
    """Per-layer metrics of one traced pass: sums over the ops."""
    totals = dict.fromkeys(PER_LAYER, 0)
    imports = []
    for r in one_pass["ops"]:
        layers = dict(r.get("layers", {}))
        imports.append(layers.pop("cli.import_s", 0.0))
        layers["cli.self_s"] = layers.pop("cli.run.self_s", 0.0)
        for name, value in layers.items():
            if name in totals:
                totals[name] += value
    totals["cli.import_s"] = statistics.median(imports)
    run_s = totals["cli.run.s"]
    totals["cli.child_share"] = 1.0 - totals["cli.self_s"] / run_s if run_s else 0.0
    return totals


def end_to_end_metrics(passes, setup):
    return {
        "wall_s": wall_s(passes),
        "setup_s": setup,
        "peak_rss_mb": max(_median_by_op(passes, "rss_mb").values()),
    }


def per_layer_metrics(passes, problems):
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    totals = [layer_totals(p) for p in traced]
    for name in DETERMINISTIC:
        seen = {t[name] for t in totals}
        if len(seen) > 1:
            problems.append(f"count {name} differs between traced passes: {sorted(seen)}")
    metrics = {name: statistics.median(t[name] for t in totals) for name in PER_LAYER}
    rel = [r["rel_stderr"] for p in passes for r in p["ops"] if "rel_stderr" in r]
    metrics["levy.levy_mean_mc.rel_stderr"] = statistics.median(rel) if rel else 0.0
    metrics["trace.overhead_s"] = wall_s(traced) - wall_s(untraced)
    return metrics


def machine_record():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.25 has no dict mode
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine_control": "none: no CPU pinning, no cache dropping, no frequency control",
    }


def run_workload(name, seed, seconds, trace):
    deadline = time.perf_counter() + seconds
    bench = Bench(name, seed, trace, checks.load_golden())
    setup = None if trace else bench.setup_s()
    passes = bench.run(deadline)
    problems = []
    if trace:
        values, units = per_layer_metrics(passes, problems), PER_LAYER
    else:
        values, units = end_to_end_metrics(passes, setup), END_TO_END
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(1 for p in passes for r in p["ops"] if r["error"])
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine_record(),
        "ops": [" ".join(["cspherelab"] + argv) for _, argv in bench.schedule],
        "passes": passes, "problems": problems, "result": result,
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    record_path = records / f"{name}-seed{seed}-trace{trace}.json"
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(f"{name}: {len(passes)} passes, {attempted} ops, {failed} failed; record {record_path}")
    for key, metric in result["metrics"].items():
        print(f"  {key:<46} {metric['value']:>16.6g} {metric['unit']}")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that the running op is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "cspherelab" / "cli.py").is_file():
        print(f"error: no cspherelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else {"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
