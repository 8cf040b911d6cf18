#!/usr/bin/env python3
"""Benchmark of the ghastates pipeline: spectrum -> coherent state ->
evolution -> uncertainty product, through the library and the CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oracle-near-radius --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --smoke     # every workload, a handful of ops

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates untraced passes with passes in which the layers'
public functions are wrapped (see ``tracer.py``) and reports per-layer self
time and counts per op.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the environment.  Results and spans are also written to
``perfbench/out/``.

Each process runs with one OpenBLAS thread: with the default count the
small GEMMs of this library are bimodal (2 ms in one process, 30 ms in the
next on a 2-core machine).  Ops run in a closed loop, one at a time, over
whole passes of the seeded op list.  An untraced run splits its time over
three fresh worker processes, and each op's latency is its best over all
passes of all workers.  On a shared 2-core Xeon VM, other tenants slowed
ops by up to 1.5x for seconds at a time, and some processes ran CSV
formatting 1.5x slower than others for their whole life; the best over
passes spread across processes and time filters both out.  Slow phases of
a minute or more remain, and set the bounds in BENCHMARK.json.
"""

import os
import time

T0 = time.perf_counter()  # set-up is timed from here, before any import
# must precede the first numpy import, in this process and its children
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, CliExit, GateFailure, warmup_ops)

WORKERS = 3            # processes an untraced run splits its time over
HARD_LIMIT_S = 120.0   # stop starting passes after this, in all processes
SETUP_PROBES = 4       # fresh processes that only time set-up, besides workers

END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "setup_s": "s",
}
# per-op self time metric -> span name
SELF_TIMES = {
    "dynamics.trace_self_ms": "dynamics.trace",
    "kernel.ms": "kernel",
    "dynamics.csv_ms": "dynamics.csv",
    "algebra.verify_ms": "algebra.verify",
    "algebra.build_rep_ms": "algebra.build_rep",
    "states.build_ms": "states.build",
    "series.weights_ms": "series.weights",
    "config.ms": "config",
    "cli.self_ms": "cli",
}
PER_OP_COUNTS = {
    "dynamics.oracle_cells": "count/op",
    "dynamics.csv_bytes": "B/op",
    "kernel.calls": "count/op",
    "kernel.term_points": "count/op",
    "spectrum.level_calls": "count/op",
}
# mean metric -> (sum counter, call counter)
MEANS = {
    "algebra.rep_dim_mean": ("algebra.rep_dim_sum", "algebra.rep_builds"),
    "states.dim_mean": ("states.dim_sum", "states.builds"),
    "series.terms_mean": ("series.terms_sum", "series.calls"),
}
# GhaError subclasses of ghastates.errors; any other failure is "other",
# and an output rejected by the gate is "gate"
FAILURES = (
    "InvalidParameterError", "LevelOutOfRangeError", "DomainError",
    "NegativeGapError", "DegenerateSpectrumError", "DimensionMismatchError",
    "ShapeMismatchError", "WrongSystemError", "RadiusOfConvergenceError",
    "TailBoundError", "NegativeVarianceError", "ImaginaryResidualError",
    "UncertaintyFloorError", "other", "gate",
)
WARNINGS = ("ConditioningWarning", "ClampWarning", "other")


def share_name(metric: str) -> str:
    for suffix in ("_ms", ".ms"):
        if metric.endswith(suffix):
            return metric[:-len(suffix)] + ".share"
    raise ValueError(metric)


def per_layer_units() -> dict[str, str]:
    units = {}
    for metric in SELF_TIMES:
        units[metric] = "ms/op"
        units[share_name(metric)] = "frac"
    units.update(PER_OP_COUNTS)
    units.update({m: "count" for m in MEANS})
    units.update({f"failures.{c}": "count/op" for c in FAILURES})
    units.update({f"warnings.{c}": "count/op" for c in WARNINGS})
    units["trace.overhead_frac"] = "frac"
    units["trace.ops"] = "count"
    return units


# ---------------------------------------------------------------------------
# set-up

def import_ghastates():
    """Import the package from this checkout's ``src``, or exit."""
    if not (SRC / "ghastates" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'ghastates'} not found; run from a "
                 "checkout of the repository")
    sys.path.insert(0, str(SRC))
    import ghastates
    if Path(ghastates.__file__).resolve().parent != SRC / "ghastates":
        sys.exit(f"perfbench: imported ghastates from {ghastates.__file__}, "
                 f"not from {SRC}")
    return ghastates


def set_up(name: str, seed: int, smoke: bool, workdir: Path):
    """Import, build the op list, prepare and warm up; return the objects
    and the seconds since this module started loading."""
    g = import_ghastates()
    from ghastates.errors import GhaError
    workload = WORKLOADS[name](g, workdir)
    ops = workload.make_ops(seed)
    if smoke:
        ops = [ops[i] for i in warmup_ops(ops)]
    workload.prepare(ops)
    for i in warmup_ops(ops):
        try:
            workload.run(i, ops[i])
        except (GhaError, CliExit):
            pass
    return g, workload, ops, time.perf_counter() - T0


# ---------------------------------------------------------------------------
# measurement

@dataclass
class Stats:
    """Outcome of the ops run in one mode (traced or not)."""

    best_ms: dict = field(default_factory=dict)      # op index -> wall ms
    best_cpu_ms: dict = field(default_factory=dict)  # op index -> CPU ms
    total_ms: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    warnings: Counter = field(default_factory=Counter)
    wrong: list = field(default_factory=list)


class Runner:
    """Runs the op list in passes, times each op and applies the gate."""

    def __init__(self, workload, ops):
        from ghastates.errors import GhaError
        self.gha_error = GhaError
        self.workload = workload
        self.ops = ops
        self.plain = Stats()
        self.traced = Stats()
        self.tracer = Tracer()
        self.layers: dict[str, str] = {}
        self._op_id = 0

    def run_pass(self, traced: bool) -> None:
        stats = self.traced if traced else self.plain
        call = self.workload.run
        if traced:
            self.layers = self.tracer.install()
            if self.workload.entry_layer:
                call = self.tracer.wrap(self.workload.entry_layer, call)
        try:
            for i, op in enumerate(self.ops):
                self._op_id += 1
                if traced:
                    self.tracer.begin_op(self._op_id)
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        self._execute(i, op, call, stats)
                    self.tracer.end_op()
                    for w in caught:
                        name = w.category.__name__
                        stats.warnings[name if name in WARNINGS else "other"] += 1
                else:
                    self._execute(i, op, call, stats)
        finally:
            if traced:
                self.tracer.uninstall()

    def _execute(self, i, op, call, stats: Stats) -> None:
        failure = result = None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = call(i, op)
        except self.gha_error as exc:
            failure = type(exc).__name__
        except CliExit as exc:
            failure = self._cli_failure()
            if exc.code not in (1, 2, 3):
                stats.wrong.append(f"op {i} ({op.variant}): {exc}")
        except Exception as exc:  # an untyped error is a defect; keep going
            failure = "other"
            stats.wrong.append(f"op {i} ({op.variant}): unexpected "
                               f"{type(exc).__name__}: {exc}\n"
                               + traceback.format_exc())
        ms = 1e3 * (time.perf_counter() - t0)
        cpu_ms = 1e3 * (time.process_time() - c0)
        stats.attempted += 1
        stats.total_ms += ms
        stats.best_ms[i] = min(ms, stats.best_ms.get(i, ms))
        stats.best_cpu_ms[i] = min(cpu_ms, stats.best_cpu_ms.get(i, cpu_ms))
        if failure is None:
            self.tracer.end_op()  # the gate is not part of any op
            try:
                self.workload.check(i, op, result)
            except GateFailure as exc:
                failure = "gate"
                stats.wrong.append(str(exc))
        if failure is not None:
            stats.failed += 1
            stats.failures[failure if failure in FAILURES else "other"] += 1

    def _cli_failure(self) -> str:
        """The typed error behind a non-zero CLI exit, from the spans."""
        for name in self.tracer.errors_in(self._op_id):
            if name in FAILURES:
                return name
        return "other"

    def measure(self, seconds: float, trace: bool = False,
                min_passes: int = 1, hard_limit: float = HARD_LIMIT_S) -> None:
        """Whole passes, alternately untraced and traced when ``trace``,
        ending as close to ``seconds`` as possible."""
        start = time.perf_counter()
        passes = 0
        while True:
            p0 = time.perf_counter()
            self.run_pass(traced=trace and passes % 2 == 1)
            passes += 1
            now = time.perf_counter()
            if now - start >= hard_limit or (
                    passes >= min_passes
                    and now - start + 0.5 * (now - p0) >= seconds):
                return

    # -- metrics -----------------------------------------------------------

    def record(self, setup_s: float) -> dict:
        """This process's untraced outcome, as JSON-able data."""
        s = self.plain
        return {
            "setup_s": setup_s,
            "best_ms": [s.best_ms[i] for i in range(len(self.ops))],
            "best_cpu_ms": [s.best_cpu_ms[i] for i in range(len(self.ops))],
            "attempted": s.attempted,
            "failed": s.failed,
            "wrong": s.wrong,
            "digests": {str(i): d.hex()
                        for i, d in self.workload.digests().items()},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }

    def per_layer(self) -> dict[str, float]:
        s, tr = self.traced, self.tracer
        n = s.attempted
        wall_s = s.total_ms / 1e3
        self_s = tr.self_times()
        out = {}
        for metric, span in SELF_TIMES.items():
            t = self_s.get(span, 0.0)
            out[metric] = 1e3 * t / n
            out[share_name(metric)] = t / wall_s
        for metric in PER_OP_COUNTS:
            out[metric] = tr.counts[metric] / n
        for metric, (total, calls) in MEANS.items():
            out[metric] = tr.counts[total] / tr.counts[calls] \
                if tr.counts[calls] else 0.0
        for c in FAILURES:
            out[f"failures.{c}"] = s.failures[c] / n
        for c in WARNINGS:
            out[f"warnings.{c}"] = s.warnings[c] / n
        out["trace.overhead_frac"] = (sum(s.best_ms.values())
                                      / sum(self.plain.best_ms.values()) - 1.0)
        out["trace.ops"] = float(n)
        return out


def end_to_end(records: list[dict], setup_times: list[float]):
    """Metrics from the records of one or more processes: each op's best
    latency over all of them, and the median of their peak memory.  Also
    returns the ops whose output differs between processes."""
    import numpy as np
    best = np.min([r["best_ms"] for r in records], axis=0)
    cpu = np.min([r["best_cpu_ms"] for r in records], axis=0)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    differing = sorted({i for r in records[1:] for i, d in r["digests"].items()
                        if records[0]["digests"].get(i) != d},
                       key=int)
    metrics = {
        "ops_per_s": 1e3 * len(best) / float(best.sum()),
        "op_ms_p50": float(np.median(best)),
        "op_ms_p90": float(np.percentile(best, 90)),
        "cpu_ms_per_op": float(cpu.mean()),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "ok_frac": 1.0 - failed / attempted,
        "setup_s": statistics.median(setup_times),
    }
    return metrics, [f"op {i} gave different output in different processes"
                     for i in differing]


# ---------------------------------------------------------------------------
# environment record

def environment(g, seed: int, ops) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):  # numpy without mode="dicts"
        blas = {"name": "unknown"}
    digest = hashlib.sha256(json.dumps(
        [[op.variant, op.params] for op in ops], sort_keys=True).encode())
    return {
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": g.backend_name() if hasattr(g, "backend_name")
        else "absent",
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "seed": seed,
        "ops": len(ops),
        "ops_digest": digest.hexdigest()[:16],
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return proc.stdout.strip()


def source_digest() -> str:
    """sha256 over the package sources, so a result names the code it ran."""
    h = hashlib.sha256()
    pkg = SRC / "ghastates"
    for path in sorted(pkg.rglob("*")):
        if path.suffix in (".py", ".pyx") and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(pkg)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# entry points

def measure_here(args) -> dict:
    """Set up and measure in this process; return what the run produced."""
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        g, workload, ops, setup_s = set_up(args.workload, args.seed,
                                           args.smoke, workdir)
        if args.setup_probe:
            return {"setup_s": setup_s}
        runner = Runner(workload, ops)
        if args.smoke:
            runner.measure(0.0, bool(args.trace), min_passes=1 + args.trace)
        elif args.worker:
            runner.measure(args.seconds, hard_limit=HARD_LIMIT_S / WORKERS)
        else:
            runner.measure(args.seconds, bool(args.trace), min_passes=2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"runner": runner, "setup_s": setup_s,
            "env": environment(g, args.seed, ops)}


def _child(args, *extra) -> dict:
    """Run this script in a fresh process; return its last stdout line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"perfbench: {' '.join(cmd[1:])} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_one(args) -> int:
    if args.setup_probe or args.worker:
        here = measure_here(args)
        if args.worker:
            here = {**here["runner"].record(here["setup_s"]), "env": here["env"]}
        print(json.dumps(here))
        return 0

    if args.trace or args.smoke:
        here = measure_here(args)
        runner, env = here["runner"], here["env"]
        attempted = runner.plain.attempted + runner.traced.attempted
        failed = runner.plain.failed + runner.traced.failed
        wrong = runner.plain.wrong + runner.traced.wrong
        if args.trace:
            metrics, units = runner.per_layer(), per_layer_units()
            env["layers"] = runner.layers
        else:
            metrics, _ = end_to_end([runner.record(here["setup_s"])],
                                    [here["setup_s"]])
            units = END_TO_END
    else:
        worker = ["--seconds", str(args.seconds / WORKERS), "--worker"]
        records = [_child(args, *worker) for _ in range(WORKERS)]
        setups = [r["setup_s"] for r in records] + [
            _child(args, "--setup-probe")["setup_s"]
            for _ in range(SETUP_PROBES)]
        metrics, differing = end_to_end(records, setups)
        units, env = END_TO_END, records[0]["env"]
        attempted = sum(r["attempted"] for r in records)
        failed = sum(r["failed"] for r in records)
        wrong = [w for r in records for w in r["wrong"]] + differing

    for line in wrong[:5]:
        print(f"perfbench: gate: {line}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    if args.trace:
        runner.tracer.write(OUT / f"{stem}.spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "env": env, **result}, indent=1) + "\n")

    for k, u in units.items():
        print(f"{args.workload:<20} {k:<34} {metrics[k]:>14.6g} {u}")
    if args.trace:
        top = max(SELF_TIMES, key=lambda m: metrics[share_name(m)])
        print(f"{args.workload:<20} largest self-time share: {top} "
              f"({metrics[share_name(top)]:.3f} of traced op time)")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-2]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one op per variant, one pass (two traced)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
