"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import run
from tracer import Tracer
from workloads import (
    WORKLOADS, CliBundle, GateFailure, OracleNearRadius, SeriesDenseGrid,
    check_trace_csv)

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def g():
    return run.import_ghastates()


def _bench(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, timeout=170, cwd=cwd)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_emits_every_declared_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--smoke",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]


def test_failures_are_only_the_readme_table(g, tmp_path):
    # the README's custom table is the one op of cli-bundle that fails at
    # this commit (UncertaintyFloorError, exit 2); nothing else does
    workload = CliBundle(g, tmp_path)
    ops = workload.make_ops(5)
    runner = run.Runner(workload, ops)
    workload.prepare(ops)
    runner.run_pass(traced=True)
    stats = runner.traced
    readme = sum(op.variant == "config-readme" for op in ops)
    assert readme == CliBundle.BLOCKS
    assert stats.failed == readme
    assert stats.failures == {"UncertaintyFloorError": readme}
    assert not stats.wrong


def test_bare_benchmark_directory_exits_nonzero(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "cli-bundle", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# ---------------------------------------------------------------------------
# the gate rejects perturbed results

def _one(workload, variant):
    ops = workload.make_ops(2)
    i = min((k for k, op in enumerate(ops) if op.variant == variant),
            key=lambda k: ops[k].size)
    workload.prepare(ops)
    return i, ops[i], workload.run(i, ops[i])


def test_gate_rejects_route_discrepancy_and_nan(g, tmp_path):
    workload = OracleNearRadius(g, tmp_path)
    i, op, tr = _one(workload, "type1/gha")
    workload.validate(i, op, tr)
    with pytest.raises(GateFailure):
        workload.validate(i, op, dataclasses.replace(tr, max_discrepancy=2e-9))
    values = tr.values.copy()
    values[7] = np.nan
    with pytest.raises(GateFailure):
        workload.validate(i, op, dataclasses.replace(tr, values=values))


def test_gate_rejects_series_value_off_the_oracle(g, tmp_path):
    workload = SeriesDenseGrid(g, tmp_path)
    i, op, tr = _one(workload, "morse/gha")
    workload.validate(i, op, tr)
    values = tr.values.copy()
    values[op.params["check_at"][1]] += 1e-8
    with pytest.raises(GateFailure):
        workload.validate(i, op, dataclasses.replace(tr, values=values))


def test_gate_rejects_changed_output_on_repeat(g, tmp_path):
    workload = SeriesDenseGrid(g, tmp_path)
    i, op, tr = _one(workload, "morse/gha")
    workload.check(i, op, tr)
    workload.check(i, op, tr)
    values = tr.values.copy()
    values[0] = np.nextafter(values[0], 1.0)
    with pytest.raises(GateFailure):
        workload.check(i, op, dataclasses.replace(tr, values=values))


def test_gate_rejects_bad_csv(g, tmp_path):
    workload = CliBundle(g, tmp_path)
    i, op, result = _one(workload, "trace")
    workload.validate(i, op, result)
    text = result.files[0].read_text()
    points = op.params["points"]
    check_trace_csv(text, points)
    lines = text.splitlines()
    cells = lines[5].split(",")
    cells[5] = "0.49"
    bad_floor = "\n".join(lines[:5] + [",".join(cells)] + lines[6:]) + "\n"
    for bad in (bad_floor, text.replace(lines[-1] + "\n", ""),
                text.replace(lines[3], lines[3].replace(",", ",nan,", 1))):
        with pytest.raises(GateFailure):
            check_trace_csv(bad, points)


def test_runner_counts_gate_failures(g, tmp_path):
    workload = OracleNearRadius(g, tmp_path)
    ops = [op for op in workload.make_ops(4) if op.size < 0.82][:2]
    workload.prepare(ops)
    honest = workload.run

    def perturbed(i, op):
        return dataclasses.replace(honest(i, op), max_discrepancy=1e-6)

    workload.run = perturbed
    runner = run.Runner(workload, ops)
    runner.measure(0.0)
    assert runner.plain.failed == len(ops)
    assert runner.plain.failures == {"gate": len(ops)}
    assert len(runner.plain.wrong) == len(ops)


# ---------------------------------------------------------------------------
# tracer

def test_tracer_self_time_nesting_and_absent_layers(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    dyn = types.ModuleType("fakepkg.dynamics")
    alg = types.ModuleType("fakepkg.algebra")

    def build_rep(spec, dim):
        return types.SimpleNamespace(dim=dim)

    def trace(spec, n_points=5, path="oracle"):
        return dyn.build_rep(spec, 4)  # imported by name, as the package does

    alg.build_rep = build_rep
    dyn.build_rep = build_rep
    dyn.trace = trace
    pkg.trace = trace
    for name, mod in (("fakepkg", pkg), ("fakepkg.dynamics", dyn),
                      ("fakepkg.algebra", alg)):
        monkeypatch.setitem(sys.modules, name, mod)

    tracer = Tracer()
    layers = tracer.install("fakepkg")
    assert layers["dynamics.trace"] == "ok"
    assert layers["kernel"] == "absent"
    assert pkg.trace is not trace and dyn.build_rep is not build_rep
    pkg.trace(None)  # no open op: nothing recorded
    tracer.begin_op(1)
    pkg.trace(None, n_points=7)
    tracer.end_op()
    tracer.uninstall()
    assert pkg.trace is trace and dyn.build_rep is build_rep

    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [
        ("dynamics.trace", None, 1), ("algebra.build_rep", 0, 1)]
    outer, inner = tracer.spans
    self_s = tracer.self_times()
    assert self_s["algebra.build_rep"] == pytest.approx(inner.end - inner.start)
    assert self_s["dynamics.trace"] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start))
    assert tracer.counts["dynamics.oracle_cells"] == 4 ** 2 * 7
    assert tracer.counts["algebra.rep_dim_sum"] == 4
