"""The benchmark harness runs end to end in smoke mode and passes its gate."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_all_workloads():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "all", "--smoke", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    # the tracer still finds and wraps the trig kernel
    assert result["metrics"]["series-dense-grid.kernel.calls"]["value"] > 0
