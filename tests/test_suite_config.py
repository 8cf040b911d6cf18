"""The suite's pytest configuration keeps a session going past a failure."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_failing_given_test_does_not_stop_the_session(tmp_path):
    # on a failure Hypothesis imports libcst to write a patch, and libcst
    # imports mypy_extensions, which warns DeprecationWarning; the suite's
    # error::DeprecationWarning turned that into an INTERNALERROR, and the
    # tests after the failing one never ran
    (tmp_path / "test_probe.py").write_text(_FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
