"""The README's examples run as written: its library quick start, and every
line of its command-line block, so a README that shows a removed option or
function fails here."""

import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from ghastates.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    """The first ``lang`` code block after ``heading``."""
    body = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"^```{lang}\n(.*?)^```", body, re.S | re.M).group(1)


_COMMANDS = [line for line in _block("## Command line", "bash").splitlines()
             if line.strip()]


def test_library_quick_start_runs(capsys):
    exec(compile(_block("## Library quick start", "python"),
                 "README quick start", "exec"), {})
    assert "overall: pass" in capsys.readouterr().out


@pytest.mark.parametrize("line", _COMMANDS, ids=[
    " ".join(shlex.split(c, comments=True)[1:]) for c in _COMMANDS])
def test_command_line_example_runs(line, tmp_path, monkeypatch):
    # relative --out paths land under $GHASTATES_OUTDIR, a relative --config
    # is read from the working directory; both are tmp_path here
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data").mkdir()
    ini = _block("### Configuration files", "ini")
    table = next(part for part in ini.split("\n\n") if "energies" in part)
    (tmp_path / "table.cfg").write_text(table, encoding="utf-8")
    program, *args = shlex.split(line, comments=True)
    assert program == "ghastates"
    res = CliRunner().invoke(main, args,
                             env={"GHASTATES_OUTDIR": str(tmp_path)})
    assert res.exit_code == 0, res.output
