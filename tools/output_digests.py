"""Print one ``name sha256`` line per output of a fixed grid, or
``name error:<Class>`` where the output raises.

The grid: the CSV bundles of ``figure 1`` to ``7`` and ``o2``; 20001-row
traces of every catalog system (q_deformed and square_well at two
parameters each, type1 and hydrogen at two b) for both state kinds, two
radii and the three paths, each written to a file and to a text stream;
and one state CSV per system and kind.  It takes no options.  To check
that a change keeps every output's bytes, run it on both trees and diff:

    PYTHONPATH=src python tools/output_digests.py > after.txt
"""

import contextlib
import hashlib
import io
import math
import tempfile
from pathlib import Path

import ghastates as g
from ghastates.cli import main as cli
from ghastates.errors import GhaError

SPECTRA = {
    "harmonic": g.harmonic(),
    "q_deformed:q=0.5": g.q_deformed(0.5),
    "q_deformed:q=1.5": g.q_deformed(1.5),
    "q_deformed:q=0.9": g.q_deformed(0.9),
    "q_deformed:q=1+1e-6": g.q_deformed(1 + 1e-6),
    "square_well:b=1": g.square_well(1.0),
    "square_well:b=2.5": g.square_well(2.5),
    "type1:b=1": g.type1(1.0),
    "type1:b=4": g.type1(4.0),
    "type2": g.type2(),
    "hydrogen:b=1": g.hydrogen(1.0),
    "hydrogen:b=0.5": g.hydrogen(0.5),
    "morse:p=7.59": g.morse(7.59),
}
RADII = (0.3, 0.9)
PHI = 0.7
FIGURES = ("1", "2", "3", "4", "5", "6", "7", "o2")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def figures(tmp: Path):
    for fid in FIGURES:
        out = tmp / f"figure-{fid}"
        out.mkdir()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["figure", fid, "--out-dir", str(out)],
                         prog_name="ghastates", standalone_mode=False)
        except SystemExit:  # how the CLI reports a failed command
            yield f"figure/{fid}", "error:SystemExit"
            continue
        for f in sorted(out.iterdir()):
            yield f"figure/{fid}/{f.name}", _sha(f.read_bytes())


def traces(tmp: Path):
    for name, spec in SPECTRA.items():
        for kind in ("gha", "linear"):
            for r in RADII:
                for path in ("oracle", "series", "both"):
                    label = f"trace/{name}/{kind}/r={r:g}/{path}"
                    try:
                        tr = g.trace(spec, kind, r, PHI, 0.0, 100.0, 20001,
                                     path)
                    except GhaError as exc:
                        yield label, f"error:{type(exc).__name__}"
                        continue
                    target = tmp / "trace.csv"
                    g.write_trace_csv(tr, target)
                    yield f"{label}/file", _sha(target.read_bytes())
                    stream = io.StringIO()
                    g.write_trace_csv(tr, stream)
                    yield f"{label}/stream", _sha(stream.getvalue().encode())


def states(tmp: Path):
    z = RADII[0] * complex(math.cos(PHI), math.sin(PHI))
    for name, spec in SPECTRA.items():
        for kind in ("gha", "linear"):
            label = f"state/{name}/{kind}"
            try:
                state = (g.gha_coherent_state(spec, z) if kind == "gha" else
                         g.linear_coherent_state(
                             z, index_offset=spec.index_offset, within=spec))
            except GhaError as exc:
                yield label, f"error:{type(exc).__name__}"
                continue
            target = tmp / "state.csv"
            g.state_to_csv(state, target)
            yield label, _sha(target.read_bytes())


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for part in (figures, traces, states):
            for name, digest in part(Path(tmp)):
                print(name, digest)


if __name__ == "__main__":
    main()
