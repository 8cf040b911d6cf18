"""The benchmark's workloads: seeded op lists, op execution and the gate.

A workload turns ``--seed`` into a fixed list of ops before any timing; one op
is one ``trace()`` call or one CLI invocation.  Radii and dimensions are drawn
by stratified sampling (one uniform draw in each of ``m`` equal strata of the
range, per system), so every seed gives the same cost mix and only the exact
points move.  That keeps the spread between seeds small without fixing the
inputs.

Every op result passes through ``check``, which raises ``GateFailure`` when
the output is wrong.  A repeated op must reproduce the digest of its first
run; the first run of each op gets the full check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TOL = 1e-9
FLOOR = 0.5 - TOL
TRACE_COLUMNS = ["t", "mean_xi", "mean_rho", "var_xi", "var_rho",
                 "uncertainty"]
# the tabulated ladder of the README's configuration example
README_TABLE = "0.0, 0.5, 0.6667, 0.75"


class GateFailure(Exception):
    """An op completed but its output fails the correctness gate."""


class CliExit(Exception):
    """A CLI op exited with a non-zero code."""

    def __init__(self, code, stderr: str):
        super().__init__(f"exit {code}: {stderr.strip()}")
        self.code = code


@dataclass(frozen=True)
class Op:
    """One unit of timed work.

    ``variant`` groups ops of one kind (the warm-up runs the smallest op of
    each variant); ``params`` is JSON-serializable and fully determines the op.
    """

    variant: str
    size: float
    params: dict


def stratified(rng: random.Random, lo: float, hi: float, m: int) -> list[float]:
    """``m`` (even) points in [lo, hi): for each of ``m // 2`` equal strata
    one uniform draw ``u`` and its mirror ``1 - u`` (antithetic pair), so a
    cost that varies smoothly with the point hardly changes between seeds."""
    strata = m // 2
    points = []
    for i in range(strata):
        u = rng.random()
        points += [lo + (hi - lo) * (i + u) / strata,
                   lo + (hi - lo) * (i + 1.0 - u) / strata]
    return points


def _finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(a))) for a in arrays if a is not None)


def _trace_digest(tr) -> bytes:
    h = hashlib.sha256()
    for a in (tr.t_grid, tr.values, tr.mean_xi, tr.mean_rho, tr.var_xi,
              tr.var_rho, tr.alt_values):
        if a is not None:
            h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


class Workload:
    """A set of ops with its gate: ``check`` compares a repeated op with its
    first output and runs ``validate`` on first outputs."""

    name = ""
    # span name of the op's entry layer when the benchmark calls it directly;
    # None when the entry point is itself a wrapped library function
    entry_layer: str | None = None

    def __init__(self, g, workdir: Path):
        self.g = g
        self.workdir = workdir
        self._seen: dict[int, bytes] = {}

    def make_ops(self, seed: int) -> list[Op]:
        raise NotImplementedError

    def prepare(self, ops: list[Op]) -> None:
        """Untimed per-process set-up for ``ops`` (spectra, files)."""

    def run(self, i: int, op: Op):
        raise NotImplementedError

    def digest(self, i: int, op: Op, result) -> bytes:
        raise NotImplementedError

    def validate(self, i: int, op: Op, result) -> None:
        raise NotImplementedError

    def digests(self) -> dict[int, bytes]:
        """Output digest of every op that has passed the gate."""
        return dict(self._seen)

    def check(self, i: int, op: Op, result) -> None:
        """Raise GateFailure unless ``result`` is a correct output of op ``i``."""
        d = self.digest(i, op, result)
        first = self._seen.get(i)
        if first is not None:
            if d != first:
                raise GateFailure(f"op {i} ({op.variant}) repeated with "
                                  "different output")
            return
        self.validate(i, op, result)
        self._seen[i] = d


# ---------------------------------------------------------------------------
# library workloads

class _LibraryTrace(Workload):
    """Ops are direct ``ghastates.trace`` calls on prebuilt spectra."""

    T_END = 100.0
    POINTS = 2001
    PATH = "oracle"
    # (system, kind, r_lo, r_hi, extra spectrum parameters)
    SYSTEMS: tuple = ()
    PER_SYSTEM = 1

    def make_ops(self, seed: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        ops = []
        for system, kind, lo, hi, extra in self.SYSTEMS:
            # the top of the range is always run: it sets peak memory
            for r in stratified(rng, lo, hi, self.PER_SYSTEM) + [hi]:
                params = {"system": system, "kind": kind, "r": r,
                          "phi": 2.0 * math.pi * rng.random(), **extra}
                params.update(self.extra_params(rng))
                ops.append(Op(f"{system}/{kind}", r, params))
        rng.shuffle(ops)
        return ops

    def extra_params(self, rng: random.Random) -> dict:
        return {}

    def prepare(self, ops: list[Op]) -> None:
        self._specs = {i: self._spectrum(op.params) for i, op in enumerate(ops)}

    def _spectrum(self, p: dict):
        if p["system"] == "morse":
            return self.g.morse(p["p"])
        return self.g.make_spectrum(p["system"])

    def run(self, i: int, op: Op):
        p = op.params
        return self.g.trace(self._specs[i], p["kind"], p["r"], p["phi"], 0.0,
                            self.T_END, self.POINTS, self.PATH)

    def digest(self, i: int, op: Op, result) -> bytes:
        return _trace_digest(result)

    def validate(self, i: int, op: Op, tr) -> None:
        if len(tr.values) != self.POINTS:
            raise GateFailure(f"op {i}: {len(tr.values)} points, "
                              f"expected {self.POINTS}")
        if not _finite(tr.t_grid, tr.values, tr.alt_values, tr.mean_xi,
                       tr.mean_rho, tr.var_xi, tr.var_rho):
            raise GateFailure(f"op {i} ({op.variant}): non-finite output")
        if not float(tr.values.min()) >= FLOOR:
            raise GateFailure(f"op {i} ({op.variant}): uncertainty below 1/2")


class OracleNearRadius(_LibraryTrace):
    """``trace(path="both")`` near the convergence radius.

    State dims of 80-380 make the dense O(dim^2 T) oracle grid the main cost;
    the series route runs alongside and the routes are cross-checked.
    """

    name = "oracle-near-radius"
    PATH = "both"
    SYSTEMS = (
        ("type1", "gha", 0.8, 0.95, {}),
        ("type2", "gha", 0.8, 0.95, {}),
        ("hydrogen", "gha", 0.8, 0.95, {}),
        ("harmonic", "linear", 8.0, 12.0, {}),
    )
    PER_SYSTEM = 28  # plus the top of each range: 116 ops

    def validate(self, i: int, op: Op, tr) -> None:
        super().validate(i, op, tr)
        if tr.alt_values is None or not tr.max_discrepancy <= TOL:
            raise GateFailure(f"op {i} ({op.variant}): route discrepancy "
                              f"{tr.max_discrepancy!r} exceeds {TOL:g}")


class SeriesDenseGrid(_LibraryTrace):
    """``trace(path="series")`` on a 20001-point grid: no matrix work, the
    trig kernel does most of each call."""

    name = "series-dense-grid"
    T_END = 1000.0
    POINTS = 20001
    PATH = "series"
    SYSTEMS = (
        ("type1", "gha", 0.3, 0.9, {}),
        ("type1", "linear", 0.3, 0.9, {}),
        ("type2", "gha", 0.3, 0.9, {}),
        ("type2", "linear", 0.3, 0.9, {}),
        ("hydrogen", "gha", 0.3, 0.9, {}),
        ("hydrogen", "linear", 0.3, 0.9, {}),
        ("harmonic", "linear", 3.0, 10.0, {}),
        ("morse", "gha", 0.03, 0.3, {"p": 7.59}),
    )
    PER_SYSTEM = 14  # plus the top of each range: 120 ops
    CHECK_POINTS = 3

    def extra_params(self, rng: random.Random) -> dict:
        return {"check_at": sorted(rng.sample(range(self.POINTS),
                                              self.CHECK_POINTS))}

    def validate(self, i: int, op: Op, tr) -> None:
        super().validate(i, op, tr)
        g, p = self.g, op.params
        spec = self._specs[i]
        z = p["r"] * complex(math.cos(p["phi"]), math.sin(p["phi"]))
        if p["kind"] == "gha":
            state = g.gha_coherent_state(spec, z)
        else:
            state = g.linear_coherent_state(z, None, spec.index_offset)
        dim = spec.max_level + 1 if spec.max_level is not None \
            else state.dim + 2
        rep = g.build_rep(spec, dim)
        for k in p["check_at"]:
            t = float(tr.t_grid[k])
            want = g.uncertainty(g.expectations_oracle(g.evolve(state, spec, t),
                                                       rep))
            if not abs(float(tr.values[k]) - want) <= TOL:
                raise GateFailure(
                    f"op {i} ({op.variant}): series {tr.values[k]!r} vs "
                    f"oracle {want!r} at t = {t:g}")


# ---------------------------------------------------------------------------
# CLI workload

@dataclass(frozen=True)
class CliResult:
    stdout: str
    files: tuple  # paths written by the op, sorted


class CliBundle(Workload):
    """In-process calls of the click ``main`` with argument lists.

    Every op writes into its own directory under the work dir (``{dir}`` in
    the stored arguments), overwriting with ``--force`` when it repeats.
    """

    name = "cli-bundle"
    entry_layer = "cli"

    # (CLI system tag, extra flags, r range, series route available)
    TRACE_SYSTEMS = (
        ("harmonic", (), (1.0, 3.0), True),
        ("q-deformed", ("--q", "0.75"), (0.6, 1.4), False),
        ("square-well", ("--b", "2"), (1.0, 3.0), False),
        ("type1", (), (0.3, 0.7), True),
        ("type2", (), (0.3, 0.7), True),
        ("hydrogen", (), (0.3, 0.7), True),
        ("morse", ("--p", "7.59"), (0.03, 0.3), True),
    )
    # copies of the op mix per list: enough distinct ops for a 90th percentile
    # with ten ops beyond it
    BLOCKS = 4
    VERIFY_SYSTEMS = (("harmonic",), ("q-deformed", "--q", "0.75"),
                      ("square-well", "--b", "2"), ("type1",), ("type2",),
                      ("hydrogen",))

    def make_ops(self, seed: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        ops = []
        for _ in range(self.BLOCKS):
            ops += self._block(rng)
        rng.shuffle(ops)
        return ops

    def _block(self, rng: random.Random) -> list[Op]:
        """One copy of the fixed op mix, with freshly drawn parameters."""
        ops = []
        for fid in range(1, 8):
            label = "o2" if fid == 7 and rng.random() < 0.5 else str(fid)
            ops.append(Op("figure", 2001,
                          {"args": ["figure", label, "--out-dir", "{dir}",
                                    "--force"], "points": 2001}))

        # two traces per catalog system, one on each grid size; of the ten
        # ops on series-capable systems, four take the default oracle route
        routes = ["oracle"] * 4 + ["series"] * 3 + ["both"] * 3
        rng.shuffle(routes)
        for system, flags, (lo, hi), has_series in self.TRACE_SYSTEMS:
            for points, r in zip((2001, 20001), stratified(rng, lo, hi, 2)):
                kind = "gha" if system == "morse" else rng.choice(("gha",
                                                                   "linear"))
                args = ["trace", "--system", system, *flags, "--kind", kind,
                        "--r", f"{r:.6f}", "--phi",
                        f"{2.0 * math.pi * rng.random():.6f}",
                        "--points", str(points)]
                route = routes.pop() if has_series else "oracle"
                if route != "oracle":
                    args += ["--path", route]
                args += ["--out", "{dir}/trace.csv", "--force"]
                ops.append(Op("trace", points, {"args": args,
                                                "points": points}))

        for dim in stratified(rng, 30, 200, 4):
            args = ["verify", "--system", *rng.choice(self.VERIFY_SYSTEMS),
                    "--dim", str(int(dim)), "--format",
                    rng.choice(("text", "records"))]
            ops.append(Op("verify", dim, {"args": args}))

        ops.append(Op("morse-info", 0, {"args": [
            "morse-info", "--beta", "2.78e10", "--v0", "5.211",
            "--mr", "1.33e-26"]}))
        ops.append(Op("morse-info", 1, {"args": [
            "morse-info", "--p", f"{rng.uniform(3.0, 10.0):.4f}"]}))

        system = rng.choice(("type1", "type2", "hydrogen"))
        configs = [
            ("config", f"system = {system}\nkind = gha\n"
                       f"r = {rng.uniform(0.3, 0.7):.6f}\npoints = 2001\n"),
            ("config", f"system = morse\np = {rng.uniform(5.0, 10.0):.4f}\n"
                       f"r = {rng.uniform(0.03, 0.3):.6f}\npoints = 2001\n"),
            # the README's custom table exits 2 at this commit; it is
            # counted as a failed op, never filtered out
            ("config-readme", "# README custom table\nsystem = custom\n"
                              f"energies = {README_TABLE}\nr = 0.5\n"),
        ]
        for variant, text in configs:
            text += f"phi = {2.0 * math.pi * rng.random():.6f}\n"
            ops.append(Op(variant, 2001, {
                "config": text, "points": 2001,
                "args": ["trace", "--config", "{dir}/op.cfg",
                         "--out", "{dir}/trace.csv", "--force"]}))
        return ops

    def prepare(self, ops: list[Op]) -> None:
        from ghastates.cli import main
        self._main = main
        self._argv = {}
        for i, op in enumerate(ops):
            d = self.workdir / f"op{i:03d}"
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)
            if "config" in op.params:
                (d / "op.cfg").write_text(op.params["config"], encoding="utf-8")
            self._argv[i] = [a.replace("{dir}", str(d))
                             for a in op.params["args"]]

    def run(self, i: int, op: Op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                self._main.main(args=self._argv[i], prog_name="ghastates",
                                standalone_mode=True)
                code = 0
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
        if code != 0:
            raise CliExit(code, err.getvalue())
        d = self.workdir / f"op{i:03d}"
        files = tuple(sorted(p for p in d.iterdir() if p.name != "op.cfg"))
        return CliResult(out.getvalue(), files)

    def digest(self, i: int, op: Op, result: CliResult) -> bytes:
        # stdout names the output paths, which differ between processes
        h = hashlib.sha256(result.stdout.replace(str(self.workdir), "")
                           .encode())
        for path in result.files:
            h.update(path.name.encode())
            h.update(path.read_bytes())
        return h.digest()

    def validate(self, i: int, op: Op, result: CliResult) -> None:
        command = op.params["args"][0]
        if not result.stdout.strip():
            raise GateFailure(f"op {i} ({command}): no output on stdout")
        csvs = [p for p in result.files if p.suffix == ".csv"
                and not p.name.endswith("_manifest.csv")]
        expected = {"figure": 2, "trace": 1}.get(command, 0)
        if len(csvs) != expected:
            raise GateFailure(f"op {i} ({command}): wrote {len(csvs)} trace "
                              f"CSVs, expected {expected}")
        for path in csvs:
            check_trace_csv(path.read_text(encoding="utf-8"),
                            op.params["points"], f"op {i} {path.name}")


def check_trace_csv(text: str, points: int, label: str = "csv") -> None:
    """Gate for one trace CSV: shape, finite values, floor and discrepancy."""
    lines = text.splitlines()
    if not lines:
        raise GateFailure(f"{label}: empty file")
    header = lines[0].split(",")
    if header[:6] != TRACE_COLUMNS or header[6:] not in ([], ["discrepancy"]):
        raise GateFailure(f"{label}: unexpected header {lines[0]!r}")
    rows = lines[1:]
    if len(rows) != points:
        raise GateFailure(f"{label}: {len(rows)} rows, expected {points}")
    ncol = len(header)
    if any(row.count(",") != ncol - 1 for row in rows):
        raise GateFailure(f"{label}: ragged rows")
    try:
        data = np.array(",".join(rows).split(","), dtype=float)
    except ValueError as exc:
        raise GateFailure(f"{label}: unparsable value ({exc})") from None
    data = data.reshape(points, ncol)
    if not np.all(np.isfinite(data)):
        raise GateFailure(f"{label}: non-finite values")
    if not float(data[:, 5].min()) >= FLOOR:
        raise GateFailure(f"{label}: uncertainty {data[:, 5].min()!r} < 1/2")
    if ncol == 7 and not float(data[:, 6].max()) <= TOL:
        raise GateFailure(f"{label}: discrepancy {data[:, 6].max()!r} "
                          f"exceeds {TOL:g}")


WORKLOADS = {w.name: w for w in (OracleNearRadius, SeriesDenseGrid, CliBundle)}


def warmup_ops(ops: list[Op]) -> list[int]:
    """Index of the smallest op of each variant, in list order."""
    best: dict[str, int] = {}
    for i, op in enumerate(ops):
        j = best.get(op.variant)
        if j is None or op.size < ops[j].size:
            best[op.variant] = i
    return sorted(best.values())

