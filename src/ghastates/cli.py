"""Command-line front end.

Every computation routes through the library; the CLI only parses,
validates, dispatches, and writes files.  Exit codes: 0 success,
1 validation error, 2 numerical failure (tolerance/convergence),
3 I/O error.  Flag values override config-file values, which override
defaults; relative output paths resolve against $GHASTATES_OUTDIR when set.
"""

from __future__ import annotations

import functools
import os
import sys
import warnings
from pathlib import Path

import click

from . import __version__
from .algebra import build_rep, verify_algebra
from .config import (
    _canonical,
    _write_lines,
    load_key_values,
    spectrum_from_config,
)
from .dynamics import trace, write_trace_csv
from .errors import (
    GhaError,
    ImaginaryResidualError,
    NegativeVarianceError,
    NonFiniteResultError,
    TailBoundError,
    UncertaintyFloorError,
    require_positive,
)
from .spectrum import (
    EV,
    MorsePhysicalParams,
    levels,
    make_spectrum,
    nilpotency_index,
)

OUTDIR_ENV = "GHASTATES_OUTDIR"

EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

_NUMERICAL_ERRORS = (TailBoundError, NegativeVarianceError,
                     ImaginaryResidualError, UncertaintyFloorError,
                     NonFiniteResultError)

# standard curve sets: two labels per system, phase 0, unit energy scale.
# The last entry reproduces the O2 Morse ladder with its published
# parameterization (p = 7.59, eight bound levels).
FIGURES = {
    1: ("type1", "gha", (0.1, 0.5)),
    2: ("type1", "linear", (0.1, 0.5)),
    3: ("type2", "gha", (0.1, 0.5)),
    4: ("type2", "linear", (0.1, 0.5)),
    5: ("hydrogen", "gha", (0.1, 0.5)),
    6: ("hydrogen", "linear", (0.1, 0.5)),
    7: ("morse", "gha", (0.03, 0.1)),
}
O2_P = 7.59

click.UsageError.exit_code = EXIT_VALIDATION


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guard(fn, *args, **kwargs):
    # echo what the active filters let through; "-W error" still raises
    with warnings.catch_warnings():
        warnings.showwarning = lambda m, *_: click.echo(f"warning: {m}", err=True)
        try:
            return fn(*args, **kwargs)
        except _NUMERICAL_ERRORS as exc:
            _fail(EXIT_NUMERICAL, str(exc))
        except (GhaError, ValueError) as exc:
            _fail(EXIT_VALIDATION, str(exc))
        except OSError as exc:
            _fail(EXIT_IO, str(exc))


def _open_out(path: str | Path, force: bool) -> Path:
    """The path to write, a relative one under $GHASTATES_OUTDIR when set;
    exits unless its directory exists and ``force`` or no file is there."""
    p = Path(path)
    base = os.environ.get(OUTDIR_ENV)
    if base and not p.is_absolute():
        p = Path(base) / p
    if p.exists() and not force:
        _fail(EXIT_VALIDATION, f"{p} exists; pass --force to overwrite")
    if p.parent and not p.parent.exists():
        _fail(EXIT_IO, f"output directory {p.parent} does not exist")
    return p


def _merged(ctx: click.Context, config: str | None) -> dict:
    """Effective parameters: command line > config file > defaults.  A file
    may hold any command's options, so one file serves several commands;
    ``energies`` stays a string for the builder, and any other key exits."""
    values = dict(ctx.params)
    if not config:
        return values
    src = click.core.ParameterSource
    params = {p.name: p for p in ctx.command.params}
    known = {p.name for c in main.commands.values() for p in c.params
             if isinstance(p, click.Option)} | {"energies"}
    for spelt, raw in _guard(load_key_values, config).items():
        key = _canonical(spelt)
        if key not in known:
            _fail(EXIT_VALIDATION,
                  f"config key {spelt!r} is not an option of any command")
        if key == "config" or ctx.get_parameter_source(key) == src.COMMANDLINE:
            continue
        param = params.get(key)
        if param is None:
            values[key] = raw
        elif getattr(param, "is_flag", False):
            values[key] = raw.lower() in ("1", "true", "yes", "on")
        else:
            try:
                values[key] = param.type.convert(raw, param, ctx)
            except click.UsageError as exc:
                _fail(EXIT_VALIDATION, f"config key {key!r}: {exc}")
    return values


def _options(*decorators):
    """Apply click options in this order, the order --help lists them."""
    return lambda fn: functools.reduce(lambda f, d: d(f), decorators[::-1], fn)


# the options that define a Morse ladder; morse-info takes these alone
_MORSE_OPTIONS = (
    click.option("--p", type=float, default=None,
                 help="Morse well parameter p."),
    click.option("--beta", type=float, default=None,
                 help="Morse inverse width in 1/m."),
    click.option("--v0", type=float, default=None,
                 help="Morse well depth in eV."),
    click.option("--mr", type=float, default=None,
                 help="Reduced mass in kg."),
    click.option("--override-nmax", type=int, default=None,
                 help="Pin the number of Morse levels to n_max + 1."),
    click.option("--override-nu", type=float, default=None,
                 help="Use this nu instead of the physical-constant value."),
    click.option("--override-p", type=float, default=None,
                 help="Use this p instead of the physical-constant value."),
)
_spectrum_options = _options(
    click.option("--system", type=str, default=None,
                 help="System tag: harmonic, q-deformed, square-well, "
                      "type1, type2, hydrogen, morse."),
    click.option("--b", type=float, default=1.0, show_default=True,
                 help="Dimensionless energy constant of the b-scaled systems."),
    click.option("--q", type=float, default=None,
                 help="Deformation parameter of the q-deformed ladder."),
    *_MORSE_OPTIONS,
    click.option("--config", type=click.Path(exists=True, dir_okay=False),
                 default=None, help="key=value config file."),
)


@click.group()
@click.version_option(version=__version__, prog_name="ghastates")
def main() -> None:
    """Ladder-operator quantum systems: spectra, coherent states, and
    uncertainty-product dynamics."""


@main.command()
@_spectrum_options
@click.option("--dim", type=int, default=None, help="Truncation dimension: "
              "30, or n_max for a table; Morse takes only n_max + 1.")
@click.option("--tol", type=float, default=1e-12, show_default=True,
              help="Pass tolerance for the scaled identity residuals.")
@click.option("--out", type=str, default=None,
              help="Write the report to this file instead of stdout.")
@click.option("--format", "fmt", type=click.Choice(["text", "records"]),
              default="text", show_default=True,
              help="records = one tab-separated line per identity.")
@click.option("--force", is_flag=True, help="Overwrite an existing --out file.")
@click.pass_context
def verify(ctx, **kwargs) -> None:
    """Check every algebraic identity numerically; exit 0 iff all pass."""
    v = _merged(ctx, kwargs.get("config"))
    spec = _guard(spectrum_from_config, v)
    dim = v["dim"]
    if dim is None:  # Morse whole; a table, each level that has an image
        dim = nilpotency_index(spec) or (
            30 if spec.max_level is None else spec.max_level)
    rep = _guard(build_rep, spec, dim)
    report = _guard(verify_algebra, rep, spec, v["tol"])
    body = "\n".join(report.to_records()) if v["fmt"] == "records" \
        else report.to_text()
    if v["out"]:
        path = _open_out(v["out"], v["force"])
        _guard(_write_lines, [body], path)
        click.echo(f"wrote {path}")
    else:
        click.echo(body)
    if not report.passed:
        _fail(EXIT_NUMERICAL,
              f"identity residuals exceed tol = {v['tol']:g}")


@main.command(name="trace")
@_spectrum_options
@click.option("--kind", type=click.Choice(["gha", "linear"]), default="gha",
              show_default=True, help="Coherent-state family.")
@click.option("--r", type=float, default=None,
              help="State label radius (required here or in --config).")
@click.option("--phi", type=float, default=0.0, show_default=True,
              help="State label phase.")
@click.option("--t-start", type=float, default=0.0, show_default=True)
@click.option("--t-end", type=float, default=100.0, show_default=True)
@click.option("--points", type=int, default=2001, show_default=True)
@click.option("--path", "route", type=click.Choice(["oracle", "series", "both"]),
              default="oracle", show_default=True,
              help="Evaluation route; 'both' adds a discrepancy column.")
@click.option("--tol", type=float, default=1e-9, show_default=True,
              help="With --path both: largest allowed route discrepancy.")
@click.option("--out", type=str, required=True, help="Output CSV path.")
@click.option("--force", is_flag=True, help="Overwrite an existing file.")
@click.pass_context
def trace_cmd(ctx, **kwargs) -> None:
    """Write the uncertainty product over a time grid as CSV."""
    v = _merged(ctx, kwargs.get("config"))
    if v.get("r") is None:
        _fail(EXIT_VALIDATION, "--r is required (flag or config)")
    _guard(require_positive, tol=v["tol"])
    spec = _guard(spectrum_from_config, v)
    tr = _guard(trace, spec, v["kind"], v["r"], v["phi"], v["t_start"],
                v["t_end"], v["points"], v["route"])
    path = _open_out(v["out"], v["force"])
    _guard(write_trace_csv, tr, path)
    click.echo(f"wrote {path}")
    if spec.system == "morse" and spec.omega:
        click.echo(f"time column is omega*t with omega = {spec.omega:.6g} rad/s "
                   f"(1 time unit = {1.0 / spec.omega:.6g} s)")
    if tr.max_discrepancy is not None:
        click.echo(f"max route discrepancy: {tr.max_discrepancy:.3e}")
        if tr.max_discrepancy > v["tol"]:
            _fail(EXIT_NUMERICAL,
                  f"route discrepancy {tr.max_discrepancy:.3e} exceeds "
                  f"tol = {v['tol']:g}")


@main.command(name="figure")
@click.argument("figure_id", type=str)
@click.option("--out-dir", type=str, default=".", show_default=True,
              help="Directory for the CSV bundle and manifest.")
@click.option("--t-end", type=float, default=60.0, show_default=True,
              help="Window end; 60 covers several periods of every "
                   "dominant oscillation in these curve sets.")
@click.option("--points", type=int, default=2001, show_default=True)
@click.option("--force", is_flag=True, help="Overwrite existing files.")
def figure_cmd(figure_id, out_dir, t_end, points, force) -> None:
    """Reproduce one standard curve set (1..7, or 'o2' for the Morse set)."""
    key = figure_id.strip().lower()
    if key == "o2":
        fid = 7
    else:
        try:
            fid = int(key)
        except ValueError:
            fid = -1
    if fid not in FIGURES:
        _fail(EXIT_VALIDATION,
              f"unknown figure id {figure_id!r}; choose 1..7 or 'o2'")
    system, kind, radii = FIGURES[fid]
    spec = make_spectrum(system, p=O2_P)  # only the Morse ladder reads p

    # check every target before the first write: a refused bundle writes none
    names = [f"fig{fid}_{system}_{kind}_r{r:g}.csv" for r in radii]
    targets = [_open_out(Path(out_dir) / name, force)
               for name in names + [f"fig{fid}_manifest.csv"]]
    manifest = ["file,system,kind,r,phi,t_start,t_end,points,path"]
    for r, name, target in zip(radii, names, targets):
        tr = _guard(trace, spec, kind, r, 0.0, 0.0, t_end, points, "series")
        _guard(write_trace_csv, tr, target)
        manifest.append(f"{name},{system},{kind},{r:g},0,0,{t_end:g},"
                        f"{points},series")
    _guard(_write_lines, manifest, targets[-1])
    for target in targets:
        click.echo(f"wrote {target}")


@main.command(name="morse-info")
@_options(*_MORSE_OPTIONS)
@click.pass_context
def morse_info(ctx, **kwargs) -> None:
    """Report nu, p, the level table, and the time scale of a Morse well."""
    v = dict(ctx.params)
    v["system"] = "morse"
    physical = all(v.get(f) is not None for f in ("beta", "v0", "mr"))
    if physical:
        phys = _guard(MorsePhysicalParams, beta=v["beta"], V0=v["v0"] * EV,
                      m_r=v["mr"])
        click.echo(f"nu from constants: {phys.nu:.6g}")
        click.echo(f"omega = hbar beta^2 / 2 m_r = {phys.omega:.6g} rad/s")
    spec = _guard(spectrum_from_config, v)
    click.echo(f"p = {spec.p:.6g}")
    click.echo(f"n_max = {spec.max_level}")
    click.echo(f"nilpotency index = {nilpotency_index(spec)}")
    click.echo("level table (dimensionless energies):")
    for n, eps in enumerate(levels(spec, spec.max_level + 1)):
        click.echo(f"  n = {n:>3d}   eps = {eps:.12g}")


if __name__ == "__main__":
    main()
