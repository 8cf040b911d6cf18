import dataclasses
import functools
import inspect
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import ghastates as g
from ghastates import cli
from ghastates._kernels_py import weighted_trig_sums
from ghastates.config import _csv_blocks, _g12_cells, _write_csv, _write_lines
from ghastates.dynamics import (
    _clamp_var_array,
    _moments,
    _oracle_bands,
    _plan,
    _rep_for,
    peak_deviation,
    refined_extremum,
)
from ghastates.errors import (
    ClampWarning,
    ConditioningWarning,
    DegenerateSpectrumError,
    GhaError,
    ImaginaryResidualError,
    InvalidParameterError,
    NegativeVarianceError,
    NonFiniteResultError,
    RadiusOfConvergenceError,
    TailBoundError,
    UncertaintyFloorError,
    WrongSystemError,
)
from ghastates.series import SUPPORTED, moment_series
from ghastates.spectrum import ladder_coefficients


def test_evolve_identity_at_t0():
    spec = g.type1()
    st = g.gha_coherent_state(spec, 0.4)
    assert np.array_equal(g.evolve(st, spec, 0.0).coeffs, st.coeffs)


def test_evolve_preserves_norm():
    spec = g.hydrogen()
    st = g.gha_coherent_state(spec, 0.6)
    for t in (0.3, 7.0, 123.0):
        assert abs(np.linalg.norm(g.evolve(st, spec, t).coeffs) - 1) < 1e-14


def test_morse_evolution_phase_pattern():
    # level n advances as exp(+i (p-n)^2 t) since its energy is -(p-n)^2
    spec = g.morse(7.59)
    st = g.gha_coherent_state(spec, 0.4)
    t = 2.3
    moved = g.evolve(st, spec, t)
    n = np.arange(7)
    expected = st.coeffs[:7] * np.exp(1j * (spec.p - n) ** 2 * t)
    assert np.abs(moved.coeffs[:7] - expected).max() < 1e-14


def test_basis_state_is_stationary():
    spec = g.type2()
    rep = g.build_rep(spec, 12)
    st = g.basis_state(12, 3, spectrum_id="type2")
    base = g.expectations_oracle(st, rep)
    moved = g.expectations_oracle(g.evolve(st, spec, 17.3), rep)
    for name in ("mean_xi", "mean_rho", "mean_xi2", "mean_rho2"):
        assert getattr(base, name) == pytest.approx(getattr(moved, name),
                                                    abs=1e-13)


def test_vacuum_saturates_floor():
    spec = g.harmonic()
    rep = g.build_rep(spec, 10)
    es = g.expectations_oracle(g.basis_state(10, 0), rep)
    assert es.mean_xi == 0.0 and es.mean_rho == 0.0
    assert g.uncertainty(es) == pytest.approx(0.5, abs=1e-14)


def test_harmonic_linear_cs_constant_half():
    spec = g.harmonic()
    st = g.linear_coherent_state(0.8)
    rep = _rep_for(spec, st)
    for t in (0.0, 1.7, 42.0):
        es = g.expectations_oracle(g.evolve(st, spec, t), rep)
        assert g.uncertainty(es) == pytest.approx(0.5, abs=1e-12)


def test_harmonic_textbook_mean_position():
    # third route: the classic result <xi(t)> = sqrt(2) L r cos(t - phi)
    # anchors the sign and phase conventions of both implementations
    spec = g.harmonic()
    r, phi = 0.8, 0.6
    st = g.linear_coherent_state(r * np.exp(1j * phi))
    rep = _rep_for(spec, st)
    for t in (0.0, 0.9, 2.4, 7.7):
        expected_xi = math.sqrt(2.0) * r * math.cos(t - phi)
        expected_rho = -math.sqrt(2.0) * r * math.sin(t - phi)
        eo = g.expectations_oracle(g.evolve(st, spec, t), rep)
        es = g.expectations_series(spec, "linear", r, phi, t)
        assert eo.mean_xi == pytest.approx(expected_xi, abs=1e-12)
        assert eo.mean_rho == pytest.approx(expected_rho, abs=1e-12)
        assert es.mean_xi == pytest.approx(expected_xi, abs=1e-12)
        assert es.mean_rho == pytest.approx(expected_rho, abs=1e-12)


@pytest.mark.parametrize("sysname,kind", [
    ("type1", "gha"), ("type2", "linear"), ("hydrogen", "gha"),
])
def test_series_matches_oracle_spot(sysname, kind):
    spec = g.make_spectrum(sysname)
    r, phi, t = 0.35, 1.1, 23.7
    es = g.expectations_series(spec, kind, r, phi, t)
    st = _plan(spec, kind, r, phi, "oracle")[1]
    eo = g.expectations_oracle(g.evolve(st, spec, t), _rep_for(spec, st))
    for name in ("mean_xi", "mean_rho", "mean_xi2", "mean_rho2"):
        a, b = getattr(es, name), getattr(eo, name)
        assert abs(a - b) <= 1e-9 * (1 + abs(b))


def test_series_matches_oracle_nonunit_b():
    spec = g.type1(b=2.5)
    r, phi, t = 0.3, 0.4, 11.0
    es = g.expectations_series(spec, "gha", r, phi, t)
    st = _plan(spec, "gha", r, phi, "oracle")[1]
    eo = g.expectations_oracle(g.evolve(st, spec, t), _rep_for(spec, st))
    for name in ("mean_xi", "mean_rho", "mean_xi2", "mean_rho2"):
        assert getattr(es, name) == pytest.approx(getattr(eo, name), abs=1e-10)


def test_phase_shift_rotates_first_moments():
    # shifting phi rotates (mean_xi, mean_rho) in its plane at t = 0
    spec = g.type2()
    r, phi, delta = 0.4, 0.3, 0.9
    a = g.expectations_series(spec, "gha", r, phi, 0.0)
    b = g.expectations_series(spec, "gha", r, phi + delta, 0.0)
    ua = complex(a.mean_xi / math.sqrt(2), a.mean_rho / math.sqrt(2))
    ub = complex(b.mean_xi / math.sqrt(2), b.mean_rho / math.sqrt(2))
    assert ub == pytest.approx(ua * np.exp(1j * delta), abs=1e-12)
    # for linear states of the harmonic ladder the uncertainty at t = 0
    # does not depend on the phase at all
    ha = g.harmonic()
    ta = g.trace(ha, "linear", r, phi, n_points=2, t_end=1e-9, path="series")
    tb = g.trace(ha, "linear", r, phi + delta, n_points=2, t_end=1e-9,
                 path="series")
    assert ta.values[0] == pytest.approx(tb.values[0], abs=1e-12)


def test_small_r_approaches_floor():
    for sysname in ("type1", "hydrogen"):
        spec = g.make_spectrum(sysname)
        tr = g.trace(spec, "gha", 1e-3, path="series", n_points=201)
        assert np.abs(tr.values - 0.5).max() < 1e-4


def test_trace_paths_agree():
    spec = g.type1()
    tr = g.trace(spec, "gha", 0.5, path="both", n_points=101, t_end=40.0)
    assert tr.max_discrepancy is not None and tr.max_discrepancy < 1e-10
    assert tr.alt_values is not None


# ROADMAP item 2's grid: every series pair on these spectra, r from 0 past
# the bounded ladders' radius to where the norm sum e^(r^2) overflows,
# t_end = 20; Morse at p = 0.5 has no level below its top
_GRID_SPECTRA = {"harmonic": g.harmonic(), "type1": g.type1(),
                 "type1-b37": g.type1(37.0), "type2": g.type2(),
                 "hydrogen-b0.5": g.hydrogen(0.5),
                 "morse-7.59": g.morse(7.59), "morse-2.5": g.morse(2.5),
                 "morse-0.5": g.morse(0.5)}


def _route_grid():
    for name, spec in _GRID_SPECTRA.items():
        for kind in ("gha", "linear"):
            if (spec.system, kind) not in SUPPORTED:
                continue
            for r in (0.0, 1e-8, 0.3, 0.99, 1.2, 5.0, 27.0):
                for n_points in (2, 3, 2001):
                    yield pytest.param(spec, kind, r, n_points,
                                       id=f"{name}-{kind}-r{r:g}-{n_points}")


def _outcome(spec, kind, r, n_points, path, phi=0.0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        warnings.simplefilter("ignore", ClampWarning)
        try:
            return g.trace(spec, kind, r, phi, t_end=20.0, n_points=n_points,
                           path=path)
        except GhaError as exc:
            return type(exc)


@pytest.mark.parametrize("spec, kind, r, n_points", _route_grid())
def test_routes_agree_on_every_outcome(spec, kind, r, n_points):
    # both routes raise the same class, or both return values within 1e-9
    oracle, series = (_outcome(spec, kind, r, n_points, path)
                      for path in ("oracle", "series"))
    if isinstance(oracle, type) or isinstance(series, type):
        assert oracle is series
    else:
        assert np.abs(oracle.values - series.values).max() <= 1e-9


# 25 examples for each of the 9 pairs: 225 in all
@pytest.mark.parametrize("system, kind", SUPPORTED)
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(log_b=st.floats(-2.0, 4.0),
       p=st.floats(1.5, 20.0, exclude_min=True, exclude_max=True).filter(
           lambda p: not p.is_integer()),
       # about half the draws in the last 5% before the largest r, where
       # the 2,000-term cap binds
       frac=st.floats(0.0, 1.0) | st.floats(0.95, 1.0),
       phi=st.floats(-10.0, 10.0),
       n_points=st.sampled_from((2, 3, 101)),
       # about half the draws of the exponential weights and of Morse in the
       # windows where the routes once ended differently
       window=st.none() | st.floats(0.0, 1.0))
def test_routes_agree_on_drawn_labels(system, kind, log_b, p, frac, phi,
                                      n_points, window):
    # the grid above at drawn points: r up to 0.999 of the radius, or to 27
    # where there is none; an infinite ladder's series sums exactly the
    # terms of the state, whose length one tail rule picks.  In the
    # windows, r is in [26.55, 26.75] for the exponential weights (harmonic
    # and every linear state) and log10 r in [25, 160] for Morse
    if system == "morse":
        spec = g.morse(p)
    elif system == "harmonic":
        spec = g.harmonic()
    else:
        spec = g.make_spectrum(system, b=10.0 ** log_b)
    radius = g.convergence_radius(spec) if kind == "gha" else math.inf
    r = frac * min(0.999 * radius, 27.0)
    if window is not None and system == "morse":
        r = 10.0 ** (25.0 + 135.0 * window)
    elif window is not None and (system == "harmonic" or kind == "linear"):
        r = 26.55 + 0.2 * window
    oracle, series = (_outcome(spec, kind, r, n_points, path, phi)
                      for path in ("oracle", "series"))
    if isinstance(oracle, type) or isinstance(series, type):
        assert oracle is series
        return
    assert np.abs(oracle.values - series.values).max() <= 1e-9
    if system != "morse" and r > 0.0:
        both = _outcome(spec, kind, r, n_points, "both", phi)
        dim = both.meta["dim"]
        assert both.meta["terms"] == (dim - 1, dim - 2)


def test_trace_floor_and_meta():
    spec = g.morse(7.59)
    tr = g.trace(spec, "gha", 0.1, path="oracle", n_points=301, t_end=20.0)
    assert tr.values.min() >= 0.5 - 1e-9
    assert tr.meta["system"] == "morse" and tr.meta["dim"] == 8
    assert tr.meta["path"] == "oracle"


_MORSE_LINEAR = "^the finite Morse ladder admits no linear coherent state$"
_SHORT_TABLE = (r"^the finite custom ladder holds 4 levels; the linear "
                r"coherent state at \|z\| = 0.1 needs 6$")


def test_trace_validation():
    spec = g.type1()
    with pytest.raises(InvalidParameterError):
        g.trace(spec, "gha", 0.1, n_points=1)
    with pytest.raises(InvalidParameterError):
        g.trace(spec, "gha", 0.1, t_end=0.0)
    with pytest.raises(InvalidParameterError):
        g.trace(spec, "gha", 0.1, path="magic")
    with pytest.raises(WrongSystemError):
        g.trace(g.square_well(), "gha", 0.1, path="series")
    # one message per bad label on every route
    for path in ("oracle", "series", "both"):
        with pytest.raises(WrongSystemError, match=_MORSE_LINEAR):
            g.trace(g.morse(7.59), "linear", 0.1, path=path, n_points=11)
        with pytest.raises(WrongSystemError,
                           match="unknown state kind 'bogus'"):
            g.trace(spec, "bogus", 0.1, path=path, n_points=11)
        # a table too short for the linear state: the fit check names the
        # ladder before either route sums anything, the series one included
        with pytest.raises(WrongSystemError, match=_SHORT_TABLE):
            g.trace(g.from_table([0, 0.5, 0.6667, 0.75]), "linear", 0.1,
                    path=path, n_points=11)
        # the oracle alone would build a state at |z| = 0.1
        with pytest.raises(RadiusOfConvergenceError,
                           match=r"^r must be >= 0$"):
            g.trace(spec, "gha", -0.1, 0.7, path=path, n_points=11)


def test_linear_state_must_fit_its_table():
    table = g.from_table([0, 0.5, 0.6667, 0.75])
    # the builder checks the fit as trace does
    with pytest.raises(WrongSystemError, match=_SHORT_TABLE):
        g.linear_coherent_state(0.1, within=table)
    # before the state is formed, on every route; from r = 26.642 on, the
    # tail pass's total overflows before it finds the state's length
    for path in ("oracle", "series", "both"):
        with pytest.raises(WrongSystemError, match=r"\| = 26 needs 885$"):
            g.trace(table, "linear", 26.0, path=path, n_points=11)
        with pytest.raises(NonFiniteResultError, match="r = 30:"):
            g.trace(table, "linear", 30.0, path=path, n_points=11)
    # the builder checks an explicit dim as the state's length
    with pytest.raises(WrongSystemError, match=r"\| = 0.1 needs 5$"):
        g.linear_coherent_state(0.1, 5, within=table)


def _count_calls(monkeypatch, module, name):
    real, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_linear_state_on_a_table_runs_one_tail_pass(monkeypatch):
    from ghastates import states
    calls = _count_calls(monkeypatch, states, "_adaptive_count")
    table = g.from_table([0.5 * n + 0.01 * n * n for n in range(40)])
    assert g.trace(table, "linear", 0.5, n_points=11).meta["dim"] == 11
    assert len(calls) == 1
    # the series route builds the state for its fit check, then has no
    # closed form for a table
    for path in ("series", "both"):
        calls.clear()
        with pytest.raises(WrongSystemError, match="no closed-form"):
            g.trace(table, "linear", 0.5, path=path, n_points=11)
        assert len(calls) == 1, path


def test_series_plan_builds_a_state_only_for_a_fit_check(monkeypatch):
    from ghastates import states
    builds = _count_calls(monkeypatch, states, "_coefficients")
    table = g.from_table([0.5 * n + 0.01 * n * n for n in range(40)])
    with pytest.raises(WrongSystemError, match="no closed-form"):
        g.trace(table, "linear", 0.5, path="series", n_points=11)
    assert len(builds) == 1
    builds.clear()
    for kind in ("gha", "linear"):
        g.trace(g.type1(), kind, 0.5, path="series", n_points=11)
        g.expectations_series(g.type1(), kind, 0.5, 0.3, 1.0)
    assert builds == []


def test_builders_take_the_plans_verdict_on_r():
    # |r e^{i phi}| rounds up to the radius here; judged on r, the label is
    # inside it, and every route runs out of terms alike
    r, phi = math.nextafter(1.0, 0.0), 0.12007167122020188
    assert abs(r * complex(math.cos(phi), math.sin(phi))) == 1.0
    for path in ("oracle", "series", "both"):
        with pytest.warns(ConditioningWarning), \
                pytest.raises(TailBoundError, match="not reached"):
            g.trace(g.type2(), "gha", r, phi, path=path, n_points=11)
    with pytest.warns(ConditioningWarning), \
            pytest.raises(TailBoundError, match="not reached"):
        g.expectations_series(g.type2(), "gha", r, phi, 0.0)
    # a builder called alone judges |z|
    with pytest.raises(RadiusOfConvergenceError, match="outside"):
        g.gha_coherent_state(g.type2(),
                             r * complex(math.cos(phi), math.sin(phi)))


def test_trace_raises_below_the_floor(monkeypatch):
    # no catalog input dips below hbar/2; a floor moved above every value
    # stands in for one
    from ghastates import dynamics
    monkeypatch.setattr(dynamics, "_FLOOR_TOL", -1.0)
    with pytest.raises(UncertaintyFloorError,
                       match=r"dipped to 0\.5\d*, below hbar/2"):
        g.trace(g.type1(), "gha", 0.1, n_points=5)


@pytest.mark.parametrize("dip, raises", [(1.2e-9, True), (0.8e-9, False)])
def test_floor_tolerance_is_one_in_a_billion(dip, raises, monkeypatch):
    # moments whose product dips to 1/2 - dip at one point: the floor
    # forgives 1e-9 below hbar/2, and not 1.2e-9
    from ghastates import dynamics

    def moments(routes, times):
        product = np.full(len(times), 0.75)
        product[2] = 0.5 - dip
        zero, one = np.zeros(len(times)), np.ones(len(times))
        return [(zero, zero, product * product, one)]

    monkeypatch.setattr(dynamics, "_moments", moments)
    if raises:
        with pytest.raises(UncertaintyFloorError, match="dipped to 0.4999999"):
            g.trace(g.type1(), "gha", 0.1, n_points=5)
    else:
        tr = g.trace(g.type1(), "gha", 0.1, n_points=5)
        assert tr.values.min() == pytest.approx(0.5 - dip, rel=1e-15)


def test_oracle_expectation_checks():
    rep = g.build_rep(g.harmonic(), 3)
    with pytest.raises(InvalidParameterError, match="exceeds representation"):
        g.expectations_oracle(g.basis_state(4), rep)
    # a generator whose sub-band is not the conjugate of its super-band
    skew = g.AlgebraRep("harmonic", np.zeros(2), np.ones(1),
                        (np.ones(1), 1j * np.ones(1)), (np.ones(1), np.ones(1)))
    state = g.FockState(np.full(2, math.sqrt(0.5)), 0, "harmonic")
    with pytest.raises(ImaginaryResidualError, match="imaginary part"):
        g.expectations_oracle(state, skew)


def test_square_well_oracle_trace_available():
    tr = g.trace(g.square_well(), "gha", 0.5, path="oracle", n_points=51,
                 t_end=5.0)
    assert tr.values.min() >= 0.5 - 1e-9


def test_trace_csv_format_and_determinism():
    spec = g.type1()
    tr = g.trace(spec, "gha", 0.3, n_points=11, t_end=5.0, path="series")
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        g.write_trace_csv(tr, buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]
    lines = bufs[0].splitlines()
    assert lines[0] == "t,mean_xi,mean_rho,var_xi,var_rho,uncertainty"
    assert len(lines) == 12
    # discrepancy column appears only for the dual-path trace
    tr2 = g.trace(spec, "gha", 0.3, n_points=11, t_end=5.0, path="both")
    buf = io.StringIO()
    g.write_trace_csv(tr2, buf)
    assert buf.getvalue().splitlines()[0].endswith(",discrepancy")


def _reference_trace_csv(tr, path):
    # the per-value writer the row template replaced
    cols = ["t", "mean_xi", "mean_rho", "var_xi", "var_rho", "uncertainty"]
    arrays = [tr.t_grid, tr.mean_xi, tr.mean_rho, tr.var_xi, tr.var_rho,
              tr.values]
    if tr.alt_values is not None:
        cols.append("discrepancy")
        arrays.append(np.abs(tr.values - tr.alt_values))
    lines = [",".join(cols)]
    for row in zip(*arrays):
        lines.append(",".join(f"{x:.12g}" for x in row))
    _write_lines(lines, path)


def _csv_pair(tr):
    got, ref = io.StringIO(), io.StringIO()
    g.write_trace_csv(tr, got)
    _reference_trace_csv(tr, ref)
    return got.getvalue(), ref.getvalue()


# signed zeros, the smallest subnormal, huge, non-finite and values whose
# 13th digit rounds half (the last two exactly, to even)
_SPOT_VALUES = np.array([0.0, -0.0, 5e-324, 1e300, math.nan, math.inf,
                         -math.inf, 1.0000000000005, -2.5e-7,
                         100000000000.5, 100000000001.5, 0.1])


@pytest.mark.parametrize("with_alt", [False, True],
                         ids=["no-discrepancy", "discrepancy"])
def test_trace_csv_spot_values_match_per_value_format(with_alt):
    cols = [np.roll(_SPOT_VALUES, k) for k in range(6)]
    tr = g.UncertaintyTrace(*cols, meta={},
                            alt_values=np.full(len(_SPOT_VALUES), 0.25)
                            if with_alt else None)
    got, ref = _csv_pair(tr)
    assert got == ref
    assert "-0," in got and "nan" in got and "-inf" in got
    assert got.splitlines()[0].endswith(",discrepancy") == with_alt


_CSV_TRACES = {
    "type1": (g.type1(), "gha", 0.6, "both"),
    "type2": (g.type2(), "linear", 0.5, "both"),
    "hydrogen": (g.hydrogen(), "gha", 0.7, "series"),
    "harmonic": (g.harmonic(), "linear", 3.0, "both"),
    "q_deformed": (g.q_deformed(0.5), "gha", 0.8, "oracle"),
    "square_well": (g.square_well(), "gha", 0.5, "oracle"),
    "morse": (g.morse(7.59), "gha", 0.2, "both"),
    "custom": (g.from_table([0.0, 1.0, 1.8, 2.5, 3.1, 3.6, 4.0, 4.3, 4.5]),
               "gha", 0.3, "oracle"),
}


@pytest.mark.parametrize("spec,kind,r,path", _CSV_TRACES.values(),
                         ids=_CSV_TRACES.keys())
def test_trace_csv_matches_per_value_format(spec, kind, r, path):
    tr = g.trace(spec, kind, r, t_end=50.0, n_points=501, path=path)
    got, ref = _csv_pair(tr)
    assert got == ref


@pytest.mark.parametrize("figure_id", ["1", "2", "3", "4", "5", "6", "7",
                                       "o2"])
def test_figure_files_match_per_value_format(figure_id, tmp_path,
                                             monkeypatch):
    runner = CliRunner()
    outputs = []
    for writer in (g.write_trace_csv, _reference_trace_csv):
        monkeypatch.setattr(cli, "write_trace_csv", writer)
        out = tmp_path / writer.__name__
        out.mkdir()
        res = runner.invoke(cli.main, ["figure", figure_id, "--out-dir",
                                       str(out), "--points", "201"])
        assert res.exit_code == 0, res.output
        outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert len(outputs[0]) > 1
    assert outputs[0] == outputs[1]


def _moved(x: float, ulps: int) -> float:
    # x stepped ``ulps`` units in the last place, away from zero if positive
    return float((np.array([x]).view(np.int64) + ulps).view(float)[0])


_ULPS = st.integers(-3, 3)
# inputs where a bulk %.12g goes wrong first: raw bit patterns (every
# range), a 13th digit of 5 give or take a few ulps (the rounding ties),
# powers of ten (where floor(log10) and the scaling power are decided),
# the values that round across the notation switches at 1e-4/1e-5 and
# 1e12, three-digit exponents, subnormals, signed zeros and non-finites
_G12_INPUTS = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(
        lambda b: float(np.array([b], np.uint64).view(float)[0])),
    st.builds(lambda m, j, k: _moved(float(f"{m}5e{j}"), k),
              st.integers(10 ** 11, 10 ** 12 - 1), st.integers(-330, 295),
              _ULPS),
    st.builds(lambda j, k: _moved(float(f"1e{j}"), k),
              st.integers(-300, 300), st.sampled_from([-1, 0, 1])),
    st.builds(lambda d, j, k: _moved(float(f"9.99999999999{d}e{j}"), k),
              st.integers(0, 9), st.sampled_from([-6, -5, 11, 12]), _ULPS),
    st.builds(lambda f, j: float(f"{f!r}e{j}"), st.floats(1.0, 9.999),
              st.integers(100, 300).flatmap(
                  lambda j: st.sampled_from([j, -j]))),
    st.integers(1, 2 ** 52 - 1).map(
        lambda b: float(np.array([b], np.uint64).view(float)[0])),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(values=st.lists(st.tuples(_G12_INPUTS, st.booleans()).map(
    lambda v: -v[0] if v[1] else v[0]), min_size=2, max_size=40))
def test_bulk_g12_matches_python(values):
    x = np.array(values)
    got = b"".join(_csv_blocks([x, x[::-1]])).decode("ascii")
    assert got == "".join("%.12g,%.12g\n" % row
                          for row in zip(values, values[::-1]))


def test_bulk_g12_matches_python_near_every_tie():
    # 13-digit decimals ending in 5, and their neighbours one ulp away, at
    # every scale: a bulk path that trusted its scaled value this close to
    # a half would print about one in 200 of them wrong
    rng = np.random.default_rng(0)
    ties = np.array([float(f"{m}5e{j}") for m, j in zip(
        rng.integers(10 ** 11, 10 ** 12, 20000).tolist(),
        rng.integers(-330, 296, 20000).tolist())])
    x = np.concatenate([ties, np.nextafter(ties, 0),
                        np.nextafter(ties, np.inf)])
    assert b"".join(_csv_blocks([x])).decode("ascii") == "".join(
        "%.12g\n" % v for v in x.tolist())


def test_bulk_g12_proves_nearly_every_trace_cell():
    # the exact printer takes only the cells the bulk path cannot prove,
    # so the tests above exercise the bulk path on real traces
    tr = g.trace(g.type1(), "gha", 0.6, 0.4, t_end=1000.0, n_points=20001,
                 path="both")
    table = np.column_stack([tr.t_grid, tr.mean_xi, tr.mean_rho, tr.var_xi,
                             tr.var_rho, tr.values,
                             np.abs(tr.values - tr.alt_values)])
    _, exact = _g12_cells(table)
    assert exact.size == 7 * 20001
    assert (~exact).mean() < 0.01


def _reference_csv(header, columns):
    return header + "\n" + "".join(
        ",".join("%.12g" % v for v in row) + "\n"
        for row in zip(*(c.tolist() for c in columns)))


def _writer_columns(rows):
    # the spot values, then values over many scales, in seven columns
    rng = np.random.default_rng(rows)
    x = np.concatenate([_SPOT_VALUES, rng.standard_normal(rows)
                        * 10.0 ** rng.integers(-8, 9, rows)])[:rows]
    return [np.roll(x, k) for k in range(7)]


@pytest.mark.parametrize("rows, width", [
    *(pytest.param(rows, 7, id=str(rows))
      for rows in (1, 1024, 1025, 2049, 20001)),
    *(pytest.param(rows, width, id=f"{rows}x{width}")
      for width in (1, 3, 6, 7) for rows in (1, 2047, 2048, 2049, 4097)
      if (rows, width) not in ((1, 7), (2049, 7)))])
def test_streamed_csv_matches_per_value_format(rows, width, tmp_path):
    # the block edges (multiples of 1024 rows, and one row either side), a
    # long file, and the row ends of one column, of a state CSV's three and
    # of a trace's six and seven, on a path and on a text stream
    header = ",".join("abcdefg"[:width])
    columns = _writer_columns(rows)[:width]
    want = _reference_csv(header, columns)
    path = tmp_path / "out.csv"
    _write_csv(header, columns, path)
    assert path.read_bytes() == want.encode("ascii")
    buf = io.StringIO()
    _write_csv(header, columns, buf)
    assert buf.getvalue() == want


def test_streamed_csv_memory_does_not_grow_with_rows(tmp_path):
    # the writer holds one block at a time, so a file five times as long
    # peaks within 10% of the shorter one
    def peak(rows):
        t = np.linspace(0.0, 1000.0, rows)
        tr = g.UncertaintyTrace(t, *(np.sin(k * t) + 1.0 for k in range(5)),
                                meta={})
        path = tmp_path / f"{rows}.csv"
        g.write_trace_csv(tr, path)  # fills the writer's caches
        tracemalloc.start()
        try:
            g.write_trace_csv(tr, path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(4001), peak(20001)
    assert large <= 1.1 * small, (small, large)


def test_moment_series_unsupported():
    with pytest.raises(WrongSystemError):
        moment_series(g.q_deformed(0.5), "gha", 0.3)
    with pytest.raises(WrongSystemError, match=_MORSE_LINEAR):
        moment_series(g.morse(7.59), "linear", 0.3)
    with pytest.raises(WrongSystemError):
        moment_series(g.type1(), "squeezed", 0.3)


def test_squared_ladder_table_matches_the_algebra():
    # the series table is written independently of spectrum.py; a typo in
    # it would otherwise only show as a route discrepancy
    from ghastates.series import _SQUARED_LADDERS
    from ghastates.states import state_ladder
    for system, kind in SUPPORTED:
        for b in ((1.0, 3.7) if system in ("type1", "type2", "hydrogen")
                  else (1.0,)):
            spec = g.morse(7.59) if system == "morse" else g.make_spectrum(
                system, b=b)
            table = "harmonic" if kind == "linear" else system
            L = _SQUARED_LADDERS[table](spec, np.arange(2003))
            if kind == "linear":
                assert np.array_equal(L, np.arange(1, len(L) + 1))
                continue
            count = spec.max_level - 1 if system == "morse" else 2000
            want = state_ladder(spec, count) ** 2 / spec.b
            assert np.all(np.abs(L[:count] - want) <= 1e-13 * want), (system, b)


def test_series_route_reads_no_ladder_and_no_rep(monkeypatch):
    import ghastates.algebra as algebra
    import ghastates.spectrum as spectrum
    import ghastates.states as states

    def refuse(*args, **kwargs):
        raise AssertionError("the series route read the algebra")

    names = ("ladder_coefficients", "state_ladder", "build_rep")
    for module in (g, spectrum, states, algebra, g.series, g.dynamics):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError):
        g.gha_coherent_state(g.type1(), 0.5)
    for system, kind in SUPPORTED:
        spec = g.morse(7.59) if system == "morse" else g.make_spectrum(system)
        ms = moment_series(spec, kind, 0.5)
        assert len(ms.mean_w) > 0 and np.isfinite(ms.mean_w).all()
        tr = g.trace(spec, kind, 0.5, path="series", n_points=11)
        assert np.isfinite(tr.values).all()


def test_series_r_zero_is_vacuum():
    es = g.expectations_series(g.type1(), "gha", 0.0, 0.0, 3.0)
    assert es.mean_xi == 0.0 and es.mean_rho == 0.0
    assert g.uncertainty(es) == pytest.approx(0.5, abs=1e-15)


def test_expectation_set_clamps_and_raises():
    with pytest.warns(ClampWarning):
        es = g.ExpectationSet(1.0, 0.0, 1.0 - 1e-13, 1.0)
    assert es.var_xi == 0.0
    with pytest.raises(NegativeVarianceError):
        g.ExpectationSet(1.0, 0.0, 0.9, 1.0)


def test_variance_clamp_contract_holds_past_its_early_return(monkeypatch):
    # as scalars (ExpectationSet) and as arrays (trace): an exact zero
    # passes silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        es = g.ExpectationSet(1.5, 0.0, 2.25, 1.0)
        v = _clamp_var_array(np.array([2.25, 3.0]), np.array([1.5, 1.0]),
                             "xi")
    assert es.var_xi == 0.0 and math.copysign(1.0, es.var_xi) == 1.0
    assert v.tolist() == [0.0, 2.0]
    # 1 - (1 + 1e-15)^2 = -2.2e-15 is clamped to +0, with a warning
    with pytest.warns(ClampWarning):
        es = g.ExpectationSet(1.0 + 1e-15, 0.0, 1.0, 1.0)
    with pytest.warns(ClampWarning):
        v = _clamp_var_array(np.array([1.0, 1.0]),
                             np.array([1.0 + 1e-15, 0.5]), "xi")
    assert es.var_xi == 0.0 and v.tolist() == [0.0, 0.75]
    assert math.copysign(1.0, v[0]) == 1.0
    # -2e-12 is beyond the tolerance
    with pytest.raises(NegativeVarianceError):
        g.ExpectationSet(1.0, 0.0, 1.0 - 2e-12, 1.0)
    with pytest.raises(NegativeVarianceError, match="rho"):
        _clamp_var_array(np.array([1.0, 1.0 - 2e-12]), np.array([0.5, 1.0]),
                         "rho")
    # NaN fails the early return and every test after it, so the clamp
    # passes it on and trace's finiteness check stops it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = _clamp_var_array(np.array([np.nan, 1.0]), np.zeros(2), "xi")
    assert math.isnan(v[0]) and v[1] == 1.0
    kernel = g.dynamics.weighted_trig_sums

    def poisoned(rows, freqs, times):
        re, im = kernel(rows, freqs, times)
        re[:, 3] = np.nan
        return re, im

    monkeypatch.setattr(g.dynamics, "weighted_trig_sums", poisoned)
    for path in ("oracle", "series", "both"):
        with pytest.raises(NonFiniteResultError, match=path):
            g.trace(g.type1(), "gha", 0.5, path=path, n_points=11)


def test_refined_extremum_quadratic():
    t = np.linspace(0.0, 2.0, 21)
    v = 3.0 - (t - 0.97) ** 2
    t_star, v_star = refined_extremum(t, v, "max")
    assert t_star == pytest.approx(0.97, abs=1e-12)
    assert v_star == pytest.approx(3.0, abs=1e-12)
    t_star, v_star = refined_extremum(t, -v, "min")
    assert v_star == pytest.approx(-3.0, abs=1e-12)
    # a top whose second difference rounds to zero stays on the grid
    assert refined_extremum(t[:3], np.array([np.nextafter(1.0, 0.0), 1.0,
                                             1.0])) == (t[1], 1.0)


def test_peak_deviation_on_flat_trace():
    tr = g.trace(g.harmonic(), "linear", 0.5, n_points=101, t_end=10.0,
                 path="series")
    assert peak_deviation(tr) < 1e-12


def test_grid_helpers_shapes():
    routes, _ = _plan(g.hydrogen(), "gha", 0.3, 0.2, "both")
    mo, ms = _moments(routes, np.linspace(0, 5, 7))
    assert all(a.shape == (7,) for a in mo)
    assert all(a.shape == (7,) for a in ms)


# (spectrum, kind, r): every catalog system and a tabulated spectrum
_ORACLE_CASES = [
    (g.harmonic(), "linear", 2.0),
    (g.q_deformed(0.5), "gha", 0.8),
    (g.square_well(), "gha", 0.5),
    (g.type1(), "gha", 0.6),
    (g.type2(), "linear", 0.5),
    (g.hydrogen(), "gha", 0.6),
    (g.morse(7.59), "gha", 0.2),
    (g.from_table([0.0, 0.9, 1.7, 2.4, 3.0, 3.5, 3.9, 4.2, 4.4]), "gha", 0.5),
]


@pytest.mark.parametrize("spec,kind,r", _ORACLE_CASES,
                         ids=[c[0].system for c in _ORACLE_CASES])
def test_banded_oracle_matches_dense(spec, kind, r):
    routes, st = _plan(spec, kind, r, 0.7, "oracle")
    rep = _rep_for(spec, st)
    # the second grid starts below zero and its last tile is ragged
    for times in (np.linspace(0.0, 30.0, 41), np.linspace(-7.5, 30.0, 23)):
        [grid] = _moments(routes, times)
        for j, t in enumerate(times):
            es = g.expectations_oracle(g.evolve(st, spec, t), rep)
            ref = [es.mean_xi, es.mean_rho, es.mean_xi2, es.mean_rho2]
            bound = 1e-12 * (1.0 + max(abs(x) for x in ref))
            for got, want in zip(grid, ref):
                assert abs(got[j] - want) <= bound


def test_rho_defect_shows_outside_the_oracle_bands():
    # the oracle reads rho's moments from xi's sums; verify_algebra and the
    # dense route still read rho's stored bands
    spec = g.type1()
    st = _plan(spec, "gha", 0.5, 0.3, "oracle")[1]
    rep = _rep_for(spec, st)
    up, down = rep.rho_bands
    up = up.copy()
    up[0] *= 1.5  # rho[0, 1]: still banded, no longer Hermitian
    bad = dataclasses.replace(rep, rho_bands=(up, down))
    _oracle_bands(st, bad)
    report = g.verify_algebra(bad, spec)
    assert not {c.name: c.passed for c in report.checks}["position_momentum"]
    with pytest.raises(ImaginaryResidualError):
        g.expectations_oracle(st, bad)


def _count_kernel_rows(monkeypatch):
    rows = []

    def counting(weights, *args):
        rows.append(len(weights))
        return weighted_trig_sums(weights, *args)

    monkeypatch.setattr(g.dynamics, "weighted_trig_sums", counting)
    return rows


# entry -1 is X[dim - 2, dim - 1]: both levels lie above the state's support,
# so no moment on any time grid carries the defect
@pytest.mark.parametrize("name,n", [("xi", 0), ("xi", -1)])
def test_oracle_checks_hermiticity_on_the_bands(name, n, monkeypatch):
    spec = g.type1()
    st = _plan(spec, "gha", 0.5, 0.3, "oracle")[1]
    rep = _rep_for(spec, st)
    assert rep.dim == st.dim + 2
    up, down = getattr(rep, f"{name}_bands")
    up = up.copy()
    up[n] *= 1.5
    bad = dataclasses.replace(rep, **{f"{name}_bands": (up, down)})
    rows = _count_kernel_rows(monkeypatch)
    with pytest.raises(ImaginaryResidualError, match=name):
        _oracle_bands(st, bad)
    assert rows == []  # raised before any kernel call


def test_oracle_sums_one_row_per_band(monkeypatch):
    rows = _count_kernel_rows(monkeypatch)
    g.trace(g.type1(), "gha", 0.5, t_end=10.0, n_points=101)
    assert rows == [1, 1]  # S1 for <xi>, <rho>; then S2 for <xi^2>, <rho^2>


def _merged_cases():
    for system, kind in SUPPORTED:
        spec = g.morse(7.59) if system == "morse" else g.make_spectrum(system)
        far = (0.3 if system == "morse" else 0.95 if kind == "gha"
               and system != "harmonic" else 12.0)
        for r in (0.5, far):
            yield spec, kind, r


@pytest.mark.parametrize("spec,kind,r", list(_merged_cases()),
                         ids=[f"{s.system}-{k}-{r}" for s, k, r in
                              _merged_cases()])
def test_both_routes_share_one_call_per_band(spec, kind, r, monkeypatch):
    (oracle, series), _ = _plan(spec, kind, r, 0.3, "both")
    for (_, fo, _), (_, fs, _) in zip(oracle, series):
        n = min(len(fo), len(fs))
        assert fo[:n].tobytes() == fs[:n].tobytes()
    rows = _count_kernel_rows(monkeypatch)
    both = g.trace(spec, kind, r, 0.3, path="both")
    assert rows == [2, 2]  # the oracle's and the series' row per band
    # relative to the second moments the variances cancel from: at r = 12
    # they are about 290, and the padded rows sum in another order
    for path, got in (("oracle", both.values), ("series", both.alt_values)):
        tr = g.trace(spec, kind, r, 0.3, path=path)
        scale = max(1.0, *(np.abs(m ** 2 + v).max() for m, v in (
            (tr.mean_xi, tr.var_xi), (tr.mean_rho, tr.var_rho))))
        assert np.abs(got - tr.values).max() <= 1e-13 * scale, path


def test_both_raises_the_states_error_before_the_series(monkeypatch):
    def fail(*args, **kwargs):
        raise NonFiniteResultError("series")

    monkeypatch.setattr(g.dynamics, "moment_series", fail)
    rows = _count_kernel_rows(monkeypatch)
    table = g.from_table([0, 0.5, 0.6667, 0.75])
    with pytest.raises(WrongSystemError, match=r"\| = 26 needs 885$"):
        g.trace(table, "linear", 26.0, path="both")
    with pytest.raises(NonFiniteResultError, match="r = 30:"):
        g.trace(table, "linear", 30.0, path="both")
    with pytest.raises(NonFiniteResultError, match="series"):
        g.trace(g.morse(7.59), "gha", 0.3, path="both")
    assert rows == []


def _count_builds(monkeypatch):
    calls = []

    def counting(name, build):
        def counted(*args, **kwargs):
            calls.append(name)
            return build(*args, **kwargs)
        return counted

    for name in ("gha_coherent_state", "linear_coherent_state",
                 "moment_series"):
        monkeypatch.setattr(g.dynamics, name,
                            counting(name, getattr(g.dynamics, name)))
    return calls


def test_each_route_is_built_once(monkeypatch):
    calls = _count_builds(monkeypatch)
    g.trace(g.type1(), "gha", 0.5, path="both", n_points=11)
    assert calls == ["gha_coherent_state", "moment_series"]
    calls.clear()
    g.trace(g.harmonic(), "linear", 3.0, path="both", n_points=11)
    assert calls == ["linear_coherent_state", "moment_series"]
    calls.clear()
    g.expectations_series(g.type1(), "gha", 0.5, 0.3, 1.0)
    assert calls == ["moment_series"]  # and no state
    # near the radius the plan warns once, and the series keeps quiet
    calls.clear()
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        g.expectations_series(g.type1(), "gha", 0.99, 0.0, 1.0)
    assert [w.category for w in seen] == [ConditioningWarning]
    assert calls == ["moment_series"]


def test_trace_meta_holds_the_series_term_counts():
    spec = g.hydrogen()
    ms = moment_series(spec, "gha", 0.6)
    counts = (len(ms.mean_w), len(ms.cross_w))  # (39, 40)
    for path, terms in (("oracle", None), ("series", counts),
                        ("both", counts)):
        meta = g.trace(spec, "gha", 0.6, 0.3, path=path, n_points=11).meta
        assert meta["terms"] == terms, path
        assert list(meta) == ["system", "kind", "r", "phi", "energy_scale",
                              "dim", "path", "points", "terms"]


# labels no series route takes, with the class both series entries raise:
# each runs the plan's checks, so neither reaches a route first
@pytest.mark.parametrize("spec,kind,r,error", [
    (g.q_deformed(0.5), "gha", -0.1, RadiusOfConvergenceError),
    (g.q_deformed(0.5), "gha", 3.0, RadiusOfConvergenceError),
    (g.q_deformed(0.5), "gha", 0.5, WrongSystemError),
    (g.type1(), "gha", 1.0, RadiusOfConvergenceError),
    (g.type1(), "linear", -0.1, RadiusOfConvergenceError),
    (g.morse(7.59), "linear", 0.1, WrongSystemError),
    (g.from_table([0, 0.5, 0.6667, 0.75]), "linear", 0.1, WrongSystemError),
], ids=["q_deformed--0.1", "q_deformed-3", "q_deformed-0.5", "type1-1",
        "type1-linear--0.1", "morse-linear", "short-table-linear"])
def test_series_entries_raise_one_class(spec, kind, r, error):
    with pytest.raises(error) as by_trace:
        g.trace(spec, kind, r, path="series", n_points=11)
    with pytest.raises(error) as by_point:
        g.expectations_series(spec, kind, r, 0.0, 1.0)
    assert type(by_point.value) is type(by_trace.value) is error
    assert str(by_point.value) == str(by_trace.value)


def _eager_dense(spec, dim):
    # reference: every generator built eagerly with np.diag, bands and zeros
    eps = g.levels(spec, dim)
    A_dag = np.diag(ladder_coefficients(spec, dim - 1), -1)
    D_dag = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), -1)
    D = D_dag.T.copy()
    return {
        "J0": np.diag(eps), "A": A_dag.T.copy(), "A_dag": A_dag,
        "N_op": np.diag(np.arange(dim, dtype=float)), "D": D, "D_dag": D_dag,
        "xi": (1.0 / math.sqrt(2.0)) * (D + D_dag).astype(complex),
        "rho": 1j / math.sqrt(2.0) * (D_dag - D).astype(complex),
    }


# the diagonals each dense view may occupy (numpy's offset: column - row)
_VIEW_BANDS = {"J0": (0,), "N_op": (0,), "A": (1,), "D": (1,),
               "A_dag": (-1,), "D_dag": (-1,), "xi": (1, -1), "rho": (1, -1)}


@pytest.mark.parametrize("spec,kind,r", _ORACLE_CASES,
                         ids=[c[0].system for c in _ORACLE_CASES])
def test_dense_views_are_their_bands(spec, kind, r, monkeypatch):
    st = _plan(spec, kind, r, 0.7, "oracle")[1]
    rep = _rep_for(spec, st)
    idx = np.arange(rep.dim)
    offset = idx[None, :] - idx[:, None]
    for name, want in _eager_dense(spec, rep.dim).items():
        view = getattr(rep, name)
        assert view.dtype == want.dtype and view.shape == want.shape
        assert view.tobytes() == want.tobytes(), name  # bit for bit, signed 0
        assert not np.any(view[~np.isin(offset, _VIEW_BANDS[name])]), name
        assert not view.flags.writeable, name
        assert getattr(rep, name) is view, name

    # no trace route builds a dim x dim matrix
    def refuse(*args):
        raise AssertionError("trace built a dense matrix")

    monkeypatch.setattr(g.algebra.Band, "dense", refuse)
    paths = ["oracle"]
    if (spec.system, kind) in SUPPORTED:
        paths += ["series", "both"]
    for path in paths:
        g.trace(spec, kind, r, 0.7, t_end=20.0, n_points=101, path=path)


def test_trace_rejects_non_finite_r():
    with pytest.raises(InvalidParameterError):
        g.trace(g.type1(), "gha", math.nan, path="both")


def test_trace_rejects_non_finite_times():
    with pytest.raises(InvalidParameterError):
        g.trace(g.harmonic(), "linear", 3.0, t_end=math.inf, path="both")
    with pytest.raises(InvalidParameterError):
        g.trace(g.harmonic(), "linear", 3.0, t_start=-math.inf)
    with pytest.raises(InvalidParameterError):
        g.trace(g.harmonic(), "linear", 3.0, phi=math.nan)


_NON_FINITE_CALLS = {
    "expectations_series-t": lambda: g.expectations_series(
        g.type1(), "gha", 0.5, 0.0, t=math.nan),
    "evolve-t": lambda: g.evolve(g.gha_coherent_state(g.type1(), 0.4),
                                 g.type1(), math.nan),
    "moment_series-r": lambda: moment_series(g.type1(), "gha", math.nan),
    "gha_state-inf": lambda: g.gha_coherent_state(g.harmonic(), math.inf),
    "gha_state-morse-nan": lambda: g.gha_coherent_state(g.morse(7.59),
                                                        math.nan),
    "linear_state-nan": lambda: g.linear_coherent_state(math.nan),
    "type1-b": lambda: g.type1(math.nan),
    "square_well-b-inf": lambda: g.square_well(math.inf),
    "q_deformed-q": lambda: g.q_deformed(math.nan),
    "morse-p-inf": lambda: g.morse(math.inf),
    "morse-p-nan": lambda: g.morse(math.nan),
    "from_table-nan": lambda: g.from_table([0.0, 0.5, math.nan, 0.75]),
    "morse_physical-beta": lambda: g.MorsePhysicalParams(
        beta=math.nan, V0=1.0, m_r=1.0),
    "closed_form_normalization-nan": lambda: g.closed_form_normalization(
        g.type1(), math.nan),
    "closed_form_normalization-inf": lambda: g.closed_form_normalization(
        g.harmonic(), math.inf),
    "eigenstate_residual-z": lambda: g.eigenstate_residual(
        g.type1(), g.gha_coherent_state(g.type1(), 0.4), math.nan),
    "characteristic_fn-x": lambda: g.characteristic_fn(g.type1(), math.nan),
    "verify_algebra-tol": lambda: g.verify_algebra(
        g.build_rep(g.type1(), 10), g.type1(), tol=math.nan),
}


@pytest.mark.parametrize("call", _NON_FINITE_CALLS.values(),
                         ids=_NON_FINITE_CALLS.keys())
def test_non_finite_inputs_raise_invalid_parameter(call):
    with pytest.raises(InvalidParameterError, match="must be finite"):
        call()


_COUNT_CALLS = {
    "trace-n_points": lambda: g.trace(g.type1(), "gha", 0.5, n_points=2.5),
    "gha_state-dim": lambda: g.gha_coherent_state(g.type1(), 0.5, dim=40.5),
    "gha_state-morse-dim": lambda: g.gha_coherent_state(g.morse(7.59), 0.1,
                                                        dim=8.0),
    "linear_state-dim": lambda: g.linear_coherent_state(0.5, dim=30.0),
    "build_rep-dim": lambda: g.build_rep(g.type1(), 2.5),
}


@pytest.mark.parametrize("call", _COUNT_CALLS.values(),
                         ids=_COUNT_CALLS.keys())
def test_non_integer_counts_raise_invalid_parameter(call):
    with pytest.raises(InvalidParameterError, match="must be an integer"):
        call()


def test_trace_overflow_raises_non_finite():
    # z^n / sqrt(n!) overflows in the state amplitudes at r = 40
    with pytest.raises(NonFiniteResultError):
        g.trace(g.harmonic(), "linear", 40.0, path="both")


def test_overflowing_levels_raise_non_finite_alone():
    # q**n overflows on the two padding levels the oracle adds to the
    # 2-level state of q_deformed(1e150): an infinite frequency on a term of
    # zero weight.  The trace answers finite values or raises
    # NonFiniteResultError, with no numpy warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            tr = g.trace(g.q_deformed(1e150), "gha", 0.5)
        except NonFiniteResultError:
            return
    assert np.isfinite(tr.values).all()


def test_a_well_with_one_level_raises_one_error_everywhere():
    # a Morse well below p = 1 has its top level alone: the state, both
    # routes and the series entries refuse it with one class and message,
    # at r = 0 too
    spec = g.morse(0.5)
    calls = [lambda: g.gha_coherent_state(spec, 0.3),
             lambda: g.expectations_series(spec, "gha", 0.3, 0.0, 1.0),
             lambda: moment_series(spec, "gha", 0.3),
             lambda: moment_series(spec, "gha", 0.0)]
    calls += [functools.partial(g.trace, spec, "gha", 0.3, path=path,
                                n_points=11)
              for path in ("oracle", "series", "both")]
    for call in calls:
        with pytest.raises(DegenerateSpectrumError,
                           match="^the ladder has no room for a coherent "
                                 "state below its top level$"):
            call()


def test_series_underflow_raises_non_finite():
    # exp(-r^2) is subnormal from r = 26.62 on, and the series route raised
    # there while the state answered; with no separate N^2 both routes
    # answer until the tail pass's total overflows at r = 26.642, and both
    # raise from there on
    for r in (26.5, 26.62):
        values = [g.trace(g.harmonic(), "linear", r, path=path,
                          n_points=11).values
                  for path in ("oracle", "series")]
        assert np.abs(values[0] - 0.5).max() < 1e-9
        assert np.abs(values[0] - values[1]).max() <= 1e-9
    for r in (26.65, 27.0, 30.0):
        for path in ("oracle", "series"):
            with pytest.raises(NonFiniteResultError, match=f"r = {r:g}:"):
                g.trace(g.harmonic(), "linear", r, path=path)


_MORSE_PAST_OVERFLOW = [3e26, 1e30, 1e155]


@pytest.mark.parametrize("r", _MORSE_PAST_OVERFLOW)
def test_morse_normalization_overflow_raises_non_finite(r):
    # the Morse normalization sum overflows from r = 2.9e26 on
    with pytest.raises(NonFiniteResultError, match="overflows"):
        g.closed_form_normalization(g.morse(7.59), r)


@pytest.mark.parametrize("r", _MORSE_PAST_OVERFLOW)
def test_morse_routes_answer_past_the_normalization_overflow(r):
    # the routes take no N^2: both answer past the sum's overflow, where
    # the state sits on its top level, agree, and warn nothing
    spec = g.morse(7.59)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traces = [g.trace(spec, "gha", r, 0.0, 0.0, 1.0, 5, path)
                  for path in ("oracle", "series", "both")]
        es = g.expectations_series(spec, "gha", r, 0.0, 1.0)
    oracle, series, both = traces
    assert np.abs(oracle.values - series.values).max() <= 1e-9
    assert np.array_equal(both.values, oracle.values)
    assert np.abs(both.alt_values - series.values).max() <= 1e-9
    assert math.sqrt(es.var_xi * es.var_rho) == pytest.approx(
        series.values[-1], abs=1e-9)


def test_no_entry_takes_a_tail():
    # every state and series stops at the one 1e-14 bound
    for fn in (g.trace, g.expectations_series, g.gha_coherent_state,
               g.linear_coherent_state, moment_series, _plan):
        assert "tail" not in inspect.signature(fn).parameters, fn.__name__


def test_no_entry_takes_a_scale():
    # units are fixed at L = hbar = 1; the product is in units of hbar
    for fn in (g.trace, g.expectations_series, _plan, _rep_for, g.build_rep,
               g.uncertainty):
        params = inspect.signature(fn).parameters
        assert not {"L_scale", "hbar"} & set(params), fn.__name__
    assert [f.name for f in dataclasses.fields(g.AlgebraRep)] == [
        "system", "eps", "ladder", "xi_bands", "rho_bands"]
    # the Morse constants are SI, with hbar the constant HBAR
    assert [f.name for f in dataclasses.fields(g.MorsePhysicalParams)] == [
        "beta", "V0", "m_r"]


def test_no_trace_entry_takes_a_dim():
    # the state's length is the one the tail bound picks, or the whole of
    # a finite ladder, on both routes; only the state builders take a dim
    for fn in (g.trace, g.expectations_series, _plan):
        assert "dim" not in inspect.signature(fn).parameters, fn.__name__


@pytest.mark.parametrize("system", sorted({s for s, k in SUPPORTED
                                           if k == "linear"}))
def test_linear_series_is_the_harmonic_gha_series(system):
    # a linear state's weights are those of the harmonic ladder's gha state;
    # only the frequencies come from the spectrum that evolves it
    spec = g.make_spectrum(system)
    for r in (0.0, 1e-8, 0.3, 0.99, 3.0, 12.0, 26.0):
        lin = moment_series(spec, "linear", r)
        gha = moment_series(g.harmonic(), "gha", r)
        for name in ("mean_w", "cross_w"):
            assert getattr(lin, name).tobytes() == \
                getattr(gha, name).tobytes(), (r, name)
        assert lin.diag == gha.diag, r
        eps = g.levels(spec, max(len(gha.mean_w) + 1, len(gha.cross_w) + 2))
        mean_gaps, cross_gaps = eps[:-1] - eps[1:], eps[:-2] - eps[2:]
        assert np.array_equal(lin.mean_f, mean_gaps[:len(lin.mean_w)])
        assert np.array_equal(lin.cross_f, cross_gaps[:len(lin.cross_w)])


def test_kind_picks_the_label_on_the_harmonic_ladder():
    # the harmonic ladder's own object carries both kinds; the label
    # follows the kind, not the spectrum
    from ghastates.states import _HARMONIC
    for kind in ("gha", "linear"):
        st = _plan(_HARMONIC, kind, 0.5, 0.3, "oracle")[1]
        assert (st.kind, st.spectrum_id) == (
            kind, "harmonic" if kind == "gha" else "linear")


@pytest.mark.parametrize("spec", [g.type1(), g.type1(4.0), g.type2(),
                                  g.hydrogen()],
                         ids=["type1", "type1-b4", "type2", "hydrogen"])
def test_linear_states_have_no_radius_on_either_route(spec):
    # only the nonlinear states of the bounded ladders stop at r = 1
    for r in (1.5, 10.0):
        tr = g.trace(spec, "linear", r, 0.4, t_end=50.0, n_points=501,
                     path="both")
        assert tr.max_discrepancy <= 1e-9
        with pytest.raises(RadiusOfConvergenceError,
                           match=rf"r = {r} is outside \[0, 1\)"):
            moment_series(spec, "gha", r)


# (system, kind, largest r): 0.9 of the convergence radius; the harmonic
# linear state has none, so it is drawn up to the benchmark's r = 12
_PROPERTY_SYSTEMS = [("type1", "gha", 0.9), ("type2", "gha", 0.9),
                     ("hydrogen", "gha", 0.9), ("harmonic", "linear", 12.0)]


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(case=st.sampled_from(_PROPERTY_SYSTEMS),
       frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       phi=st.floats(-math.pi, math.pi), t_end=st.floats(0.5, 500.0),
       b=st.floats(1e-3, 1e4))
def test_trace_both_routes_property(case, frac, phi, t_end, b):
    name, kind, r_max = case
    _check_both_routes(g.make_spectrum(name, b=b), kind, frac * r_max, phi,
                       t_end)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(p=st.floats(1.02, 30.0).filter(lambda p: not p.is_integer()),
       r=st.floats(0.0, 3.0, exclude_min=True, exclude_max=True),
       phi=st.floats(-math.pi, math.pi), t_end=st.floats(0.5, 500.0))
def test_trace_morse_both_routes_property(p, r, phi, t_end):
    _check_both_routes(g.morse(p), "gha", r, phi, t_end)


def _check_both_routes(spec, kind, r, phi, t_end):
    tr = g.trace(spec, kind, r, phi, t_end=t_end, n_points=257, path="both")
    assert np.isfinite(tr.values).all()
    assert tr.values.min() >= 0.5 - 1e-9
    assert tr.max_discrepancy <= 1e-9
    again = g.trace(spec, kind, r, phi, t_end=t_end, n_points=257,
                    path="both")
    assert again.values.tobytes() == tr.values.tobytes()
    assert again.alt_values.tobytes() == tr.alt_values.tobytes()


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(spec=st.builds(g.square_well, st.floats(1e-3, 1e4))
       | st.builds(g.q_deformed, st.floats(0.05, 0.95) | st.floats(1.05, 3.0)),
       frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       phi=st.floats(-math.pi, math.pi), t_end=st.floats(0.5, 500.0))
def test_trace_oracle_route_property(spec, frac, phi, t_end):
    # systems without a series route: r up to 0.9 of the convergence radius,
    # or up to 5 where the ladder grows without bound
    radius = g.convergence_radius(spec)
    r = frac * (0.9 * radius if math.isfinite(radius) else 5.0)

    def run():
        try:
            state = _plan(spec, "gha", r, phi, "oracle")[1]
            tr = g.trace(spec, "gha", r, phi, t_end=t_end, n_points=257)
        except GhaError as exc:
            return type(exc).__name__, str(exc)
        assert abs(np.linalg.norm(state.coeffs) - 1.0) <= 1e-12
        assert np.isfinite(tr.values).all()
        assert tr.values.min() >= 0.5 - 1e-9
        return tr.values.tobytes()

    assert run() == run()
