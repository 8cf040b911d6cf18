import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghastates as g
from ghastates.dynamics import (
    _oracle_grid,
    _rep_for,
    _series_grid,
    coherent_state_for,
    peak_deviation,
    refined_extremum,
)
from ghastates.errors import (
    ClampWarning,
    GhaError,
    ImaginaryResidualError,
    InvalidParameterError,
    NegativeVarianceError,
    NonFiniteResultError,
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
    st = g.linear_coherent_state(0.8, tail=1e-16)
    rep = _rep_for(spec, st, 1.0, 1.0)
    for t in (0.0, 1.7, 42.0):
        es = g.expectations_oracle(g.evolve(st, spec, t), rep)
        assert g.uncertainty(es) == pytest.approx(0.5, abs=1e-12)


def test_harmonic_textbook_mean_position():
    # third route: the classic result <xi(t)> = sqrt(2) L r cos(t - phi)
    # anchors the sign and phase conventions of both implementations
    spec = g.harmonic()
    r, phi = 0.8, 0.6
    st = g.linear_coherent_state(r * np.exp(1j * phi), tail=1e-16)
    rep = _rep_for(spec, st, 1.0, 1.0)
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
    st = coherent_state_for(spec, kind, r, phi)
    eo = g.expectations_oracle(g.evolve(st, spec, t), _rep_for(spec, st, 1, 1))
    for name in ("mean_xi", "mean_rho", "mean_xi2", "mean_rho2"):
        a, b = getattr(es, name), getattr(eo, name)
        assert abs(a - b) <= 1e-9 * (1 + abs(b))


def test_series_matches_oracle_nonunit_b():
    spec = g.type1(b=2.5)
    r, phi, t = 0.3, 0.4, 11.0
    es = g.expectations_series(spec, "gha", r, phi, t)
    st = coherent_state_for(spec, "gha", r, phi)
    eo = g.expectations_oracle(g.evolve(st, spec, t), _rep_for(spec, st, 1, 1))
    for name in ("mean_xi", "mean_rho", "mean_xi2", "mean_rho2"):
        assert getattr(es, name) == pytest.approx(getattr(eo, name), abs=1e-10)


def test_series_scales_with_L_and_hbar():
    spec = g.type1()
    es = g.expectations_series(spec, "gha", 0.3, 0.0, 5.0, L_scale=2.0,
                               hbar=3.0)
    base = g.expectations_series(spec, "gha", 0.3, 0.0, 5.0)
    assert es.mean_xi == pytest.approx(2.0 * base.mean_xi)
    assert es.mean_rho == pytest.approx(1.5 * base.mean_rho)
    assert es.mean_xi2 == pytest.approx(4.0 * base.mean_xi2)


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


def test_trace_floor_and_meta():
    spec = g.morse(7.59)
    tr = g.trace(spec, "gha", 0.1, path="oracle", n_points=301, t_end=20.0)
    assert tr.values.min() >= 0.5 - 1e-9
    assert tr.meta["system"] == "morse" and tr.meta["dim"] == 8
    assert tr.meta["path"] == "oracle"


def test_trace_validation():
    spec = g.type1()
    with pytest.raises(InvalidParameterError):
        g.trace(spec, "gha", 0.1, n_points=1)
    with pytest.raises(InvalidParameterError):
        g.trace(spec, "gha", 0.1, t_end=0.0)
    with pytest.raises(InvalidParameterError):
        g.trace(spec, "gha", 0.1, path="magic")
    with pytest.raises(WrongSystemError):
        g.trace(g.morse(7.59), "linear", 0.1)
    with pytest.raises(WrongSystemError):
        g.trace(g.square_well(), "gha", 0.1, path="series")


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


def test_moment_series_unsupported():
    with pytest.raises(WrongSystemError):
        moment_series(g.q_deformed(0.5), "gha", 0.3)
    with pytest.raises(WrongSystemError):
        moment_series(g.morse(7.59), "linear", 0.3)
    with pytest.raises(WrongSystemError):
        moment_series(g.type1(), "squeezed", 0.3)


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


def test_refined_extremum_quadratic():
    t = np.linspace(0.0, 2.0, 21)
    v = 3.0 - (t - 0.97) ** 2
    t_star, v_star = refined_extremum(t, v, "max")
    assert t_star == pytest.approx(0.97, abs=1e-12)
    assert v_star == pytest.approx(3.0, abs=1e-12)
    t_star, v_star = refined_extremum(t, -v, "min")
    assert v_star == pytest.approx(-3.0, abs=1e-12)


def test_peak_deviation_on_flat_trace():
    tr = g.trace(g.harmonic(), "linear", 0.5, n_points=101, t_end=10.0,
                 path="series")
    assert peak_deviation(tr) < 1e-12


def test_grid_helpers_shapes():
    spec = g.hydrogen()
    st = coherent_state_for(spec, "gha", 0.3, 0.2)
    rep = _rep_for(spec, st, 1.0, 1.0)
    ts = np.linspace(0, 5, 7)
    mo = _oracle_grid(st, spec, rep, ts)
    ms = _series_grid(moment_series(spec, "gha", 0.3), 0.2, ts, 1.0, 1.0)
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
    st = coherent_state_for(spec, kind, r, 0.7)
    rep = _rep_for(spec, st, 1.3, 0.8)
    rng = np.random.default_rng(11)
    # a uniform grid (factored kernel) and a non-uniform one (direct path)
    for times in (np.linspace(0.0, 30.0, 41),
                  np.sort(rng.uniform(0.0, 30.0, 23))):
        grid = _oracle_grid(st, spec, rep, times)
        for j, t in enumerate(times):
            es = g.expectations_oracle(g.evolve(st, spec, t), rep)
            ref = [es.mean_xi, es.mean_rho, es.mean_xi2, es.mean_rho2]
            bound = 1e-12 * (1.0 + max(abs(x) for x in ref))
            for got, want in zip(grid, ref):
                assert abs(got[j] - want) <= bound


def test_oracle_detects_non_hermitian_rho():
    spec = g.type1()
    st = coherent_state_for(spec, "gha", 0.5, 0.3)
    rep = _rep_for(spec, st, 1.0, 1.0)
    up, down = rep.rho_bands
    up = up.copy()
    up[0] *= 1.5  # rho[0, 1]: still banded, no longer Hermitian
    bad = dataclasses.replace(rep, rho_bands=(up, down))
    with pytest.raises(ImaginaryResidualError):
        _oracle_grid(st, spec, bad, np.linspace(0.0, 5.0, 11))


def _eager_dense(spec, dim, L_scale, hbar):
    # reference: every generator built eagerly with np.diag, bands and zeros
    eps = g.levels(spec, dim)
    A_dag = np.diag(ladder_coefficients(spec, dim - 1), -1)
    D_dag = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), -1)
    D = D_dag.T.copy()
    return {
        "J0": np.diag(eps), "A": A_dag.T.copy(), "A_dag": A_dag,
        "N_op": np.diag(np.arange(dim, dtype=float)), "D": D, "D_dag": D_dag,
        "xi": (L_scale / math.sqrt(2.0)) * (D + D_dag).astype(complex),
        "rho": 1j * hbar / (math.sqrt(2.0) * L_scale)
        * (D_dag - D).astype(complex),
    }


# the diagonals each dense view may occupy (numpy's offset: column - row)
_VIEW_BANDS = {"J0": (0,), "N_op": (0,), "A": (1,), "D": (1,),
               "A_dag": (-1,), "D_dag": (-1,), "xi": (1, -1), "rho": (1, -1)}


@pytest.mark.parametrize("spec,kind,r", _ORACLE_CASES,
                         ids=[c[0].system for c in _ORACLE_CASES])
def test_dense_views_are_their_bands(spec, kind, r, monkeypatch):
    st = coherent_state_for(spec, kind, r, 0.7)
    rep = _rep_for(spec, st, 1.3, 0.8)
    idx = np.arange(rep.dim)
    offset = idx[None, :] - idx[:, None]
    for name, want in _eager_dense(spec, rep.dim, 1.3, 0.8).items():
        view = getattr(rep, name)
        assert view.dtype == want.dtype and view.shape == want.shape
        assert view.tobytes() == want.tobytes(), name  # bit for bit, signed 0
        assert not np.any(view[~np.isin(offset, _VIEW_BANDS[name])]), name
        assert not view.flags.writeable, name
        assert getattr(rep, name) is view, name

    # no trace route builds a dim x dim matrix
    def refuse(*args):
        raise AssertionError("trace built a dense matrix")

    monkeypatch.setattr(g.algebra, "_dense", refuse)
    paths = ["oracle"]
    if (spec.system, kind) in SUPPORTED:
        paths += ["series", "both"]
    for path in paths:
        g.trace(spec, kind, r, 0.7, t_end=20.0, n_points=101, path=path,
                L_scale=1.3, hbar=0.8)


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
}


@pytest.mark.parametrize("call", _NON_FINITE_CALLS.values(),
                         ids=_NON_FINITE_CALLS.keys())
def test_non_finite_inputs_raise_invalid_parameter(call):
    with pytest.raises(InvalidParameterError, match="must be finite"):
        call()


def test_trace_overflow_raises_non_finite():
    # z^n / sqrt(n!) overflows in the state amplitudes at r = 40
    with np.errstate(all="ignore"), pytest.raises(NonFiniteResultError):
        g.trace(g.harmonic(), "linear", 40.0, path="both")


def test_series_underflow_raises_non_finite():
    # exp(-r^2) is subnormal from r = 26.62 on and zero from r = 27.3; the
    # series route used to return wrong products or a false floor error
    for r in (27.0, 27.2, 30.0):
        with pytest.raises(NonFiniteResultError):
            g.trace(g.harmonic(), "linear", r, path="series")
    tr = g.trace(g.harmonic(), "linear", 26.5, path="series", n_points=11)
    assert np.abs(tr.values - 0.5).max() < 1e-9


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
            state = coherent_state_for(spec, "gha", r, phi)
            tr = g.trace(spec, "gha", r, phi, t_end=t_end, n_points=257)
        except GhaError as exc:
            return type(exc).__name__, str(exc)
        assert abs(np.linalg.norm(state.coeffs) - 1.0) <= 1e-12
        assert np.isfinite(tr.values).all()
        assert tr.values.min() >= 0.5 - 1e-9
        return tr.values.tobytes()

    assert run() == run()
