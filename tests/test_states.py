import contextlib
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghastates as g
from ghastates.config import _write_lines
from ghastates.errors import (
    ConditioningWarning,
    DegenerateSpectrumError,
    DimensionMismatchError,
    GhaError,
    InvalidParameterError,
    LevelOutOfRangeError,
    NonFiniteResultError,
    RadiusOfConvergenceError,
    TailBoundError,
    WrongSystemError,
)


def unnormalized_norm(spec, r):
    """Brute-force norm of the raw series, the oracle behind N(r): the
    frozen one-term-at-a-time loop over the state's length."""
    from ghastates.states import raw_eigenvalue, state_ladder
    st = g.gha_coherent_state(spec, r)
    count = st.dim if spec.max_level is None else spec.max_level
    amps = _loop_amplitudes(state_ladder(spec, count - 1),
                            raw_eigenvalue(spec, r), count)
    return float(np.linalg.norm(amps))


@pytest.mark.parametrize("args, error, message", [
    ((3, -1), LevelOutOfRangeError, r"n = -1 is outside \[0, 3\)"),
    ((3, 5), LevelOutOfRangeError, r"n = 5 is outside \[0, 3\)"),
    ((3, 3), LevelOutOfRangeError, r"n = 3 is outside \[0, 3\)"),
    ((0,), LevelOutOfRangeError, r"n = 0 is outside \[0, 0\)"),
    ((3, 1.5), InvalidParameterError, "n must be an integer"),
    ((2.0,), InvalidParameterError, "dim must be an integer"),
], ids=["n=-1", "n=dim+2", "n=dim", "dim=0", "n=1.5", "dim=2.0"])
def test_basis_state_refuses_levels_outside_its_slots(args, error, message):
    # a negative n used to index from the top: basis_state(3, -1) was |2>
    with pytest.raises(error, match=message):
        g.basis_state(*args)
    assert np.array_equal(g.basis_state(3, 2).coeffs, [0, 0, 1])
    assert np.array_equal(g.basis_state(1).coeffs, [1])
    assert g.basis_state(1).index_offset == 0


def test_unit_norm_everywhere():
    for spec in (g.type1(), g.type2(), g.hydrogen(), g.harmonic(),
                 g.morse(7.59)):
        st = g.gha_coherent_state(spec, 0.4 * np.exp(0.7j))
        assert abs(np.linalg.norm(st.coeffs) - 1.0) < 1e-12


def test_zero_label_gives_ground_state():
    for spec in (g.type1(), g.morse(7.59), g.square_well()):
        st = g.gha_coherent_state(spec, 0.0)
        assert st.coeffs[0] == 1.0
        assert not np.any(st.coeffs[1:])


def test_type1_presented_amplitudes():
    # amplitudes sqrt(n) r^(n-1) under the 1-based presentation labels
    r = 0.5
    st = g.gha_coherent_state(g.type1(), r)
    assert st.index_offset == 1
    n = np.arange(1, st.dim + 1)
    expected = np.sqrt(n) * r ** (n - 1)
    expected = expected / np.linalg.norm(expected)
    assert np.abs(st.coeffs.real - expected).max() < 1e-12
    assert np.abs(st.coeffs.imag).max() == 0.0


def test_type2_presented_amplitudes():
    r = 0.4
    st = g.gha_coherent_state(g.type2(), r)
    n = np.arange(1, st.dim + 1)
    expected = n * r ** (n - 1.0)
    expected = expected / np.linalg.norm(expected)
    assert np.abs(st.coeffs.real - expected).max() < 1e-12


def test_hydrogen_amplitudes_carry_degeneracy_weight():
    # the folded levels weight the series by an extra factor n:
    # amplitude_n = n r^(n-1) / prod_{i=1..n-1} sqrt(eps_{i+1} - eps_1)
    r = 0.45
    st = g.gha_coherent_state(g.hydrogen(), r)
    n = np.arange(1, st.dim + 1)
    denom = np.ones(st.dim)
    for idx, m in enumerate(n):
        prod = 1.0
        for i in range(1, m):
            prod *= math.sqrt(-1.0 / (i + 1) ** 2 + 1.0)
        denom[idx] = prod
    expected = n * r ** (n - 1.0) / denom
    expected = expected / np.linalg.norm(expected)
    assert np.abs(st.coeffs.real - expected).max() < 1e-12


def test_morse_amplitudes_brute_force():
    p, z = 7.59, 1.0
    spec = g.morse(p)
    st = g.gha_coherent_state(spec, z)
    expected = np.zeros(8)
    for n in range(7):
        prod = 1.0
        for i in range(1, n + 1):
            prod *= 2 * p - i
        expected[n] = z ** n / math.sqrt(math.factorial(n) * prod)
    expected = expected / np.linalg.norm(expected)
    assert st.dim == 8
    assert st.coeffs[7] == 0.0
    assert np.abs(st.coeffs.real - expected).max() < 1e-12


def test_harmonic_gha_equals_linear():
    # a linear state is the gha state of the harmonic ladder: the same dim
    # and coefficient bytes, or the same error class
    def build(make):
        try:
            st = make()
        except GhaError as exc:
            return type(exc)
        return st.dim, st.coeffs.tobytes()

    radii = np.random.default_rng(7).uniform(0.0, 27.0, 24).tolist()
    for r in radii + [0.0, 1e-300, 0.5, 45.0]:
        for phi in (0.0, 0.3, math.pi / 2, math.pi):
            z = r * complex(math.cos(phi), math.sin(phi))
            for dim in (None, 2, 900):
                lin = build(lambda: g.linear_coherent_state(z, dim, 1))
                assert lin == build(lambda: g.gha_coherent_state(
                    g.harmonic(), z, dim)), (r, phi, dim)
    st = g.linear_coherent_state(0.5, None, 1)
    assert (st.index_offset, st.spectrum_id, st.kind) == (1, "linear", "linear")


def test_linear_zero_label_is_ground():
    st = g.linear_coherent_state(0.0)
    assert st.coeffs[0] == 1.0 and not np.any(st.coeffs[1:])


def test_linear_recurrence_and_tail():
    z = 0.5
    st = g.linear_coherent_state(z, dim=40)
    ratio = st.coeffs[1:] / st.coeffs[:-1]
    n = np.arange(39, dtype=float)
    assert np.abs(ratio - z / np.sqrt(n + 1)).max() < 1e-12
    assert 1 - np.linalg.norm(st.coeffs[:20]) ** 2 < 1e-14


@pytest.mark.parametrize("spec,r", [
    (g.type1(), 0.1), (g.type1(), 0.5), (g.type1(), 0.9),
    (g.type2(), 0.3), (g.type2(), 0.9),
    (g.hydrogen(), 0.1), (g.hydrogen(), 0.5), (g.hydrogen(), 0.9),
    (g.morse(7.59), 0.5), (g.morse(7.59), 2.0),
    (g.harmonic(), 0.7),
])
def test_closed_form_normalization(spec, r):
    assert 1.0 / unnormalized_norm(spec, r) == pytest.approx(
        g.closed_form_normalization(spec, r), rel=1e-10)


def test_closed_form_values():
    assert g.closed_form_normalization(g.type1(), 0.5) == 0.75
    assert g.closed_form_normalization(g.type2(), 0.5) == pytest.approx(
        math.sqrt(0.421875 / 1.25), rel=1e-12)
    assert g.closed_form_normalization(g.hydrogen(), 1e-8) == pytest.approx(
        1.0, abs=1e-6)
    with pytest.raises(WrongSystemError):
        g.closed_form_normalization(g.q_deformed(0.5), 0.3)


def test_eigenstate_residuals():
    spec = g.type1()
    z = 0.5
    st = g.gha_coherent_state(spec, z, dim=60)
    assert g.eigenstate_residual(spec, st, z) < 1e-8
    lin = g.linear_coherent_state(0.5, dim=40)
    assert g.eigenstate_residual(spec, lin, 0.5) < 1e-8
    hy = g.hydrogen()
    sth = g.gha_coherent_state(hy, 0.5, dim=60)
    assert g.eigenstate_residual(hy, sth, 0.5) < 1e-8
    assert g.eigenstate_residual(spec, g.gha_coherent_state(spec, 0.0), 0.0) == 0.0


def test_morse_state_only_approximate_eigenstate():
    spec = g.morse(7.59)
    st = g.gha_coherent_state(spec, 1.0)
    res = g.eigenstate_residual(spec, st, 1.0)
    assert res > 1e-6  # finite sum cannot satisfy the eigenvalue equation


def test_klauder_continuity():
    for spec in (g.type1(), g.morse(7.59)):
        assert g.klauder_continuity_check(spec, 0.5, 0.5) == 0.0
        assert g.klauder_continuity_check(spec, 0.5, 0.5 + 1e-6) <= 1e-4
    # scaling sweep: halving the label offset roughly halves the distance
    d1 = g.klauder_continuity_check(g.type1(), 0.3, 0.3 + 1e-5)
    d2 = g.klauder_continuity_check(g.type1(), 0.3, 0.3 + 5e-6)
    assert d2 == pytest.approx(0.5 * d1, rel=1e-3)


def test_radius_checks():
    with pytest.raises(RadiusOfConvergenceError):
        g.gha_coherent_state(g.type1(), 1.0)
    with pytest.raises(RadiusOfConvergenceError):
        g.gha_coherent_state(g.hydrogen(), 1.2)
    # inside the warning band the tail bound needs more than the hard cap
    # of levels, so the warning is followed by the truncation error
    with pytest.warns(ConditioningWarning):
        with pytest.raises(TailBoundError):
            g.gha_coherent_state(g.type1(), 0.995)
    with pytest.warns(ConditioningWarning):
        st = g.gha_coherent_state(g.type1(), 0.99)
    assert st.dim < 2000
    with pytest.raises(RadiusOfConvergenceError):
        g.closed_form_normalization(g.type2(), 1.0)
    # the q-deformed disk has radius sqrt(1/(1-q))
    q = g.q_deformed(0.5)
    assert g.convergence_radius(q) == pytest.approx(math.sqrt(2.0))
    with pytest.raises(RadiusOfConvergenceError):
        g.gha_coherent_state(q, 1.5)
    g.gha_coherent_state(q, 1.2)  # inside the disk


def test_both_routes_warn_near_the_radius():
    # both routes fit under the cap here: 1,783 levels and 1,862 and 1,935
    # series terms
    spec = g.type1()
    with pytest.warns(ConditioningWarning, match="within 1%"):
        g.gha_coherent_state(spec, 0.99)
    with pytest.warns(ConditioningWarning, match="within 1%"):
        g.moment_series(spec, "gha", 0.99)
    for path in ("oracle", "series"):
        with pytest.warns(ConditioningWarning, match="within 1%"):
            g.trace(spec, "gha", 0.99, path=path, n_points=11)
    # below the band, and for the linear states, which have no radius,
    # neither route warns
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConditioningWarning)
        g.gha_coherent_state(spec, 0.98)
        g.moment_series(spec, "gha", 0.98)
        g.moment_series(spec, "linear", 0.99)



def test_trace_warns_once_near_the_radius():
    # path "both" builds a state and a series for one input, and says so once
    for path in ("oracle", "series", "both"):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            g.trace(g.type1(), "gha", 0.99, path=path, n_points=11)
        assert [w.category for w in seen] == [ConditioningWarning], path
    # and the series warns on its own again after a "both" trace
    with pytest.warns(ConditioningWarning, match="within 1%"):
        g.moment_series(g.type1(), "gha", 0.99)


def test_trace_judges_the_label_r_on_every_path():
    # |r e^{i phi}| rounds to 0.9899999999999999 here, just below the band
    # that r = 0.99 lies in; a trace judges r once, whatever its path
    phi = 0.012566370614359173
    assert abs(0.99 * complex(math.cos(phi), math.sin(phi))) < 0.99
    for path in ("oracle", "series", "both"):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            g.trace(g.type1(), "gha", 0.99, phi, path=path, n_points=11)
        assert [w.category for w in seen] == [ConditioningWarning], path
    # a trace that fails inside its routes leaves the builders warning
    with pytest.warns(ConditioningWarning), pytest.raises(TailBoundError):
        g.trace(g.type1(), "gha", 0.995, path="series", n_points=11)
    with pytest.warns(ConditioningWarning, match="within 1%"):
        g.gha_coherent_state(g.type1(), 0.99)


def test_warnings_name_the_callers_line():
    # every near-radius and clamp warning points at the line that called
    # the library, however deep inside the package it was raised
    from ghastates.dynamics import ExpectationSet, expectations_series
    spec = g.type1()
    calls = [
        lambda: g.trace(spec, "gha", 0.99, path="oracle", n_points=11),
        lambda: g.trace(spec, "gha", 0.99, path="series", n_points=11),
        lambda: g.trace(spec, "gha", 0.99, path="both", n_points=11),
        lambda: expectations_series(spec, "gha", 0.99, 0.0, 1.0),
        lambda: g.klauder_continuity_check(spec, 0.99, 0.5),
        lambda: ExpectationSet(0.0, 0.0, -1e-14, 1.0),
        lambda: g.gha_coherent_state(spec, 0.99),
        lambda: g.moment_series(spec, "gha", 0.99),
    ]
    for i, call in enumerate(calls):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            call()
        assert seen and all(w.filename == __file__ for w in seen), (
            i, [(w.filename, w.lineno) for w in seen])


def test_near_radius_traces_from_two_lines_both_warn():
    # the default filter shows a warning once per location, so two calls
    # reported at one library line would show only the first
    spec = g.type1()
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("default")
        g.trace(spec, "gha", 0.99, n_points=11)
        g.trace(spec, "gha", 0.99, n_points=11)
    assert [w.category for w in seen] == [ConditioningWarning] * 2
    assert seen[0].lineno != seen[1].lineno


def test_tail_bound_errors():
    with pytest.raises(TailBoundError):
        g.gha_coherent_state(g.type1(), 0.5, dim=5)
    with pytest.raises(TailBoundError):
        g.linear_coherent_state(2.0, dim=4)


def test_morse_dim_must_be_full():
    with pytest.raises(DimensionMismatchError):
        g.gha_coherent_state(g.morse(7.59), 0.5, dim=4)


def test_degenerate_table_rejected():
    spec = g.from_table([0.0, 0.0, 1.0])
    with pytest.raises(DegenerateSpectrumError):
        g.gha_coherent_state(spec, 0.5)


def test_adaptive_dim_grows_with_r():
    small = g.gha_coherent_state(g.type1(), 0.1).dim
    large = g.gha_coherent_state(g.type1(), 0.9).dim
    assert small < large


def test_state_vector_read_only():
    st = g.gha_coherent_state(g.type1(), 0.2)
    with pytest.raises(ValueError):
        st.coeffs[0] = 0.0


def test_csv_export_offsets():
    st = g.gha_coherent_state(g.type1(), 0.3)
    buf = io.StringIO()
    g.state_to_csv(st, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "index,re,im"
    assert lines[1].startswith("1,")  # presentation labels start at 1
    assert len(lines) == st.dim + 1


def _reference_state_csv(state, path):
    # the per-value writer the row template replaced
    lines = ["index,re,im"]
    for k, c in enumerate(state.coeffs):
        lines.append(f"{k + state.index_offset},{c.real:.12g},{c.imag:.12g}")
    _write_lines(lines, path)


def _spot_state(index_offset):
    # signed zeros, the smallest subnormal and a 13th digit that rounds half
    re = np.array([0.6, -0.0, 5e-324, 0.0, 1.0000000000005e-3, -2.5e-7])
    im = np.array([-0.0, -0.0, 0.0, 1e-300, -0.0, 0.0])
    im[-1] = math.sqrt(1.0 - (re ** 2).sum())
    c = np.empty(len(re), dtype=complex)
    c.real, c.imag = re, im  # re + 1j * im would turn -0.0 into 0.0
    return g.FockState(c, index_offset, "spot")


@pytest.mark.parametrize("state", [
    _spot_state(0),
    _spot_state(1),
    g.gha_coherent_state(g.type1(), 0.3 * np.exp(0.7j)),   # offset 1
    g.gha_coherent_state(g.harmonic(), 2.0),               # offset 0
    g.linear_coherent_state(1.5 - 0.5j),
], ids=["spot-offset0", "spot-offset1", "type1", "harmonic", "linear"])
def test_state_csv_matches_per_value_format(state):
    got, ref = io.StringIO(), io.StringIO()
    g.state_to_csv(state, got)
    _reference_state_csv(state, ref)
    assert got.getvalue() == ref.getvalue()


def test_state_csv_spot_rows():
    # the spot state keeps its signed zeros through to the file
    buf = io.StringIO()
    g.state_to_csv(_spot_state(1), buf)
    assert buf.getvalue().splitlines()[1:3] == ["1,0.6,-0", "2,-0,-0"]


# Truncation lengths recorded before the state and series tail loops were
# merged into one; any change to the tail policy shows up here.
_PINNED_GHA_DIMS = [
    (g.type1(), (0.1, 0.5, 0.9, 0.98, 0.989), (8, 26, 170, 887, 1620)),
    (g.type2(), (0.1, 0.5, 0.9, 0.98, 0.989), (8, 28, 185, 963, 1759)),
    (g.hydrogen(), (0.1, 0.5, 0.9, 0.98, 0.989), (9, 28, 185, 964, 1760)),
    (g.harmonic(), (0.5, 3.0, 10.0, 20.0), (11, 41, 187, 563)),
    (g.q_deformed(0.5), (0.3, 0.8, 1.3, 1.39), (11, 30, 193, 935)),
    (g.q_deformed(1.5), (1.0, 10.0, 100.0), (11, 22, 33)),
    (g.square_well(2.0), (0.5, 3.0, 20.0), (7, 14, 39)),
]
# a series sums the terms of its state: n - 1 mean and n - 2 cross terms
# over the state's n levels, its dim on an infinite ladder and n_max on Morse
_PINNED_SERIES_LENGTHS = [
    ("harmonic", "gha", (0.5, 3.0, 10.0), ((10, 9), (40, 39), (186, 185))),
    ("harmonic", "linear", (0.5, 3.0, 10.0),
     ((10, 9), (40, 39), (186, 185))),
    ("type1", "gha", (0.1, 0.5, 0.9, 0.989),
     ((7, 6), (25, 24), (169, 168), (1619, 1618))),
    ("type1", "linear", (0.1, 0.5, 0.9), ((5, 4), (10, 9), (15, 14))),
    ("type2", "gha", (0.1, 0.5, 0.9, 0.989),
     ((7, 6), (27, 26), (184, 183), (1758, 1757))),
    ("type2", "linear", (0.1, 0.5, 0.9), ((5, 4), (10, 9), (15, 14))),
    ("hydrogen", "gha", (0.1, 0.5, 0.9, 0.989),
     ((8, 7), (27, 26), (184, 183), (1759, 1758))),
    ("hydrogen", "linear", (0.1, 0.5, 0.9), ((5, 4), (10, 9), (15, 14))),
    ("morse", "gha", (0.03, 0.1, 0.3), ((6, 5), (6, 5), (6, 5))),
]


def test_tail_counts_pinned():
    from ghastates.series import SUPPORTED
    for spec, radii, dims in _PINNED_GHA_DIMS:
        assert tuple(g.gha_coherent_state(spec, r).dim for r in radii) == dims
    assert tuple(g.linear_coherent_state(r).dim
                 for r in (0.5, 3.0, 20.0, 25.0)) == (11, 41, 563, 827)
    assert g.linear_coherent_state(3.0 * np.exp(1j)).dim == 41
    assert {(s, k) for s, k, _, _ in _PINNED_SERIES_LENGTHS} == set(SUPPORTED)
    for system, kind, radii, lengths in _PINNED_SERIES_LENGTHS:
        spec = g.morse(7.59) if system == "morse" else g.make_spectrum(system)
        got = tuple((len(ms.mean_w), len(ms.cross_w))
                    for ms in (g.moment_series(spec, kind, r) for r in radii))
        assert got == lengths, (system, kind)
        n = [spec.max_level if system == "morse" else
             (g.gha_coherent_state(spec, r) if kind == "gha"
              else g.linear_coherent_state(r)).dim for r in radii]
        assert got == tuple((m - 1, m - 2) for m in n), (system, kind)
    # one tail rule stops at the 2000-term cap
    with pytest.raises(TailBoundError):
        g.linear_coherent_state(45.0)
    with pytest.warns(ConditioningWarning), pytest.raises(TailBoundError):
        g.gha_coherent_state(g.type1(), 0.999)
    with pytest.warns(ConditioningWarning), pytest.raises(TailBoundError):
        g.moment_series(g.type1(), "gha", 0.999)


def test_grow_raises_where_its_total_overflows():
    # a total that has overflowed passes any stop test: at r = 26.65, 27
    # and 30 the harmonic rows stopped at 721, 730 and 901 of their 924,
    # 946 and 1140 terms.  Below r = 26.642 the total of the e^(r^2) row
    # stays finite and the lengths stand
    from ghastates.states import _grow
    for r, n in ((26.0, 885), (26.6, 921)):
        assert _grow(lambda k: r * r / (k + 1.0), r) == n
    for r in (26.65, 27.0, 30.0):
        with pytest.raises(NonFiniteResultError, match=f"r = {r:g}:"):
            _grow(lambda k: r * r / (k + 1.0), r)


def test_large_r_states_raise_non_finite():
    # the tail pass's total overflows from r = 26.642 on; the typed error
    # comes with no numpy RuntimeWarning ahead of it
    for r in (27.0, 30.0, 40.0):
        with pytest.raises(NonFiniteResultError, match=f"r = {r:g}"):
            g.linear_coherent_state(r)
        with pytest.raises(NonFiniteResultError, match=f"r = {r:g}"):
            g.gha_coherent_state(g.harmonic(), r)
        for path in ("oracle", "both"):
            with pytest.raises(NonFiniteResultError, match=f"r = {r:g}"):
                g.trace(g.harmonic(), "linear", r, 0.0, 0.0, 1.0, 3, path)


def test_fock_state_rejects_nan():
    with pytest.raises(DimensionMismatchError):
        g.FockState(np.full(4, np.nan), 0, "harmonic")


def test_steep_ladder_overflow_past_the_stop_stays_silent():
    # the tail loop reads 512 levels at once, far past where a steep q > 1
    # ladder stops; q**n overflows there, and no RuntimeWarning (an error
    # under pytest) may escape
    for q in (1e20, 1e150):
        state = g.gha_coherent_state(g.q_deformed(q), 0.5)
        assert state.dim == 2
        assert abs(state.coeffs[1]) == pytest.approx(1 / math.sqrt(5), rel=1e-15)
    for r in (1e-8, 0.3, 0.95, 5.0):
        assert g.gha_coherent_state(g.q_deformed(1e150), r).dim >= 2


# ---------------------------------------------------------------------------
# the array tail loops against the one-term-at-a-time loop they replaced

def _loop_grow(first, ratio, k0, tail):
    """``states._grow`` as a loop over one term at a time, frozen as the
    reference: the array version must give the same lengths."""
    if first == 0.0:
        return []
    terms = [first]
    total = abs(first)
    prev = math.inf
    k = k0
    while True:
        rho = ratio(k)
        if rho < 1.0 and rho <= prev + 1e-15:
            if abs(terms[-1]) * rho / (1.0 - rho) <= tail * max(total, 1.0):
                return terms
        if len(terms) >= 2000:
            raise TailBoundError("tail bound not reached within 2000 terms")
        terms.append(terms[-1] * rho)
        total += abs(terms[-1])
        prev = rho
        k += 1


def _loop_state(spec, kind, r, tail=1e-14):
    """The state's tail loops, run by the frozen loop with scalar ratios; a
    linear state's are those of the harmonic ladder."""
    from ghastates.states import raw_eigenvalue, state_ladder
    if kind == "linear":
        spec = g.harmonic()
    r2 = abs(raw_eigenvalue(spec, complex(r))) ** 2
    if spec.max_level is not None or r2 == 0.0:
        return []
    # read, as the array loop reads it, with q**n's overflow past the stop
    # ignored
    with np.errstate(over="ignore"):
        ladder = state_ladder(spec, 2)

    def ratio(k):
        nonlocal ladder
        if k == len(ladder):
            with np.errstate(over="ignore"):
                ladder = state_ladder(spec, min(2 * k, 2000))
        step = ladder[k]
        if step == 0.0:
            raise DegenerateSpectrumError(f"N_{k} vanishes")
        return r2 / (step * step)

    return [_loop_grow(1.0, ratio, 0, tail)]


def _loop_products(first, ratio, count):
    """first, first*ratio(0), first*ratio(0)*ratio(1), ...: ``count`` terms,
    one product at a time."""
    terms = [first]
    for k in range(count - 1):
        terms.append(terms[-1] * ratio(k))
    return terms[:count]


def _loop_series(spec, kind, r, tail=1e-14):
    """The series' mean and cross rows and its S, one term at a time, over
    the state's n levels: the frozen loop's length on an infinite ladder,
    n_max on Morse, and no terms at r = 0.  N^2 is one over the sum of the
    same n squared amplitudes, so the rows are those of the truncated
    state."""
    from ghastates.series import _SQUARED_LADDERS
    if r == 0.0:
        return [[], [], [0.0]]
    x = r * r
    table = "harmonic" if kind == "linear" else spec.system
    L = _SQUARED_LADDERS[table](spec, np.arange(2003)).tolist()
    n = spec.max_level if spec.system == "morse" else max(
        len(_loop_grow(1.0, lambda k: x / L[k], 0, tail)), 2)
    n2 = 1.0 / math.fsum(_loop_products(1.0, lambda k: x / L[k], n))
    mean = _loop_products(
        n2 * r / math.sqrt(L[0]),
        lambda k: x / math.sqrt((k + 1) * L[k] * L[k + 1] / (k + 2)), n - 1)
    cross = _loop_products(
        n2 * x * math.sqrt(2.0 / (L[0] * L[1])),
        lambda k: x / math.sqrt((k + 1) * L[k] * L[k + 2] / (k + 3)), n - 2)
    diag = _loop_products(n2 * x / L[0],
                          lambda k: x / ((k + 1) * L[k + 1] / (k + 2)), n - 1)
    return [mean, cross, [math.fsum(diag)]]


def _rows_or_error(run):
    """Every row ``run`` returns, or its error class, and the classes of
    the warnings it raised besides ConditioningWarning."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        warnings.simplefilter("ignore", ConditioningWarning)
        try:
            out = [np.asarray(t, dtype=float) for t in run()]
        except GhaError as exc:
            out = type(exc)
    return out, {w.category for w in seen}


def _assert_rows_close(got, want, case):
    """The same error class and warnings, or rows of the same lengths, each
    within 1e-12 of its largest term: exact for the lengths, round-off for
    the log-space weights against the loops' products."""
    (rows, seen), (rows_want, seen_want) = (_rows_or_error(got),
                                            _rows_or_error(want))
    assert seen == seen_want, case
    if isinstance(rows, type) or isinstance(rows_want, type):
        assert rows is rows_want, case
        return
    assert [len(row) for row in rows] == [len(row) for row in rows_want], case
    for row, row_want in zip(rows, rows_want):
        if len(row):
            assert np.abs(row - row_want).max() <= 1e-12 * np.abs(
                row_want).max(), case


def _tail_cases():
    from ghastates.series import SUPPORTED
    for system, kind in SUPPORTED:
        specs = ([g.morse(7.59), g.morse(2.5)] if system == "morse"
                 else [g.make_spectrum(system)])
        for spec in specs:
            yield spec, kind, True, (0.0, 1e-8, 0.3, 0.95, 0.985)
    for q in (0.5, 1.5, 1e20, 1e150):  # no series route
        yield g.q_deformed(q), "gha", False, (0.0, 1e-8, 0.3, 0.95, 0.985)
    yield g.type1(), "gha", True, (0.999,)  # TailBoundError on both


@contextlib.contextmanager
def _stacked_pass_checks(tail=1e-14):
    """Record the lengths of every tail pass, run at the bound ``tail`` in
    place of the module's 1e-14; yields ``check``, which compares a case's
    state lengths and series rows with the frozen loops and returns how
    many it compared."""
    import ghastates.states as states
    grown, grow = [], states._grow

    def record(ratio, r):
        grown.append(grow(ratio, r))
        return grown[-1]

    def recorded(build):
        def run():
            grown.clear()
            build()
            return [list(grown)]
        return run

    def series(spec, kind, r):
        ms = g.moment_series(spec, kind, r)
        return [ms.mean_w, ms.cross_w, [ms.diag]]

    def check(spec, kind, r, has_series):
        if kind == "linear":
            new = recorded(lambda: g.linear_coherent_state(r))
        else:
            new = recorded(lambda: g.gha_coherent_state(spec, r))
        # the state's length: the loop's, and at least 2
        pairs = [(new, lambda: [[max(len(terms), 2) for terms in
                                 _loop_state(spec, kind, r, tail)]])]
        if has_series:
            pairs.append((lambda: series(spec, kind, r),
                          lambda: _loop_series(spec, kind, r, tail)))
        for got, want in pairs:
            _assert_rows_close(got, want,
                               (spec.system, spec.q, spec.p, kind, r, tail))
        return len(pairs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(states, "_grow", record)
        patch.setattr(states, "_TAIL", tail)
        yield check


@pytest.mark.parametrize("tail", [0.0, 1e-14, 0.5])
def test_array_tail_loops_match_the_loop(tail):
    # _grow stops at any bound, though the module sets 1e-14; q = 1e150 at
    # tail 0 reads levels past q**n's overflow on both sides
    checked = 0
    with _stacked_pass_checks(tail) as check:
        for spec, kind, has_series, radii in _tail_cases():
            for r in radii:
                checked += check(spec, kind, r, has_series)
    # state and series of the 9 pairs, Morse at two p, at 5 radii; the
    # q_deformed states; type1 at r = 0.999
    assert checked == 2 * 10 * 5 + 4 * 5 + 2


def _stacked_cases():
    from ghastates.series import SUPPORTED
    return [(system, kind, True) for system, kind in SUPPORTED] + [
        ("q_deformed", "gha", False)]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=st.sampled_from(_stacked_cases()),
       p=st.floats(1.5, 20.0, exclude_min=True, exclude_max=True).filter(
           lambda p: not p.is_integer()),
       # q below 0.99 keeps |a|^2 finite up to 0.999 of the radius
       log_q=st.floats(-3.0, -0.005) | st.floats(0.001, 150.0),
       frac=st.floats(0.0, 1.0))
def test_stacked_pass_matches_the_loops_property(case, p, log_q, frac):
    # r up to 0.999 of the radius, or to 26 where there is none: the norm
    # sum of the exponential weights overflows from r = 26.642 on
    system, kind, has_series = case
    spec = (g.morse(p) if system == "morse"
            else g.q_deformed(10.0 ** log_q) if system == "q_deformed"
            else g.make_spectrum(system))
    radius = g.convergence_radius(spec) if kind == "gha" else math.inf
    r = frac * min(0.999 * radius, 26.0)
    with _stacked_pass_checks() as check:
        check(spec, kind, r, has_series)


@pytest.mark.parametrize("r", [1e-8, 0.3, 0.95, 5.0])
def test_steep_ladder_at_tail_zero_warns_of_no_overflow(r, monkeypatch):
    # at tail 0 the state stops only where N_k overflows to inf, and the
    # ladder is read a chunk past it; that overflow stays inside the loop
    import ghastates.states as states
    monkeypatch.setattr(states, "_TAIL", 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        state = g.gha_coherent_state(g.q_deformed(1e150), r)
    assert state.dim >= 2


def test_morse_normalization_matches_the_loop():
    for p in (7.59, 2.5):
        spec = g.morse(p)
        for r in (0.0, 1e-8, 0.03, 0.3, 0.95, 3.0):
            x = r * r
            total, term = 0.0, 1.0
            for n in range(spec.max_level):
                if n > 0:
                    term *= x / (n * (2.0 * p - n))
                total += term
            assert g.closed_form_normalization(spec, r) == 1.0 / math.sqrt(
                total), (p, r)


#: the squared ladders L_k of ``series._SQUARED_LADDERS``, written again
#: for mpmath from their closed forms
_MP_SQUARED_LADDERS = {
    "harmonic": lambda mp, p, k: mp.mpf(k + 1),
    "type1": lambda mp, p, k: mp.mpf(k + 1) / (k + 2),
    "type2": lambda mp, p, k: mp.mpf(k + 1) ** 2 / mp.mpf(k + 2) ** 2,
    "hydrogen": lambda mp, p, k: mp.mpf(k + 1) ** 3 * (k + 3)
    / mp.mpf(k + 2) ** 4,
    "morse": lambda mp, p, k: (k + 1) * (2 * mp.mpf(p) - k - 1),
}


@pytest.mark.parametrize("system, kind, r", [
    ("harmonic", "gha", 3.0), ("harmonic", "gha", 26.6),
    ("type1", "linear", 10.0), ("type1", "gha", 0.9), ("type1", "gha", 0.989),
    ("type2", "gha", 0.9), ("hydrogen", "gha", 0.9),
    ("hydrogen", "linear", 0.5), ("morse", "gha", 0.3),
    ("morse", "gha", 30.0), ("morse", "gha", 3e26), ("morse", "gha", 1e100),
])
def test_weights_match_mpmath_over_the_same_length(system, kind, r):
    # the log-space weights against the same n terms summed at 40 digits:
    # rows within 1e-12 of their largest term, S within 1e-13 relative
    mpmath = pytest.importorskip("mpmath")
    spec = g.morse(7.59) if system == "morse" else g.make_spectrum(system)
    ms = g.moment_series(spec, kind, r)
    n = len(ms.mean_w) + 1
    ladder = _MP_SQUARED_LADDERS["harmonic" if kind == "linear" else system]
    with mpmath.workdps(40):
        x = mpmath.mpf(r) ** 2
        p = [mpmath.mpf(1)]
        for k in range(n - 1):
            p.append(p[-1] * x / ladder(mpmath, spec.p, k))
        total = mpmath.fsum(p)
        p = [term / total for term in p]
        mean = [mpmath.sqrt(p[k] * p[k + 1] * (k + 1)) for k in range(n - 1)]
        cross = [mpmath.sqrt(p[k] * p[k + 2] * (k + 1) * (k + 2))
                 for k in range(n - 2)]
        diag = float(mpmath.fsum(k * p[k] for k in range(n)))
    for got, want in ((ms.mean_w, mean), (ms.cross_w, cross)):
        want = np.array([float(w) for w in want])
        assert np.abs(got - want).max() <= 1e-12 * want.max()
    assert ms.diag == pytest.approx(diag, rel=1e-13, abs=0.0)


def test_tail_loop_raises_where_the_ladder_vanishes(monkeypatch):
    # the loop raised on reaching N_k = 0, and only if no stop came first
    import ghastates.states as states
    ladder = np.sqrt(np.arange(1.0, 2001.0))
    ladder[40] = 0.0
    monkeypatch.setattr(states, "state_ladder",
                        lambda spec, count: ladder[:count])
    spec = g.harmonic()
    with pytest.raises(DegenerateSpectrumError, match="N_40"):
        states._adaptive_count(spec, 6.0)  # needs about 70 levels
    assert states._adaptive_count(spec, 0.5)[0] == len(
        _loop_state(spec, "gha", 0.5)[0])


@pytest.mark.parametrize("system, kind, r, reads, lengths", [
    ("type2", "gha", 0.95, 1, [379, 379]),
    ("harmonic", "linear", 12.0, 1, [246, 246]),
    ("type1", "gha", 0.99, 2, [1783, 1783]),
])
def test_first_chunk_serves_the_benchmark_radii(system, kind, r, reads,
                                                lengths):
    # the benchmark's largest radii end each tail pass, state and series,
    # in the first chunk; type1 at r = 0.99 takes a second one.  Both
    # passes pick the state's length, and the series sums its terms
    import ghastates.series as series
    import ghastates.states as states
    grow, passes = states._grow, []

    def counted(ratio, r):
        calls = []

        def read(k):
            calls.append(len(k))
            return ratio(k)

        n = grow(read, r)
        passes.append((len(calls), n))
        return n

    spec = g.make_spectrum(system)
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        patch.setattr(states, "_grow", counted)
        patch.setattr(series, "_grow", counted)
        if kind == "gha":
            g.gha_coherent_state(spec, r)
        else:
            g.linear_coherent_state(r)
        ms = g.moment_series(spec, kind, r)
    assert passes == [(reads, n) for n in lengths]
    assert (len(ms.mean_w), len(ms.cross_w)) == (lengths[1] - 1,
                                                 lengths[1] - 2)


def test_state_reads_its_ladder_once_per_chunk():
    # the tail pass hands the ladder it read to the amplitudes; only an
    # explicit dim past that read, or r = 0, where no pass runs, reads again
    import ghastates.states as states
    read, calls = states.state_ladder, []

    def counted(spec, count):
        calls.append(count)
        return read(spec, count)

    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        patch.setattr(states, "state_ladder", counted)
        for r, dim, reads in ((0.9, None, [512]), (0.99, None, [512, 2000]),
                              (0.9, 300, [512]), (0.9, 600, [512, 599]),
                              (0.0, None, [1])):
            calls.clear()
            g.gha_coherent_state(g.type1(), r, dim)
            assert calls == reads, (r, dim)


def test_moment_series_reads_its_levels_once():
    import ghastates.series as series
    read, calls = series.levels, []

    def counted(spec, count):
        calls.append(count)
        return read(spec, count)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series, "levels", counted)
        for spec, kind, r in ((g.type1(), "gha", 0.9), (g.morse(7.59), "gha",
                                                        0.1),
                              (g.harmonic(), "linear", 3.0),
                              (g.type2(), "gha", 0.0)):
            calls.clear()
            ms = g.moment_series(spec, kind, r)
            assert calls == [max(len(ms.mean_w) + 1, len(ms.cross_w) + 2)]
    assert not hasattr(series, "_gaps")


def test_edge_raises_of_the_state_builders():
    # r < 0 reaches the series' own radius check, and a Morse well below
    # p = 1 has one level, so no room for a state below its top
    with pytest.raises(RadiusOfConvergenceError, match="r must be >= 0"):
        g.moment_series(g.type1(), "gha", -0.1)
    with pytest.raises(DegenerateSpectrumError, match="no room"):
        g.gha_coherent_state(g.morse(0.5), 0.1)
    # states of different lengths are compared at the longer one, which
    # rebuilds whichever came out shorter
    for z, z_prime in ((0.3, 0.9), (0.9, 0.3)):
        long = g.gha_coherent_state(g.type1(), 0.9)
        short = g.gha_coherent_state(g.type1(), 0.3, long.dim)
        assert g.klauder_continuity_check(g.type1(), z, z_prime) == float(
            np.linalg.norm(short.coeffs - long.coeffs))


# ---------------------------------------------------------------------------
# the amplitude profile against the recurrence loop it replaced

def _loop_amplitudes(ladder, z, count):
    """``states._amplitudes`` as the unnormalized loop it was, frozen as the
    reference."""
    a = np.empty(count, dtype=complex)
    a[0] = 1.0
    for k in range(1, count):
        step = ladder[k - 1]
        if step == 0.0:
            raise DegenerateSpectrumError(f"N_{k - 1} vanishes")
        a[k] = a[k - 1] * z / step
    return a


def _amplitude_cases():
    """(ladder, z, count) as the constructors pass them, for every
    SUPPORTED pair, q_deformed and square_well at fixed and drawn labels and
    on the four half-axes; counts up to 1000 on the infinite ladders, where
    components underflow."""
    from ghastates.series import SUPPORTED
    from ghastates.states import raw_eigenvalue, state_ladder
    rng = np.random.default_rng(20)
    specs = [(kind, g.morse(7.59) if system == "morse"
              else g.make_spectrum(system)) for system, kind in SUPPORTED]
    specs += [("gha", g.q_deformed(q)) for q in (0.5, 1.5, 1e150)]
    specs += [("gha", g.square_well(2.0))]
    for kind, spec in specs:
        radius = g.convergence_radius(spec) if kind == "gha" else math.inf
        radii = [0.0, 1e-300, 1e-20, 1e-8,
                 *rng.uniform(0.0, min(0.999 * radius, 26.0), 3)]
        phis = [0.0, -0.0, math.pi / 2, math.pi, 1.5 * math.pi,
                *rng.uniform(0.0, 2.0 * math.pi, 2)]
        counts = ([spec.max_level] if spec.max_level is not None
                  else [2, 40, 1000])
        for r in radii:
            labels = [r * complex(math.cos(phi), math.sin(phi))
                      for phi in phis]
            labels += [complex(r, 0.0), complex(-r, 0.0), complex(0.0, r),
                       complex(0.0, -r)]
            for z in labels:
                for count in counts:
                    if kind == "linear":
                        ladder = np.sqrt(np.arange(1, count, dtype=float))
                        yield ladder, z, count
                    else:
                        # q**n overflows in the q = 1e150 ladder
                        with np.errstate(over="ignore"):
                            ladder = state_ladder(spec, count - 1)
                        yield ladder, raw_eigenvalue(spec, z), count


def test_amplitude_accumulate_matches_the_loop():
    # the log-space profile moves each amplitude by round-off alone: within
    # 1e-12 of the largest of the loop's normalized terms.  A label on an
    # axis keeps its exact zeros, and the positive real axis its +0
    # imaginary parts, as the loop did
    from ghastates.states import _amplitudes
    cases = on_axis = 0
    for ladder, z, count in _amplitude_cases():
        want = _loop_amplitudes(ladder, z, count)
        want /= np.linalg.norm(want)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _amplitudes(ladder, z, count)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (
            ladder[:3], z, count)
        assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-13)
        odd = np.arange(count) % 2 == 1
        if z.imag == 0.0:
            assert not got.imag.any(), (ladder[:3], z, count)
            if z.real > 0.0:
                assert not np.signbit(got.imag).any(), (ladder[:3], z, count)
        if z.real == 0.0:
            assert not (got.real[odd].any() or got.imag[~odd].any()), (
                ladder[:3], z, count)
        cases += 1
        on_axis += z.real == 0.0 or z.imag == 0.0
    # 13 systems at 7 radii and 11 labels; Morse has one count, the others 3
    assert cases == 7 * 11 * (1 + 12 * 3)
    assert on_axis == (1 * 11 + 6 * 6) * (1 + 12 * 3)


def test_amplitudes_raise_where_the_ladder_vanishes():
    from ghastates.states import _amplitudes
    ladder = np.sqrt(np.arange(1.0, 40.0))
    ladder[[7, 20]] = 0.0
    for z in (0.0, 0.5, 0.5j):
        with pytest.raises(DegenerateSpectrumError, match="N_7 vanishes"):
            _amplitudes(ladder, z, 40)
    assert np.isfinite(_amplitudes(ladder, 0.5, 8)).all()


def _loop_hydrogen_norm(x):
    """The small-x branch of ``states._hydrogen_norm`` as the loop it was,
    frozen as the reference."""
    s = 1.0 + (7.0 / 3.0) * x
    term = x * x
    k = 4
    while True:
        contrib = 12.0 * term / (k * (k - 1) * (k - 2) * (k - 3))
        s += contrib
        if contrib < 1e-18 * s:
            break
        term *= x
        k += 1
    return math.sqrt((1.0 - x) ** 3 / s)


def test_hydrogen_norm_accumulate_matches_the_loop():
    from ghastates.states import _hydrogen_norm
    xs = np.linspace(0.0, 0.1, 20001)[1:].tolist() + [
        5e-324, 1e-300, 1e-160, 1e-9, float(np.nextafter(0.1, 0.0))]
    for x in xs:
        assert _hydrogen_norm(x).hex() == _loop_hydrogen_norm(x).hex(), x
