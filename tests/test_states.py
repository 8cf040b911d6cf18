import io
import math

import numpy as np
import pytest

import ghastates as g
from ghastates.errors import (
    ConditioningWarning,
    DegenerateSpectrumError,
    DimensionMismatchError,
    NonFiniteResultError,
    RadiusOfConvergenceError,
    TailBoundError,
    WrongSystemError,
)


def unnormalized_norm(spec, r):
    """Brute-force norm of the raw series, the oracle behind N(r)."""
    from ghastates.states import _amplitudes, raw_eigenvalue, state_ladder
    st = g.gha_coherent_state(spec, r)
    count = st.dim if spec.max_level is None else spec.max_level
    amps = _amplitudes(state_ladder(spec, count - 1), raw_eigenvalue(spec, r),
                       count)
    return float(np.linalg.norm(amps))


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
    z = 0.5 * np.exp(0.3j)
    a = g.gha_coherent_state(g.harmonic(), z)
    b = g.linear_coherent_state(z, dim=a.dim)
    assert np.abs(a.coeffs - b.coeffs).max() < 1e-12


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
        st = g.gha_coherent_state(g.type1(), 0.992, tail=1e-6)
    assert st.dim < 2000
    with pytest.raises(RadiusOfConvergenceError):
        g.closed_form_normalization(g.type2(), 1.0)
    # the q-deformed disk has radius sqrt(1/(1-q))
    q = g.q_deformed(0.5)
    assert g.convergence_radius(q) == pytest.approx(math.sqrt(2.0))
    with pytest.raises(RadiusOfConvergenceError):
        g.gha_coherent_state(q, 1.5)
    g.gha_coherent_state(q, 1.2)  # inside the disk


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
_PINNED_SERIES_LENGTHS = [
    ("harmonic", "gha", (0.5, 3.0, 10.0), ((11, 11), (41, 41), (187, 187))),
    ("harmonic", "linear", (0.5, 3.0, 10.0),
     ((11, 11), (41, 41), (187, 187))),
    ("type1", "gha", (0.1, 0.5, 0.9, 0.989),
     ((8, 7), (27, 27), (177, 184), (1691, 1759))),
    ("type1", "linear", (0.1, 0.5, 0.9), ((6, 5), (11, 11), (16, 16))),
    ("type2", "gha", (0.1, 0.5, 0.9, 0.989),
     ((8, 8), (29, 29), (191, 197), (1823, 1885))),
    ("type2", "linear", (0.1, 0.5, 0.9), ((6, 5), (11, 11), (16, 16))),
    ("hydrogen", "gha", (0.1, 0.5, 0.9, 0.989),
     ((8, 8), (29, 30), (191, 197), (1824, 1885))),
    ("hydrogen", "linear", (0.1, 0.5, 0.9), ((6, 5), (11, 11), (16, 16))),
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
    # each loop stops at the same 2000-term cap
    with pytest.raises(TailBoundError):
        g.linear_coherent_state(45.0)
    with pytest.warns(ConditioningWarning), pytest.raises(TailBoundError):
        g.gha_coherent_state(g.type1(), 0.999)
    with pytest.raises(TailBoundError):
        g.moment_series(g.type1(), "gha", 0.999)


def test_large_r_states_raise_non_finite():
    # |a|^2 overflows from r = 26.64 on, and the amplitudes at r = 40
    for r in (30.0, 40.0):
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteResultError, match=f"r = {r:g}"):
                g.linear_coherent_state(r)
            with pytest.raises(NonFiniteResultError, match=f"r = {r:g}"):
                g.gha_coherent_state(g.harmonic(), r)


def test_fock_state_rejects_nan():
    with pytest.raises(DimensionMismatchError):
        g.FockState(np.full(4, np.nan), 0, "harmonic")


def test_adaptive_count_reads_no_level_it_does_not_need():
    # the ladder comes in doubling chunks, so a steep q > 1 ladder stops
    # before q**n overflows (RuntimeWarning is an error under pytest)
    for q in (1e20, 1e150):
        state = g.gha_coherent_state(g.q_deformed(q), 0.5)
        assert state.dim == 2
        assert abs(state.coeffs[1]) == pytest.approx(1 / math.sqrt(5), rel=1e-15)
