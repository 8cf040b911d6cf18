import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ghastates as g
from ghastates.errors import (
    DomainError,
    InvalidParameterError,
    LevelOutOfRangeError,
    NegativeGapError,
)
from ghastates.spectrum import ladder_coefficients


def test_energy_examples():
    assert g.energy(g.type1(), 0) == 0.0
    assert g.energy(g.type1(), 1) == 0.5
    assert g.energy(g.type2(), 3) == pytest.approx(9.0 / 16.0, rel=1e-15)
    assert g.energy(g.hydrogen(), 0) == -1.0
    assert g.energy(g.hydrogen(), 2) == pytest.approx(-1.0 / 9.0, rel=1e-15)
    assert g.energy(g.square_well(4.0), 0) == 4.0
    assert g.energy(g.square_well(4.0), 2) == 36.0
    assert g.energy(g.q_deformed(0.5), 3) == pytest.approx(1.75, rel=1e-15)
    assert g.energy(g.morse(7.59), 0) == pytest.approx(-57.6081, rel=1e-12)
    assert g.energy(g.harmonic(), 5) == 5.0


def test_characteristic_fn_examples():
    assert g.characteristic_fn(g.harmonic(), 3.0) == 4.0
    assert g.characteristic_fn(g.q_deformed(0.5), 1.75) == 1.875
    assert g.characteristic_fn(g.square_well(4.0), 9.0) == pytest.approx(25.0)
    assert g.characteristic_fn(g.type1(), 0.5) == pytest.approx(2.0 / 3.0)
    assert g.characteristic_fn(g.type2(), 0.25) == pytest.approx(4.0 / 9.0)
    assert g.characteristic_fn(g.hydrogen(), -1.0) == pytest.approx(-0.25)
    m = g.morse(7.59)
    assert g.characteristic_fn(m, -(7.59 ** 2)) == pytest.approx(-(6.59 ** 2))


def test_characteristic_fn_domains():
    with pytest.raises(DomainError):
        g.characteristic_fn(g.square_well(), -1.0)
    with pytest.raises(DomainError):
        g.characteristic_fn(g.morse(7.59), 1.0)
    with pytest.raises(DomainError):
        g.characteristic_fn(g.hydrogen(), 0.5)
    with pytest.raises(DomainError):
        g.characteristic_fn(g.type1(), 2.0)
    # the hydrogen map is defined on the bound levels alone, which are < 0
    for x in (0.0, -0.0):
        with pytest.raises(DomainError, match="hydrogen map needs x < 0"):
            g.characteristic_fn(g.hydrogen(), x)


@pytest.mark.parametrize("rel, found", [(0.8e-9, True), (1.2e-9, False)])
def test_table_map_matches_a_level_within_one_in_a_billion(rel, found):
    # the tabulated map takes x for a stored level within a relative 1e-9
    # (its absolute 1e-12 is far below these levels' spacing)
    spec = g.from_table([10.0, 20.0, 40.0])
    for e, successor in ((10.0, 20.0), (20.0, 40.0)):
        for x in (e * (1.0 + rel), e * (1.0 - rel)):
            if found:
                assert g.characteristic_fn(spec, x) == successor
            else:
                with pytest.raises(DomainError, match="not a tabulated level"):
                    g.characteristic_fn(spec, x)


def test_next_energy():
    assert g.next_energy(g.type1(), 1) == pytest.approx(2.0 / 3.0)
    assert g.next_energy(g.harmonic(), 5) == 6.0
    m = g.morse(7.59)
    # the top level wraps back to the ground energy
    assert g.next_energy(m, 7) == g.energy(m, 0)
    with pytest.raises(LevelOutOfRangeError):
        g.next_energy(m, 8)


def test_ladder_coefficient():
    for n in range(6):
        assert g.ladder_coefficient(g.harmonic(), n) == pytest.approx(
            math.sqrt(n + 1), rel=1e-15)
    assert g.ladder_coefficient(g.morse(7.59), 0) == pytest.approx(
        math.sqrt(14.18), rel=1e-12)
    assert g.ladder_coefficient(g.type1(), 0) == pytest.approx(
        math.sqrt(0.5), rel=1e-15)
    with pytest.raises(LevelOutOfRangeError):
        g.ladder_coefficient(g.morse(7.59), 7)


def test_ladder_invariant_next_energy():
    # N_n^2 + eps_0 equals the next level, by construction
    for spec in (g.harmonic(), g.type1(), g.type2(), g.hydrogen(),
                 g.square_well(2.0), g.q_deformed(0.7), g.morse(7.59)):
        top = spec.max_level if spec.max_level is not None else 20
        for n in range(top):
            lhs = g.ladder_coefficient(spec, n) ** 2 + g.energy(spec, 0)
            assert lhs == pytest.approx(g.next_energy(spec, n), rel=1e-13)


def test_negative_gap_rejected():
    spec = g.from_table([1.0, 0.5, 0.25])
    with pytest.raises(NegativeGapError):
        g.ladder_coefficient(spec, 0)


@pytest.mark.parametrize("spec", [
    g.harmonic(), g.q_deformed(0.5), g.square_well(4.0), g.type1(),
    g.type2(), g.hydrogen(), g.morse(7.59), g.morse(3.2),
])
def test_iteration_matches_energy(spec):
    top = spec.max_level if spec.max_level is not None else 50
    for n in range(top + 1):
        e = g.energy(spec, n)
        assert abs(g.iterate_characteristic(spec, n) - e) <= 1e-12 * (1 + abs(e))


def test_iterate_zero_fold():
    spec = g.morse(7.59)
    assert g.iterate_characteristic(spec, 0) == g.energy(spec, 0)


def test_monotonicity_and_bounds():
    for spec in (g.type1(), g.type2()):
        vals = [g.energy(spec, n) for n in range(60)]
        assert all(0 <= v < spec.b for v in vals)
        assert all(a < b for a, b in zip(vals, vals[1:]))
    hy = [g.energy(g.hydrogen(), n) for n in range(60)]
    assert all(v < 0 for v in hy)
    assert all(a < b for a, b in zip(hy, hy[1:]))


def test_morse_closed_form_ladder():
    spec = g.morse(7.59)
    p = spec.p
    for n in range(spec.max_level):
        direct = (n + 1) * (2 * p - n - 1)
        assert g.ladder_coefficient(spec, n) ** 2 == pytest.approx(
            direct, rel=1e-12)


def test_nilpotency_index():
    assert g.nilpotency_index(g.morse(7.59)) == 8
    assert g.nilpotency_index(g.morse(3.2)) == 4
    assert g.nilpotency_index(g.harmonic()) is None
    assert g.nilpotency_index(g.from_table([0.0, 1.0, 2.0])) is None


def test_integer_p_rejected():
    with pytest.raises(InvalidParameterError):
        g.morse(3.0)
    with pytest.raises(InvalidParameterError):
        g.morse(-1.5)


def test_zero_b_rejected():
    # at b = 0 every level is zero: the series route returned a constant
    # trace while the oracle raised a different error per system
    for build in (g.square_well, g.type1, g.type2, g.hydrogen):
        with pytest.raises(InvalidParameterError, match="b must be positive"):
            build(0.0)
    for system in ("square-well", "type1", "type2", "hydrogen"):
        with pytest.raises(InvalidParameterError):
            g.make_spectrum(system, b=0.0)


def test_morse_from_physical_o2():
    phys = g.MorsePhysicalParams(beta=2.78e10, V0=5.211 * g.EV, m_r=1.33e-26)
    # faithful evaluation of the dimensionless well depth and time scale
    assert phys.nu == pytest.approx(101.66, rel=1e-3)
    assert phys.omega == pytest.approx(3.064e12, rel=1e-3)
    spec = g.morse_from_physical(phys)
    assert spec.max_level == math.floor((phys.nu - 1) / 2)
    assert spec.omega == phys.omega
    pinned = g.morse_from_physical(phys, n_max=7)
    assert pinned.max_level == 7
    assert g.nilpotency_index(pinned) == 8


def test_morse_exact_nu_three():
    # nu = 3 gives p = 1 exactly, which is the degenerate integer case
    with pytest.raises(InvalidParameterError):
        g.morse((3.0 - 1.0) / 2.0)


def test_physical_params_validated():
    with pytest.raises(InvalidParameterError):
        g.MorsePhysicalParams(beta=-1.0, V0=1.0, m_r=1.0)


def test_level_range_checks():
    m = g.morse(3.2)
    with pytest.raises(LevelOutOfRangeError):
        g.energy(m, 4)
    with pytest.raises(LevelOutOfRangeError):
        g.energy(m, -1)


def test_make_spectrum_tags():
    assert g.make_spectrum("square-well", b=2.0).system == "square_well"
    assert g.make_spectrum("q-deformed", q=0.5).q == 0.5
    with pytest.raises(Exception):
        g.make_spectrum("unknown")


def test_spectrum_from_config_text():
    spec = g.spectrum_from_config("system = type1\nb = 2.0\n")
    assert spec.system == "type1" and spec.b == 2.0
    spec = g.spectrum_from_config("# a table\nsystem=custom\nenergies=0,0.5,0.9\n")
    assert spec.energies == (0.0, 0.5, 0.9)
    assert g.energy(spec, 2) == 0.9


def test_spectrum_from_config_reads_a_path_holding_equals(tmp_path):
    # a string naming an existing file is a path, whatever it contains
    path = tmp_path / "run=1" / "a.cfg"
    path.parent.mkdir()
    path.write_text("system = type2\nb = 3\n", encoding="utf-8")
    spec = g.spectrum_from_config(str(path))
    assert (spec.system, spec.b) == ("type2", 3.0)


def test_spectrum_from_config_file(tmp_path):
    path = tmp_path / "spec.cfg"
    path.write_text("system = morse\nbeta = 2.78e10\nv0_ev = 5.211\n"
                    "mr = 1.33e-26\nn_max = 7\n", encoding="utf-8")
    spec = g.spectrum_from_config(path)
    assert spec.system == "morse" and spec.max_level == 7
    assert spec.omega == pytest.approx(3.064e12, rel=1e-3)


def test_config_rejects_garbage():
    with pytest.raises(InvalidParameterError):
        g.parse_key_values("not a key value line")
    with pytest.raises(InvalidParameterError):
        g.spectrum_from_config({"b": "1.0"})


def test_spectrum_is_frozen():
    spec = g.type1()
    with pytest.raises(Exception):
        spec.b = 2.0


@st.composite
def _level_tables(draw):
    """A spectrum over its whole parameter domain, and a level count."""
    kind = draw(st.sampled_from(["b", "q", "harmonic", "morse", "custom"]))
    if kind == "b":
        spec = g.make_spectrum(
            draw(st.sampled_from(["square_well", "type1", "type2", "hydrogen"])),
            b=draw(st.floats(1e-3, 1e4)))
    elif kind == "q":
        spec = g.q_deformed(draw(st.floats(0.05, 0.999) | st.floats(1.001, 3.0)))
    elif kind == "harmonic":
        spec = g.harmonic()
    elif kind == "morse":
        spec = g.morse(draw(st.floats(1.05, 40.0).filter(
            lambda p: p != math.floor(p))))
    else:
        table = draw(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=8,
                              unique=True).map(sorted))
        assume(min(np.diff(table)) > 1e-6)
        spec = g.from_table(table)
    if spec.max_level is not None:
        return spec, spec.max_level + 1
    return spec, draw(st.integers(1, 50))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=_level_tables())
def test_level_table_property(case):
    spec, count = case
    eps = g.levels(spec, count)
    scalar = np.array([g.energy(spec, k) for k in range(count)])
    assert eps.tobytes() == scalar.tobytes()
    # N_n^2 + eps_0 is the next level; near a zero level (hydrogen's high
    # levels, the top of a Morse well) the sum cancels, so the tolerance is
    # relative to the larger term
    ladder = ladder_coefficients(spec, min(count - 1, 20))
    nxt = eps[1:len(ladder) + 1]
    assert np.all(np.abs(ladder ** 2 + eps[0] - nxt)
                  <= 1e-13 * np.maximum(np.abs(nxt), abs(eps[0])))
    for n, e in enumerate(eps):
        assert abs(g.iterate_characteristic(spec, n) - e) <= 1e-12 * (1 + abs(e))
    if spec.max_level is not None:
        with pytest.raises(LevelOutOfRangeError):
            g.levels(spec, spec.max_level + 2)
        with pytest.raises(LevelOutOfRangeError):
            g.energy(spec, spec.max_level + 1)


_Q_NEAR_ONE = [1.0 + s * d for d in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4)
               for s in (1.0, -1.0)]


@pytest.mark.parametrize("q", _Q_NEAR_ONE + [0.5, 0.75, 2.0, 3.0])
def test_q_deformed_levels_within_four_ulp(q):
    # eps_n = (1 - q^n)/(1 - q) and N_n = sqrt(eps_{n+1}) against the level
    # map eps_{n+1} = q eps_n + 1 at 50 digits, for every n < 2000 whose
    # level is finite.  That formula alone was off by up to 5e-9 relative
    # at q = 1 + 1e-8; with the expm1 ratio where q^n is near 1 the worst
    # case here is 1.4 ulp.
    mpmath = pytest.importorskip("mpmath")
    spec = g.q_deformed(q)
    count = 2000 if q < 1.5 else int(700 / math.log(q))
    eps = g.levels(spec, count)
    ladder = ladder_coefficients(spec, count - 1)
    assert eps[0] == 0.0 and eps[1] == 1.0
    with mpmath.workdps(50):
        exact, level = [], mpmath.mpf(0)
        for _ in range(count - 1):
            level = mpmath.mpf(q) * level + 1
            exact.append(level)
        budget = 4 * np.finfo(float).eps
        for got, want in ((eps[1:], exact),
                          (ladder, [mpmath.sqrt(e) for e in exact])):
            worst = max(abs(mpmath.mpf(float(v)) / w - 1)
                        for v, w in zip(got, want))
            assert worst <= budget, (q, float(worst))


def test_morse_rejects_bad_n_max_and_omega():
    # n_max must be a finite integer and omega a finite positive scale;
    # trace copies omega into meta["energy_scale"]
    for kwargs in (dict(n_max=math.nan), dict(n_max=math.inf),
                   dict(n_max=2.5), dict(omega=math.nan), dict(omega=-1.0),
                   dict(omega=0.0)):
        with pytest.raises(InvalidParameterError):
            g.morse(7.59, **kwargs)
    assert g.morse(7.59, n_max=3.0, omega=2.5).max_level == 3


def test_constructor_and_map_raises():
    from ghastates.errors import WrongSystemError
    from ghastates.spectrum import SpectrumModel
    cases = [
        (lambda: g.q_deformed(0.0), InvalidParameterError, "q must be > 0"),
        (lambda: g.from_table([1.0]), InvalidParameterError,
         "at least two levels"),
        (lambda: g.make_spectrum("q-deformed"), InvalidParameterError,
         "requires the parameter q"),
        (lambda: g.make_spectrum("morse"), InvalidParameterError,
         "requires the parameter p"),
        (lambda: g.morse_from_physical(g.MorsePhysicalParams(
            beta=1e12, V0=1e-21, m_r=1e-27)), InvalidParameterError,
         "too shallow"),
        (lambda: g.levels(SpectrumModel("bogus"), 2), WrongSystemError,
         "unknown system tag 'bogus'"),
        (lambda: g.characteristic_fn(SpectrumModel("bogus"), 0.0),
         WrongSystemError, "unknown system tag 'bogus'"),
        (lambda: g.characteristic_fn(g.type2(), -1.0), DomainError,
         "needs x >= 0"),
        (lambda: g.characteristic_fn(g.type2(), 4.0), DomainError,
         "pole at x = 4b"),
        (lambda: g.characteristic_fn(g.from_table([0.0, 1.0, 3.0]), 0.5),
         DomainError, "not a tabulated level"),
    ]
    for build, error, message in cases:
        with pytest.raises(error, match=message):
            build()


def test_config_morse_constants_with_overrides():
    consts = "system = morse\nbeta = 2.78e10\nv0 = 5.211\nmr = 1.33e-26\n"
    phys = g.MorsePhysicalParams(beta=2.78e10, V0=5.211 * g.EV, m_r=1.33e-26)
    spec = g.spectrum_from_config(consts + "override_p = 7.59\n")
    # p is overridden and the time scale, from beta and mr alone, is kept
    assert (spec.p, spec.max_level, spec.omega) == (7.59, 7, phys.omega)
    with pytest.raises(InvalidParameterError, match=r"\(missing: mr\)"):
        g.spectrum_from_config("system = morse\nbeta = 2.78e10\nv0 = 5.211\n")
