"""Both routes against a 40-digit reference for the printed trace columns.

The reference writes its own levels (PAPER.md's table), its own ladders
N_n^2 = eps_{n+1} - eps_0 (hydrogen folded by (n+1)/(n+2)) and its own
amplitudes a_{n+1} = a_n z / N_n, then evaluates <D>, <D^2> and <N> of the
evolved state at 40 significant digits.  It shares no code with either
route.  Each column must lie within an absolute bound per energy constant
b, scaled by the column's size max(1, max |reference|) over the checked
times.  The phases grow like b t, so the bound grows with b; the README
states what the bounds mean for the printed digits.
"""

import math

import numpy as np
import pytest

import ghastates as g

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

#: absolute bound per b on |route - reference| / max(1, column size)
BOUNDS = {1.0: 2e-11, 1e4: 1e-9, 1e7: 1e-6}

#: t = 0, 37.04 and 1000 of a 28-point grid on [0, 1000]
GRID = dict(t_start=0.0, t_end=1000.0, n_points=28)
CHECKED = (0, 1, 27)

COLUMNS = ("mean_xi", "mean_rho", "var_xi", "var_rho", "uncertainty")

# (system, kind, r, phi, b); Morse p = 7.59 at phi = pi/2 starts on a zero
# of mean_xi
POINTS = [
    ("harmonic", "gha", 0.5, 0.3, 1.0),
    ("harmonic", "linear", 3.0, 0.3, 1.0),
    ("harmonic", "linear", 12.0, 0.7, 1.0),
    ("type1", "gha", 0.5, 0.3, 1.0),
    ("type1", "gha", 0.95, 1.1, 1.0),
    ("type1", "gha", 0.985, 0.3, 1.0),
    ("type1", "linear", 3.0, -0.4, 1.0),
    ("type2", "gha", 0.5, 0.3, 1.0),
    ("type2", "gha", 0.95, -2.0, 1.0),
    ("type2", "gha", 0.985, 0.3, 1.0),
    ("type2", "linear", 3.0, 0.3, 1.0),
    ("hydrogen", "gha", 0.5, 0.3, 1.0),
    ("hydrogen", "gha", 0.95, 2.5, 1.0),
    ("hydrogen", "gha", 0.985, 0.3, 1.0),
    ("hydrogen", "linear", 5.0, 0.3, 1.0),
    ("morse", "gha", 0.1, 0.3, 1.0),
    ("morse", "gha", 0.3, math.pi / 2, 1.0),
    ("type1", "gha", 0.5, 0.3, 1e4),
    ("type1", "linear", 3.0, 0.3, 1e4),
    ("type2", "gha", 0.9, 0.3, 1e4),
    ("hydrogen", "gha", 0.5, -1.0, 1e4),
    ("type1", "gha", 0.5, 0.3, 1e7),
    ("type2", "gha", 0.5, 0.3, 1e7),
    ("hydrogen", "gha", 0.9, 0.3, 1e7),
    ("hydrogen", "linear", 3.0, 0.3, 1e7),
]

#: points near the radius on [0, 100] x 2001, where the kernel sums each
#: call's level gaps at a few Chebyshev nodes: (system, kind, r, phi, q,
#: routes); q_deformed has no series route
FINE_GRID = dict(t_start=0.0, t_end=100.0, n_points=2001)
FINE_CHECKED = (0, 1000, 2000)
FINE_POINTS = [
    ("type1", "gha", 0.95, 1.1, None, ("oracle", "series")),
    ("type2", "gha", 0.95, -2.0, None, ("oracle", "series")),
    ("hydrogen", "gha", 0.95, 2.5, None, ("oracle", "series")),
    ("harmonic", "linear", 12.0, 0.7, None, ("oracle", "series")),
    ("q_deformed", "gha", 1.3, 0.3, 0.5, ("oracle",)),
    ("q_deformed", "gha", 1.0, 0.3, 1.5, ("oracle",)),
]

_P = 7.59
_BOUNDED = ("type1", "type2", "hydrogen")


def _level(system, b, n, q=None):
    n = mp.mpf(n)
    if system == "q_deformed":
        q = mp.mpf(q)
        return (1 - q ** n) / (1 - q)
    if system == "harmonic":
        return n
    if system == "type1":
        return b * n / (n + 1)
    if system == "type2":
        return b * n ** 2 / (n + 1) ** 2
    if system == "hydrogen":
        return -b / (n + 1) ** 2
    return -(mp.mpf(_P) - n) ** 2  # morse


def _amplitudes(system, kind, r, b, q=None):
    """Amplitudes |a_0|, |a_1|, ... at phase 0, to a relative tail below
    1e-22; the Morse state stops one slot below its top level floor(p).
    The ladders are real, so at label r e^{i phi} level n only gains the
    phase n phi."""
    z = mp.mpf(r)
    if kind == "gha" and system in _BOUNDED:
        z *= mp.sqrt(b)
    e0 = _level(system, b, 0, q)
    amps = [mp.mpf(1)]
    total = mp.mpf(1)
    while system != "morse" or len(amps) < math.floor(_P):
        n = len(amps) - 1
        if kind == "linear":
            ladder = mp.sqrt(n + 1)
        else:
            ladder = mp.sqrt(_level(system, b, n + 1, q) - e0)
            if system == "hydrogen":
                ladder *= mp.mpf(n + 1) / (n + 2)
        amps.append(amps[-1] * z / ladder)
        w = amps[-1] ** 2
        total += w
        if w < 1e-22 * total and w < amps[-2] ** 2:
            break
    return amps


def _reference(system, kind, r, phi, b, times, q=None):
    """Columns of COLUMNS at each time, as floats.  With c_n(t) =
    a_n exp(-i eps_n t): <D> = sum conj(c_n) c_{n+1} sqrt(n+1),
    <D^2> = sum conj(c_n) c_{n+2} sqrt((n+1)(n+2)), xi = (D + D^+)/sqrt(2)
    and rho = (D - D^+)/(i sqrt(2))."""
    with mp.workdps(40):
        b, phi = mp.mpf(b), mp.mpf(phi)
        a = _amplitudes(system, kind, r, b, q)
        eps = [_level(system, b, n, q) for n in range(len(a))]
        norm = mp.fsum(x * x for x in a)
        number = mp.fsum(n * x * x for n, x in enumerate(a)) / norm
        one = [a[n] * a[n + 1] * mp.sqrt(n + 1) / norm
               for n in range(len(a) - 1)]
        two = [a[n] * a[n + 2] * mp.sqrt((n + 1) * (n + 2)) / norm
               for n in range(len(a) - 2)]
        rows = []
        for t in map(mp.mpf, times):
            phases = [mp.cos_sin(phi + (eps[n] - eps[n + 1]) * t)
                      for n in range(len(one))]
            mxi = mp.sqrt(2) * mp.fdot(one, [c for c, _ in phases])
            mrho = mp.sqrt(2) * mp.fdot(one, [s for _, s in phases])
            re2 = mp.fdot(two, [mp.cos(2 * phi + (eps[n] - eps[n + 2]) * t)
                                for n in range(len(two))])
            var_xi = re2 + number + mp.mpf(1) / 2 - mxi ** 2
            var_rho = -re2 + number + mp.mpf(1) / 2 - mrho ** 2
            rows.append([mxi, mrho, var_xi, var_rho,
                         mp.sqrt(var_xi * var_rho)])
        return np.array([[float(v) for v in row] for row in rows])


def _spec(system, b, q=None):
    if system == "morse":
        return g.morse(_P)
    return g.make_spectrum(system, b=b, q=q)


def reference_errors(system, kind, r, phi, b, q=None, grid=GRID,
                     checked=CHECKED, routes=("oracle", "series")):
    """{route: per-column max |route - reference| / max(1, column size)}."""
    times = np.linspace(grid["t_start"], grid["t_end"], grid["n_points"])
    ref = _reference(system, kind, r, phi, b, times[list(checked)], q)
    scale = np.maximum(1.0, np.abs(ref).max(axis=0))
    out = {}
    for route in routes:
        tr = g.trace(_spec(system, b, q), kind, r, phi, path=route, **grid)
        got = np.column_stack([tr.mean_xi, tr.mean_rho, tr.var_xi,
                               tr.var_rho, tr.values])[list(checked)]
        out[route] = np.abs(got - ref).max(axis=0) / scale
    return out


def test_points_cover_every_series_pair():
    from ghastates.series import SUPPORTED
    assert {(s, k) for s, k, *_ in POINTS} == set(SUPPORTED)
    assert {b for *_, b in POINTS} == set(BOUNDS)


@pytest.mark.parametrize("point", POINTS,
                         ids=["-".join(map(str, p[:3])) + f"-b{p[4]:g}"
                              for p in POINTS])
def test_routes_match_reference(point):
    bound = BOUNDS[point[4]]
    for route, err in reference_errors(*point).items():
        worst = int(np.argmax(err))
        assert err[worst] <= bound, (route, COLUMNS[worst], err[worst])


@pytest.mark.parametrize("point", FINE_POINTS,
                         ids=[f"{p[0]}-{p[1]}-{p[2]}-q{p[4]}"
                              for p in FINE_POINTS])
def test_routes_match_reference_on_a_fine_grid(point):
    system, kind, r, phi, q, routes = point
    errors = reference_errors(system, kind, r, phi, 1.0, q, FINE_GRID,
                              FINE_CHECKED, routes)
    assert set(errors) == set(routes)
    for route, err in errors.items():
        worst = int(np.argmax(err))
        assert err[worst] <= BOUNDS[1.0], (route, COLUMNS[worst], err[worst])
