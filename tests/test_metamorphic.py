"""Metamorphic relations: exact identities between traces at related inputs,
checked on every system and every route it has, with no second route or
reference needed (Chen et al., ACM Comput. Surv. 51(1), 4 (2018)).

- Time reversal: the state at label conj(z) is the conjugate of the one at
  z, and H is real, so values(t, phi) = values(-t, -phi).
- Window slicing: a trace on [40, 100] x 1201 is the tail of the trace on
  [0, 100] x 2001, whatever the kernel's tiles and aggregation centre.
- Energy scale as time scale: every level of type1, type2, hydrogen,
  square_well and a scaled table carries the factor b, so the trace at b on
  [0, T] is the trace at b = 1 on [0, b T].  The bounded ladders' label
  already absorbs sqrt(b); square_well's and a table's take z / sqrt(b),
  and linear states do not depend on b at all.
- Equal gaps: on the harmonic ladder a phase shift by delta is a time
  shift by -delta.

Each bound follows from one error model.  A moment is a sum of weights
times exp(i f t), and each of its terms rounds within a few eps of its size
plus the phase error eps |f t|, where the two sides of a relation form
f t differently.  A variance is a difference of such moments, of size at
most M = max <xi^2> + <rho^2>, and d(Delta xi Delta rho) <= (var_xi +
var_rho) d(var) / (2 * 1/2), so a value moves by at most
_ROUNDINGS * eps * (1 + f_max |t|_max) * M^2, with f_max the widest level
gap the state reaches and _ROUNDINGS the rounding steps of one term.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghastates as g
from ghastates.dynamics import _plan
from ghastates.errors import ConditioningWarning
from ghastates.series import SUPPORTED

EPS = np.finfo(float).eps
# phase product, exp, two table products, the weight, the sum and the
# variance difference: a few roundings per term, doubled for the two sides
_ROUNDINGS = 16
_TABLE = [n + 0.3 * math.sin(n) for n in range(40)]


def _systems(b=1.0):
    """(name, spectrum) for every catalog system and a table, at b where
    the levels carry it."""
    return [
        ("harmonic", g.harmonic()),
        ("q_deformed 0.5", g.q_deformed(0.5)),
        ("q_deformed 1.5", g.q_deformed(1.5)),
        ("square_well", g.square_well(b)),
        ("type1", g.type1(b)),
        ("type2", g.type2(b)),
        ("hydrogen", g.hydrogen(b)),
        ("morse", g.morse(7.59)),
        ("custom", g.from_table([b * e for e in _TABLE])),
    ]


# a label well inside each system's domain, with several levels occupied
_R = {"harmonic": 2.0, "q_deformed 0.5": 1.2, "q_deformed 1.5": 1.5,
      "square_well": 3.0, "type1": 0.9, "type2": 0.9, "hydrogen": 0.9,
      "morse": 1.0, "custom": 1.5}
_UNSCALED = ("harmonic", "q_deformed 0.5", "q_deformed 1.5", "morse")


def _cases(b=1.0):
    """(name, spec, kind, path) for every route of every system."""
    for name, spec in _systems(b):
        for kind in ("gha", "linear"):
            if kind == "linear" and spec.system == "morse":
                continue
            paths = ["oracle"] + (["series"] if (spec.system, kind)
                                  in SUPPORTED else [])
            for path in paths:
                yield name, spec, kind, path


def _bound(spec, kind, r, trs, t_max):
    """The model's bound for a relation between the traces ``trs``."""
    dim = _plan(spec, kind, r, 0.0, "oracle")[1].dim
    eps_n = g.levels(spec, dim)
    f_max = max(np.abs(eps_n[:-k] - eps_n[k:]).max() for k in (1, 2)
                if dim > k)
    size = max(float(np.max(tr.var_xi + tr.mean_xi ** 2
                            + tr.var_rho + tr.mean_rho ** 2)) for tr in trs)
    return _ROUNDINGS * EPS * (1.0 + f_max * t_max) * size ** 2


def _trace(spec, kind, r, phi, t0, t1, n, path):
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConditioningWarning)  # none expected
        return g.trace(spec, kind, r, phi, t0, t1, n, path)


def _check_time_reversal(spec, kind, path, r, phi):
    fwd = _trace(spec, kind, r, phi, 0.0, 100.0, 2001, path)
    back = _trace(spec, kind, r, -phi, -100.0, 0.0, 2001, path)
    gap = float(np.abs(fwd.values - back.values[::-1]).max())
    assert gap <= _bound(spec, kind, r, (fwd, back), 100.0), (phi, gap)


def _check_window(spec, kind, path, r, phi):
    whole = _trace(spec, kind, r, phi, 0.0, 100.0, 2001, path)
    window = _trace(spec, kind, r, phi, 40.0, 100.0, 1201, path)
    assert np.abs(whole.t_grid[800:] - window.t_grid).max() <= 100.0 * EPS
    gap = float(np.abs(whole.values[800:] - window.values).max())
    assert gap <= _bound(spec, kind, r, (whole, window), 100.0), gap


def _check_energy_scale(name, kind, path, r, phi, b, t_end=10.0):
    """The trace at b on [0, t_end] against b = 1 on [0, b t_end]; the gha
    label of square_well and a table is not rescaled by b, and a linear
    state does not depend on the ladder."""
    unit, spec = (dict(_systems(scale))[name] for scale in (1.0, b))
    label = r * math.sqrt(b) if kind == "gha" and name in (
        "square_well", "custom") else r
    scaled = _trace(spec, kind, label, phi, 0.0, t_end, 2001, path)
    ref = _trace(unit, kind, r, phi, 0.0, b * t_end, 2001, path)
    gap = float(np.abs(scaled.values - ref.values).max())
    bound = _bound(spec, kind, label, (scaled, ref), t_end)
    assert gap <= bound, (name, kind, path, b, gap, bound)


@pytest.mark.parametrize("name, spec, kind, path", list(_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_time_reversal_and_window_slicing(name, spec, kind, path):
    for phi in (0.0, 0.7, -2.3):
        _check_time_reversal(spec, kind, path, _R[name], phi)
    _check_window(spec, kind, path, _R[name], 0.4)


@pytest.mark.parametrize("b", [37.0, 1e4])
def test_energy_scale_is_a_time_scale(b):
    for name, spec, kind, path in _cases():
        if name not in _UNSCALED:
            _check_energy_scale(name, kind, path, _R[name], 0.3, b)


@pytest.mark.parametrize("kind", ["gha", "linear"])
def test_equal_gaps_turn_a_phase_into_a_time_shift(kind):
    # every harmonic gap is -1 (band 1) or -2 (band 2), so the phases
    # f t + phi and 2 phi of the two bands both move with t - delta
    delta = 0.9
    for spec, paths in ((g.harmonic(), ("oracle", "series")),
                        (g.q_deformed(1.0), ("oracle",))):
        for path in paths:
            moved = _trace(spec, kind, 2.0, 0.3 + delta, delta,
                           100.0 + delta, 2001, path)
            ref = _trace(spec, kind, 2.0, 0.3, 0.0, 100.0, 2001, path)
            gap = float(np.abs(moved.values - ref.values).max())
            assert gap <= _bound(spec, kind, 2.0, (moved, ref), 101.0), gap


@settings(max_examples=25, deadline=None)
@given(case=st.sampled_from(list(_cases())), frac=st.floats(0.05, 1.5),
       phi=st.floats(-math.pi, math.pi), log_b=st.floats(-2.0, 4.0))
def test_relations_at_drawn_labels(case, frac, phi, log_b):
    """All three relations at a drawn label, phase and b: r up to 1.5 times
    the fixed label, or 0.97 of the radius."""
    name, spec, kind, path = case
    radius = g.convergence_radius(spec) if kind == "gha" else math.inf
    r = min(frac * _R[name], 0.97 * radius)
    _check_time_reversal(spec, kind, path, r, phi)
    _check_window(spec, kind, path, r, phi)
    if name not in _UNSCALED:
        _check_energy_scale(name, kind, path, r, phi, 10.0 ** log_b)
