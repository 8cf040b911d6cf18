"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
Band criteria use the standard curve-set window (t in [0, 60], 2001 points);
randomized checks are seeded and deterministic.
"""

import math

import numpy as np
import pytest

import ghastates as g
from ghastates.dynamics import (
    _plan,
    peak_deviation,
    refined_extremum,
    trace,
)

WINDOW = dict(t_end=60.0, n_points=2001, path="series")

PAIRS = [(s, k) for s in ("harmonic", "type1", "type2", "hydrogen")
         for k in ("gha", "linear")] + [("morse", "gha")]


def _spec(name):
    return g.morse(7.59) if name == "morse" else g.make_spectrum(name, q=0.5)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def test_criterion_1_type1_gha_bands():
    sp = g.type1()
    tr1 = trace(sp, "gha", 0.1, **WINDOW)
    _, hi1 = refined_extremum(tr1.t_grid, tr1.values, "max")
    _, lo1 = refined_extremum(tr1.t_grid, tr1.values, "min")
    tr5 = trace(sp, "gha", 0.5, **WINDOW)
    _, hi5 = refined_extremum(tr5.t_grid, tr5.values, "max")
    ok = (0.4995 <= lo1 <= 0.5005 and 0.5010 <= hi1 <= 0.5030
          and 1.05 <= hi5 <= 1.15)
    _report(1, ok, f"r=0.1 min={lo1:.6f} max={hi1:.6f}; r=0.5 max={hi5:.4f}")


def test_criterion_2_localization_ordering():
    rows = []
    ok = True
    for name in ("type1", "type2", "hydrogen"):
        sp = g.make_spectrum(name)
        dev = {(k, r): peak_deviation(trace(sp, k, r, **WINDOW))
               for k in ("gha", "linear") for r in (0.1, 0.5)}
        for r in (0.1, 0.5):
            ok &= dev["linear", r] <= dev["gha", r]
        for k in ("gha", "linear"):
            ok &= dev[k, 0.1] < dev[k, 0.5]
        rows.append(f"{name}: gha(0.1)={dev['gha', 0.1]:.2e} "
                    f"lin(0.1)={dev['linear', 0.1]:.2e} "
                    f"gha(0.5)={dev['gha', 0.5]:.2e} "
                    f"lin(0.5)={dev['linear', 0.5]:.2e}")
    _report(2, ok, "; ".join(rows))


def test_criterion_3_o2_morse_localization():
    sp = g.morse(7.59)
    tr_small = trace(sp, "gha", 0.03, **WINDOW)
    tr_big = trace(sp, "gha", 0.1, **WINDOW)
    d_small = peak_deviation(tr_small)
    d_big = peak_deviation(tr_big)
    floor_ok = (tr_small.values.min() >= 0.5 - 1e-9
                and tr_big.values.min() >= 0.5 - 1e-9)
    ok = d_small < d_big and floor_ok
    _report(3, ok, f"dev(r=0.03)={d_small:.3e} < dev(r=0.1)={d_big:.3e}, "
                   f"floor ok={floor_ok}")


def test_criterion_4_route_equivalence():
    rng = np.random.default_rng(20260810)
    worst_overall = 0.0
    ok = True
    for name, kind in PAIRS:
        sp = _spec(name)
        worst = 0.0
        for _ in range(20):
            r = rng.uniform(0.02, 0.9)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            t = rng.uniform(0.0, 100.0)
            es = g.expectations_series(sp, kind, r, phi, t)
            st = _plan(sp, kind, r, phi, "oracle")[1]
            # the dense reference at the oracle's dimension: two padding
            # levels, or the whole of a finite ladder
            dim = st.dim + 2 if sp.max_level is None else sp.max_level + 1
            eo = g.expectations_oracle(g.evolve(st, sp, t),
                                       g.build_rep(sp, dim))
            for field in ("mean_xi", "mean_rho", "mean_xi2", "mean_rho2"):
                a, b = getattr(es, field), getattr(eo, field)
                worst = max(worst, abs(a - b) / (1.0 + abs(b)))
        ok &= worst <= 1e-9
        worst_overall = max(worst_overall, worst)
    _report(4, ok, f"9 pairs x 20 samples, worst relative "
                   f"difference {worst_overall:.2e} (tol 1e-9)")


def test_criterion_5_identity_suite():
    ok = True
    details = []
    for name, kw in [("harmonic", {}), ("q_deformed", dict(q=0.5)),
                     ("square_well", dict(b=4.0)), ("type1", {}),
                     ("type2", {}), ("hydrogen", {}),
                     ("morse", dict(p=7.59))]:
        sp = g.make_spectrum(name, **kw)
        dim = sp.max_level + 1 if name == "morse" else 30
        report = g.verify_algebra(g.build_rep(sp, dim), sp, 1e-12)
        ok &= report.passed
        details.append(f"{name}:{'pass' if report.passed else 'FAIL'}")
    _report(5, ok, " ".join(details) + " (tol 1e-12, dim 30 / n_max+1)")


def test_criterion_6_nilpotency():
    sp = g.morse(7.59)
    rep = g.build_rep(sp, 8)
    s = g.nilpotency_index(sp)
    dead = np.linalg.matrix_power(rep.A_dag, s)
    alive = np.linalg.matrix_power(rep.A_dag, s - 1)
    ok = not np.any(dead) and bool(np.any(alive))
    _report(6, ok, f"(A_dag)^{s} identically zero, (A_dag)^{s - 1} nonzero")


def test_criterion_7_iteration_property():
    ok = True
    worst = 0.0
    for name in ("harmonic", "q_deformed", "square_well", "type1", "type2",
                 "hydrogen", "morse"):
        sp = _spec(name) if name == "morse" else g.make_spectrum(name, q=0.5)
        top = sp.max_level if sp.max_level is not None else 50
        for n in range(top + 1):
            e = g.energy(sp, n)
            err = abs(g.iterate_characteristic(sp, n) - e) / (1.0 + abs(e))
            worst = max(worst, err)
            ok &= err <= 1e-12
    _report(7, ok, f"n-fold map vs direct levels, worst {worst:.2e} "
                   "(tol 1e-12, n <= 50)")


def test_criterion_8_harmonic_anchor():
    sp = g.harmonic()
    z = 0.5 * np.exp(0.4j)
    a = g.gha_coherent_state(sp, z)
    b = g.linear_coherent_state(z, dim=a.dim)
    comp = float(np.abs(a.coeffs - b.coeffs).max())
    devs = []
    for path in ("oracle", "series"):
        tr = trace(sp, "gha", 0.5, t_end=100.0, n_points=2001, path=path)
        devs.append(float(np.abs(tr.values - 0.5).max()))
    ok = comp <= 1e-12 and all(d <= 1e-12 for d in devs)
    _report(8, ok, f"componentwise {comp:.2e}; trace deviation "
                   f"oracle {devs[0]:.2e}, series {devs[1]:.2e} (tol 1e-12)")


def _unnormalized_norm(sp, r, count):
    """|| (z^k / (N_0 ... N_{k-1}))_{k < count} ||, one term at a time."""
    from ghastates.states import raw_eigenvalue, state_ladder
    z = raw_eigenvalue(sp, r).real
    term, total = 1.0, 1.0
    for step in state_ladder(sp, count - 1).tolist():
        term *= z / step
        total += term * term
    return math.sqrt(total)


def test_criterion_9_normalization_closed_forms():
    ok = True
    worst = 0.0
    for name in ("type1", "type2", "hydrogen", "morse"):
        sp = _spec(name)
        for r in (0.1, 0.3, 0.5, 0.9):
            st = g.gha_coherent_state(sp, r)
            count = st.dim if sp.max_level is None else sp.max_level
            numeric = 1.0 / _unnormalized_norm(sp, r, count)
            closed = g.closed_form_normalization(sp, r)
            rel = abs(numeric - closed) / closed
            worst = max(worst, rel)
            ok &= rel <= 1e-10
    _report(9, ok, f"numeric vs closed-form N(r), worst relative "
                   f"{worst:.2e} (tol 1e-10)")
