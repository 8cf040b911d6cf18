"""Time evolution and uncertainty-product traces.

Units are L = hbar = 1; Delta(xi) Delta(rho) is in units of hbar, the same
number at any L and hbar.  Every state evolves by pure phases, coefficient
n picking up exp(-i eps_n t).  The levels eps_n include b, so t is time
in units of hbar per the energy unit b is given in; it equals b t / hbar
only at b = 1.  Morse levels are in units of hbar omega, so there t
stands for omega t.  The canonical moments are computed along two
independent routes: directly from the stored generators (the oracle) and
from the closed-form series catalog.  The matrix route is the source of
truth; the series route must reproduce it to 1e-9.

The oracle never forms the evolved state on the grid, nor any dim x dim
matrix, nor an ``AlgebraRep``: it reads the levels once and no ladder.  xi
and rho are zero off their first sub- and superdiagonals, and xi^2 and
rho^2 off the diagonal and the second ones.  xi's two bands are one array,
sqrt(n+1)/sqrt(2) for every spectrum, and rho's super-band is -i times
xi's, so all four moments come from two trigonometric sums over xi's
upper band, S1 of xi and S2 of xi^2: <xi> = 2 Re S1, <rho> = 2 Im S1,
and <xi^2>, <rho^2> = +-2 Re S2 plus one constant from the diagonal.  That
costs O(dim T) rather than O(dim^2 T), and the weights still come from
the generators and the Fock vector, never from the series catalog.  The
generators are checked by ``algebra.build_rep`` (D from the ladder) and
``verify_algebra`` ([xi, rho] = i), so a linear trace on a table whose
ladder ``build_rep`` refuses (a level at or below the ground) answers.

Both routes sum over the same two bands: the gaps eps_n - eps_{n+1} for
the means and eps_n - eps_{n+2} for the squares, and the series takes the
label phase into its weights.  So a trace makes one kernel call per band,
two on every path, with one weight row per route; under "both" each call
carries the rows of both routes, the shorter frequency list being a prefix
of the longer.  The routes' independence lies in their weights (matrix
elements against closed-form ladders), not in separate kernel calls.

Both entry points start from one plan, ``_plan``.  It checks the label's
inputs, judges r against the convergence radius once (warning once near
it; the builders take that verdict), builds the label's state by
its kind wherever the oracle needs it or a linear state must fit a finite
ladder (the builder alone checks that fit), and builds the bands of each
route the path names, oracle first, as ``_moments`` sums them.
``trace`` evaluates the plan on its grid, then clamps, checks the floor
and finiteness and fills ``meta``; ``expectations_series`` evaluates a
series plan at one time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels_py import weighted_trig_sums
from .algebra import AlgebraRep
from .config import _write_csv
from .errors import (
    ClampWarning,
    ImaginaryResidualError,
    InvalidParameterError,
    NegativeVarianceError,
    NonFiniteResultError,
    UncertaintyFloorError,
    require_finite,
    require_integer,
    warn_caller,
)
from .series import moment_series
from .spectrum import SpectrumModel, levels
from .states import (_RADIUS_JUDGED, FockState, _judge_radius, _ladder_of,
                     gha_coherent_state, linear_coherent_state)

_VAR_TOL = 1e-12
_IMAG_TOL = 1e-12
_FLOOR_TOL = 1e-9


@dataclass(frozen=True)
class ExpectationSet:
    """The four canonical moments at one instant, with derived variances.

    Marginally negative variances (within 1e-12) are clamped to zero with a
    warning; anything lower is an error.
    """

    mean_xi: float
    mean_rho: float
    mean_xi2: float
    mean_rho2: float
    var_xi: float = field(init=False)
    var_rho: float = field(init=False)

    def __post_init__(self) -> None:
        for label, m2, m in (("xi", self.mean_xi2, self.mean_xi),
                             ("rho", self.mean_rho2, self.mean_rho)):
            object.__setattr__(self, f"var_{label}",
                               float(_clamp_var_array(m2, m, label)))


def _clamp_var_array(m2: np.ndarray, m: np.ndarray, label: str) -> np.ndarray:
    v = np.asarray(m * m)
    np.subtract(m2, v, out=v)
    if v.min() >= 0.0:  # NaN fails this and every test below
        return v
    bad = v < -_VAR_TOL * np.maximum(1.0, np.abs(m2))
    if np.any(bad):
        worst = float(v[bad].min())
        raise NegativeVarianceError(
            f"variance of {label} is {worst:.3e}, negative beyond tolerance")
    if np.any(v < 0.0):
        warn_caller(f"marginally negative {label} variances clamped to zero",
                    ClampWarning)
        np.maximum(v, 0.0, out=v)
    return v


def uncertainty(es: ExpectationSet) -> float:
    """Delta(xi) Delta(rho) in units of hbar."""
    return math.sqrt(es.var_xi * es.var_rho)


# ---------------------------------------------------------------------------
# evolution and the matrix route

def evolve(state: FockState, spec: SpectrumModel, t: float) -> FockState:
    """Apply the propagator: coefficient n gains the phase exp(-i eps_n t)."""
    require_finite(t=t)
    eps = levels(spec, state.dim)
    return FockState(state.coeffs * np.exp(-1j * eps * t),
                     state.index_offset, state.spectrum_id, state.kind)


def expectations_oracle(state: FockState, rep: AlgebraRep) -> ExpectationSet:
    """Moments straight from the generator matrices: <X> = c* X c."""
    c = _embed(state, rep.dim)
    out = []
    for X in (rep.xi, rep.rho, rep.xi @ rep.xi, rep.rho @ rep.rho):
        val = complex(np.vdot(c, X @ c))
        if abs(val.imag) > _IMAG_TOL * (1.0 + abs(val.real)):
            raise ImaginaryResidualError(
                f"Hermitian expectation has imaginary part {val.imag:.3e}")
        out.append(val.real)
    return ExpectationSet(*out)


def _embed(state: FockState, dim: int) -> np.ndarray:
    if state.dim == dim:
        return state.coeffs
    if state.dim > dim:
        raise InvalidParameterError(
            f"state dim {state.dim} exceeds representation dim {dim}")
    c = np.zeros(dim, dtype=complex)
    c[:state.dim] = state.coeffs
    return c


def _oracle_bands(state: FockState, spec: SpectrumModel):
    # <X>(t) = sum_{m,n} conj(c_m) X_mn c_n exp(i (eps_m - eps_n) t).  Band
    # k of X (entries X[n, n+k]) has weights conj(c_n) X[n, n+k] c_{n+k} and
    # frequencies eps_n - eps_{n+k}.  For Hermitian bands, band -k sums to
    # the conjugate of band +k, so each moment is 2 Re(band +k) plus its
    # diagonal; rho = -i xi on band 1, so <rho> = 2 Im S1 and <rho^2> =
    # -2 Re S2 + const from xi's sums; xi's sub-band is its super-band.
    # One padding level carries the term past the state's support, the loop
    # xi[n, n+1] xi[n+1, n] at its top level n; the second adds zero-weight
    # terms alone, and its overflowing level makes q_deformed(1e150) at
    # r = 0.5 raise NonFiniteResultError.  Finite ladders are whole
    dim = state.dim + 2 if spec.max_level is None else spec.max_level + 1
    c = _embed(state, dim)
    eps = levels(spec, dim)
    up = (1.0 / math.sqrt(2.0)) * np.sqrt(np.arange(1.0, dim)).astype(complex)
    # the loop xi[n, n+1] xi[n+1, n] sits on the diagonal at n and at n+1,
    # and rho's loop equals it
    p = np.abs(c) ** 2
    const = np.sum((p[:-1] + p[1:]) * up * up).real
    cc = c.conj()
    return [(cc[:-1] * up * c[1:], eps[:-1] - eps[1:],
             lambda re, im: [2.0 * re, 2.0 * im]),
            (cc[:-2] * up[:-1] * up[1:] * c[2:], eps[:-2] - eps[2:],
             lambda re, im: [2.0 * re + const, -2.0 * re + const])]


# ---------------------------------------------------------------------------
# the plan of a label's routes, and their sums

def _moments(routes, times: np.ndarray):
    """The four moments of each route on ``times``, from one kernel call per
    band.  A route is a list of bands (one weight row, its frequencies, and
    the reduction of the row's sums to moments).  Every frequency list of a
    band is a prefix of its longest, since all are gaps of
    ``spectrum.levels``, so the shorter rows are zero-padded to it."""
    out = [[] for _ in routes]
    for band in zip(*routes):
        freqs = max((f for _, f, _ in band), key=len)
        rows = np.zeros((len(band), len(freqs)), dtype=complex)
        for row, (w, f, _) in zip(rows, band):
            row[:len(f)] = w
        re, im = weighted_trig_sums(rows, freqs, times)
        for i, ((_, _, reduce), moments) in enumerate(zip(band, out)):
            moments += reduce(re[i], im[i])
        del re, im  # the complex sums go before the next band's call
    return out


def _plan(spec: SpectrumModel, kind: str, r: float, phi: float, path: str):
    """Check a label's inputs, judge r once, build its state where the oracle
    needs it or a linear state must fit a finite ladder, and each route's
    bands (oracle first, as ``_moments`` takes them): the oracle's from the
    state and one level read, the series' from its catalog.  Return the
    bands with the state, or None where none was built."""
    require_finite(r=r, phi=phi)
    if path not in ("oracle", "series", "both"):
        raise InvalidParameterError(f"unknown path {path!r}")
    ladder = _ladder_of(spec, kind)
    # one verdict on r, whatever the path: the builders below take it
    # rather than judge |r e^{i phi}|, which may round up to the radius
    _judge_radius(ladder, r)
    routes = []
    state = None
    # the builders take the verdict above while this is set.  The plan calls
    # them by the public names perfbench/tracer.py wraps for its states.build
    # and series.weights spans and counters; states._coefficients would skip
    # both
    judged = _RADIUS_JUDGED.set(True)
    try:
        # a linear state must fit the finite ladder that evolves it, also on
        # "series", where that state is built for its fit check alone
        if path != "series" or (kind == "linear"
                                and spec.max_level is not None):
            z = r * complex(math.cos(phi), math.sin(phi))
            state = (gha_coherent_state(spec, z) if kind == "gha" else
                     linear_coherent_state(z, index_offset=spec.index_offset,
                                           within=spec))
        if path != "series":
            routes.append(_oracle_bands(state, spec))
        if path != "oracle":
            ms = moment_series(spec, kind, r)
            # the label phase rides on the weights, w_k exp(i phi) and
            # v_k exp(2 i phi); at phi = 0 they are (w_k, +0), and every
            # product in the kernel rounds as with the real weights alone
            s2 = math.sqrt(2.0)
            routes.append([
                (ms.mean_w * complex(math.cos(phi), math.sin(phi)),
                 ms.mean_f, lambda re, im: [s2 * re, s2 * im]),
                (ms.cross_w * complex(math.cos(2.0 * phi),
                                      math.sin(2.0 * phi)), ms.cross_f,
                 lambda re, im: [re + ms.diag + 0.5, (ms.diag - re) + 0.5])])
    finally:
        _RADIUS_JUDGED.reset(judged)
    return routes, state


def expectations_series(spec: SpectrumModel, kind: str, r: float, phi: float,
                        t: float) -> ExpectationSet:
    """Moments from the closed-form series at a single time point, behind
    the checks ``trace`` makes."""
    require_finite(t=t)
    # as in ``trace``: an overflowing level raises NonFiniteResultError alone
    with np.errstate(over="ignore", invalid="ignore"):
        routes, _ = _plan(spec, kind, r, phi, "series")
        [arrays] = _moments(routes, np.array([float(t)]))
        es = ExpectationSet(*(float(a[0]) for a in arrays))
    if not (math.isfinite(es.var_xi) and math.isfinite(es.var_rho)):
        raise NonFiniteResultError(
            f"series moments are not finite at r = {r!r}, t = {t!r}")
    return es


# ---------------------------------------------------------------------------
# traces

@dataclass(frozen=True)
class UncertaintyTrace:
    """Uncertainty product over a time grid, plus the moment arrays."""

    t_grid: np.ndarray
    values: np.ndarray
    mean_xi: np.ndarray
    mean_rho: np.ndarray
    var_xi: np.ndarray
    var_rho: np.ndarray
    meta: dict
    alt_values: np.ndarray | None = None
    max_discrepancy: float | None = None


def trace(spec: SpectrumModel, kind: str, r: float, phi: float = 0.0,
          t_start: float = 0.0, t_end: float = 100.0, n_points: int = 2001,
          path: str = "oracle") -> UncertaintyTrace:
    """Delta(xi) Delta(rho), in units of hbar, on a uniform grid.

    ``path`` selects the evaluation route; with ``"both"`` the matrix route
    provides the reported values and the series route is kept alongside,
    with their largest pointwise difference in ``max_discrepancy``.
    """
    require_integer(n_points=n_points)
    if n_points < 2:
        raise InvalidParameterError("n_points must be >= 2")
    require_finite(t_start=t_start, t_end=t_end)
    if not t_end > t_start:
        raise InvalidParameterError("t_end must exceed t_start")
    # a level that overflows puts an infinite frequency on a term, and one
    # of zero weight (as on the oracle's padding levels) sums to NaN: NaN
    # passes every comparison in this block, and the finiteness check after
    # it raises, with no numpy warning first
    with np.errstate(over="ignore", invalid="ignore"):
        routes, state = _plan(spec, kind, r, phi, path)
        times = np.linspace(t_start, t_end, n_points)
        (mxi, mrho, mxi2, mrho2), *series_m = _moments(routes, times)
        var_xi = _clamp_var_array(mxi2, mxi, "xi")
        var_rho = _clamp_var_array(mrho2, mrho, "rho")
        values = var_xi * var_rho
        low = float(np.sqrt(values, out=values).min())
        if low < 0.5 - _FLOOR_TOL:
            raise UncertaintyFloorError(
                f"uncertainty dipped to {low:.12g}, below hbar/2")
        alt = disc = None
        if path == "both":
            [(sxi, srho, sxi2, srho2)] = series_m
            alt = _clamp_var_array(sxi2, sxi, "xi")
            alt *= _clamp_var_array(srho2, srho, "rho")
            disc = float(np.abs(values - np.sqrt(alt, out=alt)).max())
    # overflow upstream (e.g. in the state amplitudes at large r) would
    # otherwise be returned silently; a NaN value makes the min NaN
    if not (math.isfinite(low) and math.isfinite(float(values.max()))
            and (disc is None or math.isfinite(disc))):
        raise NonFiniteResultError(
            f"trace on path {path!r} gave non-finite values at r = {r!r}")

    meta = {
        "system": spec.system,
        "kind": kind,
        "r": r,
        "phi": phi,
        "energy_scale": spec.omega if spec.system == "morse" and spec.omega
        else spec.b,
        "dim": state.dim if state is not None else None,
        "path": path,
        "points": n_points,
        "terms": None if path == "oracle"
        else tuple(len(f) for _, f, _ in routes[-1]),
    }
    for arr in (times, values, mxi, mrho, var_xi, var_rho):
        arr.flags.writeable = False
    return UncertaintyTrace(t_grid=times, values=values, mean_xi=mxi,
                            mean_rho=mrho, var_xi=var_xi, var_rho=var_rho,
                            meta=meta, alt_values=alt, max_discrepancy=disc)


def write_trace_csv(tr: UncertaintyTrace, path) -> None:
    """Deterministic CSV with LF newlines, each value printed as by
    ``"%.12g" % value``."""
    cols = ["t", "mean_xi", "mean_rho", "var_xi", "var_rho", "uncertainty"]
    arrays = [tr.t_grid, tr.mean_xi, tr.mean_rho, tr.var_xi, tr.var_rho,
              tr.values]
    if tr.alt_values is not None:
        cols.append("discrepancy")
        arrays.append(np.abs(tr.values - tr.alt_values))
    _write_csv(",".join(cols), arrays, path)


# ---------------------------------------------------------------------------
# peak helpers

def refined_extremum(t: np.ndarray, v: np.ndarray,
                     mode: str = "max") -> tuple[float, float]:
    """Grid extremum with local quadratic refinement."""
    j = int(np.argmax(v) if mode == "max" else np.argmin(v))
    if j == 0 or j == len(v) - 1:
        return float(t[j]), float(v[j])
    denom = v[j - 1] - 2.0 * v[j] + v[j + 1]
    if denom == 0.0:
        return float(t[j]), float(v[j])
    delta = 0.5 * (v[j - 1] - v[j + 1]) / denom
    delta = float(np.clip(delta, -1.0, 1.0))
    h = t[j + 1] - t[j]
    value = v[j] - 0.25 * (v[j - 1] - v[j + 1]) * delta
    return float(t[j] + delta * h), float(value)


def peak_deviation(tr: UncertaintyTrace, center: float = 0.5) -> float:
    """Largest refined excursion of the trace away from ``center``."""
    _, hi = refined_extremum(tr.t_grid, tr.values, "max")
    _, lo = refined_extremum(tr.t_grid, tr.values, "min")
    return max(hi - center, center - lo, 0.0)
