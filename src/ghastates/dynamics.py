"""Time evolution and uncertainty-product traces.

Every state evolves by pure phases, coefficient n picking up
exp(-i eps_n t) with hbar = 1.  The levels eps_n include b, so t is time
in units of hbar per the energy unit b is given in; it equals b t / hbar
only at b = 1.  Morse levels are in units of hbar omega, so there t
stands for omega t.  The canonical moments are computed along two
independent routes: directly from the stored generators (the oracle) and
from the closed-form series catalog.  The matrix route is the source of
truth; the series route must reproduce it to 1e-9.

The oracle never forms the evolved state on the grid, nor any dim x dim
matrix.  xi and rho are zero off their first sub- and superdiagonals, and
xi^2 and rho^2 off the diagonal and the second ones, so each moment is a
constant from the diagonal plus trigonometric sums over two bands, with
weights read from the bands the representation stores.  That costs
O(dim T) rather than O(dim^2 T), and the weights still come from the
generators and the Fock vector, never from the series catalog.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._kernels_py import weighted_trig_sums
from .algebra import AlgebraRep, build_rep
from .config import _write_lines
from .errors import (
    ClampWarning,
    ImaginaryResidualError,
    InvalidParameterError,
    NegativeVarianceError,
    NonFiniteResultError,
    UncertaintyFloorError,
    WrongSystemError,
    require_finite,
)
from .series import MomentSeries, moment_series
from .spectrum import SpectrumModel, levels
from .states import FockState, gha_coherent_state, linear_coherent_state

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
    v = np.asarray(m2 - m * m)
    bad = v < -_VAR_TOL * np.maximum(1.0, np.abs(m2))
    if np.any(bad):
        worst = float(v[bad].min())
        raise NegativeVarianceError(
            f"variance of {label} is {worst:.3e}, negative beyond tolerance")
    if np.any(v < 0.0):
        warnings.warn(f"marginally negative {label} variances clamped to zero",
                      ClampWarning, stacklevel=3)
        v = np.maximum(v, 0.0)
    return v


def uncertainty(es: ExpectationSet, hbar: float = 1.0) -> float:
    """Delta(xi) Delta(rho) in units of hbar."""
    return math.sqrt(es.var_xi * es.var_rho) / hbar


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


def _oracle_grid(state: FockState, spec: SpectrumModel, rep: AlgebraRep,
                 times: np.ndarray):
    # <X>(t) = sum_{m,n} conj(c_m) X_mn c_n exp(i (eps_m - eps_n) t).  Band
    # k of X (entries X[n, n+k]) has weights conj(c_n) X[n, n+k] c_{n+k} and
    # frequencies eps_n - eps_{n+k}; band -k is summed with conjugated
    # weights on the same frequencies and conjugated back, so +k and -k stay
    # separate and the imaginary residual still tests Hermiticity.
    eps = rep.eps
    c = _embed(state, rep.dim)
    cc = c.conj()
    loop_weights = np.abs(c[:-1]) ** 2 + np.abs(c[1:]) ** 2
    firsts, squares, consts = [], [], []
    for up, down in (rep.xi_bands, rep.rho_bands):
        firsts += [cc[:-1] * up * c[1:], (cc[1:] * down * c[:-1]).conj()]
        # X^2 from the stored bands: X[n, n+1] X[n+1, n+2] on band 2; the
        # loop X[n, n+1] X[n+1, n] sits on the diagonal at n and at n+1
        up2, down2 = up[:-1] * up[1:], down[1:] * down[:-1]
        squares += [cc[:-2] * up2 * c[2:], (cc[2:] * down2 * c[:-2]).conj()]
        consts.append(np.sum(loop_weights * up * down))
    moments = []
    for rows, k, diagonals in ((firsts, 1, (0j, 0j)), (squares, 2, consts)):
        re, im = weighted_trig_sums(rows, eps[:-k] - eps[k:], 0.0, times)
        # rows j and j + 1: band +k and the conjugated band -k of one moment
        for j, const in zip((0, 2), diagonals):
            vals_re = re[j] + re[j + 1] + const.real
            vals_im = im[j] - im[j + 1] + const.imag
            worst = float(np.abs(vals_im).max())
            if worst > _IMAG_TOL * (1.0 + float(np.abs(vals_re).max())):
                raise ImaginaryResidualError(
                    f"Hermitian expectation has imaginary part {worst:.3e}")
            moments.append(vals_re)
    return moments


def coherent_state_for(spec: SpectrumModel, kind: str, r: float, phi: float,
                       dim: int | None = None, tail: float = 1e-14) -> FockState:
    """Build the (system, kind) state at label z = r exp(i phi)."""
    z = r * complex(math.cos(phi), math.sin(phi))
    if kind == "gha":
        return gha_coherent_state(spec, z, dim, tail=tail)
    if kind == "linear":
        if spec.system == "morse":
            raise WrongSystemError(
                "the finite Morse ladder admits no linear coherent state")
        return linear_coherent_state(z, dim, spec.index_offset, tail=tail)
    raise WrongSystemError(f"unknown state kind {kind!r}")


def _rep_for(spec: SpectrumModel, state: FockState, L_scale: float,
             hbar: float) -> AlgebraRep:
    # two rows above the state's support keep every two-step cross term of
    # the truncated state inside the matrices; finite ladders are whole
    if spec.max_level is not None:
        dim = spec.max_level + 1
    else:
        dim = state.dim + 2
    return build_rep(spec, dim, L_scale=L_scale, hbar=hbar)


# ---------------------------------------------------------------------------
# the series route

def _series_grid(ms: MomentSeries, phi: float, times: np.ndarray,
                 L_scale: float, hbar: float):
    mean_c, mean_s = weighted_trig_sums(ms.mean_w, ms.mean_f, phi, times)
    cross_c, _ = weighted_trig_sums(ms.cross_w, ms.cross_f, 2.0 * phi, times)
    s2 = math.sqrt(2.0)
    mxi = s2 * L_scale * mean_c
    mrho = s2 * hbar / L_scale * mean_s
    mxi2 = L_scale ** 2 * (cross_c + ms.diag + 0.5)
    mrho2 = (hbar / L_scale) ** 2 * (-cross_c + ms.diag + 0.5)
    return mxi, mrho, mxi2, mrho2


def expectations_series(spec: SpectrumModel, kind: str, r: float, phi: float,
                        t: float, L_scale: float = 1.0, hbar: float = 1.0,
                        tail: float = 1e-14) -> ExpectationSet:
    """Moments from the closed-form series at a single time point."""
    require_finite(phi=phi, t=t, L_scale=L_scale, hbar=hbar)
    ms = moment_series(spec, kind, r, tail=tail)
    arrays = _series_grid(ms, phi, np.array([float(t)]), L_scale, hbar)
    return ExpectationSet(*(float(a[0]) for a in arrays))


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
          path: str = "oracle", dim: int | None = None,
          L_scale: float = 1.0, hbar: float = 1.0,
          tail: float = 1e-14) -> UncertaintyTrace:
    """Uncertainty product Delta(xi) Delta(rho)/hbar on a uniform grid.

    ``path`` selects the evaluation route; with ``"both"`` the matrix route
    provides the reported values and the series route is kept alongside,
    with their largest pointwise difference in ``max_discrepancy``.
    """
    if n_points < 2:
        raise InvalidParameterError("n_points must be >= 2")
    require_finite(r=r, phi=phi, t_start=t_start, t_end=t_end)
    if not t_end > t_start:
        raise InvalidParameterError("t_end must exceed t_start")
    if path not in ("oracle", "series", "both"):
        raise InvalidParameterError(f"unknown path {path!r}")

    times = np.linspace(t_start, t_end, n_points)
    oracle_m = series_m = None
    state = None
    if path in ("oracle", "both"):
        state = coherent_state_for(spec, kind, r, phi, dim, tail)
        rep = _rep_for(spec, state, L_scale, hbar)
        oracle_m = _oracle_grid(state, spec, rep, times)
    if path in ("series", "both"):
        ms = moment_series(spec, kind, r, tail=tail)
        series_m = _series_grid(ms, phi, times, L_scale, hbar)

    primary = oracle_m if oracle_m is not None else series_m
    mxi, mrho, mxi2, mrho2 = primary
    var_xi = _clamp_var_array(mxi2, mxi, "xi")
    var_rho = _clamp_var_array(mrho2, mrho, "rho")
    values = np.sqrt(var_xi * var_rho) / hbar

    floor = 0.5 - _FLOOR_TOL
    if float(values.min()) < floor:
        raise UncertaintyFloorError(
            f"uncertainty dipped to {values.min():.12g}, below hbar/2")

    alt = None
    disc = None
    if path == "both":
        sxi, srho, sxi2, srho2 = series_m
        alt = np.sqrt(_clamp_var_array(sxi2, sxi, "xi")
                      * _clamp_var_array(srho2, srho, "rho")) / hbar
        disc = float(np.abs(values - alt).max())
    # NaN passes every comparison above, so overflow upstream (e.g. in the
    # state amplitudes at large r) would otherwise be returned silently
    if not (np.isfinite(values).all()
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
    }
    for arr in (times, values, mxi, mrho, var_xi, var_rho):
        arr.flags.writeable = False
    return UncertaintyTrace(t_grid=times, values=values, mean_xi=mxi,
                            mean_rho=mrho, var_xi=var_xi, var_rho=var_rho,
                            meta=meta, alt_values=alt, max_discrepancy=disc)


def write_trace_csv(tr: UncertaintyTrace, path) -> None:
    """Deterministic CSV: 12 significant digits, LF newlines."""
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
