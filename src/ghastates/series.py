"""Closed-form moment series for the catalog coherent states.

For a state with real amplitude profile a_k at label r and phase phi, the
four canonical moments share one structure:

    <xi>    = sqrt(2) L   sum_k w_k cos(W_k t + phi)
    <rho>   = sqrt(2) hb/L sum_k w_k sin(W_k t + phi)
    <xi^2>  = L^2  [ sum_k v_k cos(V_k t + 2 phi) + S ] + L^2/2
    <rho^2> = hb^2/L^2 [ -sum_k v_k cos(V_k t + 2 phi) + S ] + hb^2/(2 L^2)

with w_k = N^2 a_k a_{k+1} sqrt(k+1), v_k = N^2 a_k a_{k+2} sqrt((k+1)(k+2)),
S = N^2 sum_k k a_k^2, and frequencies given by the level gaps,
W_k = eps_k - eps_{k+1}, V_k = eps_k - eps_{k+2}.  This module spells those
weights out per system in closed form; it never touches the matrix
representation, which provides the independent cross-check.

Infinite series are truncated adaptively once a geometric majorant bounds
the remaining tail below the requested fraction of the accumulated sum.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    NonFiniteResultError,
    RadiusOfConvergenceError,
    WrongSystemError,
    require_finite,
)
from .spectrum import SpectrumModel, levels
from .states import _TAIL, _grow, closed_form_normalization

#: (system, kind) pairs with a closed-form series
SUPPORTED = (
    ("harmonic", "gha"), ("harmonic", "linear"),
    ("type1", "gha"), ("type1", "linear"),
    ("type2", "gha"), ("type2", "linear"),
    ("hydrogen", "gha"), ("hydrogen", "linear"),
    ("morse", "gha"),
)


@dataclass(frozen=True)
class MomentSeries:
    """Weights and frequencies of the four-moment series at fixed (r,)."""

    mean_w: np.ndarray
    mean_f: np.ndarray
    cross_w: np.ndarray
    cross_f: np.ndarray
    diag: float


def _gaps(spec: SpectrumModel, count: int, step: int) -> np.ndarray:
    eps = levels(spec, count + step)
    return eps[:-step] - eps[step:]


# ---------------------------------------------------------------------------
# per-system weight catalog

def _linear_weights(r: float, tail: float):
    x = r * r
    n2 = math.exp(-x)
    if n2 < sys.float_info.min:
        # a subnormal or zero N^2 would silently drop or distort every term
        raise NonFiniteResultError(
            f"linear-state normalization exp(-r^2) underflows at r = {r:.6g}")
    mean = _grow(n2 * r, lambda k: x / (k + 1), 0, tail)
    cross = _grow(n2 * x, lambda k: x / (k + 1), 0, tail)
    return mean, cross, x


def _type1_gha_weights(spec: SpectrumModel, r: float, tail: float):
    x = r * r
    n2 = closed_form_normalization(spec, r) ** 2
    mean = _grow(n2 * math.sqrt(2.0) * r,
                 lambda k: x * (k + 2) / (k + 1) * math.sqrt((k + 3) / (k + 2)),
                 0, tail)
    cross = _grow(n2 * math.sqrt(6.0) * x,
                  lambda k: x * (k + 2) / (k + 1) * math.sqrt((k + 4) / (k + 2)),
                  0, tail)
    diag = sum(_grow(n2 * 2.0 * x, lambda k: x * (k + 2) / k, 1, tail))
    return mean, cross, diag


def _type2_gha_weights(spec: SpectrumModel, r: float, tail: float):
    x = r * r
    n2 = closed_form_normalization(spec, r) ** 2
    mean = _grow(n2 * 2.0 * r,
                 lambda k: x * (k + 3) / (k + 1) * math.sqrt((k + 2) / (k + 1)),
                 0, tail)
    cross = _grow(n2 * 3.0 * math.sqrt(2.0) * x,
                  lambda k: x * (k + 2) * (k + 4) / ((k + 1) * (k + 3))
                  * math.sqrt((k + 3) / (k + 1)),
                  0, tail)
    diag = sum(_grow(n2 * 4.0 * x, lambda k: x * (k + 2) ** 2 / (k * (k + 1)),
                     1, tail))
    return mean, cross, diag


def _hydrogen_gha_weights(spec: SpectrumModel, r: float, tail: float):
    x = r * r
    n2 = closed_form_normalization(spec, r) ** 2
    mean = _grow(n2 * 4.0 / math.sqrt(3.0) * r,
                 lambda k: x * (k + 2) * (k + 3) / (k + 1) ** 2
                 * math.sqrt((k + 3) / (k + 4)),
                 0, tail)
    cross = _grow(n2 * 3.0 * math.sqrt(3.0) * x,
                  lambda k: x * ((k + 2) / (k + 1)) ** 2
                  * ((k + 4) / (k + 3)) ** 1.5 * math.sqrt((k + 4) / (k + 5)),
                  0, tail)
    diag = sum(_grow(n2 * (16.0 / 3.0) * x,
                     lambda k: x * (k + 2) ** 4 / (k * (k + 1) ** 2 * (k + 3)),
                     1, tail))
    return mean, cross, diag


def _morse_gha_weights(spec: SpectrumModel, r: float):
    p = spec.p
    top = spec.max_level
    # unnormalized amplitudes on levels 0 .. n_max - 1
    a = np.empty(top)
    a[0] = 1.0
    for n in range(1, top):
        a[n] = a[n - 1] * r / math.sqrt(n * (2.0 * p - n))
    n2 = 1.0 / float(np.dot(a, a))
    k = np.arange(top - 1)
    mean = n2 * a[:-1] * a[1:] * np.sqrt(k + 1.0)
    k2 = np.arange(max(top - 2, 0))
    cross = n2 * a[:-2] * a[2:] * np.sqrt((k2 + 1.0) * (k2 + 2.0))
    diag = n2 * float(np.dot(np.arange(top), a * a))
    return list(mean), list(cross), diag


def moment_series(spec: SpectrumModel, kind: str, r: float,
                  tail: float = _TAIL) -> MomentSeries:
    """Closed-form series for one (system, kind, r); label phase enters later.

    Raises ``WrongSystemError`` for combinations without a closed form
    (the matrix path covers those), and checks the r-domain of the bounded
    ladders.
    """
    require_finite(r=r)
    if kind not in ("gha", "linear"):
        raise WrongSystemError(f"unknown state kind {kind!r}")
    if (spec.system, kind) not in SUPPORTED:
        raise WrongSystemError(
            f"no closed-form moment series for ({spec.system}, {kind}); "
            "use the matrix path")
    if r < 0:
        raise RadiusOfConvergenceError("r must be >= 0")
    if spec.system in ("type1", "type2", "hydrogen") and r >= 1.0:
        raise RadiusOfConvergenceError(f"r = {r} is outside [0, 1)")

    s = spec.system
    if s == "morse":
        mean, cross, diag = _morse_gha_weights(spec, r)
    elif kind == "gha" and s != "harmonic":
        weights = {"type1": _type1_gha_weights, "type2": _type2_gha_weights,
                   "hydrogen": _hydrogen_gha_weights}[s]
        mean, cross, diag = weights(spec, r, tail)
    else:
        mean, cross, diag = _linear_weights(r, tail)

    return MomentSeries(
        mean_w=np.asarray(mean, dtype=float),
        mean_f=_gaps(spec, len(mean), 1),
        cross_w=np.asarray(cross, dtype=float),
        cross_f=_gaps(spec, len(cross), 2),
        diag=float(diag),
    )
