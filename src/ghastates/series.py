"""Closed-form moment series for the catalog coherent states.

For a state with real amplitude profile a_k at label r and phase phi, the
four canonical moments share one structure:

    <xi>    = sqrt(2) L   sum_k w_k cos(W_k t + phi)
    <rho>   = sqrt(2) hb/L sum_k w_k sin(W_k t + phi)
    <xi^2>  = L^2  [ sum_k v_k cos(V_k t + 2 phi) + S ] + L^2/2
    <rho^2> = hb^2/L^2 [ -sum_k v_k cos(V_k t + 2 phi) + S ] + hb^2/(2 L^2)

with w_k = N^2 a_k a_{k+1} sqrt(k+1), v_k = N^2 a_k a_{k+2} sqrt((k+1)(k+2)),
S = N^2 sum_k k a_k^2, and frequencies given by the level gaps,
W_k = eps_k - eps_{k+1}, V_k = eps_k - eps_{k+2}.  The amplitudes obey
a_{k+1}^2 / a_k^2 = r^2 / L_k, with L_k from one table of closed-form
squared ladders written here (Curado & Rego-Monteiro, J. Phys. A 34, 3253
(2001)); one builder turns the table into the three term ratios.  The
weights never read the spectrum's ladders or the matrix representation,
which provides the independent cross-check.

A series sums exactly the terms of its state: over the state's n levels,
n - 1 mean, n - 2 cross and n - 1 diagonal terms.  On an infinite ladder n
comes from the state's one tail rule, ``states._grow``, run on the ratios
r^2 / L_k of the table below; on the finite Morse ladder n is its top
level.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteResultError, WrongSystemError, require_finite
from .spectrum import SpectrumModel, levels
from .states import (_grow, _judge_radius, _ladder_of,
                     closed_form_normalization)

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


# ---------------------------------------------------------------------------
# the squared ladders and the one weight builder

#: L_k = Ntilde_k^2 / b of the gha states on an index array k, with
#: a_{k+1}^2 / a_k^2 = r^2 / L_k; hydrogen's includes its degeneracy fold.
#: A series reads k below its state's length only, so Morse's below its top
#: level.  Written here, not read from the spectrum; integer powers stay
#: exact in int64 up to k = _CAP.
_SQUARED_LADDERS = {
    "harmonic": lambda spec, k: k + 1.0,
    "type1": lambda spec, k: (k + 1) / (k + 2),
    "type2": lambda spec, k: (k + 1) ** 2 / (k + 2) ** 2,
    "hydrogen": lambda spec, k: (k + 1) ** 3 * (k + 3) / (k + 2) ** 4,
    "morse": lambda spec, k: (k + 1) * (2.0 * spec.p - k - 1),
}


def _weights(ladder: SpectrumModel, r: float):
    """The mean terms w_k, cross terms v_k and the sum S on ``ladder``, over
    the state's n levels: n - 1, n - 2 and n - 1 terms, each row one
    accumulate of term ratios of its squared ladder; the harmonic ladder's
    exponential weights keep S = r^2.  At r = 0 every row is empty."""
    if r == 0.0:
        return np.empty(0), np.empty(0), 0.0
    x = r * r
    table = _SQUARED_LADDERS[ladder.system]
    exponential = ladder.system == "harmonic"
    n2 = math.exp(-x) if exponential else closed_form_normalization(
        ladder, r) ** 2
    if n2 < sys.float_info.min:
        # a subnormal or zero N^2 would silently drop or distort every term
        name = ("linear-state normalization exp(-r^2)" if exponential
                else f"{ladder.system} normalization N^2")
        raise NonFiniteResultError(f"{name} underflows at r = {r:.6g}")
    # the state's length: the whole finite ladder, else the one tail rule on
    # the state's ratios a_{k+1}^2 / a_k^2
    n = ladder.max_level if ladder.max_level is not None else _grow(
        lambda k: x / table(ladder, k))
    L = table(ladder, np.arange(max(n, 2)))
    L0, L1 = L[:2].tolist()
    # each ratio divides x by a square root whose radicand is (k+1)^2 on
    # the harmonic ladder, so its terms round as x / (k+1) does; the diag
    # terms N^2 (k+1) a_{k+1}^2 sum to S
    k = np.arange(n - 2)
    Lk, Lk1, Lk2 = L[:-2], L[1:-1], L[2:]
    mean, cross, diag = np.multiply.accumulate(np.concatenate((
        [[n2 * r / math.sqrt(L0)], [n2 * x * math.sqrt(2.0 / (L0 * L1))],
         [n2 * x / L0]],
        [x / np.sqrt((k + 1) * Lk * Lk1 / (k + 2)),
         x / np.sqrt((k + 1) * Lk * Lk2 / (k + 3)),
         x / ((k + 1) * Lk1 / (k + 2))]), axis=1), axis=1)[:, :n - 1]
    # S summed in sequence from 0: np.sum's pairwise order rounds otherwise
    return mean, cross[:n - 2], x if exponential else np.add.accumulate(
        np.append(0.0, diag))[-1]


def moment_series(spec: SpectrumModel, kind: str, r: float) -> MomentSeries:
    """Closed-form series for one (system, kind, r); label phase enters later.

    Weights read the ladder ``kind`` picks, frequencies the levels of
    ``spec``.  Raises ``WrongSystemError`` for pairs without a closed form
    (the matrix path covers those); checks and warns on r as the state does.
    """
    require_finite(r=r)
    ladder = _ladder_of(spec, kind)
    if (spec.system, kind) not in SUPPORTED:
        raise WrongSystemError(
            f"no closed-form moment series for ({spec.system}, {kind}); "
            "use the matrix path")
    _judge_radius(ladder, r)

    mean, cross, diag = _weights(ladder, r)
    # the gaps eps_k - eps_{k+1} and eps_k - eps_{k+2}, from one level read
    eps = levels(spec, max(len(mean) + 1, len(cross) + 2))
    return MomentSeries(
        mean_w=np.asarray(mean, dtype=float),
        mean_f=eps[:len(mean)] - eps[1:len(mean) + 1],
        cross_w=np.asarray(cross, dtype=float),
        cross_f=eps[:len(cross)] - eps[2:len(cross) + 2],
        diag=float(diag),
    )
