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

Infinite series are truncated adaptively once a geometric majorant bounds
the remaining tail below the requested fraction of the accumulated sum.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteResultError, WrongSystemError, require_finite
from .spectrum import SpectrumModel, levels
from .states import (_TAIL, _check_tail, _grow, _judge_radius, _ladder_of,
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
#: a_{k+1}^2 / a_k^2 = r^2 / L_k; hydrogen's includes its degeneracy fold,
#: and the Morse state stops below its top level.  Written here, not read
#: from the spectrum; integer powers stay exact in int64 up to k = _CAP.
_SQUARED_LADDERS = {
    "harmonic": lambda spec, k: k + 1.0,
    "type1": lambda spec, k: (k + 1) / (k + 2),
    "type2": lambda spec, k: (k + 1) ** 2 / (k + 2) ** 2,
    "hydrogen": lambda spec, k: (k + 1) ** 3 * (k + 3) / (k + 2) ** 4,
    "morse": lambda spec, k: np.where(k < spec.max_level - 1,
                                      (k + 1) * (2.0 * spec.p - k - 1), np.inf),
}


def _weights(ladder: SpectrumModel, r: float, tail: float):
    """The mean terms w_k, cross terms v_k and the sum S on ``ladder``, as
    three rows of term ratios of its squared ladder, cut in one pass; the
    harmonic ladder's exponential weights keep S = r^2 and no diag row."""
    x = r * r
    table = _SQUARED_LADDERS[ladder.system]

    # each ratio divides x by a square root whose radicand is (k+1)^2 on
    # the harmonic ladder, so its terms round as x / (k+1) does; the diag
    # terms N^2 (k+1) a_{k+1}^2 sum to S
    def ratio(k: np.ndarray) -> np.ndarray:
        L = table(ladder, np.arange(k[0], k[-1] + 3))
        Lk, Lk1, Lk2 = L[:-2], L[1:-1], L[2:]
        return np.array((x / np.sqrt((k + 1) * Lk * Lk1 / (k + 2)),
                         x / np.sqrt((k + 1) * Lk * Lk2 / (k + 3)),
                         x / ((k + 1) * Lk1 / (k + 2))))

    exponential = ladder.system == "harmonic"
    if exponential:
        n2 = math.exp(-x)
        if n2 < sys.float_info.min:
            # a subnormal or zero N^2 would silently drop or distort every term
            raise NonFiniteResultError(
                f"linear-state normalization exp(-r^2) underflows at r = {r:.6g}")
    else:
        n2 = closed_form_normalization(ladder, r) ** 2
    if ladder.system == "morse":
        tail = 0.0  # stop at the first zero ratio: the top level
    L0, L1 = table(ladder, np.arange(2)).tolist()
    mean, cross, diag = _grow(
        [n2 * r / math.sqrt(L0), n2 * x * math.sqrt(2.0 / (L0 * L1)),
         0.0 if exponential else n2 * x / L0], ratio, tail)
    if exponential:
        return mean, cross, x
    # S summed in sequence from 0: np.sum's pairwise order rounds otherwise
    return mean, cross, np.add.accumulate(np.append(0.0, diag))[-1]


def moment_series(spec: SpectrumModel, kind: str, r: float,
                  tail: float = _TAIL) -> MomentSeries:
    """Closed-form series for one (system, kind, r); label phase enters later.

    Weights read the ladder ``kind`` picks, frequencies the levels of
    ``spec``.  Raises ``WrongSystemError`` for pairs without a closed form
    (the matrix path covers those); checks and warns on r as the state does.
    """
    require_finite(r=r)
    _check_tail(tail)
    ladder = _ladder_of(spec, kind)
    if (spec.system, kind) not in SUPPORTED:
        raise WrongSystemError(
            f"no closed-form moment series for ({spec.system}, {kind}); "
            "use the matrix path")
    _judge_radius(ladder, r)

    mean, cross, diag = _weights(ladder, r, tail)
    # the gaps eps_k - eps_{k+1} and eps_k - eps_{k+2}, from one level read
    eps = levels(spec, max(len(mean) + 1, len(cross) + 2))
    return MomentSeries(
        mean_w=np.asarray(mean, dtype=float),
        mean_f=eps[:len(mean)] - eps[1:len(mean) + 1],
        cross_w=np.asarray(cross, dtype=float),
        cross_f=eps[:len(cross)] - eps[2:len(cross) + 2],
        diag=float(diag),
    )
