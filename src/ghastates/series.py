"""Closed-form moment series for the catalog coherent states.

For a state with real amplitude profile alpha_k at label r and phase phi,
normalized so that the alpha_k^2 sum to 1, the four canonical moments share
one structure:

    <xi>    = sqrt(2) L   sum_k w_k cos(W_k t + phi)
    <rho>   = sqrt(2) hb/L sum_k w_k sin(W_k t + phi)
    <xi^2>  = L^2  [ sum_k v_k cos(V_k t + 2 phi) + S ] + L^2/2
    <rho^2> = hb^2/L^2 [ -sum_k v_k cos(V_k t + 2 phi) + S ] + hb^2/(2 L^2)

with w_k = alpha_k alpha_{k+1} sqrt(k+1), v_k = alpha_k alpha_{k+2}
sqrt((k+1)(k+2)), S = sum_k k alpha_k^2, and frequencies given by the level
gaps, W_k = eps_k - eps_{k+1}, V_k = eps_k - eps_{k+2}.  The profile obeys
alpha_{k+1}^2 / alpha_k^2 = r^2 / L_k, with L_k from one table of
closed-form squared ladders written here (Curado & Rego-Monteiro, J. Phys.
A 34, 3253 (2001)).  The state's own normalizer, ``states._profile``, turns
the log ratios log r - (log L_k) / 2 into alpha in log space, so the
weights take no separate N^2 and stay finite wherever the state does.  The
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
from dataclasses import dataclass

import numpy as np

from .errors import WrongSystemError, require_finite
from .spectrum import SpectrumModel, levels
from .states import _grow, _judge_radius, _ladder_of, _profile

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
    the state's n levels: n - 1, n - 2 and n - 1 terms, from the state's
    amplitude profile alpha_k on the log ratios log r - (log L_k) / 2 of its
    squared ladder.  At r = 0 every row is empty."""
    if r == 0.0:
        return np.empty(0), np.empty(0), 0.0
    x = r * r
    table = _SQUARED_LADDERS[ladder.system]
    # the state's length: the whole finite ladder, else the one tail rule on
    # the state's ratios a_{k+1}^2 / a_k^2
    n = ladder.max_level if ladder.max_level is not None else _grow(
        lambda k: x / table(ladder, k), r)
    L = table(ladder, np.arange(n - 1))
    alpha, k = _profile(math.log(r) - 0.5 * np.log(L)), np.arange(1.0, n)
    return (alpha[:-1] * alpha[1:] * np.sqrt(k),
            alpha[:-2] * alpha[2:] * np.sqrt(k[:-1] * k[1:]),
            k @ alpha[1:] ** 2)


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
