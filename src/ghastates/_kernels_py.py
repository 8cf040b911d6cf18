"""The trigonometric accumulation kernel behind the series route.

Every series moment is a sum ``sum_k w_k exp(i (f_k t + phase))`` over a
time grid.  On a uniform grid ``t_j = t_0 + j dt`` the grid is tiled as
``j = b M + m`` and each phasor factors as
``exp(i f t_{bM}) * exp(i f m dt)``: two small exp tables joined by a
complex matrix product.  That takes ``(B + M) K`` transcendental calls in
place of ``2 T K``, and, unlike a recurrence, accumulates no round-off
along the grid.  Other grids are evaluated directly.
"""

from __future__ import annotations

import math

import numpy as np

# a uniform grid reproduces t_0 + j dt to a few ulp of its largest |t|
_UNIFORM_ULPS = 4.0


def _uniform_step(times: np.ndarray) -> float | None:
    """The step dt when ``times`` is ``t_0 + j dt`` to round-off, else None."""
    count = len(times)
    if count < 2:
        return None
    dt = (times[-1] - times[0]) / (count - 1)
    ideal = times[0] + dt * np.arange(count)
    tol = _UNIFORM_ULPS * np.finfo(float).eps * np.abs(times).max()
    if np.abs(times - ideal).max() <= tol:  # False for non-finite grids
        return float(dt)
    return None


def weighted_trig_sums(weights, freqs, phase, times):
    """sum_k w_k cos(f_k t + phase) and the matching sine, per time point.

    weights, freqs: shape (K,); times: shape (T,).  Returns two (T,) arrays.
    """
    weights = np.ascontiguousarray(weights, dtype=float)
    freqs = np.ascontiguousarray(freqs, dtype=float)
    times = np.ascontiguousarray(times, dtype=float)
    if weights.shape != freqs.shape:
        raise ValueError("weights and freqs must have the same length")
    count = len(times)
    dt = _uniform_step(times)
    if dt is None:
        args = np.multiply.outer(times, freqs) + phase
        return np.cos(args) @ weights, np.sin(args) @ weights
    width = math.isqrt(count - 1) + 1  # M = ceil(sqrt(T))
    starts = times[::width]            # t_{bM}, b < B = ceil(T / M)
    left = weights * np.exp(1j * (np.multiply.outer(starts, freqs) + phase))
    right = np.exp(1j * np.multiply.outer(dt * np.arange(width), freqs))
    # one matrix-vector product per tile row, not one matrix product: a
    # threaded BLAS gemm rounds differently with the thread count and, at
    # these sizes, can take longer than the whole single-thread product
    sums = np.matmul(left[:, None, :], right.T).ravel()[:count]
    return sums.real, sums.imag
