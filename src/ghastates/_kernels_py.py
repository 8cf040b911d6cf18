"""The trigonometric accumulation kernel behind both routes.

Every moment is a sum ``sum_k w_k exp(i (f_k t + phase))`` over a time
grid: with real weights on the series route, and with complex
matrix-element weights, several rows sharing one frequency list, on the
matrix route.  ``times`` is a grid ``np.linspace`` built, or one point:
linspace computes ``t_j = t_0 + j dt`` with the step ``dt`` taken from its
endpoints, so that step reproduces every point but the last exactly and the
last to a few ulp.  The grid is tiled as ``j = b M + m`` and each phasor
factors as ``exp(i f t_{bM}) * exp(i f m dt)``: two small tables, shared by
every weight row, joined by complex matrix-vector products.  Each table is a
coarse exp table times a fine one of about sqrt(M) rows, so a call takes
about ``4 T^(1/4) K`` complex exps and ``(B + M) K`` products, not ``2 T K``
exps, and, unlike a recurrence, accumulates no round-off.  One point is one
tile of width 1 with ``dt = 0``.
"""

from __future__ import annotations

import math

import numpy as np


def _progression(start, step, stride, count, freqs, phase=0.0):
    """exp(i (f_k (start + n step) + phase)) for n = j stride, j < count, as
    coarse[q] * fine[r] with j = q w + r, w = ceil(sqrt(count)): (count, K)."""
    width = math.isqrt(max(count - 1, 0)) + 1
    n = stride * np.arange(width)  # exact integers: step * n rounds once
    fine = np.exp(1j * np.multiply.outer(step * n, freqs))
    coarse = np.exp(1j * (np.multiply.outer(
        start + step * (width * n[:-(-count // width)]), freqs) + phase))
    table = coarse[:, None, :] * fine  # shape given: K = 0 is allowed
    return table.reshape(len(coarse) * width, len(freqs))[:count]


def weighted_trig_sums(weights, freqs, phase, times):
    """Real and imaginary parts of sum_k w_k exp(i (f_k t + phase)).

    For real weights these are sum_k w_k cos(f_k t + phase) and the matching
    sine.  weights: shape (K,) or (R, K), real or complex; freqs: shape (K,);
    times: shape (T,), ``np.linspace(t_0, t_end, T)`` or one point.  Returns
    two arrays of shape (T,) or (R, T), one row per weight row.
    """
    weights = np.asarray(weights)
    freqs = np.ascontiguousarray(freqs, dtype=float)
    times = np.ascontiguousarray(times, dtype=float)
    if weights.ndim not in (1, 2) or weights.shape[-1:] != freqs.shape:
        raise ValueError("weights must be (K,) or (R, K) with K = len(freqs)")
    rows = weights[None] if weights.ndim == 1 else weights
    count = len(times)
    dt = (times[-1] - times[0]) / (count - 1) if count > 1 else 0.0
    width = math.isqrt(count - 1) + 1  # M = ceil(sqrt(T))
    # B = ceil(T / M) <= M tile starts t_{bM}, so the left table is no
    # larger than the right one
    left = rows[:, None, :] * _progression(times[0], dt, width,
                                           -(-count // width), freqs, phase)
    right = _progression(0.0, dt, 1, width, freqs)
    # one matrix-vector product per row and tile row, not one matrix
    # product: a threaded BLAS gemm rounds differently with the thread
    # count and, at these sizes, can take longer than the whole
    # single-thread product
    sums = np.matmul(left[:, :, None, :], right.T)
    sums = sums.reshape(len(rows), -1)[:, :count]
    re, im = sums.real, sums.imag
    if weights.ndim == 1:
        return re[0], im[0]
    return re, im
