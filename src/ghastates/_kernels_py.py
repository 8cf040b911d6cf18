"""The trigonometric accumulation kernel behind both routes.

Every moment is a sum ``sum_k w_k exp(i (f_k t + phase))`` over a time
grid: with real weights on the series route, and with complex
matrix-element weights, several rows sharing one frequency list, on the
matrix route.  On a uniform grid ``t_j = t_0 + j dt`` the grid is tiled as
``j = b M + m`` and each phasor factors as
``exp(i f t_{bM}) * exp(i f m dt)``: two small tables, shared by every
weight row, joined by complex matrix-vector products.  Each table is a
coarse exp table times a fine one of about sqrt(M) rows, so a call takes
about ``4 T^(1/4) K`` complex exps and ``(B + M) K`` products, not ``2 T K``
exps, and, unlike a recurrence, accumulates no round-off.  Any other grid (one
point, non-uniform, empty) takes tiles of width 1, so every start is a
grid point and the right table is exp(0) = 1; its left table, a row per
point, is built a few MB at a time.
"""

from __future__ import annotations

import math

import numpy as np

# a uniform grid reproduces t_0 + j dt to a few ulp of its largest |t|
_UNIFORM_ULPS = 4.0
# the left table is built in blocks of tile starts of about this many bytes
_BLOCK_BYTES = 1 << 22


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
    times: shape (T,).  Returns two arrays of shape (T,) or (R, T), one row
    per weight row.
    """
    weights = np.asarray(weights)
    freqs = np.ascontiguousarray(freqs, dtype=float)
    times = np.ascontiguousarray(times, dtype=float)
    if weights.ndim not in (1, 2) or weights.shape[-1:] != freqs.shape:
        raise ValueError("weights must be (K,) or (R, K) with K = len(freqs)")
    rows = weights[None] if weights.ndim == 1 else weights
    count = len(times)
    dt = _uniform_step(times)
    if dt is None:
        dt, width = 0.0, 1
    else:
        width = math.isqrt(count - 1) + 1  # M = ceil(sqrt(T))
    starts = times[::width]                # t_{bM}, b < B = ceil(T / M)
    right = _progression(0.0, dt, 1, width, freqs)
    # B <= M, so a uniform grid's left table is no larger than its right
    # one and takes one block; width-1 grids (B = T) are cut into blocks
    block = max(width, _BLOCK_BYTES // max(16 * rows.size, 1))
    sums = np.empty((len(rows), len(starts), 1, width), dtype=complex)
    for b in range(0, len(starts), block):
        left = rows[:, None, :] * (
            _progression(times[0], dt, width, len(starts), freqs, phase)
            if width > 1 else
            np.exp(1j * (np.multiply.outer(starts[b:b + block], freqs) + phase)))
        # one matrix-vector product per row and tile row, not one matrix
        # product: a threaded BLAS gemm rounds differently with the thread
        # count and, at these sizes, can take longer than the whole
        # single-thread product
        np.matmul(left[:, :, None, :], right.T, out=sums[:, b:b + block])
    sums = sums.reshape(len(rows), -1)[:, :count]
    re, im = sums.real, sums.imag
    if weights.ndim == 1:
        return re[0], im[0]
    return re, im
