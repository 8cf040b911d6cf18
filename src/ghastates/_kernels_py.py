"""The trigonometric accumulation kernel behind both routes.

Every moment is a sum ``sum_k w_k exp(i f_k t)`` over a time grid, with
complex weights: matrix elements on the matrix route, closed-form terms
times the label phase on the series route.  The weight rows of one call
share one frequency list.  ``times`` is a grid ``np.linspace`` built, or one
point: linspace computes ``t_j = t_0 + j dt`` with the step ``dt`` taken
from its endpoints, so that step reproduces every point but the last
exactly and the last to a few ulp.  The grid is tiled as ``j = b M + m``
and each phasor factors as ``exp(i f t_{bM}) * exp(i f m dt)``: two small
tables, shared by every weight row, joined by complex matrix products
(B x K) @ (K x M).  Each table is a coarse exp table times a fine one of
about sqrt(M) rows: a call takes one exp over about ``4 T^(1/4) K`` phases
and ``(B + M) K`` products, not ``2 T K`` exps, and, unlike a recurrence,
accumulates no round-off.  One point is one tile of width 1 with
``dt = 0``.

The output must not depend on the BLAS thread count.  OpenBLAS 0.3.31
(Haswell kernels) gave the same bytes at 1, 2 and 4 threads for every
complex product over K = 1..128 frequencies, M in {2, 17, 45, 142, 300}
and 1..423 rows, and different bytes for 130 of the 172 K in 129..300.
So the join is one product per block of at most 128 frequencies, and the
blocks are summed in order: one product for most calls.  A product over R
weight rows rounds each by R, so every row takes its own products, in the
shapes of a one-row call, and reads the same beside other rows as alone.

A call on more than one point first trades its K frequencies for fewer
(Ruiz-Antolin & Townsend, SIAM J. Sci. Comput. 40, A529 (2018)).  Centred
at t_c with s = t - t_c in [-tau, tau], exp(i f s) for f in a core
[f_c - h, f_c + h] is interpolated in f at P Chebyshev points of the second
kind in barycentric form (Berrut & Trefethen, SIAM Rev. 46, 501 (2004)), so
each weight w_k becomes w_k exp(i f_k t_c) l_p(x_k) on the node frequencies.
The Chebyshev coefficients of exp(i c x), c = h tau, are 2 i^p J_p(c) with
|J_p(c)| <= (c/2)^p / p!: P is the least count with 2 (c/2)^P / P! <= eps/2
and P >= c, and the sums move by a few eps * sum |w|.  End frequencies are
peeled off as exact terms, one at a time, while P + peeled drops.  A call
with P + peeled >= K (wide gaps, long grids, few terms) or one point keeps
its own frequencies, bit for bit.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left

import numpy as np

#: _C_MAX[P - 1] is the largest c that P nodes take: the c with
#: 2 (c/2)^P / P! = eps/2, capped at P.  A trace sums at most 2001
#: frequencies, so past the end no call saves any.
_COUNTS = np.arange(1, 2049)
_C_MAX = np.minimum(_COUNTS, 2.0 * np.exp(
    (math.log(np.finfo(float).eps / 4) + np.cumsum(np.log(_COUNTS)))
    / _COUNTS)).tolist()  # cumsum(log P) = ln P!


def _split(count):
    """w = ceil(sqrt(count)) and ceil(count / w) <= w: j = q w + r, r < w."""
    return (w := math.isqrt(max(count - 1, 0)) + 1), -(-count // w)


def _phases(start, step, tiles, width, freqs):
    """exp(i f_k t) at t = start + j width step, j < tiles, then at t = m step,
    m < width, K >= 0: two tables, each coarse[q] * fine[r] for j = q w + r
    by ``_split``, all four from one exp; yielded, so that the caller frees
    the first before the second is formed."""
    args, spans = [], []
    for origin, stride, count in ((start, width, tiles), (0.0, 1, width)):
        w, q = _split(count)
        n = stride * np.arange(w)  # exact integers: step * n rounds once
        args += [step * n, origin + step * (w * n[:q])]
        spans.append((w, q, count))
    table = np.exp(1j * np.multiply.outer(np.concatenate(args), freqs))
    for w, q, count in spans:
        fine, coarse, table = table[:w], table[w:w + q], table[w + q:]
        yield (coarse[:, None, :] * fine).reshape(q * w, len(freqs))[:count]


def _nodes(c):
    """Chebyshev node count for c = h tau, or inf past the table."""
    p = bisect_left(_C_MAX, c)
    return p + 1 if p < len(_C_MAX) else math.inf


@functools.lru_cache(maxsize=None)
def _chebyshev(size):
    """Chebyshev points of the second kind, barycentric weights: read-only."""
    x_p = np.cos(np.pi / max(size - 1, 1) * np.arange(size))
    lam = (-1.0) ** np.arange(size)
    lam[[0, -1]] /= 2
    x_p.flags.writeable = lam.flags.writeable = False
    return x_p, lam


def _aggregated(rows, freqs, times):
    """(rows, freqs, start) of the same sums on fewer frequencies over the
    grid shifted by its centre, or the call's own if none are saved."""
    K = len(freqs)
    if len(times) < 2 or K < 2:
        return rows, freqs, times[0]
    t_c, tau = (times[0] + times[-1]) / 2, abs(times[-1] - times[0]) / 2
    order = np.argsort(freqs)
    f = freqs[order].tolist()
    lo, hi, size = 0, K - 1, _nodes((f[-1] - f[0]) / 2 * tau)
    while lo < hi:  # peel the end whose removal narrows the core most
        a, b = ((lo + 1, hi) if f[hi] - f[lo + 1] <= f[hi - 1] - f[lo]
                else (lo, hi - 1))
        nodes = _nodes((f[b] - f[a]) / 2 * tau)
        if nodes + 1 >= size:  # one more exact term, no fewer in all
            break
        lo, hi, size = a, b, nodes
    if size + lo + K - 1 - hi >= K:
        return rows, freqs, times[0]
    f_c, h = (f[lo] + f[hi]) / 2, (f[hi] - f[lo]) / 2
    core = order[lo:hi + 1]
    peeled = np.concatenate((order[:lo], order[hi + 1:]))
    x_p, lam = _chebyshev(size)
    if size == 1:  # every l_0(x) = basis / basis.sum() = 1
        table = np.ones((1, len(core)), complex).T
    else:
        d = np.subtract.outer(x_p, (freqs[core] - f_c) / h)
        on = d == 0  # a frequency on a node keeps its weight there
        if on.any():
            d[:, on.any(axis=0)] = np.inf
            d[on] = 1.0
        basis = lam[:, None] / d
        table = (basis / basis.sum(axis=0)).astype(complex).T
    shifted = rows * np.exp(1j * (freqs * t_c))
    merged = np.empty((len(rows), size + len(peeled)), complex)
    # a complex product per row with a (P, K) table: a real or a (K, P)
    # table rounds with the BLAS thread count, more rows with their count
    for out, row in zip(merged, shifted):
        np.matmul(row[core], table, out=out[:size])
    merged[:, size:] = shifted[:, peeled]
    return (merged, np.concatenate((f_c + h * x_p, freqs[peeled])),
            times[0] - t_c)


def weighted_trig_sums(weights, freqs, times):
    """Real and imaginary parts of sum_k w_k exp(i f_k t).

    For real weights these are sum_k w_k cos(f_k t) and the matching sine;
    a phase phi enters as the weights w_k exp(i phi).  weights: shape (K,)
    or (R, K), real or complex; freqs: shape (K,); times: shape (T,),
    ``np.linspace(t_0, t_end, T)`` or one point.  Returns two arrays of
    shape (T,) or (R, T), one row per weight row.
    """
    weights = np.asarray(weights)
    freqs = np.ascontiguousarray(freqs, dtype=float)
    times = np.ascontiguousarray(times, dtype=float)
    if weights.ndim not in (1, 2) or weights.shape[-1:] != freqs.shape:
        raise ValueError("weights must be (K,) or (R, K) with K = len(freqs)")
    if times.ndim != 1 or not len(times):
        raise ValueError("times must be one-dimensional, at least one point")
    count = len(times)
    rows = weights[None] if weights.ndim == 1 else weights
    dt = (times[-1] - times[0]) / (count - 1) if count > 1 else 0.0
    # M = ceil(sqrt(T)) and B = ceil(T / M) <= M tile starts t_{bM}, so the
    # left table is no larger than the right one
    width, tiles = _split(count)
    rows, freqs, start = _aggregated(rows, freqs, times)
    phases = _phases(start, dt, tiles, width, freqs)
    starts = next(phases)
    left = [row * starts for row in rows]  # each row as in a one-row call
    del starts  # freed before the right table, which takes its pages
    right = next(phases).T
    # per row, one product per block of <= 128 frequencies, summed in block
    # order, so that no product rounds with the BLAS thread count or with
    # the call's other rows (see above)
    sums = np.empty((len(rows), tiles, width), complex)
    for out, row in zip(sums, left):
        np.matmul(row[:, :128], right[:128], out=out)
        for k in range(128, len(freqs), 128):
            out += row[:, k:k + 128] @ right[k:k + 128]
    sums = sums.reshape(len(rows), tiles * width)[:, :count]
    if weights.ndim == 1:
        sums = sums[0]
    return sums.real, sums.imag
