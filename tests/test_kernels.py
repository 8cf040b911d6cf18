import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ghastates import _kernels_py


def _reference(weights, freqs, phase, times):
    cos_out = np.zeros(len(times))
    sin_out = np.zeros(len(times))
    for j, t in enumerate(times):
        for w, f in zip(weights, freqs):
            cos_out[j] += w * math.cos(f * t + phase)
            sin_out[j] += w * math.sin(f * t + phase)
    return cos_out, sin_out


def _factored(times):
    # tiles wider than one point: every other grid takes width 1
    return _kernels_py._uniform_step(times) is not None


def test_python_kernel_matches_reference():
    rng = np.random.default_rng(7)
    w = rng.normal(size=23)
    f = rng.normal(size=23)
    t = np.linspace(0.0, 10.0, 17)
    ref_c, ref_s = _reference(w, f, 0.35, t)
    got_c, got_s = _kernels_py.weighted_trig_sums(w, f, 0.35, t)
    assert np.abs(got_c - ref_c).max() < 1e-12
    assert np.abs(got_s - ref_s).max() < 1e-12

    # longer grids and both tile widths, within a bound that scales with
    # sum |w|
    f[:3] = 0.0  # zero frequencies alongside the negative draws
    assert (f < 0).any()
    scale = np.abs(w).sum()
    cases = [
        (np.linspace(0.0, 100.0, 2001), True),
        (np.linspace(0.0, 100.0, 1000), True),  # last tile ragged: 32*32 > 1000
        (np.linspace(-37.5, 62.5, 777), True),
        (np.linspace(0.0, 1.0, 2), True),
        (np.sort(rng.uniform(0.0, 50.0, 300)), False),
        (np.linspace(0.0, 100.0, 2001) + rng.uniform(0.0, 1e-9, 2001), False),
        (np.array([3.7]), False),
    ]
    # complex weight rows sharing the frequencies, as on the matrix route
    rows = rng.normal(size=(3, 23)) + 1j * rng.normal(size=(3, 23))
    for times, factored in cases:
        assert _factored(times) == factored
        ref_c, ref_s = _reference(w, f, 0.35, times)
        got_c, got_s = _kernels_py.weighted_trig_sums(w, f, 0.35, times)
        assert np.abs(got_c - ref_c).max() < 1e-12 * scale
        assert np.abs(got_s - ref_s).max() < 1e-12 * scale
        got_re, got_im = _kernels_py.weighted_trig_sums(rows, f, 0.35, times)
        assert got_re.shape == got_im.shape == (3, len(times))
        for row, re, im in zip(rows, got_re, got_im):
            ref = np.exp(1j * (np.multiply.outer(times, f) + 0.35)) @ row
            assert np.abs(re - ref.real).max() < 1e-12 * np.abs(row).sum()
            assert np.abs(im - ref.imag).max() < 1e-12 * np.abs(row).sum()


def test_single_row_matches_one_dimensional_call():
    rng = np.random.default_rng(9)
    w, f = rng.normal(size=(2, 30))
    for times in (np.linspace(0.0, 1000.0, 20001),
                  np.sort(rng.uniform(0.0, 50.0, 300))):
        c, s = _kernels_py.weighted_trig_sums(w, f, 0.2, times)
        c2, s2 = _kernels_py.weighted_trig_sums(w[None, :], f, 0.2, times)
        assert c2.shape == (1, len(times))
        assert c.tobytes() == c2[0].tobytes()
        assert s.tobytes() == s2[0].tobytes()


def _unblocked(weights, freqs, phase, times):
    # the kernel with its whole left table built at once; a uniform grid's
    # tables are the kernel's four-table progressions
    rows = np.atleast_2d(weights)
    dt = _kernels_py._uniform_step(times)
    width = 1 if dt is None else math.isqrt(len(times) - 1) + 1
    starts = times[::width]
    if dt is None:
        phasors = np.exp(1j * (np.multiply.outer(starts, freqs) + phase))
    else:
        phasors = _kernels_py._progression(times[0], dt, width, len(starts),
                                           freqs, phase)
    left = rows[:, None, :] * phasors
    right = _kernels_py._progression(0.0, dt or 0.0, 1, width, freqs)
    sums = np.matmul(left[:, :, None, :], right.T)
    sums = sums.reshape(len(rows), -1)[:, :len(times)]
    return sums.real, sums.imag


def test_blocks_keep_bits_and_bound_memory(monkeypatch):
    rng = np.random.default_rng(3)
    w = rng.normal(size=(4, 200)) + 1j * rng.normal(size=(4, 200))
    f = rng.normal(size=200)
    non_uniform = np.sort(rng.uniform(0.0, 1000.0, 20001))
    grids = [np.linspace(0.0, 1000.0, 20001), non_uniform, np.array([7.5])]
    # the default, and blocks of 7 starts with a ragged last one
    for block_bytes in (_kernels_py._BLOCK_BYTES, 7 * 16 * w.size):
        monkeypatch.setattr(_kernels_py, "_BLOCK_BYTES", block_bytes)
        for times in grids:
            got = _kernels_py.weighted_trig_sums(w, f, 0.3, times)
            ref = _unblocked(w, f, 0.3, times)
            for a, b in zip(got, ref):
                assert a.tobytes() == b.tobytes()
    # the whole left table here is 4 x 20001 x 200 complex, 256 MB
    monkeypatch.undo()
    tracemalloc.start()
    try:
        _kernels_py.weighted_trig_sums(w, f, 0.3, non_uniform)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


@pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 15, 16, 17, 45, 141, 142])
def test_progression_matches_direct_exp(count):
    rng = np.random.default_rng(count)
    f = rng.normal(size=23)
    f[:2] = 0.0
    for start, step, stride, phase in ((0.0, 0.05, 1, 0.0),
                                       (-37.5, 0.53, 1, 0.35),
                                       (-37.5, 0.0125, 45, 0.35)):
        got = _kernels_py._progression(start, step, stride, count, f, phase)
        t = start + step * (stride * np.arange(count))
        want = np.exp(1j * (np.multiply.outer(t, f) + phase))
        assert got.shape == want.shape == (count, 23)
        if count:
            bound = 8 * np.finfo(float).eps * np.abs(
                np.multiply.outer(t, f)).max()
            assert np.abs(got - want).max() <= bound
        empty = _kernels_py._progression(start, step, stride, count, f[:0],
                                         phase)
        assert empty.shape == (count, 0)


def test_exp_work_grows_as_fourth_root_of_the_grid(monkeypatch):
    # a complex exp costs tens of products per element, so a uniform call
    # evaluates about 4 T^(1/4) K of them and multiplies the rest
    exp, elements = np.exp, []

    def counting(x, *args, **kwargs):
        elements.append(np.size(x))
        return exp(x, *args, **kwargs)

    rng = np.random.default_rng(4)
    w, f = rng.normal(size=(2, 200))
    times = np.linspace(0.0, 1000.0, 20001)
    monkeypatch.setattr(_kernels_py.np, "exp", counting)
    _kernels_py.weighted_trig_sums(w, f, 0.3, times)
    assert 0 < sum(elements) <= 6 * len(times) ** 0.25 * len(f)


def test_large_argument_within_conditioning():
    # |f t| ~ 1e9: rounding the argument itself costs eps * |f t| in either
    # evaluation, so the bound scales with the largest argument
    rng = np.random.default_rng(5)
    w = rng.normal(size=11)
    f = 1e7 * rng.uniform(-1.0, 1.0, size=11)
    times = np.linspace(0.0, 100.0, 2001)
    assert _factored(times)
    ref_c, ref_s = _reference(w, f, 0.35, times)
    got_c, got_s = _kernels_py.weighted_trig_sums(w, f, 0.35, times)
    bound = (8 * np.finfo(float).eps * np.abs(np.multiply.outer(times, f)).max()
             * np.abs(w).sum())
    assert np.abs(got_c - ref_c).max() < bound
    assert np.abs(got_s - ref_s).max() < bound


def test_empty_series():
    for points in (2, 2001):
        c, s = _kernels_py.weighted_trig_sums(np.array([]), np.array([]), 0.0,
                                              np.linspace(0.0, 1.0, points))
        assert not c.any() and not s.any()
        assert c.shape == (points,)


def test_length_mismatch():
    with pytest.raises(ValueError):
        _kernels_py.weighted_trig_sums(np.ones(3), np.ones(2), 0.0, np.ones(4))
    with pytest.raises(ValueError):
        _kernels_py.weighted_trig_sums(np.ones((2, 3)), np.ones(2), 0.0,
                                       np.ones(4))


def test_output_independent_of_blas_threads():
    # CSV bytes must not depend on the BLAS thread count; the count is read
    # when numpy loads, so each setting needs its own process
    script = (
        "import hashlib, numpy as np\n"
        "from ghastates import _kernels_py\n"
        "rng = np.random.default_rng(2)\n"
        "w, f = rng.normal(size=(2, 177))\n"
        "c, s = _kernels_py.weighted_trig_sums(\n"
        "    w, f, 0.3, np.linspace(0.0, 1000.0, 20001))\n"
        "w4 = rng.normal(size=(4, 177)) + 1j * rng.normal(size=(4, 177))\n"
        "re, im = _kernels_py.weighted_trig_sums(\n"
        "    w4, f, 0.0, np.linspace(0.0, 1000.0, 20001))\n"
        "out = [c, s, re, im]\n"
        "for t in (np.sort(rng.uniform(0.0, 1000.0, 3001)), np.array([7.5])):\n"
        "    out += _kernels_py.weighted_trig_sums(w4, f, 0.4, t)\n"
        "print(hashlib.sha256(b''.join(a.tobytes() for a in out)).hexdigest())\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   [src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout)
    assert len(digests) == 1
