import math
import os
import subprocess
import sys
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

    # longer grids and both paths, within a bound that scales with sum |w|
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
    for times, factored in cases:
        assert _factored(times) == factored
        ref_c, ref_s = _reference(w, f, 0.35, times)
        got_c, got_s = _kernels_py.weighted_trig_sums(w, f, 0.35, times)
        assert np.abs(got_c - ref_c).max() < 1e-12 * scale
        assert np.abs(got_s - ref_s).max() < 1e-12 * scale


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
        "print(hashlib.sha256(c.tobytes() + s.tobytes()).hexdigest())\n")
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
