import cmath
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ghastates as g
from ghastates import _kernels_py


def _phased(weights, phase):
    """The weights of sum_k w_k exp(i (f_k t + phase)): w_k exp(i phase)."""
    return np.asarray(weights) * cmath.exp(1j * phase)


def _reference(weights, freqs, phase, times):
    cos_out = np.zeros(len(times))
    sin_out = np.zeros(len(times))
    for j, t in enumerate(times):
        for w, f in zip(weights, freqs):
            cos_out[j] += w * math.cos(f * t + phase)
            sin_out[j] += w * math.sin(f * t + phase)
    return cos_out, sin_out


def test_python_kernel_matches_reference():
    rng = np.random.default_rng(7)
    w = rng.normal(size=23)
    f = rng.normal(size=23)
    t = np.linspace(0.0, 10.0, 17)
    ref_c, ref_s = _reference(w, f, 0.35, t)
    got_c, got_s = _kernels_py.weighted_trig_sums(_phased(w, 0.35), f, t)
    assert np.abs(got_c - ref_c).max() < 1e-12
    assert np.abs(got_s - ref_s).max() < 1e-12

    # longer grids and one point, within a bound that scales with sum |w|
    f[:3] = 0.0  # zero frequencies alongside the negative draws
    assert (f < 0).any()
    scale = np.abs(w).sum()
    cases = [
        np.linspace(0.0, 100.0, 2001),
        np.linspace(0.0, 100.0, 1000),  # last tile ragged: 32*32 > 1000
        np.linspace(-37.5, 62.5, 777),
        np.linspace(0.0, 1.0, 2),
        np.array([3.7]),
    ]
    # complex weight rows sharing the frequencies, as on the matrix route
    rows = rng.normal(size=(3, 23)) + 1j * rng.normal(size=(3, 23))
    for times in cases:
        ref_c, ref_s = _reference(w, f, 0.35, times)
        got_c, got_s = _kernels_py.weighted_trig_sums(_phased(w, 0.35), f,
                                                      times)
        assert np.abs(got_c - ref_c).max() < 1e-12 * scale
        assert np.abs(got_s - ref_s).max() < 1e-12 * scale
        got_re, got_im = _kernels_py.weighted_trig_sums(_phased(rows, 0.35),
                                                        f, times)
        assert got_re.shape == got_im.shape == (3, len(times))
        for row, re, im in zip(rows, got_re, got_im):
            ref = np.exp(1j * (np.multiply.outer(times, f) + 0.35)) @ row
            assert np.abs(re - ref.real).max() < 1e-12 * np.abs(row).sum()
            assert np.abs(im - ref.imag).max() < 1e-12 * np.abs(row).sum()


def test_single_row_matches_one_dimensional_call():
    rng = np.random.default_rng(9)
    w, f = rng.normal(size=(2, 30))
    for times in (np.linspace(0.0, 1000.0, 20001),
                  np.linspace(-37.5, 62.5, 300)):
        c, s = _kernels_py.weighted_trig_sums(_phased(w, 0.2), f, times)
        c2, s2 = _kernels_py.weighted_trig_sums(_phased(w[None, :], 0.2), f,
                                                times)
        assert c2.shape == (1, len(times))
        assert c.tobytes() == c2[0].tobytes()
        assert s.tobytes() == s2[0].tobytes()


@pytest.mark.parametrize("system", ["harmonic", "type1", "wide"])
def test_each_row_sums_as_it_does_alone(system):
    # a row's bytes do not depend on the rows beside it: harmonic gaps
    # merge to one node, type1 gaps to a few, wide ones keep every
    # frequency, and one or two points take a single tile
    rng = np.random.default_rng(13)
    f = (rng.uniform(0.0, 5000.0, 300) if system == "wide"
         else _gaps(_GAP_SPECTRA[system], 300, 1))
    rows = rng.normal(size=(3, 300)) + 1j * rng.normal(size=(3, 300))
    for times in (np.array([7.5]), np.linspace(0.0, 100.0, 2),
                  np.linspace(0.0, 100.0, 2001),
                  np.linspace(0.0, 100.0, 20001)):
        re, im = _kernels_py.weighted_trig_sums(rows, f, times)
        for row, got_re, got_im in zip(rows, re, im):
            c, s = _kernels_py.weighted_trig_sums(row, f, times)
            assert got_re.tobytes() == c.tobytes(), (system, len(times))
            assert got_im.tobytes() == s.tobytes(), (system, len(times))


def test_kernel_bounds_memory():
    # a table of every phasor of this call would be 4 x 20001 x 200 complex,
    # 256 MB; the two tile tables and the sums take a few MB
    rng = np.random.default_rng(3)
    w = rng.normal(size=(4, 200)) + 1j * rng.normal(size=(4, 200))
    f = rng.normal(size=200)
    times = np.linspace(0.0, 1000.0, 20001)
    tracemalloc.start()
    try:
        _kernels_py.weighted_trig_sums(_phased(w, 0.3), f, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


@pytest.mark.parametrize("count", [2, 3, 777, 2001, 20001])
def test_linspace_grid_is_the_kernels_progression(count):
    # the kernel takes dt from a grid's endpoints and never tests the grid:
    # for the grids trace, the CLI and the benchmark build, linspace gives
    # every point but the last as a + j dt to the bit, and its last point
    # within a few ulp of the largest |t|
    for a, b in ((0.0, 60.0), (0.0, 100.0), (0.0, 1000.0), (-37.5, 62.5),
                 (1e6, 1e6 + 100.0)):
        times = np.linspace(a, b, count)
        assert times[0] == a and times[-1] == b
        ideal = a + ((b - a) / (count - 1)) * np.arange(count)
        assert times[:-1].tobytes() == ideal[:-1].tobytes()
        ulp = np.finfo(float).eps * np.abs(times).max()
        assert abs(times[-1] - ideal[-1]) <= 4 * ulp


@pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 15, 16, 17, 45, 141, 142])
def test_progression_matches_direct_exp(count):
    # both tables of _phases: the tile starts start + j width step and the
    # offsets m step, each as a count of tiles and as a width
    rng = np.random.default_rng(count)
    f = rng.normal(size=23)
    f[:2] = 0.0
    for start, step, stride in ((0.0, 0.05, 1), (-37.5, 0.53, 1),
                                (-37.5, 0.0125, 45)):
        for tiles, width in ((count, stride), (1, count)):
            tables = _kernels_py._phases(start, step, tiles, width, f)
            starts = start + step * (width * np.arange(tiles))
            for got, t in zip(tables, (starts, step * np.arange(width))):
                want = np.exp(1j * np.multiply.outer(t, f))
                assert got.shape == want.shape == (len(t), 23)
                if len(t):
                    bound = 8 * np.finfo(float).eps * np.abs(
                        np.multiply.outer(t, f)).max()
                    assert np.abs(got - want).max() <= bound
            empty = _kernels_py._phases(start, step, tiles, width, f[:0])
            assert [e.shape for e in empty] == [(tiles, 0), (width, 0)]


def _counting(monkeypatch, name):
    """Record the element count of every call of np.<name>."""
    func, sizes = getattr(np, name), []

    def counting(x, *args, **kwargs):
        sizes.append(np.size(x))
        return func(x, *args, **kwargs)

    monkeypatch.setattr(np, name, counting)
    return sizes


def test_exp_work_grows_as_fourth_root_of_the_grid(monkeypatch):
    # a complex exp costs tens of products per element, so a uniform call
    # evaluates about 4 T^(1/4) K of them and multiplies the rest
    rng = np.random.default_rng(4)
    w, f = rng.normal(size=(2, 200))
    times = np.linspace(0.0, 1000.0, 20001)
    elements = _counting(monkeypatch, "exp")
    _kernels_py.weighted_trig_sums(_phased(w, 0.3), f, times)
    assert 0 < sum(elements) <= 6 * len(times) ** 0.25 * len(f)


def test_large_argument_within_conditioning():
    # |f t| ~ 1e9: rounding the argument itself costs eps * |f t| in either
    # evaluation, so the bound scales with the largest argument
    rng = np.random.default_rng(5)
    w = rng.normal(size=11)
    f = 1e7 * rng.uniform(-1.0, 1.0, size=11)
    times = np.linspace(0.0, 100.0, 2001)
    ref_c, ref_s = _reference(w, f, 0.35, times)
    got_c, got_s = _kernels_py.weighted_trig_sums(_phased(w, 0.35), f, times)
    bound = (8 * np.finfo(float).eps * np.abs(np.multiply.outer(times, f)).max()
             * np.abs(w).sum())
    assert np.abs(got_c - ref_c).max() < bound
    assert np.abs(got_s - ref_s).max() < bound


def test_empty_series():
    for points in (2, 2001):
        c, s = _kernels_py.weighted_trig_sums(np.array([]), np.array([]),
                                              np.linspace(0.0, 1.0, points))
        assert not c.any() and not s.any()
        assert c.shape == (points,)


def test_empty_weight_rows():
    for K in (0, 5):
        for points in (1, 2, 2001):
            re, im = _kernels_py.weighted_trig_sums(
                np.zeros((0, K)), np.arange(K, dtype=float),
                np.linspace(0.0, 100.0, points))
            assert re.shape == im.shape == (0, points)


def test_empty_times_rejected():
    with pytest.raises(ValueError, match="at least one point"):
        _kernels_py.weighted_trig_sums(np.ones(3), np.ones(3), np.array([]))


def test_times_must_be_one_dimensional():
    # a (1, T) grid would read as one point
    for times in (np.linspace(0.0, 1.0, 5)[None], np.zeros((5, 2))):
        with pytest.raises(ValueError, match="one-dimensional"):
            _kernels_py.weighted_trig_sums(np.ones(3), np.arange(3.0), times)


@pytest.mark.parametrize("count", [129, 300, 2001])
def test_multi_block_sums_match_direct_exp(count):
    # frequencies too wide to aggregate on [0, 1000], so the join sums
    # ceil(K / 128) products of at most 128 frequencies each
    rng = np.random.default_rng(count)
    f = rng.uniform(-5.0, 5.0, size=count)
    rows = rng.normal(size=(2, count)) + 1j * rng.normal(size=(2, count))
    real = rng.normal(size=count)
    every = np.vstack([rows, real])
    bound = 1e-12 * np.abs(every).sum(axis=1)
    for times in (np.linspace(0.0, 1000.0, 2001),
                  np.linspace(0.0, 1000.0, 20001), np.array([7.5])):
        assert len(_kernels_py._aggregated(rows, f, times)[1]) == count
        re, im = _kernels_py.weighted_trig_sums(rows, f, times)
        c, s = _kernels_py.weighted_trig_sums(real, f, times)
        got = np.vstack([re + 1j * im, c + 1j * s])
        # the direct table in slices of 1000 points: whole, it would take
        # 640 MB at T = 20001 and K = 2001
        want = np.hstack([
            every @ np.exp(1j * np.multiply.outer(f, times[j:j + 1000]))
            for j in range(0, len(times), 1000)])
        assert (np.abs(got - want).max(axis=1) <= bound).all(), (
            count, len(times))


def test_length_mismatch():
    with pytest.raises(ValueError):
        _kernels_py.weighted_trig_sums(np.ones(3), np.ones(2), np.ones(4))
    with pytest.raises(ValueError):
        _kernels_py.weighted_trig_sums(np.ones((2, 3)), np.ones(2),
                                       np.ones(4))


def _digests_over_blas_threads(script):
    """The set of what ``script`` prints at 1, 2 and 4 OpenBLAS threads.  The
    count is read when numpy loads, so each setting needs its own process;
    4 threads on a 2-core machine still splits the work four ways."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = set()
    for threads in ("1", "2", "4"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   [src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout)
    return digests


def test_output_independent_of_blas_threads():
    # CSV bytes must not depend on the BLAS thread count.  K = 129, 131, 177
    # and 300 take more than one block of 128 frequencies; with OpenBLAS
    # 0.3.31's Haswell kernels, one product over 129 to 134 frequencies
    # already rounds with the thread count
    script = (
        "import hashlib, numpy as np\n"
        "from ghastates import _kernels_py\n"
        "rng = np.random.default_rng(2)\n"
        "w, f = rng.normal(size=(2, 177))\n"
        "c, s = _kernels_py.weighted_trig_sums(\n"
        "    w * np.exp(0.3j), f, np.linspace(0.0, 1000.0, 20001))\n"
        "w4 = rng.normal(size=(4, 177)) + 1j * rng.normal(size=(4, 177))\n"
        "re, im = _kernels_py.weighted_trig_sums(\n"
        "    w4, f, np.linspace(0.0, 1000.0, 20001))\n"
        "out = [c, s, re, im]\n"
        # two complex rows: the shape of a "both" trace's calls
        "out += _kernels_py.weighted_trig_sums(\n"
        "    w4[:2] * np.exp(0.2j), f, np.linspace(0.0, 1000.0, 20001))\n"
        "for t in (np.linspace(-37.5, 62.5, 3001), np.array([7.5])):\n"
        "    out += _kernels_py.weighted_trig_sums(w4 * np.exp(0.4j), f, t)\n"
        "t = np.linspace(0.0, 1000.0, 2001)\n"  # M = 45
        "for K in (128, 129, 131, 300):\n"
        "    wk = rng.normal(size=(3, K)) + 1j * rng.normal(size=(3, K))\n"
        "    fk = rng.uniform(-5.0, 5.0, size=K)\n"
        "    assert len(_kernels_py._aggregated(wk, fk, t)[1]) == K\n"
        "    out += _kernels_py.weighted_trig_sums(wk, fk, t)\n"
        "print(hashlib.sha256(b''.join(a.tobytes() for a in out)).hexdigest())\n")
    assert len(_digests_over_blas_threads(script)) == 1


# ---------------------------------------------------------------------------
# the Chebyshev aggregation of a call's frequencies

def _gaps(spec, count, step):
    eps = g.levels(spec, count + step)
    return eps[:-step] - eps[step:]


_GAP_SPECTRA = {"type1": g.type1(), "type2": g.type2(),
                "hydrogen": g.hydrogen(), "harmonic": g.harmonic(),
                "q0.5": g.q_deformed(0.5), "q0.9": g.q_deformed(0.9)}


@pytest.mark.parametrize("c", [0.5, 2.0, 12.5, 25.0, 125.0])
def test_node_count_bounds_the_bessel_tail(c):
    # exp(i c x) = J_0(c) + 2 sum_p i^p J_p(c) T_p(x): the coefficients
    # the P nodes leave out sum to at most eps
    mpmath = pytest.importorskip("mpmath")
    nodes = _kernels_py._nodes(c)
    assert c <= nodes < c + 80
    tail, p = mpmath.mpf(0), nodes
    while True:
        term = abs(mpmath.besselj(p, c))
        tail += term
        if p > c and term < mpmath.mpf(10) ** -40:
            break
        p += 1
    assert 2 * tail <= np.finfo(float).eps
    assert _kernels_py._nodes(1e9) == math.inf  # past the table: no saving


@pytest.mark.parametrize("system", sorted(_GAP_SPECTRA))
def test_aggregated_sums_match_direct_exp(system):
    spec = _GAP_SPECTRA[system]
    rng = np.random.default_rng(11)
    times = np.linspace(0.0, 100.0, 2001)
    for count in (80, 380, 1200):
        for step in (1, 2):
            f = _gaps(spec, count, step)
            assert len(_kernels_py._aggregated(np.ones((1, count)), f,
                                               times)[1]) < count
            direct = np.exp(1j * (np.multiply.outer(times, f) + 0.3))
            rows = rng.normal(size=(2, count)) + 1j * rng.normal(
                size=(2, count))
            real = rng.normal(size=count)
            re, im = _kernels_py.weighted_trig_sums(_phased(rows, 0.3), f,
                                                    times)
            c, s = _kernels_py.weighted_trig_sums(_phased(real, 0.3), f, times)
            for row, got in zip([*rows, real], [*(re + 1j * im), c + 1j * s]):
                bound = 1e-14 * np.abs(row).sum()
                assert np.abs(got - direct @ row).max() <= bound, (
                    system, count, step)


def test_near_radius_traces_aggregate(monkeypatch):
    # the calls of oracle-near-radius-like traces take the aggregated path
    seen, aggregated = [], _kernels_py._aggregated

    def record(rows, freqs, times):
        out = aggregated(rows, freqs, times)
        seen.append((len(freqs), len(out[1])))
        return out

    monkeypatch.setattr(_kernels_py, "_aggregated", record)
    for system, kind, radii in (("type1", "gha", (0.8, 0.95)),
                                ("type2", "gha", (0.8, 0.95)),
                                ("hydrogen", "gha", (0.8, 0.95)),
                                ("harmonic", "linear", (8.0, 12.0))):
        for r in radii:
            seen.clear()
            g.trace(g.make_spectrum(system), kind, r, 0.3, 0.0, 100.0, 2001,
                    path="both")
            assert len(seen) == 2
            for count, kept in seen:
                assert count >= 80
                assert kept == 1 if system == "harmonic" else kept <= 25


def test_aggregated_output_independent_of_blas_threads():
    # the node weights come from one matrix-vector product per row and the
    # join from products over at most 128 frequencies each, so an
    # aggregated call keeps its bytes at any BLAS thread count; harmonic
    # gaps merge to a single node
    script = (
        "import hashlib, numpy as np\n"
        "import ghastates as g\n"
        "from ghastates import _kernels_py\n"
        "rng = np.random.default_rng(5)\n"
        "w = rng.normal(size=(2, 1200)) + 1j * rng.normal(size=(2, 1200))\n"
        "t = np.linspace(0.0, 100.0, 2001)\n"
        "out = b''\n"
        "for spec, nodes in ((g.type1(), 1199), (g.harmonic(), 1)):\n"
        "    eps = g.levels(spec, 1201)\n"
        "    f = eps[:-1] - eps[1:]\n"
        "    assert len(_kernels_py._aggregated(w, f, t)[1]) <= nodes\n"
        "    re, im = _kernels_py.weighted_trig_sums(w * np.exp(0.3j), f, t)\n"
        "    out += re.tobytes() + im.tobytes()\n"
        "print(hashlib.sha256(out).hexdigest())\n")
    assert len(_digests_over_blas_threads(script)) == 1


@pytest.mark.parametrize("count, rows", [(1, 4), (2, 5), (10, 8), (17, 9),
                                         (2001, 28), (20001, 48)])
def test_one_exp_builds_the_tile_tables(monkeypatch, count, rows):
    # T points tile as M = ceil(sqrt(T)) offsets and B = ceil(T / M) starts;
    # each table is ceil(sqrt(n)) fine rows and ceil(n / that) coarse ones.
    # T = 2: M = 2 (2 + 1), B = 1 (1 + 1); T = 10: M = 4 (2 + 2), B = 3
    # (2 + 2); T = 17: M = 5 (3 + 2), B = 4 (2 + 2); T = 20001: M = 142
    # (12 + 12), B = 141 (12 + 12).  Frequencies too wide to merge keep K = 7
    sizes = _counting(monkeypatch, "exp")
    f = np.array([0.0, 40.0, -95.0, 150.0, 210.0, -260.0, 333.0])
    _kernels_py.weighted_trig_sums(np.ones(7), f,
                                   np.linspace(0.0, 100.0, count))
    assert sizes == [rows * 7]


def test_aggregated_call_takes_two_exps(monkeypatch):
    # the shift to the grid's centre and the tile tables of the merged
    # frequencies
    f = _gaps(_GAP_SPECTRA["type1"], 300, 1)
    times = np.linspace(0.0, 100.0, 2001)
    kept = len(_kernels_py._aggregated(np.ones((1, 300)), f, times)[1])
    assert kept < 300
    sizes = _counting(monkeypatch, "exp")
    _kernels_py.weighted_trig_sums(np.ones((2, 300)), f, times)
    assert sizes == [300, 28 * kept]


def test_node_constants_built_once_per_count(monkeypatch):
    f = _gaps(_GAP_SPECTRA["type1"], 300, 1)
    times = np.linspace(0.0, 100.0, 2001)
    _kernels_py._chebyshev.cache_clear()
    sizes = _counting(monkeypatch, "cos")
    first = _kernels_py._aggregated(np.ones((1, 300)), f, times)
    again = _kernels_py._aggregated(np.ones((2, 300)), f, times)
    assert len(sizes) == 1 and len(first[1]) == len(again[1])
    x_p, lam = _kernels_py._chebyshev(sizes[0])
    assert not x_p.flags.writeable and not lam.flags.writeable


def test_harmonic_merge_is_the_barycentric_formula():
    # equal gaps take one node, where the merge table of ones has the
    # bytes of the barycentric weights l_0(x) = (lam_0 / d) / sum(lam / d)
    rng = np.random.default_rng(17)
    f = _gaps(_GAP_SPECTRA["harmonic"], 300, 2)
    times = np.linspace(0.0, 100.0, 2001)
    rows = rng.normal(size=(2, 300)) + 1j * rng.normal(size=(2, 300))
    merged, freqs, start = _kernels_py._aggregated(rows, f, times)
    t_c = (times[0] + times[-1]) / 2
    assert freqs.tolist() == [-2.0] and start == times[0] - t_c
    x_p, lam = np.array([1.0]), np.array([0.5])
    basis = lam[:, None] / np.subtract.outer(x_p, (f - (-2.0)) / 1.0)
    table = (basis / basis.sum(axis=0)).astype(complex).T
    order = np.argsort(f)
    for got, row in zip(merged, rows * np.exp(1j * (f * t_c))):
        assert got.tobytes() == (row[order] @ table).tobytes()


def test_peel_takes_the_end_that_narrows_the_core():
    # a low outlier at -2, a cluster on [0, 1] and two high gaps 0.02
    # apart: dropping -2 narrows the core from 6 to 4 (45 -> 36 nodes on
    # [0, 10]); the next peel, 4.0, would save less than a node
    f = np.concatenate((np.linspace(0.0, 1.0, 100), [3.98, 4.0, -2.0]))
    merged, freqs, _ = _kernels_py._aggregated(
        np.ones((1, 103)), f, np.linspace(0.0, 10.0, 2001))
    assert (_kernels_py._nodes(3.0 * 5.0), _kernels_py._nodes(2.0 * 5.0)) \
        == (45, 36)
    assert len(freqs) == merged.shape[1] == 37 and freqs[-1] == -2.0
