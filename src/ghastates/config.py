"""Plain-text files: key=value configuration in, UTF-8 text with LF out.

Grammar: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines are ignored, keys are case-insensitive.  Values stay strings; callers
cast.  Keys are the command-line flag names with ``_`` for ``-``, or one
of the spellings in ``_ALIASES``.
"""

from __future__ import annotations

import functools
import os
import types

import numpy as np

from .errors import InvalidParameterError
from .spectrum import (
    EV,
    MorsePhysicalParams,
    SpectrumModel,
    make_spectrum,
    morse,
    morse_from_physical,
)

# other spelling -> the command-line name of the same key
_ALIASES = {"v0_ev": "v0", "n_max": "override_nmax", "path": "route",
            "format": "fmt"}


def _canonical(key: str) -> str:
    key = key.strip().lower().replace("-", "_")
    return _ALIASES.get(key, key)


def parse_key_values(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParameterError(
                f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().lower()] = value.strip()
    return out


def load_key_values(path: str | os.PathLike) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return parse_key_values(fh.read())


def spectrum_from_config(source) -> SpectrumModel:
    """Build a spectrum from a config path, text (a string with ``=`` that
    names no file), or parsed mapping (where a None value counts as unset).

    A Morse well takes ``override_p``, else ``override_nu``, else ``p``,
    else the constants ``beta``, ``v0`` (eV) and ``mr``, which alone set
    its time scale ``omega``.
    """
    if isinstance(source, dict):
        raw = source
    elif (isinstance(source, str) and "=" in source
          and not os.path.isfile(source)):
        raw = parse_key_values(source)
    else:
        raw = load_key_values(source)
    cfg = {_canonical(k): str(v) for k, v in raw.items() if v is not None}

    def num(key: str, kind=float, default=None):
        if key not in cfg:
            return default
        try:
            return kind(cfg[key])
        except ValueError:
            raise InvalidParameterError(
                f"config key {key!r} has an invalid value {cfg[key]!r}"
            ) from None

    system = cfg.get("system", "").strip().lower().replace("-", "_")
    if not system:
        raise InvalidParameterError(
            "the spectrum needs a 'system' key (or --system)")
    if system != "morse":
        table = num("energies", lambda text: [
            float(tok) for tok in text.split(",") if tok.strip()])
        return make_spectrum(system, b=num("b", default=1.0), q=num("q"),
                             p=num("p"), energies=table)

    n_max = num("override_nmax", int)
    phys = None
    if all(k in cfg for k in ("beta", "v0", "mr")):
        phys = MorsePhysicalParams(beta=num("beta"), V0=num("v0") * EV,
                                   m_r=num("mr"))
    # omega depends only on beta and m_r, so it survives nu/p overrides
    omega = phys.omega if phys is not None else None
    if "override_p" in cfg:
        return morse(num("override_p"), n_max=n_max, omega=omega)
    if "override_nu" in cfg:
        return morse((num("override_nu") - 1.0) / 2.0, n_max=n_max,
                     omega=omega)
    if "p" in cfg:
        return morse(num("p"), n_max=n_max)
    if phys is None:
        missing = [k for k in ("beta", "v0", "mr") if k not in cfg]
        raise InvalidParameterError(
            "morse needs p or the physical constants beta, v0 (eV) and mr "
            f"(missing: {', '.join(missing)})")
    return morse_from_physical(phys, n_max=n_max)


def _write_lines(lines, path) -> None:
    """Write ``lines`` as UTF-8 with LF endings to a path or open text file."""
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# %.12g in bulk
#
# A nonzero x with 1e-280 <= |x| <= 1e280 prints the 12 digits of
# n = rint(s), s = |x| 10^(11 - e) with e = floor(log10 |x|), less their
# trailing zeros, in the notation e picks.  One multiply or divide by a
# correctly rounded power of ten puts s within 2.3e-4 of its exact value,
# so n is exact unless s lies within 1e-3 of a half.  Where log10 misjudges
# e, s falls outside (1e11 + 1e-2, 1e12); where n rounds up to 1e12, e
# grows by one.  Those cells, and non-finite or extreme values, take
# Python's exact printer.  A cell is 32 bytes: sign and "0.000" prefix,
# 16 bytes of digits with the point inserted, exponent and separator, with
# zero bytes wherever %g prints nothing; dropping the zeros gives the text.

def _u64(*columns) -> np.ndarray:
    """Pack byte columns into uint64 words, the first in the lowest byte."""
    return sum(np.asarray(c, np.uint64) << np.uint64(8 * j)
               for j, c in enumerate(columns))


@functools.cache
def _tables() -> types.SimpleNamespace:
    """The lookup tables of ``_g12_cells``, built on first use (under
    1 ms), so that a process that writes no CSV holds none of them."""
    t = types.SimpleNamespace()
    # by g < 10000: its four digits, and how many of them precede its
    # trailing zeros (-8 for g = 0, so that the groups before it decide)
    pairs = (48 + np.arange(100) // 10) | (48 + np.arange(100) % 10) << 8
    t.digits = (pairs[:, None] | pairs << 16).astype(np.uint32).ravel()
    t.sig = np.full(10000, 4, np.int8)
    t.sig[::10] -= 1
    t.sig[::100] -= 1
    t.sig[::1000] -= 1
    t.sig[0] = -8
    # mul[300 + k] = 10^k for k >= 0 and div[300 + k] = 10^-k for k < 0;
    # the other entries are 1
    powers = np.array([float(10 ** k) for k in range(301)])
    t.mul = np.concatenate((np.ones(300), powers))
    t.div = np.concatenate((powers[:0:-1], np.ones(301)))
    # by e + 300: the digits always printed, the digit the point follows
    # (11: none, the prefix holds it), and the prefix and exponent bytes
    e = np.arange(-300, 301)
    sci = (e < -4) | (e >= 12)
    low = (e < 0) & ~sci
    t.shown = np.where(sci | low, 1, e + 1)
    t.point = np.where(sci, 0, np.where(low, 11, e))
    t.head = np.concatenate([
        _u64(np.full(601, sign), 48 * low, 46 * low,
             *(48 * (low & (e <= -2 - j)) for j in range(3)))
        for sign in (0, 45)])
    t.tail = np.concatenate([
        _u64(101 * sci, sci * (43 + 2 * (e < 0)),
             sci * (abs(e) >= 100) * (48 + abs(e) // 100),
             sci * (48 + abs(e) // 10 % 10), sci * (48 + abs(e) % 10), 0, 0,
             np.full(601, sep))
        for sep in (44, 10)])
    # the first i bytes of 16, in the low and the high word, and by p a
    # point after the first p + 1
    t.ml = np.array([(1 << 8 * min(i, 8)) - 1 for i in range(14)], np.uint64)
    t.mh = np.array([(1 << 8 * max(i - 8, 0)) - 1 for i in range(14)],
                    np.uint64)
    t.dot_lo = (t.ml[2:] ^ t.ml[1:-1]) & np.uint64(0x2E2E2E2E2E2E2E2E)
    t.dot_hi = (t.mh[2:] ^ t.mh[1:-1]) & np.uint64(0x2E2E2E2E2E2E2E2E)
    return t


def _g12_cells(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 32-byte cells of a 2-D float block, a comma after each but the
    last of a row and a newline after that, and the mask of the cells
    whose bytes are exact; the others are left to ``%.12g``."""
    t = _tables()
    x = rows.ravel()
    a = np.abs(x)
    ac = np.fmin(np.fmax(a, 1e-280), 1e280)
    # x = 0 gets e = 0 and so n = 0, which prints "0"
    e = np.floor(np.log10(ac)).astype(np.int64) * (a != 0.0)
    s = ac * t.mul.take(311 - e) / t.div.take(311 - e)
    n = np.rint(s)
    exact = (a == 0.0) | ((ac == a) & (np.abs(s - n) < 0.499)
                          & (s > 1e11 + 1e-2) & (s < 1e12 - 0.5))
    n = n.astype(np.int64)
    hi = n // 100000000  # clipped below: an inexact n may pass 1e12
    n -= hi * 100000000
    mid = n // 10000
    lo = n - mid * 10000
    sig = np.maximum(np.maximum(t.sig.take(hi, mode="clip"),
                                t.sig.take(mid) + 4), t.sig.take(lo) + 8)
    ei = e + 300
    keep = np.maximum(sig, t.shown.take(ei))
    p = t.point.take(ei)
    dot = sig > p + 1
    xd = (t.digits.take(hi, mode="clip")
          | t.digits.take(mid) << np.uint64(32)) & t.ml.take(keep)
    yd = t.digits.take(lo) & t.mh.take(keep)
    ml, mh = t.ml.take(p + 1), t.mh.take(p + 1)  # the bytes before the point
    moved = xd & ~ml
    cells = np.empty((len(x), 4), "<u8")
    cells[:, 0] = t.head.take(ei + 601 * np.signbit(x))
    cells[:, 1] = (xd & ml) | moved << np.uint64(8) | t.dot_lo.take(p) * dot
    cells[:, 2] = ((yd & mh) | (yd & ~mh) << np.uint64(8)
                   | moved >> np.uint64(56) | t.dot_hi.take(p) * dot)
    last = np.arange(rows.shape[1]) == rows.shape[1] - 1
    cells[:, 3] = t.tail.take(ei + 601 * np.tile(last, rows.shape[0]))
    return cells.view(np.uint8).reshape(len(x), 32), exact


def _csv_blocks(columns):
    """The rows of the float ``columns`` as comma-joined, newline-ended
    lines, each value byte for byte ``"%.12g" % value``: one uint8 array
    per block of 1024 rows."""
    # 1024 rows at a time, stacked block by block: stacking the whole table
    # first, or 2048-row blocks, raised cli-bundle's peak RSS by 0.4-1.1 MB
    for i in range(0, len(columns[0]), 1024):
        block = np.column_stack([c[i:i + 1024] for c in columns])
        cells, exact = _g12_cells(block)
        slow = np.flatnonzero(~exact)
        if slow.size:  # the separator stays in the cell's last byte
            cells[slow, :31] = np.frombuffer(b"".join(
                ("%.12g" % v).encode().ljust(31, b"\0")
                for v in block.ravel()[slow].tolist()),
                np.uint8).reshape(-1, 31)
        flat = cells.ravel()
        yield flat[flat != 0]


def _write_csv(header: str, columns, path) -> None:
    """Write ``header`` and the rows of ``_csv_blocks(columns)`` to a path
    (ASCII with LF endings) or an open text file, block by block: no
    string of the whole file is ever built."""
    if hasattr(path, "write"):
        path.write(header + "\n")
        for block in _csv_blocks(columns):
            path.write(block.tobytes().decode("ascii"))
        return
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        for block in _csv_blocks(columns):
            fh.write(block)
