"""Plain-text files: key=value configuration in, UTF-8 text with LF out.

Grammar: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines are ignored, keys are case-insensitive.  Values stay strings; callers
cast.  Keys are the command-line flag names with ``_`` for ``-``, or one
of the spellings in ``_ALIASES``.
"""

from __future__ import annotations

import os

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
    """Build a spectrum from a config path, text, or parsed mapping (where
    a None value counts as unset).

    A Morse well takes ``override_p``, else ``override_nu``, else ``p``,
    else the constants ``beta``, ``v0`` (eV) and ``mr``, which alone set
    its time scale ``omega``.
    """
    if isinstance(source, dict):
        raw = source
    elif isinstance(source, str) and "=" in source:
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
