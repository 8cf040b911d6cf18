"""Energy-spectrum catalog and ladder coefficients.

Each quantum system is described by its levels ``eps_n`` together with the
analytic map ``f`` connecting successive levels, ``eps_{n+1} = f(eps_n)``.
Selecting ``f`` selects the system; the ladder coefficients follow from
``N_n^2 = f(eps_n) - eps_0``.  The energy constant ``b`` is part of each
level (type1 has eps_n = b n/(n+1)), so levels are stored in the unit ``b``
is given in, not in units of ``b``; the Morse well is stored in units of
``hbar^2 beta^2 / 2 m_r``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InvalidParameterError,
    LevelOutOfRangeError,
    NegativeGapError,
    WrongSystemError,
    require_finite,
    require_positive,
)

# CODATA values used only at the physical-input boundary.
HBAR = 1.054571817e-34  # J s
EV = 1.602176634e-19    # J

CATALOG = ("harmonic", "q_deformed", "square_well", "type1", "type2",
           "hydrogen", "morse")


@dataclass(frozen=True)
class SpectrumModel:
    """Immutable description of one energy spectrum.

    Fields not applicable to a system are left at ``None``.  ``max_level``
    is set for finite ladders (Morse, tabulated spectra); ``omega`` records
    the dimensionful time scale in rad/s when the model was built from
    physical Morse constants.
    """

    system: str
    b: float = 1.0
    q: float | None = None
    p: float | None = None
    energies: tuple[float, ...] | None = None
    max_level: int | None = None
    index_offset: int = 0
    omega: float | None = None


@dataclass(frozen=True)
class MorsePhysicalParams:
    """Dimensionful Morse-well constants.

    ``V0`` is the well depth in joules, ``beta`` the inverse width in 1/m,
    ``m_r`` the reduced mass in kg; hbar is the SI constant ``HBAR``.
    """

    beta: float
    V0: float
    m_r: float

    def __post_init__(self) -> None:
        require_positive(beta=self.beta, V0=self.V0, m_r=self.m_r)

    @property
    def nu(self) -> float:
        """Dimensionless well-depth parameter sqrt(8 m_r V0 / beta^2 hbar^2)."""
        return math.sqrt(8.0 * self.m_r * self.V0 / (self.beta * HBAR) ** 2)

    @property
    def omega(self) -> float:
        """Time scale hbar beta^2 / (2 m_r) in rad/s."""
        return HBAR * self.beta ** 2 / (2.0 * self.m_r)


# ---------------------------------------------------------------------------
# constructors

def harmonic() -> SpectrumModel:
    return SpectrumModel(system="harmonic")


def q_deformed(q: float) -> SpectrumModel:
    require_finite(q=q)
    if q <= 0:
        raise InvalidParameterError("deformation parameter q must be > 0")
    return SpectrumModel(system="q_deformed", q=float(q))


def square_well(b: float = 1.0) -> SpectrumModel:
    """Infinite well with levels b (n+1)^2; the ground level sits at b."""
    require_positive(b=b)
    return SpectrumModel(system="square_well", b=float(b))


def type1(b: float = 1.0) -> SpectrumModel:
    """Bounded ladder eps_n = b n/(n+1)."""
    require_positive(b=b)
    return SpectrumModel(system="type1", b=float(b), index_offset=1)


def type2(b: float = 1.0) -> SpectrumModel:
    """Bounded ladder eps_n = b n^2/(n+1)^2."""
    require_positive(b=b)
    return SpectrumModel(system="type2", b=float(b), index_offset=1)


def hydrogen(b: float = 1.0) -> SpectrumModel:
    """Coulomb ladder; storage slot n holds the physical level n+1,
    eps_n = -b/(n+1)^2."""
    require_positive(b=b)
    return SpectrumModel(system="hydrogen", b=float(b), index_offset=1)


def morse(p: float, n_max: int | None = None,
          omega: float | None = None) -> SpectrumModel:
    """Finite Morse ladder with levels -(p-n)^2 for n = 0..n_max.

    Integer ``p`` is rejected: the top level would sit exactly at zero and
    the square-root branch of the level map degenerates.  ``n_max`` may be
    lowered below floor(p) to truncate the ladder explicitly.
    """
    p = float(p)
    require_finite(p=p)
    if p <= 0:
        raise InvalidParameterError("Morse parameter p must be > 0")
    if p == math.floor(p):
        raise InvalidParameterError(
            f"integer p = {p} is degenerate (top level at zero energy); "
            "perturb p or supply a non-integer value")
    top = math.floor(p)
    if n_max is None:
        n_max = top
    else:
        require_finite(n_max=n_max)
        if n_max != int(n_max) or not 1 <= n_max <= top:
            raise InvalidParameterError(
                f"n_max override must be an integer in [1, floor(p)] = "
                f"[1, {top}], got {n_max!r}")
        n_max = int(n_max)
    if omega is not None:
        require_positive(omega=omega)
    return SpectrumModel(system="morse", p=p, max_level=n_max, omega=omega)


def from_table(energies) -> SpectrumModel:
    """Tabulated spectrum; the level map is the table shift itself."""
    table = tuple(float(e) for e in energies)
    require_finite(**{f"energies[{n}]": e for n, e in enumerate(table)})
    if len(table) < 2:
        raise InvalidParameterError("an energy table needs at least two levels")
    return SpectrumModel(system="custom", energies=table,
                         max_level=len(table) - 1)


def make_spectrum(system: str, *, b: float = 1.0, q: float | None = None,
                  p: float | None = None, n_max: int | None = None,
                  energies=None) -> SpectrumModel:
    """Build a catalog spectrum from a system tag (dashes are accepted)."""
    tag = system.strip().lower().replace("-", "_")
    if tag == "harmonic":
        return harmonic()
    if tag == "q_deformed":
        if q is None:
            raise InvalidParameterError("q_deformed requires the parameter q")
        return q_deformed(q)
    if tag == "square_well":
        return square_well(b)
    if tag == "type1":
        return type1(b)
    if tag == "type2":
        return type2(b)
    if tag == "hydrogen":
        return hydrogen(b)
    if tag == "morse":
        if p is None:
            raise InvalidParameterError("morse requires the parameter p "
                                        "(or build from physical constants)")
        return morse(p, n_max=n_max)
    if tag == "custom":
        if energies is None:
            raise InvalidParameterError("custom spectra require an energy table")
        return from_table(energies)
    raise WrongSystemError(f"unknown system tag {system!r}")


def morse_from_physical(phys: MorsePhysicalParams,
                        n_max: int | None = None) -> SpectrumModel:
    """Convert well constants to the dimensionless Morse model.

    Evaluates nu = sqrt(8 m_r V0/(beta hbar)^2) and p = (nu-1)/2 faithfully;
    callers who need a published parameterization that disagrees with the
    constants can override via ``n_max`` here or by constructing
    ``morse(p=...)`` directly.
    """
    nu = phys.nu
    if nu <= 1.0:
        raise InvalidParameterError(
            f"nu = {nu:.4g} <= 1: the well is too shallow for a bound ladder")
    return morse((nu - 1.0) / 2.0, n_max=n_max, omega=phys.omega)


# ---------------------------------------------------------------------------
# level data

def _formula(spec: SpectrumModel, n):
    """eps_n for an array ``n`` of level indices: each formula, written once."""
    s = spec.system
    if s == "harmonic" or (s == "q_deformed" and spec.q == 1.0):
        return n
    if s == "q_deformed":
        # 1 - q^n cancels where q^n is near 1; there the same ratio as
        # expm1(n log q)/expm1(log q) keeps its digits (and eps_1 = 1)
        log_q = math.log(spec.q)
        y = n * log_q  # capped for expm1, so that only q^n can overflow
        return np.where(np.abs(y) < 0.5,
                        np.expm1(np.minimum(y, 0.5)) / np.expm1(log_q),
                        (1.0 - spec.q ** n) / (1.0 - spec.q))
    if s == "square_well":
        return spec.b * (n + 1) ** 2
    if s == "type1":
        return spec.b * n / (n + 1)
    if s == "type2":
        return spec.b * n * n / ((n + 1) * (n + 1))
    if s == "hydrogen":
        return -spec.b / ((n + 1) * (n + 1))
    if s == "morse":
        return -((spec.p - n) ** 2)
    if s == "custom":
        return np.asarray(spec.energies)[n.astype(int)]
    raise WrongSystemError(f"unknown system tag {s!r}")


def _levels(spec: SpectrumModel, start: int, stop: int) -> np.ndarray:
    # an array even for one level, as numpy's pow rounds unlike libm's; float
    # indices are exact up to 2^53, and int64 products like (n+1)^2 wrap
    if start < 0:
        raise LevelOutOfRangeError(f"level index must be >= 0, got {start}")
    if spec.max_level is not None and stop - 1 > spec.max_level:
        raise LevelOutOfRangeError(
            f"level {stop - 1} beyond the top level n_max = {spec.max_level}")
    return _formula(spec, np.arange(start, stop, dtype=float))


def _ladder(spec: SpectrumModel, start: int, stop: int) -> np.ndarray:
    eps = _levels(spec, start, stop + 1)
    gaps = eps[1:] - (eps[0] if start == 0 else energy(spec, 0))
    below = np.flatnonzero(gaps < 0)
    if below.size:
        k = below[0]
        raise NegativeGapError(
            f"eps_{start + k + 1} lies below the ground energy (gap "
            f"{gaps[k]:.3g}); the spectrum is inconsistent with a ladder "
            "representation")
    return np.sqrt(gaps)


def levels(spec: SpectrumModel, count: int) -> np.ndarray:
    """The levels eps_0 .. eps_{count-1} as one array."""
    return _levels(spec, 0, count)


def ladder_coefficients(spec: SpectrumModel, count: int) -> np.ndarray:
    """N_0 .. N_{count-1}, with N_n = sqrt(eps_{n+1} - eps_0)."""
    return _ladder(spec, 0, count)


def energy(spec: SpectrumModel, n: int) -> float:
    """Level ``n``; equal to the bit to ``levels(spec, k)[n]`` for k > n."""
    return float(_levels(spec, n, n + 1)[0])


def characteristic_fn(spec: SpectrumModel, x: float) -> float:
    """The raw analytic level map f with eps_{n+1} = f(eps_n).

    This is the unrestricted map; the finite-ladder wrap of the Morse system
    applies only through :func:`next_energy`.
    """
    require_finite(x=x)
    s = spec.system
    b = spec.b
    if s == "harmonic":
        return x + 1.0
    if s == "q_deformed":
        return spec.q * x + 1.0
    if s == "square_well":
        if x < 0:
            raise DomainError("square-well map needs x >= 0")
        return (math.sqrt(x) + math.sqrt(b)) ** 2
    if s == "type1":
        if x == 2.0 * b:
            raise DomainError("type1 map has a pole at x = 2b")
        return b * b / (2.0 * b - x)
    if s == "type2":
        if x < 0:
            raise DomainError("type2 map needs x >= 0")
        den = 2.0 * math.sqrt(b) - math.sqrt(x)
        if den == 0.0:
            raise DomainError("type2 map has a pole at x = 4b")
        return b * b / (den * den)
    if s == "hydrogen":
        if x >= 0:
            raise DomainError("hydrogen map needs x < 0")
        den = math.sqrt(b) + math.sqrt(-x)
        return b * x / (den * den)
    if s == "morse":
        if x >= 0:
            raise DomainError("Morse map needs x < 0")
        return x + 2.0 * math.sqrt(-x) - 1.0
    if s == "custom":
        return _table_next(spec, x)
    raise WrongSystemError(f"unknown system tag {s!r}")


def _table_next(spec: SpectrumModel, x: float) -> float:
    # The tabulated map is defined only on the stored levels themselves.
    for n, e in enumerate(spec.energies[:-1]):
        if math.isclose(x, e, rel_tol=1e-9, abs_tol=1e-12):
            return spec.energies[n + 1]
    raise DomainError(f"x = {x!r} is not a tabulated level with a successor")


def next_energy(spec: SpectrumModel, n: int) -> float:
    """f(eps_n): the level above ``n``, with the finite-ladder wrap.

    For the Morse system the map is overridden at the top so the raising
    operator annihilates the highest state: f(eps_nmax) = eps_0.
    """
    if spec.system == "morse" and n == spec.max_level:
        return energy(spec, 0)
    return float(_levels(spec, n, n + 2)[1])


def ladder_coefficient(spec: SpectrumModel, n: int) -> float:
    """N_n = sqrt(eps_{n+1} - eps_0), the raising matrix element at level n."""
    return float(_ladder(spec, n, n + 1)[0])


def iterate_characteristic(spec: SpectrumModel, n: int) -> float:
    """n-fold application of the level map to the ground energy.

    Agrees with :func:`energy` on the whole ladder; the two routes differ
    only by floating-point round-off.
    """
    _levels(spec, n, n + 1)  # range check
    x = energy(spec, 0)
    for _ in range(n):
        x = characteristic_fn(spec, x)
    return x


def nilpotency_index(spec: SpectrumModel) -> int | None:
    """Smallest s with (raising operator)^s = 0, or None for infinite ladders."""
    if spec.system == "morse":
        return spec.max_level + 1
    return None
