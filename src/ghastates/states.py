"""Coherent-state construction in the truncated Fock basis.

Two families are built here.  The nonlinear family consists of eigenstates
of the system's lowering operator A, with amplitudes z^n / (N_0 N_1...N_{n-1});
the linear family consists of eigenstates of the canonical lowering operator
D, with the usual exponential-weight amplitudes.  For the bounded ladders
(type1, type2, hydrogen) the label z is already the rescaled r e^{i phi}
with r in [0, 1); the raw eigenvalue differs by sqrt(b).

The hydrogen levels are n^2-fold degenerate and are folded into a single
ket per level; that folding weights the effective ladder by n/(n+1) and the
amplitudes by an extra factor n.  The closed-form normalization constants
below belong to exactly these weighted amplitudes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import _write_lines
from .errors import (
    ConditioningWarning,
    DegenerateSpectrumError,
    DimensionMismatchError,
    NonFiniteResultError,
    RadiusOfConvergenceError,
    TailBoundError,
    WrongSystemError,
    require_finite,
)
from .spectrum import SpectrumModel, ladder_coefficients

_TAIL = 1e-14
_CAP = 2000  # most levels of a state, or terms of a series
_NORM_TOL = 1e-12


@dataclass(frozen=True)
class FockState:
    """Normalized coefficient vector over Fock basis slots.

    ``index_offset`` is the presentation label of the first slot (1 for the
    systems whose conventional level labels start at 1); it never affects
    storage or dynamics.
    """

    coeffs: np.ndarray
    index_offset: int
    spectrum_id: str
    kind: str = "gha"

    def __post_init__(self) -> None:
        c = np.ascontiguousarray(self.coeffs, dtype=complex)
        norm = float(np.linalg.norm(c))
        if not abs(norm - 1.0) <= _NORM_TOL:  # also rejects NaN
            raise DimensionMismatchError(
                f"state vector norm {norm!r} differs from 1 beyond 1e-12")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]


def basis_state(dim: int, n: int = 0, index_offset: int = 0,
                spectrum_id: str = "harmonic") -> FockState:
    c = np.zeros(dim, dtype=complex)
    c[n] = 1.0
    return FockState(c, index_offset, spectrum_id, kind="basis")


# ---------------------------------------------------------------------------
# ladders and convergence

def state_ladder(spec: SpectrumModel, count: int) -> np.ndarray:
    """Effective ladder coefficients the coherent-state recurrence divides by.

    Equal to the algebra's N_n for every system except hydrogen, whose
    degeneracy folding multiplies N_n by (n+1)/(n+2).
    """
    ladder = ladder_coefficients(spec, count)
    if spec.system == "hydrogen":
        n = np.arange(count)
        ladder = ladder * (n + 1) / (n + 2)
    return ladder


def raw_eigenvalue(spec: SpectrumModel, z: complex) -> complex:
    """Map the user-facing label to the lowering-operator eigenvalue.

    The rescaled label of the bounded ladders absorbs sqrt(b); elsewhere
    the label is used as-is.
    """
    if spec.system in ("type1", "type2", "hydrogen"):
        return complex(z) * math.sqrt(spec.b)
    return complex(z)


def convergence_radius(spec: SpectrumModel) -> float:
    """Radius of the coherent-state series in the user-facing label."""
    if spec.system in ("type1", "type2", "hydrogen"):
        return 1.0
    if spec.system == "q_deformed" and spec.q < 1.0:
        # the ladder coefficients saturate at sqrt(1/(1-q))
        return math.sqrt(1.0 / (1.0 - spec.q))
    return math.inf


def _check_label(spec: SpectrumModel, z: complex) -> None:
    radius = convergence_radius(spec)
    if math.isinf(radius):
        return
    r = abs(z)
    if r >= radius:
        raise RadiusOfConvergenceError(
            f"|z| = {r:.6g} is outside the convergence disk "
            f"(radius {radius:.6g}) for system {spec.system!r}")
    if r >= 0.99 * radius:
        warnings.warn(
            f"|z| = {r:.6g} is within 1% of the convergence radius; the "
            "normalization is nearly singular and precision degrades",
            ConditioningWarning, stacklevel=3)


def _amplitudes(ladder: np.ndarray, z: complex, count: int) -> np.ndarray:
    a = np.empty(count, dtype=complex)
    a[0] = 1.0
    for k in range(1, count):
        step = ladder[k - 1]
        if step == 0.0:
            raise DegenerateSpectrumError(
                f"ladder coefficient N_{k - 1} vanishes; the coherent-state "
                "series is not defined for this spectrum")
        a[k] = a[k - 1] * z / step
    return a


def _grow(first: float, ratio: Callable[[int], float], k0: int,
          tail: float) -> list[float]:
    """Terms first, first*ratio(k0), ... until the geometric majorant of
    the rest, valid once the ratio decreases (the catalog ladders are
    monotone), drops below ``tail`` relative to the accumulated total."""
    if first == 0.0:
        return []
    terms = [first]
    total = abs(first)
    prev = math.inf
    k = k0
    while True:
        rho = ratio(k)
        if rho < 1.0 and rho <= prev + 1e-15:
            if abs(terms[-1]) * rho / (1.0 - rho) <= tail * max(total, 1.0):
                return terms
        if len(terms) >= _CAP:
            raise TailBoundError(
                f"tail bound {tail:g} not reached within {_CAP} terms")
        terms.append(terms[-1] * rho)
        total += abs(terms[-1])
        prev = rho
        k += 1


def _adaptive_count(spec: SpectrumModel, z: complex, tail: float) -> int:
    """Smallest length whose analytic tail mass stays below ``tail``, from
    the ratios |a_{k+1}|^2/|a_k|^2 = r^2/N_k^2."""
    r2 = abs(z) ** 2
    if r2 == 0.0:
        return 2
    # the ladder in doubling chunks: a long one could overflow for q > 1
    ladder = state_ladder(spec, 2)

    def ratio(k: int) -> float:
        nonlocal ladder
        if k == len(ladder):
            ladder = state_ladder(spec, min(2 * k, _CAP))
        step = ladder[k]
        if step == 0.0:
            raise DegenerateSpectrumError(
                f"ladder coefficient N_{k} vanishes below the requested dim")
        return r2 / (step * step)

    return max(len(_grow(1.0, ratio, 0, tail)), 2)


def _fit_dim(needed: int, dim: int | None, z: complex, tail: float) -> int:
    if dim is None:
        return needed
    if dim < needed:
        raise TailBoundError(
            f"dim = {dim} leaves more than {tail:g} analytic tail mass "
            f"at |z| = {abs(z):.6g}; need at least {needed}")
    return dim


def _normalized(a: np.ndarray, z: complex) -> np.ndarray:
    # |a|^2 overflows from r = 26.64 on for the exponential weights
    norm = np.linalg.norm(a)
    if not math.isfinite(norm):
        raise NonFiniteResultError(
            f"coherent-state norm is {norm} at r = {abs(z):.6g}: the "
            "amplitudes overflow")
    return a / norm


# ---------------------------------------------------------------------------
# constructors

def gha_coherent_state(spec: SpectrumModel, z: complex,
                       dim: int | None = None, *,
                       tail: float = _TAIL) -> FockState:
    """Eigenstate of the system's lowering operator, as a Fock vector.

    On finite ladders the series stops one slot below the top level and the
    returned vector carries an explicit zero there, so it composes directly
    with the full (n_max + 1)-dimensional representation.  For infinite
    ladders ``dim`` defaults to the smallest truncation whose analytic tail
    mass is below ``tail``; an explicit smaller ``dim`` is an error.
    """
    z = complex(z)
    require_finite(z=z)
    _check_label(spec, z)
    zr = raw_eigenvalue(spec, z)

    if spec.max_level is not None:
        support = spec.max_level if spec.system == "morse" else spec.max_level + 1
        full = spec.max_level + 1
        if dim is not None and dim != full:
            raise DimensionMismatchError(
                f"finite ladder states live in dim = n_max + 1 = {full}")
        if support < 1:
            raise DegenerateSpectrumError("the ladder has no room for a "
                                          "coherent state below its top level")
        a = np.zeros(full, dtype=complex)
        a[:support] = _amplitudes(state_ladder(spec, max(support - 1, 0)),
                                  zr, support)
    else:
        dim = _fit_dim(_adaptive_count(spec, zr, tail), dim, z, tail)
        a = _amplitudes(state_ladder(spec, dim - 1), zr, dim)

    return FockState(_normalized(a, z), spec.index_offset, spec.system,
                     kind="gha")


def linear_coherent_state(z: complex, dim: int | None = None,
                          index_offset: int = 0, *,
                          tail: float = _TAIL) -> FockState:
    """Exponential-weight coherent state; independent of any spectrum."""
    z = complex(z)
    require_finite(z=z)
    r2 = abs(z) ** 2
    needed = max(len(_grow(1.0, lambda k: r2 / (k + 1), 0, tail)), 2)
    dim = _fit_dim(needed, dim, z, tail)
    ladder = np.sqrt(np.arange(1, dim, dtype=float))
    a = _amplitudes(ladder, z, dim)
    return FockState(_normalized(a, z), index_offset, "linear",
                     kind="linear")


# ---------------------------------------------------------------------------
# closed forms and checks

def closed_form_normalization(spec: SpectrumModel, r: float) -> float:
    """Closed-form normalization constant N(r) of the nonlinear state.

    Defined as the factor multiplying the unnormalized series, i.e. the
    reciprocal of the series norm; the numerically normalized vector must
    reproduce it to 1e-10 relative.
    """
    if r < 0:
        raise RadiusOfConvergenceError("r must be >= 0")
    s = spec.system
    if s in ("type1", "type2", "hydrogen") and r >= 1.0:
        raise RadiusOfConvergenceError(f"r = {r} is outside [0, 1)")
    x = r * r
    if s == "type1":
        return 1.0 - x
    if s == "type2":
        return math.sqrt((1.0 - x) ** 3 / (1.0 + x))
    if s == "hydrogen":
        return _hydrogen_norm(x)
    if s == "morse":
        total = 0.0
        term = 1.0
        for n in range(spec.max_level):
            if n > 0:
                term *= x / (n * (2.0 * spec.p - n))
            total += term
        return 1.0 / math.sqrt(total)
    if s == "harmonic":
        return math.exp(-0.5 * x)
    raise WrongSystemError(
        f"no closed-form normalization for system {s!r}")


def _hydrogen_norm(x: float) -> float:
    """N(r)^2 = x^2 (1-x)^3 / D(x) with x = r^2 and
    D(x) = 2x(1-2x+3x^2) + 2(1-x)^3 log(1-x).

    The two pieces of D cancel to order x^2, so for small x the equivalent
    expansion D(x) = x^2 + (7/3) x^3 + 12 sum_{k>=4} x^k / (k(k-1)(k-2)(k-3))
    is summed instead of the closed form.
    """
    if x == 0.0:
        return 1.0
    if x > 0.1:
        den = 2.0 * x * (1.0 - 2.0 * x + 3.0 * x * x) \
            + 2.0 * (1.0 - x) ** 3 * math.log1p(-x)
        return math.sqrt(x * x * (1.0 - x) ** 3 / den)
    s = 1.0 + (7.0 / 3.0) * x
    term = x * x
    k = 4
    while True:
        contrib = 12.0 * term / (k * (k - 1) * (k - 2) * (k - 3))
        s += contrib
        if contrib < 1e-18 * s:
            break
        term *= x
        k += 1
    return math.sqrt((1.0 - x) ** 3 / s)


def eigenstate_residual(spec: SpectrumModel, state: FockState,
                        z: complex) -> float:
    """|| (Op - z) |state> || for the lowering operator the state targets.

    ``Op`` is the canonical D for linear states and the system's lowering
    operator for nonlinear ones (hydrogen uses its degeneracy-weighted
    ladder).  ``z`` is the same label passed to the constructor.  Finite
    ladders admit only approximate eigenstates; the residual is reported,
    not asserted.
    """
    c = state.coeffs
    d = state.dim
    if state.kind == "linear":
        ladder = np.sqrt(np.arange(1, d, dtype=float))
        zv = complex(z)
    else:
        count = min(d - 1, spec.max_level) if spec.max_level is not None else d - 1
        ladder = np.zeros(d - 1)
        ladder[:count] = state_ladder(spec, count)
        zv = raw_eigenvalue(spec, z)
    lowered = np.zeros(d, dtype=complex)
    lowered[:-1] = ladder * c[1:]
    return float(np.linalg.norm(lowered - zv * c))


def klauder_continuity_check(spec: SpectrumModel, z: complex,
                             z_prime: complex) -> float:
    """|| |z> - |z'> ||, with both states built at a common truncation."""
    a = gha_coherent_state(spec, z)
    b = gha_coherent_state(spec, z_prime)
    dim = max(a.dim, b.dim)
    if a.dim != dim:
        a = gha_coherent_state(spec, z, dim)
    if b.dim != dim:
        b = gha_coherent_state(spec, z_prime, dim)
    return float(np.linalg.norm(a.coeffs - b.coeffs))


def state_to_csv(state: FockState, path) -> None:
    """Write (index, re, im) rows; indices carry the presentation offset."""
    lines = ["index,re,im"]
    for k, c in enumerate(state.coeffs):
        lines.append(f"{k + state.index_offset},{c.real:.12g},{c.imag:.12g}")
    _write_lines(lines, path)
