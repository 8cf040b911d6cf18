"""Coherent-state construction in the truncated Fock basis.

One builder makes every state, an eigenstate of a lowering operator with
amplitudes z^n / (N_0 N_1...N_{n-1}).  A nonlinear (gha) state reads its
system's ladder; a linear state is the gha state of the harmonic ladder
N_n = sqrt(n + 1), whatever spectrum then evolves it.  For the bounded ladders
(type1, type2, hydrogen) the label z is already the rescaled r e^{i phi}
with r in [0, 1); the raw eigenvalue differs by sqrt(b).

The hydrogen levels are n^2-fold degenerate and are folded into a single
ket per level; that folding weights the effective ladder by n/(n+1) and the
amplitudes by an extra factor n.  The closed-form normalization constants
below belong to exactly these weighted amplitudes.
"""

from __future__ import annotations

import contextvars
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import _write_csv
from .errors import (
    ConditioningWarning,
    DegenerateSpectrumError,
    DimensionMismatchError,
    LevelOutOfRangeError,
    NonFiniteResultError,
    RadiusOfConvergenceError,
    TailBoundError,
    WrongSystemError,
    require_finite,
    require_integer,
    warn_caller,
)
from .spectrum import SpectrumModel, harmonic, ladder_coefficients

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
    """The Fock vector |n> in ``dim`` slots, 0 <= n < dim."""
    require_integer(dim=dim, n=n)
    if not 0 <= n < dim:  # also refuses every dim < 1
        raise LevelOutOfRangeError(f"basis level n = {n} is outside [0, {dim})")
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


def _check_radius(spec: SpectrumModel, r: float) -> None:
    """Raise ``RadiusOfConvergenceError`` unless 0 <= r < radius."""
    if r < 0:
        raise RadiusOfConvergenceError("r must be >= 0")
    radius = convergence_radius(spec)
    if r >= radius:
        raise RadiusOfConvergenceError(f"r = {r} is outside [0, {radius:g})")


# set while dynamics._plan builds the routes of a label it has judged: the
# builders take its verdict on r rather than judge |r e^{i phi}| again,
# which may round up to the radius
_RADIUS_JUDGED = contextvars.ContextVar("radius_judged", default=False)


def _judge_radius(spec: SpectrumModel, r: float) -> None:
    """``_check_radius``, then warn at the caller's line when r is within
    1% of the radius; neither while ``_RADIUS_JUDGED`` is set."""
    if _RADIUS_JUDGED.get():
        return
    _check_radius(spec, r)
    if r >= 0.99 * convergence_radius(spec):
        warn_caller(
            f"|z| = {r:.6g} is within 1% of the convergence radius; the "
            "normalization is nearly singular and precision degrades",
            ConditioningWarning)


_HARMONIC = harmonic()  # every linear state's ladder, N_n = sqrt(n + 1)


def _ladder_of(spec: SpectrumModel, kind: str) -> SpectrumModel:
    """The spectrum whose ladder a state of ``kind`` on ``spec`` reads."""
    if kind not in ("gha", "linear"):
        raise WrongSystemError(f"unknown state kind {kind!r}")
    if kind == "linear" and spec.system == "morse":
        raise WrongSystemError(
            "the finite Morse ladder admits no linear coherent state")
    return spec if kind == "gha" else _HARMONIC


def _amplitudes(ladder: np.ndarray, z: complex, count: int) -> np.ndarray:
    """a_k = a_{k-1} z / N_{k-1} from a_0 = 1, as one accumulate over
    [1, z, 1/N_0, z, 1/N_1, ...]: numpy rounds (a z) / N as (a z) * (1/N)
    but for signed zeros, so a vector with a zero or non-finite part past
    a_0 is redone by the loop, which also raises on a vanishing N.  On the
    positive real axis both keep every a_k at (x >= 0, +0)."""
    f = np.empty(2 * count - 1, dtype=complex)
    f[0], f[1::2] = 1.0, z
    with np.errstate(all="ignore"):
        f[2::2] = 1.0 / ladder[:count - 1]
        a = np.multiply.accumulate(f)[::2].copy()
    if np.isfinite(a).all() and ((z.imag == 0.0 and z.real > 0.0)
                                 or (a[1:].real.all() and a[1:].imag.all())):
        return a
    # past r = 40 the terms overflow here, and _coefficients raises on
    # their norm
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, count):
            step = ladder[k - 1]
            if step == 0.0:
                raise DegenerateSpectrumError(
                    f"ladder coefficient N_{k - 1} vanishes; the coherent-"
                    "state series is not defined for this spectrum")
            a[k] = a[k - 1] * z / step
    return a


def _grow(firsts: list[float], ratio: Callable[[np.ndarray], np.ndarray],
          tail: float) -> list[np.ndarray]:
    """Rows of terms first, first*rho(0), first*rho(0)*rho(1), ..., one per
    first term, each cut where the geometric majorant of its rest, valid
    once its ratio decreases (the catalog ladders are monotone), drops below
    ``tail`` relative to the row's accumulated total.

    ``ratio`` maps an index array k to the rows' ratios there, an
    (R, <= len(k)) array; it may return fewer columns, and then raises when
    asked for the next index.  It is read on 512 indices, then on three
    times all read so far, up to the cap, where every row must have
    stopped.  A row whose first term is 0 is empty.  Terms and totals
    accumulate in sequence, so each rounds as in a loop over one term at a
    time."""
    last = np.array(firsts, dtype=float)[:, None]
    total, prev = np.abs(last), np.full_like(last, math.inf)
    ends = [0 if f == 0.0 else None for f in firsts]  # None until it stops
    parts, n = [last[:, :0]], 0
    while n < _CAP and None in ends:
        rho = ratio(np.arange(n, min(max(4 * n, 512), _CAP)))
        # the chunk runs past the stop, where the loop never went: terms
        # may overflow there and 1 - rho vanish
        with np.errstate(all="ignore"):
            t = np.multiply.accumulate(np.concatenate((last, rho), axis=1),
                                       axis=1)
            tot = np.add.accumulate(
                np.concatenate((total, np.abs(t[:, 1:])), axis=1), axis=1)
            stop = ((rho < 1.0)
                    & (rho <= np.concatenate((prev, rho[:, :-1]), axis=1)
                       + 1e-15)
                    & (np.abs(t[:, :-1]) * rho / (1.0 - rho)
                       <= tail * np.maximum(tot[:, :-1], 1.0)))
        for i, j in enumerate(stop.argmax(axis=1).tolist()):
            if ends[i] is None and stop[i, j]:
                ends[i] = n + j + 1
        parts.append(t[:, :-1])
        last, total, prev = t[:, -1:], tot[:, -1:], rho[:, -1:]
        n += rho.shape[1]
    if None in ends:
        raise TailBoundError(
            f"tail bound {tail:g} not reached within {_CAP} terms")
    terms = np.concatenate(parts, axis=1)
    return [row[:end] for row, end in zip(terms, ends)]


def _adaptive_count(spec: SpectrumModel,
                    z: complex) -> tuple[int, np.ndarray]:
    """Smallest length whose analytic tail mass stays below ``_TAIL``, from
    the ratios |a_{k+1}|^2/|a_k|^2 = r^2/N_k^2, and the ladder N_0, N_1, ...
    its last chunk read: at least length - 1 long, or empty at r = 0."""
    r2 = abs(z) ** 2
    read = np.empty(0)
    if r2 == 0.0:
        return 2, read

    def ratio(k: np.ndarray) -> np.ndarray:
        nonlocal read
        # the chunk reads a steep q > 1 ladder past the stop, where q**n
        # may overflow
        with np.errstate(over="ignore"):
            read = state_ladder(spec, int(k[-1]) + 1)
            step = read[k[0]:]
            zero = np.flatnonzero(step == 0.0)
            if zero.size:  # stop short of N_k = 0, and raise on reaching it
                if zero[0] == 0:
                    raise DegenerateSpectrumError(
                        f"ladder coefficient N_{k[0]} vanishes below the "
                        "requested dim")
                step = step[:zero[0]]
            return r2 / (step * step)[None]

    [terms] = _grow([1.0], ratio, _TAIL)
    return max(len(terms), 2), read


# ---------------------------------------------------------------------------
# constructors

def _coefficients(spec: SpectrumModel, z: complex, dim: int | None,
                  within: SpectrumModel | None = None) -> np.ndarray:
    """Both constructors' body: the normalized eigenstate coefficients.  A
    state of an infinite ladder must fit a finite ``within``, checked here
    alone, from the one tail pass and before the amplitudes are formed."""
    z = complex(z)
    require_finite(z=z)
    if dim is not None:
        require_integer(dim=dim)
    r = abs(z)
    _judge_radius(spec, r)
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
        a[:support] = _amplitudes(state_ladder(spec, support - 1), zr, support)
    else:
        needed, ladder = _adaptive_count(spec, zr)
        dim = needed if dim is None else dim
        if within is not None and within.max_level is not None \
                and dim > within.max_level + 1:
            raise WrongSystemError(
                f"the finite {within.system} ladder holds "
                f"{within.max_level + 1} levels; the linear coherent state at "
                f"|z| = {r:.6g} needs {dim}")
        if dim < needed:
            raise TailBoundError(
                f"dim = {dim} leaves more than {_TAIL:g} analytic tail mass "
                f"at |z| = {r:.6g}; need at least {needed}")
        if len(ladder) < dim - 1:  # an explicit dim past the read, or r = 0
            ladder = state_ladder(spec, dim - 1)
        a = _amplitudes(ladder, zr, dim)
    # |a|^2 overflows from r = 26.64 on for the exponential weights
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(a)
    if not math.isfinite(norm):
        raise NonFiniteResultError(
            f"coherent-state norm is {norm} at r = {r:.6g}: the amplitudes "
            "overflow")
    return a / norm


def gha_coherent_state(spec: SpectrumModel, z: complex,
                       dim: int | None = None) -> FockState:
    """Eigenstate of the system's lowering operator, as a Fock vector.

    On finite ladders the series stops one slot below the top level and the
    returned vector carries an explicit zero there, so it composes directly
    with the full (n_max + 1)-dimensional representation.  For infinite
    ladders ``dim`` defaults to the smallest truncation whose analytic tail
    mass is below 1e-14; an explicit smaller ``dim`` is an error.
    """
    return FockState(_coefficients(spec, z, dim), spec.index_offset,
                     spec.system, kind="gha")


def linear_coherent_state(z: complex, dim: int | None = None,
                          index_offset: int = 0, *,
                          within: SpectrumModel | None = None) -> FockState:
    """Exponential-weight coherent state: the harmonic ladder's gha state.

    ``within`` names the spectrum that will evolve the state; a finite one
    refuses a state longer than its ladder with ``WrongSystemError``.
    """
    return FockState(_coefficients(_HARMONIC, z, dim, within),
                     index_offset, "linear", kind="linear")


# ---------------------------------------------------------------------------
# closed forms and checks

def closed_form_normalization(spec: SpectrumModel, r: float) -> float:
    """Closed-form normalization constant N(r) of the nonlinear state.

    Defined as the factor multiplying the unnormalized series, i.e. the
    reciprocal of the series norm; the numerically normalized vector must
    reproduce it to 1e-10 relative.  Where the Morse sum overflows, N^2
    lies below the float range and ``NonFiniteResultError`` is raised.
    """
    require_finite(r=r)
    _check_radius(spec, r)
    s = spec.system
    x = r * r
    if s == "type1":
        return 1.0 - x
    if s == "type2":
        return math.sqrt((1.0 - x) ** 3 / (1.0 + x))
    if s == "hydrogen":
        return _hydrogen_norm(x)
    if s == "morse":
        # the terms x^n / prod_{j<=n} j (2p - j) and their sum, in sequence
        n = np.arange(1, spec.max_level)
        with np.errstate(over="ignore"):
            total = np.add.accumulate(np.multiply.accumulate(
                np.concatenate(([1.0], x / (n * (2.0 * spec.p - n))))))[-1]
        if math.isinf(total):
            raise NonFiniteResultError(
                f"the Morse normalization sum overflows at r = {r:.6g}: N^2 "
                "is below the float range")
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
    # terms and sums in sequence, to the first term below 1e-18 of its sum:
    # for x <= 0.1 each is at most a tenth of the last, from 0.005 at most
    k = np.arange(4.0, 21.0)
    terms = 12.0 * np.multiply.accumulate(np.append(x * x, np.full(16, x))) \
        / (k * (k - 1) * (k - 2) * (k - 3))
    s = np.add.accumulate(np.append(1.0 + (7.0 / 3.0) * x, terms))[1:]
    return math.sqrt((1.0 - x) ** 3 / s[np.argmax(terms < 1e-18 * s)])


def eigenstate_residual(spec: SpectrumModel, state: FockState,
                        z: complex) -> float:
    """|| (Op - z) |state> || for the lowering operator the state targets.

    ``Op`` is the canonical D for linear states and the system's lowering
    operator for nonlinear ones (hydrogen uses its degeneracy-weighted
    ladder).  ``z`` is the same label passed to the constructor.  Finite
    ladders admit only approximate eigenstates; the residual is reported,
    not asserted.
    """
    require_finite(z=z)
    c = state.coeffs
    d = state.dim
    if state.kind == "linear":
        spec = _HARMONIC
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
    """Write (index, re, im) rows; indices carry the presentation offset.

    The index goes through the float printer too: ``%.12g`` of an integer
    below 1e12 is its ``%d``.
    """
    c = state.coeffs
    index = np.arange(len(c)) + float(state.index_offset)
    _write_csv("index,re,im", [index, c.real, c.imag], path)
