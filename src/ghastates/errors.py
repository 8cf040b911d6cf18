"""Exception and warning types shared across the package, and the input
checks every entry point shares."""

import cmath
import numbers
import sys
import warnings


class GhaError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(GhaError, ValueError):
    """A model parameter violates its domain (e.g. q <= 0, integer Morse p)."""


class LevelOutOfRangeError(GhaError, IndexError):
    """A level index beyond the spectrum's defined range was requested."""


class DomainError(GhaError, ValueError):
    """Argument outside the domain of the level-recurrence map."""


class NegativeGapError(GhaError, ValueError):
    """A level gap below the ground energy; the ladder coefficient is undefined."""


class DegenerateSpectrumError(GhaError, ValueError):
    """A vanishing ladder coefficient blocks the coherent-state recurrence."""


class DimensionMismatchError(GhaError, ValueError):
    """Requested representation dimension is incompatible with the spectrum."""


class ShapeMismatchError(GhaError, ValueError):
    """Matrix operands do not share the same square shape."""


class WrongSystemError(GhaError, ValueError):
    """Operation is not defined for this system tag."""


class RadiusOfConvergenceError(GhaError, ValueError):
    """Coherent-state label outside the convergence disk of the series."""


class TailBoundError(GhaError, RuntimeError):
    """Series tail cannot be brought under the 1e-14 bound (dim too small or
    the hard truncation cap was reached)."""


class NegativeVarianceError(GhaError, RuntimeError):
    """A variance came out negative beyond numerical tolerance."""


class ImaginaryResidualError(GhaError, RuntimeError):
    """Expectation value of a Hermitian operator has a non-negligible
    imaginary part, or the stored bands of such an operator are not
    Hermitian (a sub-band differs from the conjugate of its super-band)."""


class NonFiniteResultError(GhaError, RuntimeError):
    """A computed result is not finite: an overflow or underflow upstream."""


class UncertaintyFloorError(GhaError, RuntimeError):
    """An uncertainty product fell below hbar/2 beyond tolerance."""


class ConditioningWarning(UserWarning):
    """Parameters close to a divergence; results may lose precision."""


class ClampWarning(UserWarning):
    """A marginally negative variance was clamped to zero."""


def warn_caller(message: str, category: type[Warning]) -> None:
    """Warn at the first frame outside this package, the caller's line; a
    dataclass ``__init__`` counts as its module's."""
    frame, level, inside = sys._getframe(1), 2, __package__ + "."
    while frame and frame.f_globals.get("__name__", "").startswith(inside):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


def require_finite(**values: complex) -> None:
    """Raise ``InvalidParameterError`` naming the first non-finite value."""
    for name, value in values.items():
        if not cmath.isfinite(value):
            raise InvalidParameterError(f"{name} must be finite, got {value!r}")


def require_positive(**values: float) -> None:
    """Raise ``InvalidParameterError`` unless every value is finite and > 0."""
    require_finite(**values)
    for name, value in values.items():
        if not value > 0:
            raise InvalidParameterError(f"{name} must be positive, got {value!r}")


def require_integer(**values) -> None:
    """Raise ``InvalidParameterError`` naming the first non-integer value."""
    for name, value in values.items():
        if not isinstance(value, numbers.Integral):
            raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
