"""Exception and warning types shared across the package, and the one
finite-input check."""

import cmath


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
    """Series tail cannot be brought under the requested bound (dim too small
    or the hard truncation cap was reached)."""


class NegativeVarianceError(GhaError, RuntimeError):
    """A variance came out negative beyond numerical tolerance."""


class ImaginaryResidualError(GhaError, RuntimeError):
    """Expectation value of a Hermitian operator has a non-negligible
    imaginary part."""


class NonFiniteResultError(GhaError, RuntimeError):
    """A computed result is not finite: an overflow or underflow upstream."""


class UncertaintyFloorError(GhaError, RuntimeError):
    """An uncertainty product fell below hbar/2 beyond tolerance."""


class ConditioningWarning(UserWarning):
    """Parameters close to a divergence; results may lose precision."""


class ClampWarning(UserWarning):
    """A marginally negative variance was clamped to zero."""


def require_finite(**values: complex) -> None:
    """Raise ``InvalidParameterError`` naming the first non-finite value."""
    for name, value in values.items():
        if not cmath.isfinite(value):
            raise InvalidParameterError(f"{name} must be finite, got {value!r}")
