"""Exception types shared across the package."""


class SkeinError(Exception):
    """Base class for all package-specific errors."""


class BackendMismatch(SkeinError):
    """Two scalars (or a scalar and a structure) live in incompatible root systems."""


class UnsupportedExactOperation(SkeinError):
    """Operation requires root extraction not available in the exact backend."""


class VanishingDivisor(SkeinError, ZeroDivisionError):
    """A divisor is zero: exactly in Q(A), below the bigfloat zero threshold, or an LU pivot."""


class NonFiniteScalar(SkeinError):
    """A bigfloat value with an inf or nan part, refused where it enters a root system."""


class DegenerateShadow(SkeinError):
    """A trace parameter sits at +/-2, where the eigenvalue ladder collapses."""


class VanishingCycle(SkeinError):
    """The scalar by which the full N-step ladder cycle acts is zero."""


class IncompatiblePuncture(SkeinError):
    """Puncture invariant violates the trace compatibility equation of the shadow."""


class NoConsistentRoot(SkeinError):
    """Neither root of the normalization quadratic reproduces both target traces."""


class NonScalarChebyshev(SkeinError):
    """T_N of a generator image is not a scalar matrix; the representation is not generic."""


class EigenstructureMismatch(SkeinError):
    """Matrix does not have the eigenvalue layout expected for the chosen gauge."""


class ParseError(SkeinError):
    """Syntax error in the expression DSL.  Carries the offending position."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


class UnknownGenerator(ParseError):
    """Generator name not in the vocabulary of the surface."""


class ExponentOverflow(SkeinError):
    """Monomial exponent exceeded the safety cap."""
