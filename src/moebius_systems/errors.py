"""Exception types shared across the package."""


class MoebiusError(Exception):
    """Base class for all errors raised by this library."""


class SingularMatrix(MoebiusError):
    """Matrix has (numerically) zero determinant."""


class NotDiscPreserving(MoebiusError):
    """Matrix does not define a map of the unit disc onto itself."""


class OrientationReversing(MoebiusError):
    """Real-line matrix with negative determinant (flips the half planes)."""


class IsRotation(MoebiusError):
    """Operation undefined for rotations (no expansion geometry)."""


class EmptyArcSet(MoebiusError):
    """Operation requires a nonempty arc set."""


class BudgetExceeded(MoebiusError):
    """Enumeration exceeded its candidate budget."""


class IllegalPrefix(MoebiusError):
    """A word left the interval shift at a digit that the subshift forbids
    there; its subclass EmptyRefinedSet is the other way out."""


class EmptyRefinedSet(IllegalPrefix):
    """A word left the interval shift at a digit whose step empties its
    refined set."""


class NoLegalDigit(MoebiusError):
    """Decoder found no admissible digit; carries diagnostic context."""

    def __init__(self, message, angle=None, word=None, candidates=None):
        super().__init__(message)
        self.angle = angle
        self.word = word
        self.candidates = candidates


class ParamOutOfRange(MoebiusError):
    """Parameter outside its admissible range."""


class ConfigError(MoebiusError):
    """Malformed system definition."""
