"""Exception types shared across the package.

Every error raised by library code for bad input derives from AlgebraError,
so callers (and the CLI) can separate mathematical precondition failures
from plain bugs.  InvariantViolated is the one bug the library reports
itself: a certificate check that failed on the library's own output.
"""


class AlgebraError(Exception):
    pass


class InvariantViolated(AssertionError):
    """A certificate check failed; unlike ``assert``, it still runs under
    ``python -O``."""


# -- fields ----------------------------------------------------------------

class FieldMismatch(AlgebraError):
    pass


class ZeroPolynomial(AlgebraError):
    pass


class CapacityExceeded(AlgebraError):
    """Integer data in a computation exceeded the configured bit bound."""


# -- linalg ----------------------------------------------------------------

class NotSquare(AlgebraError):
    pass


class SizeMismatch(AlgebraError):
    pass


class NotInvertible(AlgebraError):
    pass


# -- operators ---------------------------------------------------------------

class NegativeIndexLeak(AlgebraError):
    """An operator band would write to a negative row index."""


class WrongField(AlgebraError):
    pass


# -- idempotents -------------------------------------------------------------

class InvalidFamily(AlgebraError):
    pass


class NotSummable(AlgebraError):
    pass


class NonCommuting(AlgebraError):
    pass


class UnrepresentableSum(AlgebraError):
    """A symbolic idempotent sum does not fit the banded operator class."""


# -- treegen -----------------------------------------------------------------

class TruncationTooSmall(AlgebraError):
    pass


class VerifyFailed(AlgebraError):
    pass


# -- funcalg -----------------------------------------------------------------

class NotAlgebraHom(AlgebraError):
    pass


class DoesNotSplitSimply(AlgebraError):
    pass


class UnsupportedCharCase(AlgebraError):
    """Radical over F_p is only implemented for commutative algebras."""


class NotAssociative(AlgebraError):
    pass


# -- text formats --------------------------------------------------------------

class ParseError(AlgebraError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
