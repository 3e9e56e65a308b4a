"""Exception hierarchy shared across the package."""

from __future__ import annotations


class QidxError(Exception):
    """Base class for all package-specific errors."""


class OrderExceededError(QidxError):
    """A coefficient beyond a series' known truncation order was requested."""


class NonUnitLeadingError(QidxError):
    """Series inversion requires an invertible lowest coefficient."""


class PoleError(QidxError):
    """A term of the form 1/(1-v) was evaluated at v = 1."""


class SymbolicNonUnitError(QidxError):
    """1/(1-v) with v a symbolic unit at q-order zero is not a Laurent series."""


class NegativeOrderArgumentError(QidxError):
    """An infinite product was given an argument of negative q-order."""


class ConstraintViolationError(QidxError):
    """A constructor or identity precondition does not hold."""


class DivergentTailError(QidxError):
    """A Lambert-type sum whose term orders do not increase cannot be truncated."""


class EmptyConstraintSetError(QidxError):
    """No parameter assignment satisfies an identity's constraints at this base."""


class NonIntegerResultError(QidxError):
    """An arithmetic prediction that must be an integer failed to be one."""


class ExprSyntaxError(QidxError):
    """Expression or spec-string syntax error; carries the offending offset."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


class UnknownFunctionError(QidxError):
    """An expression called a function name that is not registered."""


class ArityError(QidxError):
    """An expression called a function with the wrong number/kind of arguments."""


class UnboundParameterError(QidxError):
    """An expression referenced a parameter absent from the assignment."""
