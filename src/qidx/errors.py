"""Exception hierarchy shared across the package.  A ``QidxError`` that
reaches ``qidx.cli.main`` exits 2; ``identities.check_identity`` reports a
``DomainError`` as a ``constraint-violation`` row instead of raising it."""

from __future__ import annotations


class QidxError(Exception):
    """Base class for all package-specific errors."""


class OrderExceededError(QidxError):
    """A coefficient beyond a series' known truncation order was requested."""


class DomainError(QidxError):
    """A check's parameters, base or terms lie outside the identity's domain."""


class NonUnitLeadingError(QidxError):
    """Series inversion requires an invertible lowest coefficient."""


class PoleError(DomainError):
    """A term of the form 1/(1-v) was evaluated at v = 1."""


class SymbolicNonUnitError(DomainError):
    """1/(1-v) with v a symbolic unit at q-order zero is not a Laurent series."""


class NegativeOrderArgumentError(DomainError):
    """An infinite product was given an argument of negative q-order."""


class ConstraintViolationError(DomainError):
    """A constructor or identity precondition does not hold."""


class DivergentTailError(DomainError):
    """A Lambert-type sum whose term orders do not increase cannot be truncated."""


class EmptyConstraintSetError(DomainError):
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
