"""Exception hierarchy shared by the ladm package."""


class LadmError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LadmError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class NotTabulatedError(LadmError, KeyError):
    """No tabulated approximant exists for the requested (method, beta) pair."""

    __str__ = Exception.__str__  # the plain message, not KeyError's quoted repr


class OracleError(LadmError, RuntimeError):
    """The exact reference failed to produce a position."""
