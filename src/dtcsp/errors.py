"""Exception types shared across the package."""


class DtcspError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(DtcspError):
    """Malformed .dtl or .dti input, with 1-based source position."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + where)


class ArityError(ParseError):
    """A literal references a variable index outside the declared arity."""


class DuplicateNameError(ParseError):
    """Two relations in one language share a name."""


class MissingVariableError(DtcspError):
    """An evaluation touched a variable the assignment does not cover."""


class BudgetExceeded(DtcspError):
    """An enumeration would exceed the configured work budget."""


class SizeLimitExceeded(BudgetExceeded):
    """Normal-form expansion grew past the configured literal budget."""


class NotHornError(DtcspError):
    """A constraint uses a relation that has no Horn definition."""

    def __init__(self, relation, message=None):
        self.relation = relation
        super().__init__(message or f"relation {relation!r} has no Horn definition")


class InternalError(DtcspError):
    """A solver produced a result that failed re-verification."""
