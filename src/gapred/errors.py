"""Shared exception types."""


class GapredError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GapredError):
    """An instance file could not be parsed."""


class ValidationError(GapredError):
    """An instance or parameter set violates its invariants."""


class BudgetExceededError(GapredError):
    """A solver ran out of its node or wall-clock budget."""


class SizeCapError(GapredError):
    """A transformation would exceed its configured size cap."""


class ReductionError(GapredError):
    """A transformation precondition failed (e.g. missing projection property)."""


class GenerationError(GapredError):
    """Rejection sampling or exhaustive search could not produce an instance."""


class LedgerError(GapredError):
    """A ledger entry or gap map is malformed."""
