"""Exception hierarchy shared by all modules."""


class SelfImproveError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(SelfImproveError, ValueError):
    """A constructor or config input violates a stated invariant."""


class DomainError(SelfImproveError, ValueError):
    """Evaluation requested outside a function's natural domain."""


class BracketError(SelfImproveError, RuntimeError):
    """A root was asked for where no sign change exists on all of [0, inf]."""
