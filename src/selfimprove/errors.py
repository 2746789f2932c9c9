"""Exception hierarchy shared by all modules, and their one domain
convention: an array result is NaN where a condition of the function's
table fails, and a scalar caller is told the first that does."""

import operator
from functools import reduce

import numpy as np


class SelfImproveError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(SelfImproveError, ValueError):
    """A constructor or config input violates a stated invariant."""


class DomainError(SelfImproveError, ValueError):
    """Evaluation requested outside a function's natural domain."""


class BracketError(SelfImproveError, RuntimeError):
    """A root was asked for where no sign change exists on all of [0, inf]."""


def verdicts(conditions, holds, **fields):
    """Where all of ``holds`` (one per message of ``conditions``) are true,
    and per point the first message whose condition fails there, formatted
    with the point's ``fields`` as floats, else ``None``: scalars at a
    scalar point, arrays otherwise (the messages an object array)."""
    ok = np.asarray(reduce(operator.and_, holds))
    reasons = np.full(ok.shape, None, dtype=object)
    if not ok.all():
        failed = np.flatnonzero(~ok)
        at = [np.broadcast_to(v, ok.shape).ravel()[failed].tolist()
              for v in (*holds, *fields.values())]
        for k, first in enumerate(np.argmin(at[:len(holds)], axis=0).tolist()):
            reasons.flat[failed[k]] = conditions[first].format(
                **{name: column[k] for name, column in zip(fields, at[len(holds):])})
    return ok[()], reasons[()]


def masked(conditions, holds, value, **fields):
    """``value`` where all of ``holds`` are true and NaN elsewhere; at a
    scalar point a Python float, or ``DomainError`` with the message
    ``verdicts`` gives."""
    ok = np.asarray(reduce(operator.and_, holds))
    if ok.ndim:
        return np.where(ok, value, np.nan)
    if not ok:
        raise DomainError(verdicts(conditions, holds, **fields)[1])
    return float(value)
