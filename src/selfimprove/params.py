"""Theory constants shared by every module.

``TheoryParams`` holds the primitive scalars and the two confidence radii
derived from them.  It is a frozen value object, safe to share across
workers.  The budget parameter ``nu`` is not part of it: every function that
needs one takes it as a float or an array, with ``TheoryParams.default_nu``
the paper's sqrt(1/n).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ParameterError, require, verdicts

# Fold of the conjugated cubic y*(1-y)^2 = sigma^2: two roots in (0, 1) below it.
SIGMA_MAX = math.sqrt(4.0 / 27.0)

# Most difficulty levels: every map, margin and schedule costs work linear in L.
MAX_LEVELS = 1000

_CONFIG_EXTRA_KEYS = frozenset({"nu"})

# The rules on a pair of difficulty exponents, in test order.
_BETA_RULES = (
    "beta_lo must be positive",
    "beta_hi must exceed beta_lo (0 < beta_lo < beta_hi)",
    "beta_hi too large: L^(-beta_hi) underflows to zero",
)


def check_betas(L: int, beta_lo, beta_hi) -> None:
    """Validate one pair of betas (numbers), or float arrays of pairs
    broadcast together: ``ParameterError`` with the first rule of
    ``_BETA_RULES`` that the first failing pair, in order, breaks; a NaN
    compares false, so it fails them.  The curriculum divides by
    t^(-beta_hi), t < L, which must not underflow; where the first two
    rules hold, beta_hi > 0, so L^(-|beta_hi|) is that power, and it
    cannot overflow where they fail."""
    holds = (beta_lo > 0.0, beta_hi > beta_lo, np.float_power(L, -abs(beta_hi)) > 0.0)
    ok, reasons = verdicts(_BETA_RULES, holds)
    if not ok.all():
        raise ParameterError(str(np.ravel(reasons)[np.argmin(ok)]))


def _is_int(value) -> bool:
    """An ``int`` that is not a ``bool``: ``True`` is not a count of 1."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class TheoryParams:
    """Primitive model/task constants.

    ``c`` and ``gamma`` couple per-question acceptance to expected reward;
    ``beta_lo < beta_hi`` bound the power-law difficulty ratio of adjacent
    levels; ``n``/``m`` are the per-iteration question and answer budgets;
    ``L`` is the number of difficulty levels.

    The confidence radii ``c_delta`` and ``c_delta_prime`` are set once on
    construction as plain attributes, not fields, so ``asdict``, equality
    and hashing see only the eleven fields.
    """

    c: float = 0.9
    gamma: float = 0.02
    delta: float = 0.05
    delta_prime: float = 0.05
    pi_size: int = 1000
    tau: float = 1.0
    n: int = 2000
    m: int = 4
    L: int = 5
    beta_lo: float = 0.1
    beta_hi: float = 0.4

    def __post_init__(self) -> None:
        require(
            (0.0 < self.c < 1.0, "c must lie in (0, 1)"),
            (0.0 <= self.gamma < 1.0, "gamma must lie in [0, 1)"),
            (0.0 < self.delta < 1.0, "delta must lie in (0, 1)"),
            (0.0 < self.delta_prime <= 1.0, "delta_prime must lie in (0, 1]"),
            (_is_int(self.pi_size) and self.pi_size >= 2,
             "pi_size must be an integer >= 2"),
            (0.0 < self.tau <= 1.0, "tau must lie in (0, 1]"),
            (_is_int(self.n) and self.n >= 1, "n must be an integer >= 1"),
            (_is_int(self.m) and self.m >= 1, "m must be an integer >= 1"),
            (_is_int(self.L) and 2 <= self.L <= MAX_LEVELS,
             f"L must be an integer in [2, {MAX_LEVELS}]"),
        )
        check_betas(self.L, self.beta_lo, self.beta_hi)
        object.__setattr__(self, "c_delta", math.sqrt(2.0 * math.log(self.pi_size / self.delta)))
        object.__setattr__(self, "c_delta_prime",
                           math.sqrt(math.log(1.0 / self.delta_prime) / 2.0))

    @property
    def default_nu(self) -> float:
        """The budget parameter sqrt(1/n) used when none is given."""
        return math.sqrt(1.0 / self.n)

    def with_betas(self, beta_lo: float, beta_hi: float) -> "TheoryParams":
        return replace(self, beta_lo=beta_lo, beta_hi=beta_hi)


def load_config(path: str) -> tuple[TheoryParams, float | None, frozenset[str]]:
    """Load a JSON config whose keys match ``TheoryParams`` field names.

    Returns the parameters, the ``nu`` override (``None`` when absent) and
    the set of keys the file sets.  An optional ``nu`` key overrides the
    budget parameter.  Both ``n`` and ``nu``, unknown keys, non-numeric or
    non-finite values (JSON ``null``, ``true``, ``NaN``, ``Infinity``), an
    unreadable file and malformed JSON raise ``ParameterError``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read config {path!r}: {exc.strerror}") from exc
    except ValueError as exc:  # malformed JSON or text encoding
        raise ParameterError(f"config {path!r} is not valid JSON: {exc}") from exc
    # Two calls: the unknown-key rule needs an object.
    require((isinstance(raw, dict), "config must be a JSON object"))
    unknown = set(raw) - {f.name for f in fields(TheoryParams)} - _CONFIG_EXTRA_KEYS
    require((not unknown, f"unknown config keys: {sorted(unknown)}"))

    keys = frozenset(raw)
    for key, value in raw.items():
        # bool is an int subclass: a JSON true must not become 1.  The finite
        # rule also rejects an integer beyond the float range, which cannot
        # convert.
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        require((number, f"{key} must be a number, got {value!r}"),
                (number and abs(value) <= sys.float_info.max, f"{key} must be a finite number"))
    nu_override = raw.pop("nu", None)
    integers = [key for key in ("pi_size", "n", "m", "L") if key in raw]
    require((nu_override is None or "n" not in raw, "config sets both n and nu; set one"),
            *((float(raw[key]).is_integer(), f"{key} must be an integer") for key in integers))
    raw.update({key: int(raw[key]) for key in integers})
    return TheoryParams(**raw), (None if nu_override is None else float(nu_override)), keys
