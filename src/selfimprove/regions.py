"""Error functional, improvement condition, regions, and critical budgets.

The central object is the signed error functional comparing the accumulated
lower-bound error of the uniform-mixture baseline with the easy-to-hard
schedule.  Its sign determines the improvement region; its roots in the
initialization and in the budget parameter give the improvement threshold,
the largest improving budget parameter, and the two critical budgets.

The functional is array-native and NaN outside its domain.  Every root
comes from ``last_true``, one bisection on the bit patterns of non-negative
doubles: NaN counts as the diverging side and [0, inf] brackets every root,
so there is no tolerance and no bracket search.  Each target is monotone
outside a window of ULP around some roots, where rounding flips the
margin's sign more than once, and inside that window the root is the flip
the bisection's fixed midpoints reach, so another bracket or method moves
its last bits.  In ``nu``, about one random set in ten flips more than
once within 2048 ULP of its root, over a median of a few ULP and at most
155 seen (the wide ones at small beta_lo, where the margin is a small
difference of larger terms).  In ``x0`` none was seen to, but about one
threshold in six sits on a run of up to about 300 floats where the margin
is exactly 0.0, and ``threshold`` returns the top of the run.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .cubic import Interval, invariant_interval
from .dynamics import curriculum_coefficients, map_budget
from .errors import BracketError, DomainError, masked, require, verdicts
from .params import MAX_LEVELS, TheoryParams, check_betas

_SERIES_GUARD = 1e-10

# The error functional's positivity conditions, in test order, under the
# domain convention of ``errors``.
_CONDITIONS = (
    "nu must be non-negative",
    "radicand 1 - gamma - c_delta_prime*nu must be positive",
    "radicand a0*x0 - c_delta_prime*nu must be positive",
    "radicand 2^(-beta_hi)*(1-gamma-residual) - c_delta_prime*nu must be positive",
    "radicand 2^(-beta_hi)*(1-gamma) - c_delta_prime*nu must be positive",
    "geometric-series ratio must stay below 1",
)


# ---------------------------------------------------------------------------
# Bisection on monotone predicates
# ---------------------------------------------------------------------------

def last_true(holds, lo, hi):
    """Final bracket ``(lo', hi')`` of a predicate that holds up to some
    boundary in [lo, hi] and fails after it, elementwise.

    ``lo`` and ``hi`` are non-negative float64 values or arrays (``hi`` may
    be +inf) with ``lo <= hi``; ``holds`` maps an array of points to a
    boolean array.  A step is one call of ``holds`` on every element:
    strictly inside an open bracket, at ``lo`` once the element has
    converged (the outcome is discarded), never at a ``hi`` above ``lo``.
    Non-negative doubles order like their int64 bit patterns, so at most 63
    halvings of the pattern interval end at adjacent floats, at any scale:
    ``lo'`` is the last point found to hold (or ``lo``), ``hi'`` the first
    found to fail (or ``hi``).  The first step broadcasts the ends to the
    predicate's shape in new arrays; every later step updates them in
    place, so the caller's ``lo`` and ``hi`` are never written.  From the
    second step on, ``holds`` receives one buffer that each step
    overwrites: a predicate that keeps its argument must copy it.

    A predicate that holds and fails more than once near its boundary, as
    the margin's sign does within some ULP of some roots, gives the
    bracket of whichever change the fixed midpoints reach: the root is this
    bisection's, not a unique crossing.
    """
    # Adding 0.0 turns -0.0, whose bit pattern is negative, into +0.0.
    lo, hi = ((np.asarray(end, dtype=float) + 0.0).view(np.int64) for end in (lo, hi))
    gap = hi - lo
    if (wide := gap > 1).any():
        mid = lo + (gap >> 1)  # a converged element's mid is its lo
        ok = np.asarray(holds(mid.view(np.float64)), dtype=bool)
        lo, hi = np.where(ok, mid, lo), np.where(wide & ~ok, mid, hi)
        gap, mid, wide = np.empty_like(lo), np.empty_like(lo), np.empty(lo.shape, dtype=bool)
        while np.greater(np.subtract(hi, lo, out=gap), 1, out=wide).any():
            np.add(lo, np.right_shift(gap, 1, out=mid), out=mid)
            ok = np.asarray(holds(mid.view(np.float64)), dtype=bool)
            np.copyto(lo, mid, where=ok)
            np.copyto(hi, mid, where=np.greater(wide, ok, out=wide))  # wide and not ok
    return lo.view(np.float64)[()], hi.view(np.float64)[()]


# ---------------------------------------------------------------------------
# Error functional and improvement margin
# ---------------------------------------------------------------------------

def _geometric_series(q, L: int):
    """The sum of ``np.power(q, j)`` over j < L - 1, defined at q = 1; q^0
    and q^1 are 1 and q bit for bit, so it starts at 1 + q."""
    return sum((np.power(q, j) for j in range(2, L - 1)), 1.0 + q if L > 2 else 1.0)


class BudgetStage(NamedTuple):
    """The terms of the error functional that depend on the budgets ``nu``
    and the sets alone, with the conditions on them."""

    cd_nu: object
    cdp_nu: object
    baseline: object        # the baseline term, unmasked
    tail_numerator: object  # c_delta*nu / (c*sqrt(hard_inner))
    holds: tuple            # nu >= 0, base_inner > 0, hard_inner > 0


class BoundProblem:
    """The error functional of one parameter set ``p``, or of ``p`` with
    arrays of betas, one pair per set, built once.

    ``beta_lo`` and ``beta_hi`` broadcast together and are checked by the
    rules ``TheoryParams`` applies; ``p`` supplies every other constant.
    Per set it keeps ``first`` and ``final`` (the curriculum coefficients),
    the factors 2^(-beta_hi), exp(-beta_hi/L) and L^(-beta_hi), and the
    margin's constant (final - 1)(1 - gamma)/2: floats for ``p``'s own
    betas, arrays for several.  Every method evaluates at budgets ``nu``
    and initializations ``x0``, broadcast against the sets along their
    axes; ``x0 = inf``, the default, is the large-initialization limit,
    where the residual term vanishes.  An array result is NaN where a
    positivity condition fails; a scalar result raises ``DomainError``
    naming the first one.  Every power is a ufunc, whose array loop runs on
    scalars too, so a solve for one set has the bits of the same solve in a
    batch.

    An evaluation has two stages: ``budget_stage(nu)``, the terms that do
    not depend on ``x0``, then the rest.  Every method that takes ``x0``
    also takes a ``BudgetStage`` for ``nu``, so a solve in ``x0`` computes
    the first stage once.
    """

    def __init__(self, p: TheoryParams, beta_lo=None, beta_hi=None) -> None:
        self.p = p
        if beta_lo is None:
            beta_lo, beta_hi = p.beta_lo, p.beta_hi
        else:
            beta_lo, beta_hi = np.broadcast_arrays(np.asarray(beta_lo, dtype=float),
                                                   np.asarray(beta_hi, dtype=float))
            check_betas(p.L, beta_lo, beta_hi)
        coeffs = curriculum_coefficients(p, beta_lo, beta_hi)
        exponent, L = -np.asarray(beta_hi, dtype=float), float(p.L)
        self.first, self.final = coeffs.first, coeffs.final
        self.hard, self.decay, self.hard_weight = (
            np.power(2.0, exponent), np.exp(exponent / L), np.power(L, exponent))
        self.margin_offset = 0.5 * (self.final - 1.0) * (1.0 - p.gamma)

    def budget_stage(self, nu) -> BudgetStage:
        """The first stage of an evaluation at budgets ``nu``."""
        p = self.p
        c, gamma, L = p.c, p.gamma, p.L
        # A float stays one: its products are a ufunc's bits, without the dispatch.
        nu = nu if isinstance(nu, float) else np.asarray(nu, dtype=float)
        with np.errstate(all="ignore"):
            cd_nu, cdp_nu = map_budget(p, nu)
            base_inner = 1.0 - gamma - cdp_nu
            q = cd_nu / (2.0 * c * np.power(base_inner, 1.5))
            baseline = cd_nu / (c * np.sqrt(base_inner)) * _geometric_series(q, L)
            hard_inner = self.hard * (1.0 - gamma) - cdp_nu
            return BudgetStage(cd_nu, cdp_nu, baseline, cd_nu / (c * np.sqrt(hard_inner)),
                               (nu >= 0.0, base_inner > 0.0, hard_inner > 0.0))

    def _evaluate(self, nu, x0):
        """The positivity conditions in ``_CONDITIONS`` order, then the
        baseline, hard-level and tail terms, the error functional and the
        margin, all unmasked; ``nu`` is budgets or their ``BudgetStage``."""
        c, gamma = self.p.c, self.p.gamma
        b = nu if isinstance(nu, BudgetStage) else self.budget_stage(nu)
        with np.errstate(all="ignore"):
            res_inner = self.first * x0 - b.cdp_nu
            residual = b.cd_nu / (c * np.sqrt(res_inner))
            ratio_inner = self.hard * (1.0 - gamma - residual) - b.cdp_nu
            ratio = b.cd_nu / (2.0 * c * np.power(ratio_inner, 1.5))
            common_ratio = ratio * self.decay
            tail = b.tail_numerator / (1.0 - common_ratio)
            hard_term = np.power(ratio, self.p.L - 1) * self.hard_weight * residual
            error = b.baseline - self.final * (tail + hard_term)
            margin = -error - self.margin_offset
            nonnegative, base_ok, hard_ok = b.holds
            holds = (nonnegative, base_ok, res_inner > 0.0, ratio_inner > 0.0, hard_ok,
                     common_ratio < 1.0 - _SERIES_GUARD)
        return holds, b.baseline, hard_term, tail, error, margin

    def baseline(self, nu):
        """The baseline accumulated-error term alone; strictly increasing in nu."""
        stage = self.budget_stage(nu)
        return masked(_CONDITIONS, stage.holds[:2], stage.baseline)

    def terms(self, nu, x0=math.inf) -> tuple:
        """The final rescale coefficient and the three assembled terms
        (baseline, hard-level, tail) of the functional."""
        holds, *values, _, _ = self._evaluate(nu, x0)
        return (self.final, *(masked(_CONDITIONS, holds, value) for value in values))

    def error(self, nu, x0=math.inf):
        """Signed accumulated-error comparison at initialization ``x0``.

        Strictly increasing in ``x0``, strictly decreasing in ``nu`` and in
        ``beta_hi``; identically zero at nu = 0.
        """
        holds, *_, error, _ = self._evaluate(nu, x0)
        return masked(_CONDITIONS, holds, error)

    def margin(self, nu, x0=math.inf):
        """Signed improvement condition: negative iff the easy-to-hard final
        lower bound strictly exceeds the baseline's at horizon L."""
        holds, *_, margin = self._evaluate(nu, x0)
        return masked(_CONDITIONS, holds, margin)

    def threshold(self, nu):
        """Improvement threshold at each budget ``nu``: the initializations
        above it are exactly the improving ones.  NaN where no
        initialization improves (at or beyond the collapse budget).  The
        budget stage is computed once for the whole bisection in ``x0``."""
        stage = self.budget_stage(nu)
        below, _ = last_true(lambda x0: ~(improvement_margin(self, stage, x0) < 0.0),
                             0.0, math.inf)
        return np.where(improvement_margin(self, stage, math.inf) < 0.0, below, np.nan)[()]

    def max_improving_nu(self, x0, half_error=False):
        """Largest budget at which initialization ``x0`` improves (``inf``:
        the collapse budget), the last nu with a negative margin.  NaN where
        the margin is not negative even at nu = 0.  Where ``half_error`` is
        true, the baseline half-error budget, from the same evaluations."""
        last, _ = last_true(lambda nu: improvement_margin(self, nu, x0, half_error) < 0.0,
                            0.0, math.inf)
        return np.where(improvement_margin(self, 0.0, x0, half_error) < 0.0, last, np.nan)[()]


def improvement_margin(problem: BoundProblem, nu, x0=math.inf, half_error=False):
    """``problem.margin`` as the solvers evaluate it: NaN wherever a
    positivity condition fails, scalar points included, and never raising;
    ``nu`` is budgets or their ``BudgetStage``.
    Where ``half_error`` is true, the unmasked baseline term less (1 -
    gamma)/2 instead, negative exactly below the half-error budget.  The
    solvers call it by this module-level name, so a tracer wrapping module
    functions (perfbench) sees every evaluation."""
    holds, baseline, *_, margin = problem._evaluate(nu, x0)
    margin = np.where(reduce(operator.and_, holds), margin, np.nan)
    if half_error is False:
        return margin
    # A difference of doubles has the sign of their comparison, and NaN or
    # +inf outside the term's domain is not negative.
    return np.where(half_error, baseline - 0.5 * (1.0 - problem.p.gamma), margin)


def _root(value, message: str) -> float:
    """A scalar solve's root, or ``BracketError`` where there is no sign change."""
    if math.isnan(value):
        raise BracketError(message)
    return float(value)


# ---------------------------------------------------------------------------
# Validity regimes
# ---------------------------------------------------------------------------

def validate_domain(p: TheoryParams, nu: float) -> dict[str, str | None]:
    """Per downstream computation, the first violation of its regime, or
    ``None`` where it holds: each computation's own verdict, from its one
    table of conditions, so the report cannot disagree with it.
    ``invariant_interval_baseline`` and ``invariant_interval_hard`` are one
    ``invariant_interval`` call at scales 1 and 2^(-beta_hi), and
    ``error_functional`` is the condition its large-initialization limit
    (the improvement margin's too) fails first, the one ``DomainError``
    names.  Never raises for a regime violation."""
    baseline, hard = invariant_interval(np.array([1.0, 2.0 ** (-p.beta_hi)]), p, nu).reason
    holds, *_ = BoundProblem(p)._evaluate(nu, math.inf)
    return {"invariant_interval_baseline": baseline, "invariant_interval_hard": hard,
            "error_functional": verdicts(_CONDITIONS, holds)[1]}


# ---------------------------------------------------------------------------
# Regions and thresholds
# ---------------------------------------------------------------------------

def feasibility_interval(p: TheoryParams, nu, beta_lo=None, beta_hi=None) -> Interval:
    """Initialization interval on which both bound sequences are guaranteed
    monotone: the hardest-level invariant interval with its upper endpoint
    pulled back through the first curriculum step.  Broadcasts as
    ``invariant_interval`` over ``nu`` and any beta arrays (checked as in
    ``BoundProblem``): one cubic call, and one ``curriculum_coefficients``
    call unless every interval is invalid.  2^(-beta_hi) is
    ``np.float_power``, the bits of ``**``."""
    if beta_lo is None:
        beta_lo, beta_hi = p.beta_lo, p.beta_hi
    else:
        check_betas(p.L, beta_lo, beta_hi)
    hard = np.float_power(2.0, -np.asarray(beta_hi, dtype=float))
    inner = invariant_interval(hard, p, np.atleast_1d(nu))
    lo, hi, valid, reason = inner.lo, inner.hi, inner.valid, inner.reason
    if valid.any():
        hi = np.where(valid, hard / curriculum_coefficients(p, beta_lo, beta_hi).first * hi, hi)
        empty = valid & (hi <= lo)
        valid &= ~empty
        reason[empty] = "empty: pulled-back upper endpoint at or below lower endpoint"
    if np.ndim(nu) == hard.ndim == 0:
        return Interval(float(lo[0]), float(hi[0]), bool(valid[0]), reason[0])
    return Interval(lo, hi, valid, reason)


_IMPROVING = ("no improving initialization", "empty: threshold at or above ceiling")


def improvement_interval(p: TheoryParams, nu, beta_lo=None, beta_hi=None) -> Interval:
    """The improving initializations (threshold, 1 - gamma), from one
    threshold bisection: invalid where the threshold is NaN (none improves,
    and both ends are NaN) or at or above the ceiling.  Broadcasts as
    ``feasibility_interval`` does, over ``nu`` and any beta arrays (checked
    as in ``BoundProblem``); one budget and one beta pair give Python scalars."""
    threshold = np.asarray(BoundProblem(p, beta_lo, beta_hi).threshold(nu))
    none = np.isnan(threshold)
    valid, reason = verdicts(_IMPROVING, (~none, threshold < 1.0 - p.gamma))
    hi = np.where(none, np.nan, 1.0 - p.gamma)
    if threshold.ndim == 0:
        return Interval(float(threshold), float(hi), bool(valid), reason)
    return Interval(threshold, hi, valid, reason)


def check_initialization(x0: float, p: TheoryParams) -> None:
    """Reject an initialization outside (0, 1 - gamma), NaN included."""
    require((0.0 < x0 < 1.0 - p.gamma, "x0 must lie strictly between 0 and 1 - gamma"))


@dataclass(frozen=True)
class ProfileResult:
    """Largest improving budget along a fixed-width difficulty-gap profile."""

    points: tuple[tuple[float, float], ...]  # (beta_lo, nu_star)
    argmax_index: int
    tail_slope: float  # d log(nu_star) / d beta_lo fitted on the tail

    @property
    def argmax_beta_lo(self) -> float:
        return self.points[self.argmax_index][0]


def critical_budgets(p: TheoryParams, *, nu_c=False, nu_t=False, x0=None, profile=None) -> dict:
    """The requested budgets of ``p`` from one bisection, by name: ``nu_c``,
    the collapse budget, beyond which no initialization improves; ``nu_t``,
    where the baseline error term reaches half the ceiling (1 - gamma)/2;
    ``nu_star``, the largest budget at which ``x0`` improves; and, for
    ``profile = (delta_gap, beta_grid, x0)``, ``profile``: ``nu_star`` along
    ``beta_lo`` at a fixed gap, its tail slope fitted on the last 30%.
    Each is a column of one ``BoundProblem`` over ``p``'s betas (once per
    budget) and the profile's beta pairs, with the bits of its solve alone.
    The inputs are checked first, then the roots in the order above, then
    that the tail's roots are positive (``DomainError``)."""
    fails = "fails already at nu = 0"
    # The half-error budget needs no message: negative at nu = 0, it is never NaN.
    scalars = ([("nu_c", math.inf, f"negative large-initialization improvement margin {fails}")]
               * nu_c + [("nu_t", math.inf, "")] * nu_t)
    if x0 is not None:
        check_initialization(x0, p)
        scalars.append(("nu_star", x0, f"negative improvement margin at x0={x0!r} {fails}"))
    beta_lo, beta_hi = [p.beta_lo] * len(scalars), [p.beta_hi] * len(scalars)
    x0s = [start for _, start, _ in scalars]
    if profile is not None:
        delta_gap, beta_grid, x0_profile = profile
        require((delta_gap > 0.0, f"delta_gap must be positive, got {delta_gap!r}"))
        betas = [float(bl) for bl in beta_grid]
        k = max(2, int(len(betas) * 0.3))
        require((len(set(betas[-k:])) >= 2,
                 "beta_grid needs two distinct values in its last 30% (tail slope)"))
        check_initialization(x0_profile, p)
        beta_lo += betas
        beta_hi += [bl + delta_gap for bl in betas]
        x0s += [x0_profile] * len(betas)
    if not x0s:
        return {}
    # A lone column solves on floats, which is faster and has the same bits.
    problem, x0s = ((BoundProblem(p), x0s[0]) if len(x0s) == 1
                    else (BoundProblem(p, beta_lo, beta_hi), np.array(x0s)))
    half = np.arange(len(beta_lo)) == int(nu_c) if nu_t else False
    solved = np.atleast_1d(problem.max_improving_nu(x0s, half))
    found = {name: _root(v, message) for (name, _, message), v in zip(scalars, solved)}
    if profile is not None:
        nus = solved[len(scalars):].tolist()
        for bl, v in zip(betas, nus):  # a message is formatted only for a missing root
            if math.isnan(v):
                raise BracketError(f"negative improvement margin at x0={x0_profile!r} {fails} "
                                   f"(beta_lo={bl!r})")
        if not min(nus[-k:]) > 0.0:  # a root at nu = 0, as where c is subnormal
            raise DomainError("tail slope needs a positive nu_star in the last 30% of beta_grid")
        xs, ys = np.array(betas[-k:]), np.log(nus[-k:])
        slope = float(((xs - xs.mean()) * (ys - ys.mean())).sum() / ((xs - xs.mean()) ** 2).sum())
        found["profile"] = ProfileResult(points=tuple(zip(betas, nus)),
                                         argmax_index=int(np.argmax(nus)), tail_slope=slope)
    return found


# ---------------------------------------------------------------------------
# Coefficient growth ratio and its conditional-mean lemma
# ---------------------------------------------------------------------------

def _log_weight_variable(num_levels: int, beta_lo):
    """The support log(L/i), i = 1..L, of the log-weight variable, and
    ``beta_lo`` as a float array; ``ParameterError`` unless L is an integer
    in [2, MAX_LEVELS], as in ``TheoryParams``, and every entry of
    ``beta_lo`` is positive and finite (NaN compares false, so it fails)."""
    require((isinstance(num_levels, (int, np.integer)) and 2 <= num_levels <= MAX_LEVELS,
             f"num_levels must be an integer in [2, {MAX_LEVELS}]"))
    beta_lo = np.asarray(beta_lo, dtype=float)
    require((((beta_lo > 0.0) & (beta_lo < math.inf)).all(), "beta_lo must be positive and finite"))
    return np.log(num_levels / np.arange(1.0, num_levels + 1.0)), beta_lo


def coefficient_growth_ratio(beta_lo, num_levels: int):
    """Self-normalized growth ratio of the final rescale coefficient, per ``beta_lo``.

    Computed from the exact derivative identity: the coefficient's log
    derivative is the mean of the log-weight variable, so the ratio reduces
    to (coefficient - 1) / mean.  Strictly increasing in ``beta_lo`` with
    limits 0 and +inf.  ``DomainError`` where the coefficient overflows.
    """
    support, beta_lo = _log_weight_variable(num_levels, beta_lo)
    with np.errstate(over="ignore"):
        boosted = np.exp(beta_lo[..., None] * support)
        total, weighted = boosted.sum(axis=-1), (support * boosted).sum(axis=-1)
    if not (np.maximum(total, weighted) < math.inf).all():
        raise DomainError("the final rescale coefficient overflows")
    return ((total / num_levels - 1.0) / (weighted / total))[()]


def _mean_excess(support: np.ndarray, beta_lo: np.ndarray, t):
    """E[X - t | X > t] for the log-weight variable X, per ``beta_lo`` and
    ``t`` (whose last axis broadcasts against the levels); the event holds at
    i = 1 for every t < log L.  The weights i^(-beta_lo) are exp(beta_lo *
    (X - log L)), whose bits, unlike a power's, do not depend on the call's shape."""
    tail = np.where(support > t, np.exp(beta_lo[..., None] * (support - support[0])), 0.0)
    return (((support - t) * tail).sum(axis=-1) / tail.sum(axis=-1))[()]


def conditional_mean_check(num_levels: int, beta_lo, t):
    """Both sides of the tail conditional-mean inequality, exact, per ``beta_lo`` and ``t``.

    Returns (mean excess above ``t`` given the log-weight variable exceeds
    ``t``, mean given it is positive); the first never exceeds the second
    for t in [0, log L).
    """
    support, beta_lo = _log_weight_variable(num_levels, beta_lo)
    t = np.asarray(t, dtype=float)
    require((((t >= 0.0) & (t < math.log(num_levels))).all(), "t must lie in [0, log(num_levels))"))
    return _mean_excess(support, beta_lo, t[..., None]), _mean_excess(support, beta_lo, 0.0)
