"""Error functional, improvement condition, regions, and critical budgets.

The central object is the signed error functional comparing the accumulated
lower-bound error of the uniform-mixture baseline with the easy-to-hard
schedule.  Its sign determines the improvement region; its roots in the
initialization and in the budget parameter give the improvement threshold,
the largest improving budget parameter, and the two critical budgets.

The functional is array-native and NaN outside its domain.  Every root
comes from ``last_true``, one bisection on the bit patterns of non-negative
doubles: each target is monotone, NaN counts as the diverging side, and
[0, inf] brackets every root, so there is no tolerance and no bracket search.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import reduce
from itertools import chain

import numpy as np

from .cubic import Interval, invariant_interval
from .dynamics import curriculum_coefficients
from .errors import BracketError, DomainError, ParameterError
from .params import MAX_LEVELS, TheoryParams

_SERIES_GUARD = 1e-10

# The error functional's positivity conditions, in test order: array results
# are NaN where one fails, and a scalar result raises DomainError naming it.
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
    be +inf); ``holds`` maps an array of points to a boolean array and is
    never evaluated at ``lo`` or ``hi``.  Non-negative doubles order like
    their int64 bit patterns, so at most 63 halvings of the pattern interval
    end at adjacent floats, at any scale: ``lo'`` is the last point found to
    hold (or ``lo``), ``hi'`` the first found to fail (or ``hi``).
    """
    # Adding 0.0 turns -0.0, whose bit pattern is negative, into +0.0.
    lo, hi = ((np.asarray(end, dtype=float) + 0.0).view(np.int64) for end in (lo, hi))
    while (wide := hi - lo > 1).any():
        mid = lo + (hi - lo) // 2
        ok = np.asarray(holds(mid.view(np.float64)), dtype=bool)
        lo = np.where(wide & ok, mid, lo)
        hi = np.where(wide & ~ok, mid, hi)
    return lo.view(np.float64)[()], hi.view(np.float64)[()]


# ---------------------------------------------------------------------------
# Error functional and improvement margin
# ---------------------------------------------------------------------------

def _violation(holds) -> str | None:
    """The first failed condition at a scalar point, or ``None``."""
    return next((message for message, ok in zip(_CONDITIONS, holds) if not ok), None)


def _masked(holds, values) -> list:
    """``values`` where every condition of ``holds`` is true and NaN
    elsewhere; at a scalar point a failed condition raises ``DomainError``."""
    ok = reduce(np.logical_and, holds)
    if np.ndim(ok) == 0:
        if not ok:
            raise DomainError(_violation(holds))
        return [float(v) for v in values]
    return [np.where(ok, v, np.nan) for v in values]


class BoundProblem:
    """The error functional of one parameter set, or of an iterable of sets
    that differ only in their betas, built once.

    Per set it keeps ``first`` and ``final`` (the curriculum coefficients)
    and the factors 2^(-beta_hi), exp(-beta_hi/L) and L^(-beta_hi), built
    once by ufuncs: floats for one set and arrays, one entry per set, for
    several; every other constant comes from ``p``, the (first) set.  Every
    method evaluates at budgets ``nu`` and initializations ``x0``,
    broadcast against the sets along the last axis; ``x0 = inf``, the
    default, is the large-initialization limit, where the residual term
    vanishes.  An array result is NaN where a positivity condition fails; a
    scalar result raises ``DomainError`` naming the first one.  Every power
    is a ufunc, whose array loop runs on scalars too, so a solve for one set
    has the bits of the same solve in a batch.
    """

    def __init__(self, params: TheoryParams | Iterable[TheoryParams]) -> None:
        one = isinstance(params, TheoryParams)
        sets = iter([params] if one else params)
        self.p = next(sets)
        first, final, beta_hi = [], [], []
        # Only five floats per set are kept, so ``params`` may be a
        # generator that never holds all the sets at once.
        for q in chain([self.p], sets):
            coeffs = curriculum_coefficients(q)
            first.append(coeffs.first)
            final.append(coeffs.final)
            beta_hi.append(q.beta_hi)
        exponent, L = -np.array(beta_hi), float(self.p.L)
        factors = np.power(2.0, exponent), np.exp(exponent / L), np.power(L, exponent)
        stack = (lambda values: values[0]) if one else np.array
        self.first, self.final, self.hard, self.decay, self.hard_weight = (
            stack(v) for v in (first, final, *factors))

    def _evaluate(self, nu, x0):
        """The positivity conditions in ``_CONDITIONS`` order, then the
        baseline, hard-level and tail terms, the error functional and the
        margin, all unmasked."""
        p = self.p
        c, gamma, L, cd, cdp = p.c, p.gamma, p.L, p.c_delta, p.c_delta_prime
        nu = np.asarray(nu, dtype=float)
        with np.errstate(all="ignore"):
            cd_nu, cdp_nu = cd * nu, cdp * nu
            base_inner = 1.0 - gamma - cdp_nu
            q = cd_nu / (2.0 * c * np.power(base_inner, 1.5))
            # Finite geometric sum; identical to (1 - q^(L-1))/(1 - q) but defined at q = 1.
            series = sum(np.power(q, j) for j in range(L - 1))
            baseline = cd_nu / (c * np.sqrt(base_inner)) * series
            res_inner = self.first * x0 - cdp_nu
            residual = cd_nu / (c * np.sqrt(res_inner))
            ratio_inner = self.hard * (1.0 - gamma - residual) - cdp_nu
            ratio = cd_nu / (2.0 * c * np.power(ratio_inner, 1.5))
            hard_inner = self.hard * (1.0 - gamma) - cdp_nu
            common_ratio = ratio * self.decay
            tail = cd_nu / (c * np.sqrt(hard_inner)) / (1.0 - common_ratio)
            hard_term = np.power(ratio, L - 1) * self.hard_weight * residual
            error = baseline - self.final * (tail + hard_term)
            margin = -error - 0.5 * (self.final - 1.0) * (1.0 - gamma)
            holds = (nu >= 0.0, base_inner > 0.0, res_inner > 0.0, ratio_inner > 0.0,
                     hard_inner > 0.0, common_ratio < 1.0 - _SERIES_GUARD)
        return holds, baseline, hard_term, tail, error, margin

    def baseline(self, nu):
        """The baseline accumulated-error term alone; strictly increasing in nu."""
        holds, baseline, *_ = self._evaluate(nu, math.inf)
        return _masked(holds[:2], [baseline])[0]

    def terms(self, nu, x0=math.inf) -> tuple:
        """The final rescale coefficient and the three assembled terms
        (baseline, hard-level, tail) of the functional."""
        holds, *values, _, _ = self._evaluate(nu, x0)
        return (self.final, *_masked(holds, values))

    def error(self, nu, x0=math.inf):
        """Signed accumulated-error comparison at initialization ``x0``.

        Strictly increasing in ``x0``, strictly decreasing in ``nu`` and in
        ``beta_hi``; identically zero at nu = 0.
        """
        holds, *_, error, _ = self._evaluate(nu, x0)
        return _masked(holds, [error])[0]

    def margin(self, nu, x0=math.inf):
        """Signed improvement condition: negative iff the easy-to-hard final
        lower bound strictly exceeds the baseline's at horizon L."""
        holds, *_, margin = self._evaluate(nu, x0)
        return _masked(holds, [margin])[0]

    def threshold(self, nu):
        """Improvement threshold at each budget ``nu``: the initializations
        above it are exactly the improving ones.  NaN where no
        initialization improves (at or beyond the collapse budget)."""
        below, _ = last_true(lambda x0: ~(improvement_margin(self, nu, x0) < 0.0), 0.0, math.inf)
        return np.where(improvement_margin(self, nu, math.inf) < 0.0, below, np.nan)[()]

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
    positivity condition fails, scalar points included, and never raising.
    Where ``half_error`` is true, the unmasked baseline term less (1 -
    gamma)/2 instead, negative exactly below the half-error budget.  The
    solvers call it by this module-level name, so a tracer wrapping module
    functions (perfbench) sees every evaluation."""
    holds, baseline, *_, margin = problem._evaluate(nu, x0)
    margin = np.where(reduce(np.logical_and, holds), margin, np.nan)
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
    ``None`` where it holds.

    Each entry is the computation's own verdict, so the report cannot
    disagree with it: ``invariant_interval_baseline`` and
    ``invariant_interval_hard`` are ``invariant_interval`` at scale 1 and at
    the hardest level's 2^(-beta_hi), and ``error_functional`` is the
    condition its large-initialization limit (the improvement margin's too)
    fails first, the one ``DomainError`` names.  Never raises for a regime
    violation.
    """
    report = {f"invariant_interval_{name}": invariant_interval(a, p, nu).reason
              for name, a in (("baseline", 1.0), ("hard", 2.0 ** (-p.beta_hi)))}
    holds, *_ = BoundProblem(p)._evaluate(nu, math.inf)
    report["error_functional"] = _violation(holds)
    return report


# ---------------------------------------------------------------------------
# Regions and thresholds
# ---------------------------------------------------------------------------

def feasibility_interval(p: TheoryParams, nu: float) -> Interval:
    """Initialization interval on which both bound sequences are guaranteed
    monotone: the hardest-level invariant interval with its upper endpoint
    pulled back through the first curriculum step."""
    hard = 2.0 ** (-p.beta_hi)
    inner = invariant_interval(hard, p, nu)
    if not inner.valid:
        return inner
    first = curriculum_coefficients(p).first
    lo, hi = inner.lo, hard / first * inner.hi
    if hi <= lo:
        return Interval(lo, hi, False, "empty: pulled-back upper endpoint at or below lower endpoint")
    return Interval(lo, hi, True)


def improvement_threshold(nu: float, p: TheoryParams) -> float:
    """Unique initialization at which the improvement margin changes sign.

    The margin is strictly decreasing in the initialization, diverging to
    +inf at the domain edge; initializations above the threshold are exactly
    the improving ones.  At nu = 0 the threshold is zero.  Raises
    ``BracketError`` when no sign change exists (budget at or beyond the
    collapse budget).
    """
    if nu < 0.0:
        raise DomainError(_CONDITIONS[0])
    return _root(BoundProblem(p).threshold(nu),
                 "no improving initialization: budget parameter at or beyond "
                 f"the collapse budget (nu={nu!r})")


def collapse_budget(p: TheoryParams) -> float:
    """Critical budget parameter where the improvement region collapses.

    Unique root of the large-initialization improvement margin, which is
    strictly increasing in nu from a negative value at nu = 0 and diverges
    at the first domain breakdown.
    """
    return critical_budgets(p, nu_c=True)["nu_c"]


def baseline_half_error_budget(p: TheoryParams) -> float:
    """Budget parameter at which the baseline error term reaches half the
    attainable ceiling (1 - gamma)/2; unique by strict monotonicity."""
    return critical_budgets(p, nu_t=True)["nu_t"]


def check_initialization(x0: float, p: TheoryParams) -> None:
    """Reject an initialization outside (0, 1 - gamma), NaN included."""
    if not 0.0 < x0 < 1.0 - p.gamma:
        raise ParameterError("x0 must lie strictly between 0 and 1 - gamma")


def max_improving_nu(x0: float, p: TheoryParams) -> float:
    """Largest budget parameter for which initialization ``x0`` improves.

    Equals the unique root in nu of the improvement margin at ``x0`` (the
    margin is strictly increasing in nu), and equivalently the budget at
    which the improvement threshold crosses ``x0``.
    """
    return critical_budgets(p, x0=x0)["nu_star"]


@dataclass(frozen=True)
class ProfileResult:
    """Largest improving budget along a fixed-width difficulty-gap profile."""

    points: tuple[tuple[float, float], ...]  # (beta_lo, nu_star)
    argmax_index: int
    tail_slope: float  # d log(nu_star) / d beta_lo fitted on the tail

    @property
    def argmax_beta_lo(self) -> float:
        return self.points[self.argmax_index][0]


def max_improving_nu_profile(delta_gap: float, beta_grid, x0: float,
                             p: TheoryParams) -> ProfileResult:
    """Evaluate the largest improving budget along ``beta_lo`` at fixed gap;
    the tail slope is fitted on the last 30% of the grid."""
    return critical_budgets(p, profile=(delta_gap, beta_grid, x0))["profile"]


def critical_budgets(p: TheoryParams, *, nu_c=False, nu_t=False, x0=None, profile=None) -> dict:
    """The requested budgets of ``p`` from one bisection, by name: ``nu_c``
    (``collapse_budget``), ``nu_t`` (``baseline_half_error_budget``),
    ``nu_star`` at ``x0`` (``max_improving_nu``) and, for ``profile =
    (delta_gap, beta_grid, x0)``, ``profile`` (``max_improving_nu_profile``).
    Each is a column of one ``BoundProblem`` over ``p`` (once per budget) and
    the profile's sets, with the bits of its solve alone.  The inputs are
    checked first, then the roots in the order above."""
    fails = "fails already at nu = 0"
    # The half-error budget needs no message: negative at nu = 0, it is never NaN.
    scalars = ([("nu_c", math.inf, f"negative large-initialization improvement margin {fails}")]
               * nu_c + [("nu_t", math.inf, "")] * nu_t)
    if x0 is not None:
        check_initialization(x0, p)
        scalars.append(("nu_star", x0, f"negative improvement margin at x0={x0!r} {fails}"))
    sets, x0s = [p] * len(scalars), [start for _, start, _ in scalars]
    if profile is not None:
        delta_gap, beta_grid, x0_profile = profile
        if not delta_gap > 0.0:
            raise ParameterError(f"delta_gap must be positive, got {delta_gap!r}")
        betas = [float(bl) for bl in beta_grid]
        k = max(2, int(len(betas) * 0.3))
        if len(set(betas[-k:])) < 2:
            raise ParameterError("beta_grid needs two distinct values in its last 30% (tail slope)")
        check_initialization(x0_profile, p)
        sets += [p.with_betas(bl, bl + delta_gap) for bl in betas]
        x0s += [x0_profile] * len(betas)
    if not sets:
        return {}
    # A lone column solves on floats, which is faster and has the same bits.
    problem, x0s = ((BoundProblem(p), x0s[0]) if len(sets) == 1
                    else (BoundProblem(sets), np.array(x0s)))
    half = np.arange(len(sets)) == int(nu_c) if nu_t else False
    solved = np.atleast_1d(problem.max_improving_nu(x0s, half))
    found = {name: _root(v, message) for (name, _, message), v in zip(scalars, solved)}
    if profile is not None:
        nus = [_root(v, f"negative improvement margin at x0={x0_profile!r} {fails} "
                        f"(beta_lo={bl!r})") for bl, v in zip(betas, solved[len(scalars):])]
        xs, ys = np.array(betas[-k:]), np.log(nus[-k:])
        slope = float(((xs - xs.mean()) * (ys - ys.mean())).sum() / ((xs - xs.mean()) ** 2).sum())
        found["profile"] = ProfileResult(points=tuple(zip(betas, nus)),
                                         argmax_index=int(np.argmax(nus)), tail_slope=slope)
    return found


def threshold_curve(nu_grid, p: TheoryParams) -> tuple[tuple[float, float, bool], ...]:
    """Improvement threshold along a budget grid, as (nu, threshold, defined)
    samples; undefined samples carry a NaN threshold."""
    nus = np.asarray(nu_grid, dtype=float)
    thresholds = BoundProblem(p).threshold(nus)
    return tuple((float(nu), float(x), not math.isnan(x)) for nu, x in zip(nus, thresholds))


# ---------------------------------------------------------------------------
# Coefficient growth ratio and its conditional-mean lemma
# ---------------------------------------------------------------------------

def _log_weight_variable(num_levels: int, beta_lo):
    """The support log(L/i), i = 1..L, of the log-weight variable, and
    ``beta_lo`` as a float array; ``ParameterError`` unless L is an integer
    in [2, MAX_LEVELS], as in ``TheoryParams``, and every entry of
    ``beta_lo`` is positive and finite (negated comparisons, so NaN fails
    them too)."""
    if not (isinstance(num_levels, (int, np.integer)) and 2 <= num_levels <= MAX_LEVELS):
        raise ParameterError(f"num_levels must be an integer in [2, {MAX_LEVELS}]")
    beta_lo = np.asarray(beta_lo, dtype=float)
    if not ((beta_lo > 0.0) & (beta_lo < math.inf)).all():
        raise ParameterError("beta_lo must be positive and finite")
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
    if not ((t >= 0.0) & (t < math.log(num_levels))).all():
        raise ParameterError("t must lie in [0, log(num_levels))")
    return _mean_excess(support, beta_lo, t[..., None]), _mean_excess(support, beta_lo, 0.0)
