"""Error functional, improvement condition, regions, and critical budgets.

The central object is the signed error functional comparing the accumulated
lower-bound error of the uniform-mixture baseline with the easy-to-hard
schedule.  Its sign determines the improvement region; its roots in the
initialization and in the budget parameter give the improvement threshold,
the largest improving budget parameter, and the two critical budgets.

All root finding is bisection.  Every target function here is strictly
monotone in the search variable, and bisection keeps working across points
where the function is undefined (treated as the diverging side), which a
derivative- or secant-based solver would not tolerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .cubic import Interval, invariant_interval
from .dynamics import CurriculumCoefficients, curriculum_coefficients
from .errors import BracketError, DomainError, ParameterError
from .params import TheoryParams

BISECT_TOL = 1e-12
_SERIES_GUARD = 1e-10


# ---------------------------------------------------------------------------
# Error functional and improvement margin
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundProblem:
    """The error functional of one parameter set, built once from ``p``.

    The betas and the confidence radii enter only through ``p``; the
    curriculum coefficients are computed here, and every method evaluates at
    a budget ``nu`` and an initialization ``x0`` (``None`` is the
    large-initialization limit, where the residual term vanishes).  A
    violated positivity condition raises ``DomainError`` naming it.
    """

    p: TheoryParams
    coeffs: CurriculumCoefficients = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", curriculum_coefficients(self.p))

    def baseline(self, nu: float) -> float:
        """The baseline accumulated-error term alone; strictly increasing in nu."""
        p, cd = self.p, self.p.c_delta
        base_inner = 1.0 - p.gamma - p.c_delta_prime * nu
        if base_inner <= 0.0:
            raise DomainError("radicand 1 - gamma - c_delta_prime*nu must be positive")
        q = cd * nu / (2.0 * p.c * base_inner ** 1.5)
        # Finite geometric sum; identical to (1 - q^(L-1))/(1 - q) but defined at q = 1.
        return cd * nu / (p.c * math.sqrt(base_inner)) * sum(q ** j for j in range(p.L - 1))

    def terms(self, nu: float, x0: float | None = None) -> tuple[float, float, float, float]:
        """The final rescale coefficient and the three assembled terms
        (baseline, hard-level, tail) of the functional."""
        if nu < 0.0:
            raise DomainError("nu must be non-negative")
        p = self.p
        c, gamma, L, beta_hi = p.c, p.gamma, p.L, p.beta_hi
        cd, cdp = p.c_delta, p.c_delta_prime
        hard = 2.0 ** (-beta_hi)

        term_baseline = self.baseline(nu)

        if x0 is None:
            residual = 0.0
        else:
            res_inner = self.coeffs.first * x0 - cdp * nu
            if res_inner <= 0.0:
                raise DomainError("radicand a0*x0 - c_delta_prime*nu must be positive")
            residual = cd * nu / (c * math.sqrt(res_inner))

        ratio_inner = hard * (1.0 - gamma - residual) - cdp * nu
        if ratio_inner <= 0.0:
            raise DomainError(
                "radicand 2^(-beta_hi)*(1-gamma-residual) - c_delta_prime*nu must be positive")
        ratio = cd * nu / (2.0 * c * ratio_inner ** 1.5)

        hard_inner = hard * (1.0 - gamma) - cdp * nu
        if hard_inner <= 0.0:
            raise DomainError(
                "radicand 2^(-beta_hi)*(1-gamma) - c_delta_prime*nu must be positive")

        common_ratio = ratio * math.exp(-beta_hi / L)
        if common_ratio >= 1.0 - _SERIES_GUARD:
            raise DomainError("geometric-series ratio must stay below 1")
        term_tail = cd * nu / (c * math.sqrt(hard_inner)) / (1.0 - common_ratio)

        term_hard = ratio ** (L - 1) * L ** (-beta_hi) * residual
        return self.coeffs.final, term_baseline, term_hard, term_tail

    def error(self, nu: float, x0: float | None = None) -> float:
        """Signed accumulated-error comparison at initialization ``x0``.

        Strictly increasing in ``x0``, strictly decreasing in ``nu`` and in
        ``beta_hi``; identically zero at nu = 0.
        """
        final, t1, t2, t3 = self.terms(nu, x0)
        return t1 - final * (t3 + t2)

    def margin(self, nu: float, x0: float | None = None) -> float:
        """Signed improvement condition: negative iff the easy-to-hard final
        lower bound strictly exceeds the baseline's at horizon L."""
        return -self.error(nu, x0) - 0.5 * (self.coeffs.final - 1.0) * (1.0 - self.p.gamma)


# The solvers evaluate the margin through this module-level name, so that a
# tracer wrapping module functions (perfbench) sees every evaluation.
improvement_margin = BoundProblem.margin


def _improving(problem: BoundProblem, nu: float, x0: float | None) -> bool:
    """Whether the improvement margin is negative; a domain breakdown counts
    as not improving (the margin diverges there)."""
    try:
        return improvement_margin(problem, nu, x0) < 0.0
    except DomainError:
        return False


# ---------------------------------------------------------------------------
# Bisection on monotone predicates
# ---------------------------------------------------------------------------

def _boundary(holds, lo: float, start: float, cap: float) -> float | None:
    """Boundary of a monotone predicate that holds on [lo, boundary) and
    fails after, or ``None`` when it still holds at every probe up to ``cap``.

    The bracket's upper end is the first failing probe, doubling from
    ``start``.  Bisection stops at ``BISECT_TOL`` interval width or when the
    midpoint can no longer be distinguished from the endpoints in double
    precision (huge roots).
    """
    hi = start
    while hi <= cap and holds(hi):
        hi *= 2.0
    if hi > cap:
        return None
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi or hi - lo <= BISECT_TOL:
            return mid
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)


def _root_in_nu(holds, what: str) -> float:
    """Boundary in nu of a predicate that holds on [0, root) and fails after:
    checked just above zero, then bracketed from 1e-9 up to 1e6 and bisected."""
    if not holds(1e-12):
        raise BracketError(f"{what} fails already at nu ~ 0")
    root = _boundary(holds, 0.0, 1e-9, 1e6)
    if root is None:
        raise BracketError(f"{what} still holds at nu = 1e6")
    return root


# ---------------------------------------------------------------------------
# Validity regimes
# ---------------------------------------------------------------------------

def validate_domain(p: TheoryParams, nu: float) -> dict[str, str | None]:
    """Per downstream computation, the first violation of its regime, or
    ``None`` where it holds.

    Each entry is the computation's own verdict, so the report cannot
    disagree with it: ``invariant_interval_baseline`` and
    ``invariant_interval_hard`` are ``invariant_interval`` at scale 1 and at
    the hardest level's 2^(-beta_hi), and ``error_functional`` is whether
    its large-initialization limit (the improvement margin's too) raises
    ``DomainError``.  Never raises for a regime violation.
    """
    report = {f"invariant_interval_{name}": invariant_interval(a, p, nu).reason
              for name, a in (("baseline", 1.0), ("hard", 2.0 ** (-p.beta_hi)))}
    try:
        BoundProblem(p).terms(nu)
        report["error_functional"] = None
    except DomainError as exc:
        report["error_functional"] = str(exc)
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
    the improving ones.  At nu = 0 the threshold is identically zero.
    Raises ``BracketError`` when no sign change exists (budget at or beyond
    the collapse budget).
    """
    if nu <= 0.0:
        if nu == 0.0:
            return 0.0
        raise DomainError("nu must be non-negative")

    problem = BoundProblem(p)
    # Domain edge of the first curriculum step: a0*x0 = c_delta_prime*nu.
    edge = p.c_delta_prime * nu / problem.coeffs.first
    # Not improving on (edge, threshold), improving after.
    threshold = _boundary(lambda x: not _improving(problem, nu, x), edge,
                          max(edge * 2.0, edge + 1e-9, 1e-9), 1e15)
    if threshold is None:
        raise BracketError("no improving initialization: budget parameter at or beyond "
                           f"the collapse budget (nu={nu!r})")
    return threshold


def collapse_budget(p: TheoryParams) -> float:
    """Critical budget parameter where the improvement region collapses.

    Unique root of the large-initialization improvement margin, which is
    strictly increasing in nu from a negative value at nu = 0 and diverges
    at the first domain breakdown.
    """
    problem = BoundProblem(p)
    return _root_in_nu(lambda nu: _improving(problem, nu, None),
                       "negative large-initialization improvement margin")


def baseline_half_error_budget(p: TheoryParams) -> float:
    """Budget parameter at which the baseline error term reaches half the
    attainable ceiling (1 - gamma)/2; unique by strict monotonicity."""
    target = 0.5 * (1.0 - p.gamma)
    problem = BoundProblem(p)

    def below(nu: float) -> bool:
        try:
            return problem.baseline(nu) < target
        except DomainError:
            return False

    return _root_in_nu(below, "baseline error term below (1 - gamma)/2")


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
    check_initialization(x0, p)
    problem = BoundProblem(p)
    return _root_in_nu(lambda nu: _improving(problem, nu, x0),
                       f"negative improvement margin at x0={x0!r}")


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
    if not delta_gap > 0.0:
        raise ParameterError(f"delta_gap must be positive, got {delta_gap!r}")
    points = [(float(bl), max_improving_nu(x0, p.with_betas(bl, bl + delta_gap)))
              for bl in beta_grid]
    values = [v for _, v in points]
    argmax = max(range(len(values)), key=values.__getitem__)

    k = max(2, int(len(points) * 0.3))
    xs = [b for b, _ in points[-k:]]
    ys = [math.log(v) for _, v in points[-k:]]
    xbar, ybar = sum(xs) / k, sum(ys) / k
    denom = sum((x - xbar) ** 2 for x in xs)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / denom
    return ProfileResult(points=tuple(points), argmax_index=argmax, tail_slope=slope)


def threshold_curve(nu_grid, p: TheoryParams) -> tuple[tuple[float, float, bool], ...]:
    """Improvement threshold along a budget grid, as (nu, threshold, defined)
    samples; undefined samples carry a NaN threshold."""
    samples = []
    for nu in nu_grid:
        try:
            samples.append((float(nu), float(improvement_threshold(float(nu), p)), True))
        except (BracketError, DomainError):
            samples.append((float(nu), math.nan, False))
    return tuple(samples)


# ---------------------------------------------------------------------------
# Coefficient growth ratio and its conditional-mean lemma
# ---------------------------------------------------------------------------

def _log_weight_distribution(num_levels: int, beta_lo: float):
    """Support log(L/i) with weights i^(-beta_lo), i = 1..L."""
    support = [math.log(num_levels / i) for i in range(1, num_levels + 1)]
    weights = [i ** (-beta_lo) for i in range(1, num_levels + 1)]
    return support, weights


def coefficient_growth_ratio(beta_lo: float, num_levels: int) -> float:
    """Self-normalized growth ratio of the final rescale coefficient.

    Computed from the exact derivative identity: the coefficient's log
    derivative is the mean of the log-weight variable, so the ratio reduces
    to (coefficient - 1) / mean.  Strictly increasing in ``beta_lo`` with
    limits 0 and +inf.
    """
    if beta_lo <= 0.0:
        raise ParameterError("beta_lo must be positive")
    if num_levels < 2:
        raise ParameterError("num_levels must be >= 2")
    support, _ = _log_weight_distribution(num_levels, beta_lo)
    boosted = [math.exp(beta_lo * x) for x in support]
    total = sum(boosted)
    final = total / num_levels
    mean = sum(x * w for x, w in zip(support, boosted)) / total
    return (final - 1.0) / mean


def conditional_mean_check(num_levels: int, beta_lo: float, t: float) -> tuple[float, float]:
    """Both sides of the tail conditional-mean inequality, computed exactly.

    Returns (mean excess above ``t`` given the log-weight variable exceeds
    ``t``, mean given it is positive); the first never exceeds the second
    for t in [0, log L).
    """
    if num_levels < 2:
        raise ParameterError("num_levels must be >= 2")
    if not 0.0 <= t < math.log(num_levels):
        raise ParameterError("t must lie in [0, log(num_levels))")
    support, weights = _log_weight_distribution(num_levels, beta_lo)

    tail = [(x, w) for x, w in zip(support, weights) if x > t]
    if not tail:
        raise BracketError("empty conditioning event")  # unreachable for valid t
    tail_mass = sum(w for _, w in tail)
    lhs = sum((x - t) * w for x, w in tail) / tail_mass

    positive = [(x, w) for x, w in zip(support, weights) if x > 0.0]
    pos_mass = sum(w for _, w in positive)
    rhs = sum(x * w for x, w in positive) / pos_mass
    return lhs, rhs
