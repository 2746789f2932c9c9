"""The one root finder and the roots it gives: ``regions.last_true`` on its
own, the scale-free small-budget behaviour of the improvement threshold,
and the critical budgets against a 50-digit bisection of the same margin."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from selfimprove import (BoundProblem, TheoryParams, baseline_half_error_budget,
                         collapse_budget, critical_budgets, curriculum_coefficients,
                         improvement_threshold, max_improving_nu, threshold_curve)
from selfimprove.regions import improvement_margin, last_true

P = TheoryParams()
X0 = 0.49

non_negative = st.floats(min_value=0.0, max_value=math.inf, allow_nan=False)


@given(st.lists(st.tuples(non_negative, non_negative, non_negative), min_size=1, max_size=8))
@settings(deadline=None)
def test_last_true_ends_at_adjacent_floats_around_the_boundary(triples):
    rows = [sorted(triple) for triple in triples]
    rows = [(lo, t, hi) for lo, t, hi in rows if lo < t]
    assume(rows)
    lo, t, hi = (np.array(column) for column in zip(*rows))
    new_lo, new_hi = last_true(lambda x: x < t, lo, hi)
    assert (lo <= new_lo).all() and (new_lo < t).all()
    assert (t <= new_hi).all() and (new_hi <= hi).all()
    # Adjacent floats: their bit patterns differ by one (max float and inf too).
    assert (new_hi.view(np.int64) - new_lo.view(np.int64) == 1).all()


def test_last_true_halves_at_most_63_times():
    calls = []

    def holds(x):
        calls.append(x)
        return x < 1e-300

    lo, hi = last_true(holds, 0.0, math.inf)
    assert math.nextafter(lo, math.inf) == hi and lo < 1e-300 <= hi
    assert len(calls) <= 63


@given(levels=st.integers(min_value=2, max_value=12),
       pairs=st.lists(st.tuples(st.floats(min_value=0.001, max_value=3.0),
                                st.floats(min_value=0.001, max_value=5.0)),
                      min_size=1, max_size=3),
       fractions=st.lists(st.floats(min_value=0.0, max_value=1.5), min_size=1, max_size=3),
       budgets=st.lists(st.floats(min_value=0.0, max_value=0.1), max_size=2),
       x0s=st.lists(st.one_of(st.just(math.inf), st.floats(min_value=0.01, max_value=0.97)),
                    min_size=1, max_size=2))
@example(levels=2, pairs=[(1.3579828982301416, 2.25 - 1.3579828982301416)], fractions=[1.0],
         budgets=[0.015625], x0s=[math.inf])                 # batched bits once differed
@settings(max_examples=40, deadline=None)
def test_batched_thresholds_equal_scalar_solves_bit_for_bit(levels, pairs, fractions, budgets,
                                                            x0s):
    """``last_true`` bisects each element on its own and every power in the
    margin is a ufunc, whose array loop runs on scalars too, so one solve
    over several sets, budgets and initializations has the bits of the
    one-set scalar solve at each.  The budgets are fractions of each set's
    collapse budget, up to past it, and plain budgets shared by the sets."""
    sets = [TheoryParams(L=levels).with_betas(lo, lo + gap) for lo, gap in pairs]
    problem, alone = BoundProblem(sets), [BoundProblem(pp) for pp in sets]
    batched = problem.max_improving_nu(np.array(x0s)[:, None])
    scalar = [[one.max_improving_nu(x0) for one in alone] for x0 in x0s]
    assert batched.tobytes() == np.array(scalar).tobytes()
    nus = np.concatenate([np.array(fractions)[:, None] * problem.max_improving_nu(math.inf),
                          np.repeat(np.array(budgets)[:, None], len(sets), axis=1)])
    batched = problem.threshold(nus)
    scalar = [[one.threshold(nu) for one, nu in zip(alone, row)] for row in nus]
    assert batched.tobytes() == np.array(scalar).tobytes()


def _solved_alone(p: TheoryParams, x0: float) -> float:
    """The largest improving budget of ``p`` at ``x0`` as a one-set solve of
    its own: a bisection of the margin alone."""
    problem = BoundProblem(p)
    last, _ = last_true(lambda nu: improvement_margin(problem, nu, x0) < 0.0, 0.0, math.inf)
    return np.where(improvement_margin(problem, 0.0, x0) < 0.0, last, np.nan)[()]


def _half_error_alone(p: TheoryParams) -> float:
    """The half-error budget of ``p`` as a bisection of the baseline term alone."""
    problem, target = BoundProblem(p), 0.5 * (1.0 - p.gamma)
    return last_true(lambda nu: problem._evaluate(nu, math.inf)[1] < target, 0.0, math.inf)[0]


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


@given(levels=st.integers(min_value=2, max_value=8),
       beta_lo=st.floats(min_value=0.001, max_value=3.0),
       gap=st.floats(min_value=0.001, max_value=5.0),
       x0=st.floats(min_value=0.001, max_value=0.979),
       delta_gap=st.floats(min_value=0.001, max_value=5.0),
       grid=st.lists(st.floats(min_value=0.001, max_value=12.0), min_size=2, max_size=2,
                     unique=True),
       asked=st.sets(st.sampled_from(["nu_c", "nu_t", "nu_star", "profile"]), min_size=1))
@example(levels=5, beta_lo=0.1, gap=0.3, x0=0.49, delta_gap=0.1, grid=[0.01, 12.0],
         asked={"nu_c", "nu_t", "nu_star", "profile"})           # every column, as W3 asks
@example(levels=5, beta_lo=0.1, gap=5.0, x0=0.49, delta_gap=0.1, grid=[0.01, 12.0],
         asked={"nu_t"})              # a lone half-error column, beyond the margin's domain
@settings(max_examples=20, deadline=None)
def test_fused_budgets_equal_their_solves_alone_bit_for_bit(levels, beta_lo, gap, x0,
                                                            delta_gap, grid, asked):
    """Whatever subset of budgets one ``critical_budgets`` call solves, each
    has the bits of its own solve: the margin's root at ``x0 = inf`` and at
    ``x0`` for the set, the baseline term's for the half-error budget, and
    the margin's root at ``x0`` for each profile set."""
    p = TheoryParams(L=levels).with_betas(beta_lo, beta_lo + gap)
    found = critical_budgets(p, nu_c="nu_c" in asked, nu_t="nu_t" in asked,
                             x0=x0 if "nu_star" in asked else None,
                             profile=(delta_gap, grid, x0) if "profile" in asked else None)
    assert set(found) == asked
    alone = {"nu_c": lambda: _solved_alone(p, math.inf), "nu_t": lambda: _half_error_alone(p),
             "nu_star": lambda: _solved_alone(p, x0)}
    for name in asked - {"profile"}:
        assert _bits(found[name]) == _bits(alone[name]())
    if "profile" in asked:
        betas, values = zip(*found["profile"].points)
        assert betas == tuple(grid)
        assert _bits(values) == _bits([_solved_alone(p.with_betas(bl, bl + delta_gap), x0)
                                       for bl in grid])


@given(st.floats(min_value=1e-300, max_value=1e-8))
@settings(deadline=None)
def test_threshold_over_nu_tends_to_the_zero_budget_slope(nu):
    slope = P.c_delta_prime / curriculum_coefficients(P).first
    assert improvement_threshold(nu, P) / nu == pytest.approx(slope, rel=1e-12 + 25.0 * nu)


@given(beta_hi=st.floats(min_value=0.02, max_value=50.0),
       fraction=st.floats(min_value=0.01, max_value=0.99),
       x0=st.floats(min_value=0.01, max_value=0.97))
@settings(max_examples=60, deadline=None)
def test_max_improving_nu_is_a_sign_change_or_a_domain_edge(beta_hi, fraction, x0):
    pp = P.with_betas(fraction * beta_hi, beta_hi)
    problem = BoundProblem(pp)
    star = max_improving_nu(x0, pp)
    assert improvement_margin(problem, star, x0) < 0.0
    after = improvement_margin(problem, math.nextafter(star, math.inf), x0)
    assert after >= 0.0 or math.isnan(after)


def _margin_50_digits(mpmath, p: TheoryParams, nu, x0):
    """The margin of ``regions`` and its baseline term in 50-digit
    arithmetic (``x0 = inf`` is the large-initialization limit); the margin
    is ``None`` outside the domain, the series guard included."""
    f = mpmath.mpf
    c, gamma, L = f(p.c), f(p.gamma), p.L
    cd = mpmath.sqrt(2 * mpmath.log(f(p.pi_size) / f(p.delta)))
    cdp = mpmath.sqrt(mpmath.log(1 / f(p.delta_prime)) / 2)
    weight_sum = mpmath.fsum(mpmath.power(i, -f(p.beta_lo)) for i in range(1, L + 1))
    first = L / weight_sum
    final = weight_sum / mpmath.power(L, 1 - f(p.beta_lo))
    hard = mpmath.power(2, -f(p.beta_hi))

    base_inner = 1 - gamma - cdp * nu
    if base_inner <= 0:
        return None, mpmath.inf
    q = cd * nu / (2 * c * base_inner ** 1.5)
    baseline = cd * nu / (c * mpmath.sqrt(base_inner)) * mpmath.fsum(q ** j for j in range(L - 1))
    if x0 == math.inf:
        residual = 0
    else:
        res_inner = first * x0 - cdp * nu
        if res_inner <= 0:
            return None, baseline
        residual = cd * nu / (c * mpmath.sqrt(res_inner))
    ratio_inner = hard * (1 - gamma - residual) - cdp * nu
    hard_inner = hard * (1 - gamma) - cdp * nu
    if ratio_inner <= 0 or hard_inner <= 0:
        return None, baseline
    ratio = cd * nu / (2 * c * ratio_inner ** 1.5)
    rho = ratio * mpmath.exp(-f(p.beta_hi) / L)
    if rho >= 1 - f(1e-10):
        return None, baseline
    tail = cd * nu / (c * mpmath.sqrt(hard_inner)) / (1 - rho)
    hard_term = ratio ** (L - 1) * mpmath.power(L, -f(p.beta_hi)) * residual
    error = baseline - final * (tail + hard_term)
    return -error - (final - 1) * (1 - gamma) / 2, baseline


def _bisect_50_digits(mpmath, holds, near: float):
    """Last point of [near/2, 2 near] where ``holds`` is true, bisected to
    well below double precision."""
    lo, hi = mpmath.mpf(near) / 2, mpmath.mpf(near) * 2
    assert holds(lo) and not holds(hi)
    for _ in range(180):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return lo


def test_roots_match_a_50_digit_bisection_of_the_same_margin():
    """Agreement is relative, not in ULP: near 0.995 nu_c the threshold is
    ill-conditioned, and thousands of ULP there are still about 1e-12."""
    mpmath = pytest.importorskip("mpmath")

    def improving_in_nu(p, x0):
        def holds(nu):
            margin, _ = _margin_50_digits(mpmath, p, nu, x0)
            return margin is not None and margin < 0
        return holds

    def not_improving_in_x0(nu):
        def holds(x0):
            margin, _ = _margin_50_digits(mpmath, P, mpmath.mpf(nu), x0)
            return margin is None or margin >= 0
        return holds

    def baseline_below_half(nu):
        return _margin_50_digits(mpmath, P, nu, math.inf)[1] < (1 - mpmath.mpf(P.gamma)) / 2

    nu_c = collapse_budget(P)
    cases = [(nu_c, improving_in_nu(P, math.inf)),
             (baseline_half_error_budget(P), baseline_below_half),
             (max_improving_nu(X0, P), improving_in_nu(P, X0))]
    for beta_hi in (12.0, 40.0):
        pp = P.with_betas(P.beta_lo, beta_hi)
        cases.append((collapse_budget(pp), improving_in_nu(pp, math.inf)))
    for nu, threshold, _ in threshold_curve(np.array([0.02, 0.3, 0.6, 0.9, 0.995]) * nu_c, P):
        cases.append((threshold, not_improving_in_x0(nu)))
    with mpmath.workdps(50):
        for root, holds in cases:
            exact = _bisect_50_digits(mpmath, holds, root)
            assert abs(root - exact) <= 1e-11 * exact, (root, float(exact))
