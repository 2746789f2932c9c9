"""The one root finder and the roots it gives: ``regions.last_true`` on its
own, the scale-free small-budget behaviour of the improvement threshold,
and the critical budgets against a 50-digit bisection of the same margin."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from selfimprove import (BoundProblem, TheoryParams, baseline_half_error_budget,
                         collapse_budget, curriculum_coefficients, improvement_threshold,
                         max_improving_nu, threshold_curve)
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
