import math

import numpy as np
import pytest

from selfimprove import (BracketError, DomainError, ParameterError, TheoryParams,
                         baseline_error_term, baseline_half_error_budget,
                         coefficient_growth_ratio, collapse_budget,
                         conditional_mean_check, curriculum_coefficients,
                         derive_constants, error_functional,
                         feasibility_interval, improvement_margin,
                         improvement_threshold, invariant_interval, max_improving_nu,
                         max_improving_nu_profile, threshold_curve)

P = TheoryParams()
D = derive_constants(P)
RNG = np.random.default_rng(11)


def random_admissible_tuple():
    while True:
        beta_lo = RNG.uniform(0.02, 1.0)
        beta_hi = beta_lo + RNG.uniform(0.02, 1.0)
        nu = RNG.uniform(1e-4, 0.04)
        x0 = RNG.uniform(0.05, 0.95) * (1 - P.gamma)
        try:
            error_functional(beta_lo, beta_hi, nu, x0, P, D)
        except DomainError:
            continue
        return beta_lo, beta_hi, nu, x0


def test_error_functional_zero_at_zero_budget():
    for _ in range(25):
        beta_lo, beta_hi, _, x0 = random_admissible_tuple()
        assert error_functional(beta_lo, beta_hi, 0.0, x0, P, D) == 0.0


def test_error_functional_monotonicities():
    h = 1e-6
    for _ in range(150):
        beta_lo, beta_hi, nu, x0 = random_admissible_tuple()
        try:
            down_nu = (error_functional(beta_lo, beta_hi, nu + h, x0, P, D)
                       - error_functional(beta_lo, beta_hi, nu - h, x0, P, D))
            up_x0 = (error_functional(beta_lo, beta_hi, nu, x0 + h, P, D)
                     - error_functional(beta_lo, beta_hi, nu, x0 - h, P, D))
            down_beta = (error_functional(beta_lo, beta_hi + h, nu, x0, P, D)
                         - error_functional(beta_lo, beta_hi - h, nu, x0, P, D))
        except DomainError:
            continue
        assert down_nu < 1e-9
        assert up_x0 > -1e-9
        assert down_beta < 1e-9


def test_error_functional_names_first_violation():
    with pytest.raises(DomainError, match="a0\\*x0"):
        error_functional(0.1, 0.4, 0.02, 1e-9, P, D)
    with pytest.raises(DomainError, match="1 - gamma"):
        error_functional(0.1, 0.4, 0.9, 0.5, P, D)


def test_margin_at_zero_budget():
    for beta_lo in (0.05, 0.3, 1.0):
        pp = P.with_betas(beta_lo, beta_lo + 0.3)
        final = curriculum_coefficients(pp).final
        margin = improvement_margin(beta_lo, beta_lo + 0.3, 0.0, 0.5, P, D)
        assert margin == pytest.approx(-0.5 * (final - 1.0) * (1.0 - P.gamma), rel=1e-12)
        assert margin < 0.0


def test_margin_vanishes_in_flat_limit():
    assert improvement_margin(1e-13, 0.4, 0.0, 0.5, P, D) == pytest.approx(0.0, abs=1e-12)


def test_margin_increasing_in_nu():
    h = 1e-6
    for _ in range(60):
        beta_lo, beta_hi, nu, x0 = random_admissible_tuple()
        try:
            lo = improvement_margin(beta_lo, beta_hi, nu - h, x0, P, D)
            hi = improvement_margin(beta_lo, beta_hi, nu + h, x0, P, D)
        except DomainError:
            continue
        assert hi > lo - 1e-12


def test_feasibility_interval_noiseless():
    d0 = derive_constants(P, nu=0.0)
    region = feasibility_interval(P, d0)
    first = curriculum_coefficients(P).first
    assert region.valid and region.lo == 0.0
    assert region.hi == pytest.approx(2 ** (-P.beta_hi) * (1 - P.gamma) / first, rel=1e-14)


def test_feasibility_interval_endpoints():
    d = derive_constants(P, nu=0.02)
    region = feasibility_interval(P, d)
    hard = invariant_interval(2 ** (-P.beta_hi), P, d)
    first = curriculum_coefficients(P).first
    assert region.lo == hard.lo
    assert region.hi == pytest.approx(2 ** (-P.beta_hi) / first * hard.hi, rel=1e-14)


def test_feasibility_shrinkage_two_sided_bound():
    base = feasibility_interval(P, derive_constants(P, nu=0.0))
    for nu in np.linspace(0.003, 0.035, 12):
        d = derive_constants(P, nu=float(nu))
        region = feasibility_interval(P, d)
        assert region.valid
        shrink = base.length - region.length
        lo_bound = 2 ** P.beta_hi * d.c_delta_prime * nu
        inner = 2 ** (-P.beta_hi) * (1 - P.gamma) - d.c_delta_prime * nu
        hi_bound = lo_bound + 1.5 * math.sqrt(3) * d.c_delta * nu / (P.c * math.sqrt(inner))
        assert lo_bound - 1e-12 <= shrink <= hi_bound + 1e-12


def test_feasibility_length_decreasing_in_budget_parameter():
    lengths = [feasibility_interval(P, derive_constants(P, nu=float(nu))).length
               for nu in np.linspace(0.0, 0.04, 15)]
    assert all(b < a for a, b in zip(lengths, lengths[1:]))


def test_feasibility_propagates_invalidity():
    region = feasibility_interval(P, derive_constants(P, nu=0.2))
    assert not region.valid


def test_threshold_strictly_increasing():
    nu_c = collapse_budget(P.beta_lo, P.beta_hi, P, D)
    values = [improvement_threshold(P.beta_lo, P.beta_hi, float(nu), P, D)
              for nu in np.linspace(0.05, 0.95, 16) * nu_c]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_threshold_zero_at_zero_budget():
    assert improvement_threshold(P.beta_lo, P.beta_hi, 0.0, P, D) == 0.0


def test_threshold_no_root_beyond_collapse():
    nu_c = collapse_budget(P.beta_lo, P.beta_hi, P, D)
    with pytest.raises(BracketError, match="collapse"):
        improvement_threshold(P.beta_lo, P.beta_hi, 1.05 * nu_c, P, D)


def test_threshold_sign_equivalence():
    # margin < 0 exactly for initializations above the threshold
    for nu in (0.005, 0.012, 0.02):
        x_t = improvement_threshold(P.beta_lo, P.beta_hi, nu, P, D)
        for x0 in (x_t * 1.001, x_t * 1.5, 0.97):
            assert improvement_margin(P.beta_lo, P.beta_hi, nu, x0, P, D) < 0.0
        for x0 in (x_t * 0.999, x_t * 0.7):
            try:
                assert improvement_margin(P.beta_lo, P.beta_hi, nu, x0, P, D) > 0.0
            except DomainError:
                pass  # below the domain edge counts as not improving


def test_threshold_blowup_toward_collapse():
    nu_c = collapse_budget(P.beta_lo, P.beta_hi, P, D)
    close = improvement_threshold(P.beta_lo, P.beta_hi, 0.999 * nu_c, P, D)
    far = improvement_threshold(P.beta_lo, P.beta_hi, 0.9 * nu_c, P, D)
    assert close > 50 * far


def test_collapse_budget_sign_change():
    nu_c = collapse_budget(P.beta_lo, P.beta_hi, P, D)
    assert improvement_margin(P.beta_lo, P.beta_hi, nu_c * 0.999, None, P, D) < 0.0
    assert improvement_margin(P.beta_lo, P.beta_hi, nu_c * 1.001, None, P, D) > 0.0


def test_collapse_budget_decreasing_in_difficulty_span():
    values = [collapse_budget(0.1, beta, P, D) for beta in (0.3, 0.5, 0.8, 1.2)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_error_limit_matches_large_initialization():
    for nu in (0.005, 0.015):
        limit = error_functional(P.beta_lo, P.beta_hi, nu, None, P, D)
        at_large = error_functional(P.beta_lo, P.beta_hi, nu, 1e9, P, D)
        assert at_large == pytest.approx(limit, abs=1e-7)


def test_half_error_budget():
    nu_t = baseline_half_error_budget(P, D)
    target = 0.5 * (1 - P.gamma)
    assert baseline_error_term(nu_t, P, D) == pytest.approx(target, abs=1e-9)
    assert baseline_error_term(0.0, P, D) == 0.0
    # strictly increasing on a sample grid
    values = [baseline_error_term(float(nu), P, D) for nu in np.linspace(0.0, nu_t, 12)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_baseline_term_geometric_forms_agree():
    for nu in np.linspace(1e-4, 0.05, 9):
        inner = 1 - P.gamma - D.c_delta_prime * nu
        q = D.c_delta * nu / (2 * P.c * inner ** 1.5)
        ratio_form = (D.c_delta * nu / (P.c * math.sqrt(inner))
                      * (1 - q ** (P.L - 1)) / (1 - q))
        assert baseline_error_term(float(nu), P, D) == pytest.approx(ratio_form, rel=1e-12)


def test_max_improving_nu_roundtrip():
    for x0 in (0.2, 0.49, 0.8):
        star = max_improving_nu(P.beta_lo, P.beta_hi, x0, P, D)
        # the threshold at the root budget equals the initialization
        assert improvement_threshold(P.beta_lo, P.beta_hi, star, P, D) == pytest.approx(
            x0, rel=1e-6)
        assert improvement_margin(P.beta_lo, P.beta_hi, star * 0.999, x0, P, D) < 0.0
        assert improvement_margin(P.beta_lo, P.beta_hi, star * 1.001, x0, P, D) > 0.0


def test_max_improving_nu_rejects_bad_initialization():
    with pytest.raises(ParameterError):
        max_improving_nu(P.beta_lo, P.beta_hi, 0.0, P, D)
    with pytest.raises(ParameterError):
        max_improving_nu(P.beta_lo, P.beta_hi, 1.0 - P.gamma, P, D)


def test_max_improving_nu_monotonicities_small_grid():
    x0 = 0.5 * (1 - P.gamma)
    along_hi = [max_improving_nu(0.1, beta, x0, P, D) for beta in (0.3, 0.6, 0.9)]
    assert all(b < a for a, b in zip(along_hi, along_hi[1:]))
    along_lo = [max_improving_nu(bl, 1.0, x0, P, D) for bl in (0.05, 0.3, 0.6)]
    assert all(b > a for a, b in zip(along_lo, along_lo[1:]))


def test_max_improving_nu_below_half_error_budget():
    nu_t = baseline_half_error_budget(P, D)
    x0 = 0.5 * (1 - P.gamma)
    for beta_lo, beta_hi in ((0.05, 0.3), (0.2, 0.9), (1.0, 1.4)):
        assert max_improving_nu(beta_lo, beta_hi, x0, P, D) < nu_t


def test_small_exponent_linear_coefficient():
    log_factor = math.log(P.L) - math.log(math.factorial(P.L)) / P.L
    assert log_factor == pytest.approx(0.6519395638776911, abs=1e-12)
    gap = 0.1
    coeff = (P.c * (1 - P.gamma) ** 1.5 * log_factor
             / (2 * D.c_delta * (2 ** (gap / 2) - 1)))
    beta_lo = 1e-3
    star = max_improving_nu(beta_lo, beta_lo + gap, 0.5 * (1 - P.gamma), P, D)
    assert star / beta_lo == pytest.approx(coeff, rel=0.05)


def test_profile_unimodal_small_grid():
    profile = max_improving_nu_profile(0.1, np.linspace(0.05, 6.0, 40),
                                       0.5 * (1 - P.gamma), P, D)
    assert len(profile.local_maxima()) == 1
    assert profile.points[profile.argmax_index][1] == max(v for _, v in profile.points)
    assert profile.tail_slope < 0.0


def test_threshold_curve_samples():
    nu_c = collapse_budget(P.beta_lo, P.beta_hi, P, D)
    grid = list(np.linspace(0.1, 0.9, 9) * nu_c) + [1.1 * nu_c]
    samples = threshold_curve(P.beta_lo, P.beta_hi, grid, P, D)
    assert [nu for nu, _, _ in samples] == grid
    defined = [(nu, x) for nu, x, ok in samples if ok]
    assert len(defined) == 9
    xs = [x for _, x in defined]
    assert all(b > a for a, b in zip(xs, xs[1:]))
    assert samples[-1][2] is False and math.isnan(samples[-1][1])


def test_growth_ratio_against_numeric_derivative():
    # Independent oracle: differentiate the final coefficient numerically.
    h = 1e-7
    for levels in (2, 5, 10):
        for beta_lo in (0.1, 1.0, 4.0):
            def final(b):
                weights = sum(i ** (-b) for i in range(1, levels + 1))
                return weights / levels ** (1 - b)
            derivative = (final(beta_lo + h) - final(beta_lo - h)) / (2 * h)
            expected = final(beta_lo) * (final(beta_lo) - 1.0) / derivative
            assert coefficient_growth_ratio(beta_lo, levels) == pytest.approx(
                expected, rel=1e-6)


def test_growth_ratio_limits_and_monotonicity():
    grid = np.linspace(0.01, 20.0, 60)
    for levels in (2, 5):
        values = [coefficient_growth_ratio(float(b), levels) for b in grid]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[0] < 0.05
        assert values[-1] > 1e3


def test_conditional_mean_equality_at_zero():
    lhs, rhs = conditional_mean_check(7, 0.8, 0.0)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_conditional_mean_two_levels_closed_form():
    for t in (0.1, 0.3, 0.6):
        lhs, rhs = conditional_mean_check(2, 1.7, t)
        assert lhs == pytest.approx(math.log(2) - t, rel=1e-12)
        assert rhs == pytest.approx(math.log(2), rel=1e-12)
        assert lhs <= rhs


def test_conditional_mean_inequality_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        levels = int(rng.integers(2, 13))
        beta_lo = rng.uniform(0.01, 5.0)
        t = rng.uniform(0.0, math.log(levels) * 0.999)
        lhs, rhs = conditional_mean_check(levels, beta_lo, t)
        assert lhs <= rhs + 1e-12


def test_conditional_mean_domain():
    with pytest.raises(ParameterError):
        conditional_mean_check(5, 0.5, math.log(5))
    with pytest.raises(ParameterError):
        conditional_mean_check(5, 0.5, -0.1)
