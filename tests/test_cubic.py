import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfimprove import (DomainError, TheoryParams, cubic_roots, effective_sigma,
                         exact_root_gap, gap_lower_bound, invariant_interval)
from selfimprove.checks import oracle_cubic_roots
from selfimprove.dynamics import step
from selfimprove.params import SIGMA_MAX
from selfimprove.regions import last_true

# Frozen from high-precision evaluation of the closed forms.
Y_MINUS_AT_TWO_27 = 0.0893163974770409      # 2/3 - 1/sqrt(3)
GAP_AT_TWO_27 = 0.5773502691896258          # 1/sqrt(3)
BOUND_AT_TWO_27 = 0.2928932188134525        # 1 - sqrt(2)/2


def test_roots_at_special_sigma():
    y_minus, y_plus = cubic_roots(math.sqrt(2.0 / 27.0))
    assert y_plus == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert y_minus == pytest.approx(Y_MINUS_AT_TWO_27, abs=1e-14)


def test_roots_satisfy_cubic():
    for sigma in np.linspace(1e-3, SIGMA_MAX - 1e-3, 37):
        for y in cubic_roots(float(sigma)):
            assert y * (1.0 - y) ** 2 == pytest.approx(sigma * sigma, abs=1e-10)


def test_roots_against_bisection_oracle():
    rng = np.random.default_rng(5)
    for sigma in rng.uniform(1e-4, SIGMA_MAX - 1e-4, size=200):
        y_minus, y_plus = cubic_roots(float(sigma))
        o_minus, o_plus = oracle_cubic_roots(float(sigma))
        assert abs(y_minus - o_minus) < 1e-10
        assert abs(y_plus - o_plus) < 1e-10


def test_roots_collapse_at_fold():
    y_minus, y_plus = cubic_roots(SIGMA_MAX - 1e-9)
    assert y_minus == pytest.approx(1.0 / 3.0, abs=1e-3)
    assert y_plus == pytest.approx(1.0 / 3.0, abs=1e-3)
    assert y_minus < 1.0 / 3.0 < y_plus


def test_roots_spread_at_small_sigma():
    y_minus, y_plus = cubic_roots(1e-8)
    assert y_minus == pytest.approx(0.0, abs=1e-4)
    assert y_plus == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("sigma", [-1.0, 0.0, SIGMA_MAX, 0.5])
def test_roots_domain_errors(sigma):
    with pytest.raises(DomainError):
        cubic_roots(sigma)


def test_gap_special_values():
    sigma = math.sqrt(2.0 / 27.0)
    assert exact_root_gap(sigma) == pytest.approx(GAP_AT_TWO_27, abs=1e-12)
    assert gap_lower_bound(sigma) == pytest.approx(BOUND_AT_TWO_27, abs=1e-12)
    assert gap_lower_bound(sigma) <= exact_root_gap(sigma)


def test_gap_limits():
    assert gap_lower_bound(SIGMA_MAX) == pytest.approx(0.0, abs=1e-12)
    assert exact_root_gap(1e-12) == pytest.approx(1.0, abs=1e-6)
    assert gap_lower_bound(1e-12) == pytest.approx(1.0, abs=1e-6)


@given(st.floats(min_value=1e-6, max_value=SIGMA_MAX - 1e-9))
@settings(max_examples=300, deadline=None)
def test_bound_never_exceeds_exact_gap(sigma):
    assert exact_root_gap(sigma) >= gap_lower_bound(sigma) - 1e-12


def test_sigma_specializes_to_baseline_form():
    # At a=1 the noise parameter is c_delta*nu / (c*(1-gamma-c_delta_prime*nu)^(3/2)).
    p = TheoryParams()
    nu = 0.03
    direct = p.c_delta * nu / (p.c * (1 - p.gamma - p.c_delta_prime * nu) ** 1.5)
    assert effective_sigma(1.0, p, nu) == pytest.approx(direct, rel=1e-14)


def test_sigma_zero_at_zero_budget():
    p = TheoryParams()
    assert effective_sigma(1.0, p, 0.0) == 0.0


def test_sigma_grows_as_scale_shrinks():
    # Consistent with the interval shrinking when the task level hardens.
    p = TheoryParams()
    nu = 0.02
    sigmas = [effective_sigma(2.0 ** (-b), p, nu) for b in (0.2, 0.4, 0.8)]
    assert sigmas[0] < sigmas[1] < sigmas[2]


def test_sigma_rejects_negative_radicand():
    p = TheoryParams()
    with pytest.raises(DomainError, match="radicand"):
        effective_sigma(0.01, p, 0.1)


def test_interval_noiseless():
    p = TheoryParams()
    iv = invariant_interval(0.7, p, 0.0)
    assert iv.valid and iv.lo == 0.0 and iv.hi == 1.0 - p.gamma


def test_interval_endpoints_are_fixed_points():
    p = TheoryParams()
    for a in (0.6, 1.0, 1.7):
        for nu in (0.01, 0.03, 0.05):
            iv = invariant_interval(a, p, nu)
            if not iv.valid:
                continue
            assert abs(step(iv.lo, a, p, nu) - iv.lo) < 1e-10
            assert abs(step(iv.hi, a, p, nu) - iv.hi) < 1e-10


def test_interval_inclusion_in_scale():
    p = TheoryParams()
    nu = 0.04
    inner = invariant_interval(0.8, p, nu)
    outer = invariant_interval(1.3, p, nu)
    assert outer.lo < inner.lo and inner.hi < outer.hi


def test_interval_shrinks_with_budget_parameter():
    p = TheoryParams()
    prev = invariant_interval(1.0, p, 0.01)
    for nu in (0.02, 0.04, 0.06):
        cur = invariant_interval(1.0, p, nu)
        assert prev.lo < cur.lo and cur.hi < prev.hi
        assert cur.length < prev.length
        prev = cur


def test_interval_length_matches_sine_identity():
    p = TheoryParams()
    for a, nu in ((1.0, 0.05), (0.76, 0.03), (1.5, 0.06)):
        iv = invariant_interval(a, p, nu)
        sigma = effective_sigma(a, p, nu)
        scale = 1.0 - p.gamma - p.c_delta_prime * nu / a
        assert iv.length == pytest.approx(scale * exact_root_gap(sigma), rel=1e-12)


def test_interval_length_lower_bound():
    p = TheoryParams()
    for a, nu in ((1.0, 0.05), (0.76, 0.03), (1.5, 0.06)):
        iv = invariant_interval(a, p, nu)
        bound = ((1.0 - p.gamma - p.c_delta_prime * nu / a)
                 - 1.5 * math.sqrt(3.0) * p.c_delta * nu
                 / (p.c * math.sqrt(a * (1.0 - p.gamma) - p.c_delta_prime * nu)))
        assert iv.length >= bound - 1e-12


def test_interval_invalid_and_near_degenerate():
    p = TheoryParams()
    broken = invariant_interval(0.02, p, 0.05)
    assert not broken.valid and "radicand" in broken.reason

    # Tune nu so sigma lands inside the near-degenerate guard band.
    nu, _ = last_true(lambda nu: effective_sigma(1.0, p, nu) < SIGMA_MAX - 5e-9, 0.0, 0.2)
    near = invariant_interval(1.0, p, nu)
    assert not near.valid and "near-degenerate" in near.reason


def test_tiny_positive_radicand_is_a_valid_interval():
    # a*(1-gamma) - c_delta_prime*nu is about 1e-13: positive, so the regime
    # holds, and sigma (about 1.6e-13) is far below the fold.
    p = TheoryParams()
    a, nu = 1e-13, 1e-20
    assert 0.0 < a * (1.0 - p.gamma) - p.c_delta_prime * nu < 1e-12
    assert 0.0 < effective_sigma(a, p, nu) < 1e-12
    iv = invariant_interval(a, p, nu)
    assert iv.valid and iv.hi == pytest.approx(1.0 - p.gamma, rel=1e-12)
    assert iv.lo == pytest.approx(p.c_delta_prime * nu / a, rel=1e-9)


def test_overflowing_sigma_is_a_domain_error_and_an_invalid_interval():
    # A huge budget overflows a*c_delta*nu on the regular path, and
    # (a/inner)*c_delta*nu on the path taken when inner^(3/2) overflows.
    p = TheoryParams()
    for a, nu in ((1e200, 1e150), (1e308, 8e307)):
        with pytest.raises(DomainError, match="overflows"):
            effective_sigma(a, p, nu)
        iv = invariant_interval(a, p, nu)
        assert not iv.valid and "overflows" in iv.reason


def test_sigma_of_a_huge_scale_is_tiny_and_its_interval_valid():
    # For large a, sigma*sqrt(a) tends to c_delta*nu/(c*(1-gamma)^(3/2)):
    # a = 1e200 takes the regular path, 1e250 and 1e308 overflow inner^(3/2).
    p = TheoryParams()
    nu = 0.01
    limit = p.c_delta * nu / (p.c * (1.0 - p.gamma) ** 1.5)
    for a in (1e200, 1e250, 1e308):
        assert effective_sigma(a, p, nu) * math.sqrt(a) == pytest.approx(limit, rel=1e-12)
        iv = invariant_interval(a, p, nu)
        assert iv.valid and iv.lo == pytest.approx(p.c_delta_prime * nu / a, rel=1e-9)
        assert iv.hi == pytest.approx(1.0 - p.gamma, rel=1e-12)


def test_fixed_point_stability_classification():
    # Conjugate-map derivative (1-y)/(2y): above 1 at the lower root,
    # below 1 at the upper root.
    for sigma in np.linspace(0.01, SIGMA_MAX - 0.01, 23):
        y_minus, y_plus = cubic_roots(float(sigma))
        assert (1 - y_minus) / (2 * y_minus) > 1.0
        assert (1 - y_plus) / (2 * y_plus) < 1.0
