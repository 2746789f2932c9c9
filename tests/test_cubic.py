import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfimprove import (DomainError, Interval, TheoryParams, cubic_roots, effective_sigma,
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
    sigmas = rng.uniform(1e-4, SIGMA_MAX - 1e-4, size=200)
    for sigma, o_minus, o_plus in zip(sigmas, *oracle_cubic_roots(sigmas)):
        y_minus, y_plus = cubic_roots(float(sigma))
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


@pytest.mark.parametrize("nu", [-0.01, -5e-324, -math.inf, math.nan])
def test_negative_or_nan_budget_fails_the_budget_rule_first(nu):
    p = TheoryParams()
    with pytest.raises(DomainError, match="^nu must be non-negative$"):
        effective_sigma(1.0, p, nu)
    iv = invariant_interval(1.0, p, nu)
    assert (iv.valid, iv.reason) == (False, "nu must be non-negative")
    assert math.isnan(iv.lo) and math.isnan(iv.hi)
    many = invariant_interval(np.array([1.0, 0.5]), p, np.array([nu, 0.01]))
    assert many.valid.tolist() == [False, True]
    assert many.reason.tolist() == ["nu must be non-negative", None]


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


def test_underflowing_sigma_is_the_zero_budget_limit():
    # At a subnormal budget and a hard level's scale, sigma underflows to 0:
    # the interval is the nu -> 0 one, valid, and no DomainError escapes.
    p = TheoryParams(L=2, beta_lo=2.0, beta_hi=3.5)
    a, nu = 2.0 ** -3.5, 5e-324
    assert effective_sigma(a, p, nu) == 0.0
    iv = invariant_interval(a, p, nu)
    assert iv.valid and iv.hi == 1.0 - p.gamma
    assert iv.lo == p.c_delta_prime * nu / a


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


def scalar_or_nan(f, *args):
    """``f`` at one point, NaN where it raises ``DomainError``."""
    try:
        return f(*args)
    except DomainError:
        return (math.nan, math.nan) if f is cubic_roots else math.nan


def math_half_angle(sigma):
    return math.acos(min(1.0, max(-1.0, -1.0 + 13.5 * sigma * sigma))) / 3.0


def math_roots(sigma):
    u = math_half_angle(sigma)
    return (2.0 / 3.0 + (2.0 / 3.0) * math.cos(u - 4.0 * math.pi / 3.0),
            2.0 / 3.0 + (2.0 / 3.0) * math.cos(u - 2.0 * math.pi / 3.0))


def math_interval(a, p, nu):
    """Reference: (lo, hi, valid) of the invariant interval at one point,
    with ``math`` and Python floats, ``**`` raising ``OverflowError``."""
    if not nu >= 0.0 or a <= 0.0:
        return math.nan, math.nan, False
    if nu == 0.0:
        return 0.0, 1.0 - p.gamma, True
    inner = a * (1.0 - p.gamma) - p.c_delta_prime * nu
    if inner <= 0.0:
        return math.nan, math.nan, False
    try:
        sigma = a * p.c_delta * nu / (p.c * inner ** 1.5)
    except OverflowError:
        sigma = (a / inner) * p.c_delta * nu / (p.c * math.sqrt(inner))
    if not sigma < SIGMA_MAX - 1e-8:  # NaN, overflow, the fold and its band
        return math.nan, math.nan, False
    y_minus, y_plus = math_roots(sigma) if sigma > 0.0 else (0.0, 1.0)
    offset = p.c_delta_prime * nu / a
    scale = 1.0 - p.gamma - offset
    return offset + scale * y_minus, offset + scale * y_plus, True


def listed(interval):
    """An ``Interval`` of arrays as a flat list of ``Interval``s, in C order."""
    fields = (interval.lo, interval.hi, interval.valid, interval.reason)
    return list(map(Interval, *(np.ravel(field).tolist() for field in fields)))


def test_array_calls_equal_their_scalar_calls_bit_for_bit():
    """Every cubic function broadcasts with the bits of its scalar calls,
    NaN where they raise, and ``invariant_interval`` with their reasons:
    valid points, both sides of the near-degenerate band and of the fold, a
    failing radicand, a <= 0, NaN and infinite a, nu = 0 and nu < 0, sigma
    underflowing to 0 (nu = 5e-324) and sigma overflowing inner^(3/2)
    (a = 1e300) or everything (a = 1e308).
    Both equal the closed form evaluated with ``math`` (libm's bits), and
    scalar calls give Python floats."""
    p = TheoryParams()
    band, fold = (last_true(lambda nu: effective_sigma(1.0, p, nu) < edge, 0.0, 1.0)
                  for edge in (SIGMA_MAX - 1e-8, SIGMA_MAX))
    nus = [-0.01, 0.0, 5e-324, 0.01, 0.03, *map(float, (*band, *fold)), 0.05, 8e307]
    scales = [-1.0, 0.0, 0.02, 2.0 ** -3.5, 0.7, 1.0, 1.7, 1e201, 1e300, 1e308, math.inf,
              math.nan]
    rng = np.random.default_rng(0)
    points = [(x, nu) for x in scales for nu in nus] + list(zip(
        rng.uniform(0.3, 3.0, 300).tolist(), rng.uniform(0.0, 0.05, 300).tolist()))
    a, nu = (np.array(column) for column in zip(*points))
    want = [invariant_interval(x, p, y) for x, y in points]
    assert repr(listed(invariant_interval(a, p, nu))) == repr(want)
    grid = invariant_interval(np.array(scales)[:, None], p, np.array(nus))
    assert repr(listed(grid)) == repr(want[:len(scales) * len(nus)])
    assert repr([(iv.lo, iv.hi, iv.valid) for iv in want]) == repr(
        [math_interval(x, p, y) for x, y in points])
    kinds = {(iv.reason or "valid").split(" ")[0] for iv in want}
    assert kinds == {"valid", "nu", "scale", "radicand", "sigma", "near-degenerate:"}
    assert repr(effective_sigma(a, p, nu).tolist()) == repr(
        [scalar_or_nan(effective_sigma, x, p, y) for x, y in points])

    sigmas = np.array([-1.0, 0.0, 5e-324, 1e-8, *rng.uniform(0.0, SIGMA_MAX, 300),
                       *(SIGMA_MAX - d for d in (2e-8, 1e-8, 1e-9)),
                       math.nextafter(SIGMA_MAX, 0.0), SIGMA_MAX, 0.5, math.nan])
    assert repr(np.column_stack(cubic_roots(sigmas)).tolist()) == repr(
        [list(scalar_or_nan(cubic_roots, s)) for s in sigmas.tolist()])
    for f in (exact_root_gap, gap_lower_bound):
        assert repr(f(sigmas).tolist()) == repr([scalar_or_nan(f, s) for s in sigmas.tolist()])
    inside = [s for s in sigmas.tolist() if 0.0 < s < SIGMA_MAX]
    assert repr(np.column_stack(cubic_roots(np.array(inside))).tolist()) == repr(
        [list(math_roots(s)) for s in inside])
    assert repr(exact_root_gap(np.array(inside)).tolist()) == repr(
        [2.0 / math.sqrt(3.0) * math.sin(math_half_angle(s)) for s in inside])

    iv = invariant_interval(1.0, p, 0.02)
    assert (type(iv.lo), type(iv.hi), type(iv.valid)) == (float, float, bool)
    assert {type(v) for v in (effective_sigma(1.0, p, 0.02), *cubic_roots(0.2),
                              exact_root_gap(0.2), gap_lower_bound(0.2))} == {float}
