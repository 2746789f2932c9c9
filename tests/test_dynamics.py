import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfimprove import (TheoryParams, curriculum_coefficients, derive_constants,
                         improvement_threshold, invariant_interval)
from selfimprove.dynamics import PLATEAU_TOL, increasing, iterate, step

# Frozen from high-precision summation: sum_{i=1..5} i^(-0.1) = 4.550881937194478
FIRST_COEFF_L5 = 1.0986881375969936   # 5 / 4.550881937194478
FINAL_COEFF_L5 = 1.0691104262371469   # 4.550881937194478 / 5^0.9
RATIO_FIRST_STEP = 0.7578582832551990  # 2^(-0.4)

P = TheoryParams()


def domain_lo(d):
    """Lower edge of the baseline map's natural domain."""
    return d.c_delta_prime * d.nu


def test_coefficients_frozen_values():
    co = curriculum_coefficients(TheoryParams(L=5, beta_lo=0.1, beta_hi=0.4))
    assert co.first == pytest.approx(FIRST_COEFF_L5, abs=1e-12)
    assert co.final == pytest.approx(FINAL_COEFF_L5, abs=1e-12)
    assert co.mid[0] == pytest.approx(RATIO_FIRST_STEP, abs=1e-12)


def test_coefficients_tend_to_one_as_exponent_vanishes():
    co = curriculum_coefficients(TheoryParams(beta_lo=1e-13, beta_hi=0.4))
    assert co.first == pytest.approx(1.0, abs=1e-11)
    assert co.final == pytest.approx(1.0, abs=1e-11)


def test_mid_ratios_in_unit_interval_and_telescoping():
    for L, beta_hi in ((2, 0.3), (5, 0.4), (9, 1.7)):
        p = TheoryParams(L=L, beta_lo=0.05, beta_hi=beta_hi)
        co = curriculum_coefficients(p)
        assert all(0.0 < r < 1.0 for r in co.mid)
        assert math.prod(co.mid) == pytest.approx(L ** (-beta_hi), rel=1e-12)
        for t, r in enumerate(co.mid, start=1):
            assert r == pytest.approx((1 + 1 / t) ** (-beta_hi), rel=1e-12)


def test_coefficients_at_least_one():
    for beta_lo in (0.01, 0.3, 2.0):
        co = curriculum_coefficients(TheoryParams(beta_lo=beta_lo, beta_hi=beta_lo + 1))
        assert co.first > 1.0 and co.final > 1.0


def test_eval_map_noiseless():
    d = derive_constants(P, nu=0.0)
    for x in (1e-9, 0.3, 0.97):
        assert step(x, 1.0, P, d) == 1.0 - P.gamma
    assert np.all(step(np.array([1e-9, 0.3, 0.97]), 1.0, P, d) == 1.0 - P.gamma)


def test_eval_map_below_ceiling():
    d = derive_constants(P, nu=0.02)
    assert np.all(step(np.linspace(0.1, 0.97, 20), 1.0, P, d) < 1.0 - P.gamma)


def test_eval_map_domain_error():
    # Outside the natural domain, and for NaN input, the map is NaN.
    d = derive_constants(P, nu=0.05)
    for x in (domain_lo(d), domain_lo(d) - 0.01, 0.0, math.nan):
        assert math.isnan(step(x, 1.0, P, d))
    values = step(np.array([domain_lo(d), 0.5, math.nan]), 1.0, P, d)
    assert np.isnan(values[0]) and np.isfinite(values[1]) and np.isnan(values[2])


def test_eval_map_diverges_at_boundary():
    d = derive_constants(P, nu=0.05)
    values = [step(domain_lo(d) + eps, 1.0, P, d) for eps in (1e-2, 1e-4, 1e-8, 1e-12)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < -1e3


def test_eval_map_fixed_point_residual():
    d = derive_constants(P, nu=0.05)
    iv = invariant_interval(1.0, P, d)
    assert abs(step(iv.lo, 1.0, P, d) - iv.lo) < 1e-10
    assert abs(step(iv.hi, 1.0, P, d) - iv.hi) < 1e-10


def test_step_on_arrays_matches_scalar_calls():
    d = derive_constants(P, nu=0.03)
    xs = np.linspace(0.0, 1.0, 41)
    values = step(xs, 0.8, P, d)
    assert values.shape == xs.shape
    assert np.array_equal(values, [step(float(x), 0.8, P, d) for x in xs], equal_nan=True)


@given(x=st.floats(min_value=0.15, max_value=0.97),
       bump=st.floats(min_value=1e-6, max_value=0.1))
@settings(max_examples=200, deadline=None)
def test_eval_map_strictly_increasing_in_x(x, bump):
    d = derive_constants(P, nu=0.04)
    assert step(x + bump, 1.0, P, d) > step(x, 1.0, P, d)


@given(x=st.floats(min_value=0.2, max_value=0.97),
       nu=st.floats(min_value=1e-4, max_value=0.05),
       bump=st.floats(min_value=1e-5, max_value=0.02))
@settings(max_examples=200, deadline=None)
def test_eval_map_strictly_decreasing_in_nu(x, nu, bump):
    lo = step(x, 1.0, P, derive_constants(P, nu=nu))
    hi = step(x, 1.0, P, derive_constants(P, nu=nu + bump))
    assert hi < lo


@given(x=st.floats(min_value=0.2, max_value=0.97),
       a=st.floats(min_value=0.5, max_value=2.0),
       bump=st.floats(min_value=1e-5, max_value=0.5))
@settings(max_examples=200, deadline=None)
def test_eval_map_increasing_in_scale(x, a, bump):
    d = derive_constants(P, nu=0.03)
    assert step(x, a + bump, P, d) > step(x, a, P, d)


def test_increasing_plateau_and_nan_rules():
    values = np.array([[0.1, 0.1, 0.3, 0.1, 0.5],
                       [0.2, 0.1 + PLATEAU_TOL / 2, 0.3 - PLATEAU_TOL / 2, 0.2, math.nan],
                       [0.3, 0.1, 0.2, math.nan, math.nan]])
    assert increasing(values).tolist() == [True, True, False, False, False]
    assert increasing(values[1:2]).tolist() == [True] * 4 + [False]


def test_baseline_monotone_inside_interval():
    d = derive_constants(P, nu=0.05)
    iv = invariant_interval(1.0, P, d)
    values = iterate(iv.lo + 0.05, (1.0,) * 15, P, d)
    assert values.shape == (16,)
    assert np.all(np.diff(values) > 0.0)
    assert np.all((iv.lo < values) & (values < iv.hi + 1e-12))


def test_baseline_constant_at_attracting_fixed_point():
    d = derive_constants(P, nu=0.05)
    iv = invariant_interval(1.0, P, d)
    values = iterate(iv.hi, (1.0,) * 100, P, d)
    assert increasing(values)
    assert np.max(np.abs(values - iv.hi)) < 5e-13


def test_baseline_near_constant_at_repelling_fixed_point():
    # The lower endpoint repels, so float drift grows; a short horizon stays put.
    d = derive_constants(P, nu=0.05)
    iv = invariant_interval(1.0, P, d)
    values = iterate(iv.lo, (1.0,) * 5, P, d)
    assert np.max(np.abs(values - iv.lo)) < 1e-10


def test_baseline_decreasing_below_interval():
    d = derive_constants(P, nu=0.05)
    iv = invariant_interval(1.0, P, d)
    values = iterate(iv.lo - 1e-6, (1.0,) * 50, P, d)
    finite = values[~np.isnan(values)]
    assert np.all(np.diff(finite) < 0.0)
    assert not increasing(values)


def test_baseline_truncates_on_domain_exit():
    # Once a value leaves the domain every later one is NaN.
    d = derive_constants(P, nu=0.05)
    values = iterate(domain_lo(d) + 1e-10, (1.0,) * 10, P, d)
    exited = np.isnan(values)
    assert exited[-1] and not exited[0]
    first = int(np.argmax(exited))
    assert exited[first:].all() and not exited[:first].any()
    assert not increasing(values)


def test_baseline_zero_steps():
    d = derive_constants(P, nu=0.05)
    values = iterate(0.4, (), P, d)
    assert values.tolist() == [0.4]
    assert increasing(values)


def test_iterate_rows_match_per_start_iteration():
    d = derive_constants(P, nu=0.04)
    starts = np.linspace(0.0, 1.0 - P.gamma, 31)
    schedule = curriculum_coefficients(P).schedule
    rows = iterate(starts, schedule, P, d)
    assert rows.shape == (P.L + 1, starts.size)
    for j, x0 in enumerate(starts):
        assert np.array_equal(rows[:, j], iterate(float(x0), schedule, P, d), equal_nan=True)
    assert np.array_equal(increasing(rows),
                          [increasing(rows[:, j]) for j in range(starts.size)])


def test_curriculum_noiseless():
    d = derive_constants(P, nu=0.0)
    co = curriculum_coefficients(P)
    ceiling = 1.0 - P.gamma
    values = iterate(0.3, co.schedule, P, d)
    assert values[1:].tolist() == [ceiling] * P.L


def test_curriculum_noiseless_flat_exponent():
    p = TheoryParams(beta_lo=1e-13, beta_hi=0.4)
    d = derive_constants(p, nu=0.0)
    co = curriculum_coefficients(p)
    final = co.final * iterate(0.3, co.schedule, p, d)[-1]
    assert final == pytest.approx(1.0 - p.gamma, abs=1e-11)


def test_curriculum_monitoring_skips_initialization_step():
    # Noiseless map sends everything to the ceiling, so a start above it
    # drops at step 0; the monitored sequence begins at the first image and
    # must stay classified as non-decreasing.
    d = derive_constants(P, nu=0.0)
    values = iterate(0.99, curriculum_coefficients(P).schedule, P, d)
    assert values[1] < values[0]
    assert not increasing(values)
    assert increasing(values[1:])


def test_curriculum_prefix_counts_interior_steps():
    d = derive_constants(P, nu=0.01)
    values = iterate(0.4, curriculum_coefficients(P).schedule, P, d)
    assert values.shape == (P.L + 1,)
    assert not np.isnan(values).any()
    assert np.all(np.diff(values[1:]) > 0.0)
    assert increasing(values[1:])


def test_curriculum_beats_baseline_inside_improvement_region():
    d = derive_constants(P, nu=0.01)
    co = curriculum_coefficients(P)
    threshold = improvement_threshold(d.nu, P)
    starts = np.linspace(threshold + 1e-3, 1.0 - P.gamma - 1e-3, 25)
    curriculum = iterate(starts, co.schedule, P, d)
    baseline = iterate(starts, (1.0,) * P.L, P, d)
    assert not (np.isnan(curriculum).any() or np.isnan(baseline).any())
    assert np.all(co.final * curriculum[-1] > baseline[-1])


def test_final_rescale_can_exceed_ceiling():
    # The rescale is a change of evaluation distribution; values above the
    # map ceiling are reported, not clipped.
    p = TheoryParams(beta_lo=3.0, beta_hi=3.5)
    d = derive_constants(p, nu=0.0)
    co = curriculum_coefficients(p)
    assert co.final * iterate(0.5, co.schedule, p, d)[-1] > 1.0


def test_trajectory_reproducible():
    d = derive_constants(P, nu=0.03)
    first = iterate(0.37, (1.0,) * 60, P, d)
    second = iterate(0.37, (1.0,) * 60, P, d)
    assert first.tobytes() == second.tobytes()
