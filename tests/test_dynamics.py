import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selfimprove import (BoundProblem, TheoryParams, checks, curriculum_coefficients,
                         invariant_interval)
from selfimprove.dynamics import (PLATEAU_EPSILONS, increasing, iterate, map_budget, rises,
                                  run_schedule, step)

# Frozen from high-precision summation: sum_{i=1..5} i^(-0.1) = 4.550881937194478
FIRST_COEFF_L5 = 1.0986881375969936   # 5 / 4.550881937194478
FINAL_COEFF_L5 = 1.0691104262371469   # 4.550881937194478 / 5^0.9
RATIO_FIRST_STEP = 0.7578582832551990  # 2^(-0.4)

P = TheoryParams()
EPS = np.finfo(float).eps


def domain_lo(nu):
    """Lower edge of the baseline map's natural domain."""
    return P.c_delta_prime * nu


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


def _plain_coefficients(L, beta_lo, beta_hi):
    """The coefficients in Python floats: ``**`` and a left-to-right sum."""
    weight_sum = sum(i ** (-beta_lo) for i in range(1, L + 1))
    mid = tuple((t + 1) ** (-beta_hi) / t ** (-beta_hi) for t in range(1, L))
    return L / weight_sum, weight_sum / L ** (1.0 - beta_lo), mid


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("levels", [2, 5, 1000])
def test_broadcast_coefficients_equal_the_one_pair_calls_bit_for_bit(levels):
    rng = np.random.default_rng(levels)
    count = 40 if levels == 1000 else 300
    beta_lo = rng.uniform(0.001, 12.0, count)
    beta_hi = beta_lo + rng.uniform(0.001, 5.0, count)
    p = TheoryParams(L=levels)
    together = curriculum_coefficients(p, beta_lo, beta_hi)
    alone = [curriculum_coefficients(p.with_betas(lo, hi))
             for lo, hi in zip(beta_lo.tolist(), beta_hi.tolist())]
    plain = [_plain_coefficients(levels, lo, hi)
             for lo, hi in zip(beta_lo.tolist(), beta_hi.tolist())]
    for name, index in (("first", 0), ("final", 1)):
        assert _bits(getattr(together, name)) == _bits([getattr(co, name) for co in alone])
        assert _bits(getattr(together, name)) == _bits([values[index] for values in plain])
    assert _bits(np.transpose(together.mid)) == _bits([co.mid for co in alone])
    assert _bits([co.mid for co in alone]) == _bits([values[2] for values in plain])


def test_a_one_pair_call_gives_python_floats():
    """The CSVs print ``repr`` of these values, which a numpy scalar changes."""
    co = curriculum_coefficients(P)
    assert type(co.first) is float and type(co.final) is float
    assert all(type(value) is float for value in co.schedule)
    assert (co.first, co.final, co.mid) == _plain_coefficients(P.L, P.beta_lo, P.beta_hi)


def test_eval_map_noiseless():
    nu = 0.0
    for x in (1e-9, 0.3, 0.97):
        assert step(x, 1.0, P, nu) == 1.0 - P.gamma
    assert np.all(step(np.array([1e-9, 0.3, 0.97]), 1.0, P, nu) == 1.0 - P.gamma)


def test_eval_map_below_ceiling():
    nu = 0.02
    assert np.all(step(np.linspace(0.1, 0.97, 20), 1.0, P, nu) < 1.0 - P.gamma)


def test_eval_map_domain_error():
    # Outside the natural domain, and for NaN input, the map is NaN.
    nu = 0.05
    for x in (domain_lo(nu), domain_lo(nu) - 0.01, 0.0, math.nan):
        assert math.isnan(step(x, 1.0, P, nu))
    values = step(np.array([domain_lo(nu), 0.5, math.nan]), 1.0, P, nu)
    assert np.isnan(values[0]) and np.isfinite(values[1]) and np.isnan(values[2])


def test_eval_map_diverges_at_boundary():
    nu = 0.05
    values = [step(domain_lo(nu) + eps, 1.0, P, nu) for eps in (1e-2, 1e-4, 1e-8, 1e-12)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < -1e3


def test_eval_map_fixed_point_residual():
    nu = 0.05
    iv = invariant_interval(1.0, P, nu)
    assert abs(step(iv.lo, 1.0, P, nu) - iv.lo) < 1e-10
    assert abs(step(iv.hi, 1.0, P, nu) - iv.hi) < 1e-10


def test_step_on_arrays_matches_scalar_calls():
    nu = 0.03
    xs = np.linspace(0.0, 1.0, 41)
    values = step(xs, 0.8, P, nu)
    assert values.shape == xs.shape
    assert np.array_equal(values, [step(float(x), 0.8, P, nu) for x in xs], equal_nan=True)


def expression_step(x, a, p, nu):
    """Reference for ``step``: the map as one expression, masked by ``np.where``."""
    r = a * np.asarray(x, dtype=float) - p.c_delta_prime * nu
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(r > 0, 1 - p.gamma - p.c_delta * nu / (p.c * np.sqrt(r)), np.nan)[()]


MAP_STARTS = st.one_of(st.floats(min_value=-1e300, max_value=1e300),
                       st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0]))


@given(starts=st.lists(MAP_STARTS, min_size=1, max_size=8),
       a=st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(min_value=0.05, max_value=2.0)),
       budgets=st.lists(st.floats(min_value=0.0, max_value=0.5), min_size=1, max_size=8),
       budget_kind=st.sampled_from(["zero", "scalar", "per point"]),
       on_edge=st.lists(st.booleans(), min_size=1, max_size=8),
       as_array=st.booleans())
@example(starts=[0.5, math.nan, 0.0, -0.0, 0.3], a=1.0, budgets=[0.05] * 5,
         budget_kind="per point", on_edge=[True, False, False, False, False], as_array=True)
@example(starts=[0.4], a=2.0, budgets=[0.02], budget_kind="scalar", on_edge=[True],
         as_array=False)                                     # radicand exactly 0 at a float
@settings(max_examples=300, deadline=None)
def test_step_has_the_bits_and_type_of_the_expression(starts, a, budgets, budget_kind,
                                                       on_edge, as_array):
    """With and without ``out``, on floats and arrays, at NaN, signed zeros
    and the domain edge a*x = c_delta_prime*nu (radicand exactly 0 at a
    power-of-two scale), and without writing into ``x`` or ``nu``."""
    n = len(starts) if as_array else len(budgets)
    nu = {"zero": 0.0, "scalar": budgets[0],
          "per point": np.resize(np.array(budgets), n)}[budget_kind]
    edge = P.c_delta_prime * np.broadcast_to(nu, (n,)) / a
    if as_array:
        x, moved = np.array(starts), np.resize(on_edge, n)
        x[moved] = edge[moved]
    else:
        x = float(edge[0]) if on_edge[0] else starts[0]
    before = (np.asarray(x).tobytes(), np.asarray(nu).tobytes())
    want = expression_step(x, a, P, nu)
    got = step(x, a, P, nu)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert got.tobytes() == want.tobytes()
    if isinstance(want, np.ndarray):
        out = np.full_like(want, 7.0)
        assert step(x, a, P, nu, out=out) is out
        assert out.tobytes() == want.tobytes()
    assert (np.asarray(x).tobytes(), np.asarray(nu).tobytes()) == before


@given(starts=st.lists(MAP_STARTS, min_size=1, max_size=8),
       a=st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(min_value=0.05, max_value=2.0)),
       budgets=st.lists(st.floats(min_value=0.0, max_value=0.5), min_size=1, max_size=8),
       budget_kind=st.sampled_from(["zero", "scalar", "per point"]),
       as_array=st.booleans())
@example(starts=[0.4, math.nan, -math.nan, 0.0], a=2.0, budgets=[0.02], budget_kind="scalar",
         as_array=True)
@settings(max_examples=200, deadline=None)
def test_step_on_the_map_budget_has_the_bits_of_step_on_nu(starts, a, budgets, budget_kind,
                                                           as_array):
    """``map_budget(p, nu)`` in place of ``nu``: the type and bytes of
    ``step`` on ``nu`` and of the plain expression, NaN bytes included, on
    floats and arrays, with and without ``out``, and the budget terms keep
    their bytes."""
    n = len(starts) if as_array else 1
    nu = {"zero": 0.0, "scalar": budgets[0],
          "per point": np.resize(np.array(budgets), n)}[budget_kind]
    x = np.array(starts) if as_array else starts[0]
    budget = map_budget(P, nu)
    terms = [np.asarray(term).tobytes() for term in budget]
    want, got = expression_step(x, a, P, nu), step(x, a, P, budget)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert got.tobytes() == want.tobytes() == step(x, a, P, nu).tobytes()
    if isinstance(want, np.ndarray):
        out = np.full_like(want, 7.0)
        assert step(x, a, P, budget, out=out) is out
        assert out.tobytes() == want.tobytes()
    assert [np.asarray(term).tobytes() for term in budget] == terms


def test_rises_is_the_two_clause_test():
    """"Rises, or falls by at most ``PLATEAU_EPSILONS`` epsilons of the
    start" is one comparison, ``after >= before * (1 - PLATEAU_EPSILONS *
    eps)``: from a positive start, a rise, a plateau and a fall of exactly
    the slack pass, and the next float down fails.  A fall of
    2e-15 at 0.98 (9 epsilons) fails: the old absolute tolerance 1e-14
    passed it, and so would a slack 10^5 times larger.  Infinities and NaN
    follow the comparison."""
    start = 0.98
    floor = start * (1.0 - PLATEAU_EPSILONS * EPS)
    afters = np.array([start, np.nextafter(start, 1.0), floor, np.nextafter(floor, 1.0),
                       np.nextafter(floor, 0.0), start - 2e-15, math.inf, -math.inf, math.nan])
    expected = [True, True, True, True, False, False, True, False, False]
    got = rises(np.full_like(afters, start), afters)
    assert got.tolist() == expected
    assert got.tolist() == (afters >= floor).tolist()
    assert not rises(math.nan, 0.0) and not rises(0.0, math.nan)


def test_rises_at_or_below_zero_has_no_slack():
    """For ``before <= 0`` the scaled start is not below it: at zero a step
    must not fall (the signed zeros are equal), and below zero it must rise
    by ``PLATEAU_EPSILONS`` epsilons of ``|before|``, so standing still
    fails.  The maps never test such a step: a point at or below zero
    leaves the domain on its next step, at every budget."""
    assert rises(0.0, 0.0) and rises(0.0, -0.0) and rises(-0.0, 0.0) and rises(0.0, 5e-324)
    assert not rises(0.0, -5e-324)
    needed = -(1.0 - PLATEAU_EPSILONS * EPS)
    assert rises(-1.0, needed) and not rises(-1.0, np.nextafter(needed, -2.0))
    assert not rises(-1.0, -1.0) and not rises(-1.0, -2.0)
    for x, nu in ((0.0, 0.0), (-0.0, 0.0), (0.0, 0.01), (-0.3, 0.0), (-0.3, 0.01)):
        assert math.isnan(step(x, 1.0, P, nu))


def test_a_fall_at_a_tiny_budget_is_not_a_plateau():
    """At nu = 1e-15 a start at 1 - gamma falls 5.0e-15 (45 ULP, 23
    epsilons of the start) in its first step and then stays put: a fall,
    which the old absolute tolerance 1e-14 called a plateau, and which a
    slack 10^5 times larger would too."""
    values = iterate(1.0 - P.gamma, (1.0,) * 100, P, 1e-15)
    fall = values[0] - values[1]
    assert fall == pytest.approx(5.0e-15, rel=1e-3) and fall / np.spacing(values[0]) == 45.0
    assert (values[1:] == values[1]).all()
    assert not rises(values[0], values[1]) and not increasing(values)
    assert increasing(values[1:])


def test_converged_iterates_of_criterion_5_never_fall():
    """The measurement behind ``PLATEAU_EPSILONS``: in criterion 5's
    100-step runs from 200 starts inside the invariant interval (the draws
    of ``checks.check_trajectory_classification``), no step falls at all,
    so converged iterates reach their float fixed point from below and
    stay.  The slack of 4 epsilons covers rounding, not a measured wiggle."""
    nu = 0.05
    interval = invariant_interval(1.0, P, nu)
    draws = checks._rng().random((200, 3))[:, 0]
    starts = checks._uniform(interval.lo + 1e-6, interval.hi - 1e-6, draws)
    values = iterate(starts, (1.0,) * 100, P, nu)
    assert (values[1:] >= values[:-1]).all()
    assert increasing(values).all()


@given(x=st.floats(min_value=0.15, max_value=0.97),
       bump=st.floats(min_value=1e-6, max_value=0.1))
@settings(max_examples=200, deadline=None)
def test_eval_map_strictly_increasing_in_x(x, bump):
    nu = 0.04
    assert step(x + bump, 1.0, P, nu) > step(x, 1.0, P, nu)


@given(x=st.floats(min_value=0.2, max_value=0.97),
       nu=st.floats(min_value=1e-4, max_value=0.05),
       bump=st.floats(min_value=1e-5, max_value=0.02))
@settings(max_examples=200, deadline=None)
def test_eval_map_strictly_decreasing_in_nu(x, nu, bump):
    lo = step(x, 1.0, P, nu)
    hi = step(x, 1.0, P, nu + bump)
    assert hi < lo


@given(x=st.floats(min_value=0.2, max_value=0.97),
       a=st.floats(min_value=0.5, max_value=2.0),
       bump=st.floats(min_value=1e-5, max_value=0.5))
@settings(max_examples=200, deadline=None)
def test_eval_map_increasing_in_scale(x, a, bump):
    nu = 0.03
    assert step(x, a + bump, P, nu) > step(x, a, P, nu)


def test_increasing_plateau_and_nan_rules():
    # Per column: a rise; a fall of exactly the slack, then a rise; a fall
    # of twice the slack, then a rise; a NaN image; a NaN after the start.
    values = np.array([[0.1, 0.1, 0.3, 0.1, 0.5],
                       [0.2, 0.1 * (1.0 - PLATEAU_EPSILONS * EPS),
                        0.3 * (1.0 - 2 * PLATEAU_EPSILONS * EPS), 0.2, math.nan],
                       [0.3, 0.1, 0.4, math.nan, math.nan]])
    assert increasing(values).tolist() == [True, True, False, False, False]
    assert increasing(values[1:2]).tolist() == [True] * 4 + [False]


def test_baseline_monotone_inside_interval():
    nu = 0.05
    iv = invariant_interval(1.0, P, nu)
    values = iterate(iv.lo + 0.05, (1.0,) * 15, P, nu)
    assert values.shape == (16,)
    assert np.all(np.diff(values) > 0.0)
    assert np.all((iv.lo < values) & (values < iv.hi + 1e-12))


def test_baseline_constant_at_attracting_fixed_point():
    nu = 0.05
    iv = invariant_interval(1.0, P, nu)
    values = iterate(iv.hi, (1.0,) * 100, P, nu)
    assert increasing(values)
    assert np.max(np.abs(values - iv.hi)) < 5e-13


def test_baseline_near_constant_at_repelling_fixed_point():
    # The lower endpoint repels, so float drift grows; a short horizon stays put.
    nu = 0.05
    iv = invariant_interval(1.0, P, nu)
    values = iterate(iv.lo, (1.0,) * 5, P, nu)
    assert np.max(np.abs(values - iv.lo)) < 1e-10


def test_baseline_decreasing_below_interval():
    nu = 0.05
    iv = invariant_interval(1.0, P, nu)
    values = iterate(iv.lo - 1e-6, (1.0,) * 50, P, nu)
    finite = values[~np.isnan(values)]
    assert np.all(np.diff(finite) < 0.0)
    assert not increasing(values)


def test_baseline_truncates_on_domain_exit():
    # Once a value leaves the domain every later one is NaN.
    nu = 0.05
    values = iterate(domain_lo(nu) + 1e-10, (1.0,) * 10, P, nu)
    exited = np.isnan(values)
    assert exited[-1] and not exited[0]
    first = int(np.argmax(exited))
    assert exited[first:].all() and not exited[:first].any()
    assert not increasing(values)


def test_baseline_zero_steps():
    nu = 0.05
    values = iterate(0.4, (), P, nu)
    assert values.tolist() == [0.4]
    assert increasing(values)


def test_iterate_rows_match_per_start_iteration():
    nu = 0.04
    starts = np.linspace(0.0, 1.0 - P.gamma, 31)
    schedule = curriculum_coefficients(P).schedule
    rows = iterate(starts, schedule, P, nu)
    assert rows.shape == (P.L + 1, starts.size)
    for j, x0 in enumerate(starts):
        assert np.array_equal(rows[:, j], iterate(float(x0), schedule, P, nu), equal_nan=True)
    assert np.array_equal(increasing(rows),
                          [increasing(rows[:, j]) for j in range(starts.size)])


def test_run_schedule_is_the_last_row_and_increasing_of_iterate():
    """Bit for bit, with one budget per point, starts outside the domain, a
    NaN start, and an empty schedule."""
    starts = np.append(np.linspace(0.0, 1.0 - P.gamma, 40), math.nan)
    nus = np.resize([0.0, 0.012, 0.04, 0.2], starts.size)
    for schedule in ((1.0,) * P.L, curriculum_coefficients(P).schedule, ()):
        rows = iterate(starts, schedule, P, nus)
        final, rising = run_schedule(starts, schedule, P, nus)
        assert final.tobytes() == rows[-1].tobytes()
        assert np.array_equal(rising, increasing(rows))
        assert np.array_equal(rows.T, [iterate(x0, schedule, P, nu)
                                       for x0, nu in zip(starts, nus)], equal_nan=True)


def test_curriculum_noiseless():
    nu = 0.0
    co = curriculum_coefficients(P)
    ceiling = 1.0 - P.gamma
    values = iterate(0.3, co.schedule, P, nu)
    assert values[1:].tolist() == [ceiling] * P.L


def test_curriculum_noiseless_flat_exponent():
    p = TheoryParams(beta_lo=1e-13, beta_hi=0.4)
    nu = 0.0
    co = curriculum_coefficients(p)
    final = co.final * iterate(0.3, co.schedule, p, nu)[-1]
    assert final == pytest.approx(1.0 - p.gamma, abs=1e-11)


def test_curriculum_monitoring_skips_initialization_step():
    # Noiseless map sends everything to the ceiling, so a start above it
    # drops at step 0; the monitored sequence begins at the first image and
    # must stay classified as non-decreasing.
    nu = 0.0
    values = iterate(0.99, curriculum_coefficients(P).schedule, P, nu)
    assert values[1] < values[0]
    assert not increasing(values)
    assert increasing(values[1:])


def test_curriculum_prefix_counts_interior_steps():
    nu = 0.01
    values = iterate(0.4, curriculum_coefficients(P).schedule, P, nu)
    assert values.shape == (P.L + 1,)
    assert not np.isnan(values).any()
    assert np.all(np.diff(values[1:]) > 0.0)
    assert increasing(values[1:])


def test_curriculum_beats_baseline_inside_improvement_region():
    nu = 0.01
    co = curriculum_coefficients(P)
    threshold = BoundProblem(P).threshold(nu)
    starts = np.linspace(threshold + 1e-3, 1.0 - P.gamma - 1e-3, 25)
    curriculum = iterate(starts, co.schedule, P, nu)
    baseline = iterate(starts, (1.0,) * P.L, P, nu)
    assert not (np.isnan(curriculum).any() or np.isnan(baseline).any())
    assert np.all(co.final * curriculum[-1] > baseline[-1])


def test_final_rescale_can_exceed_ceiling():
    # The rescale is a change of evaluation distribution; values above the
    # map ceiling are reported, not clipped.
    p = TheoryParams(beta_lo=3.0, beta_hi=3.5)
    nu = 0.0
    co = curriculum_coefficients(p)
    assert co.final * iterate(0.5, co.schedule, p, nu)[-1] > 1.0


def test_trajectory_reproducible():
    nu = 0.03
    first = iterate(0.37, (1.0,) * 60, P, nu)
    second = iterate(0.37, (1.0,) * 60, P, nu)
    assert first.tobytes() == second.tobytes()
