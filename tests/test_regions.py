import math

import numpy as np
import pytest

from selfimprove import (BoundProblem, BracketError, DomainError, ParameterError, TheoryParams,
                         coefficient_growth_ratio, conditional_mean_check, critical_budgets,
                         curriculum_coefficients, feasibility_interval, improvement_interval,
                         invariant_interval)
from selfimprove import regions
from selfimprove.cubic import Interval

P = TheoryParams()
PROBLEM = BoundProblem(P)
RNG = np.random.default_rng(11)


def problem(beta_lo, beta_hi):
    return BoundProblem(P.with_betas(beta_lo, beta_hi))


def random_admissible_tuple():
    while True:
        beta_lo = RNG.uniform(0.02, 1.0)
        beta_hi = beta_lo + RNG.uniform(0.02, 1.0)
        nu = RNG.uniform(1e-4, 0.04)
        x0 = RNG.uniform(0.05, 0.95) * (1 - P.gamma)
        try:
            problem(beta_lo, beta_hi).error(nu, x0)
        except DomainError:
            continue
        return beta_lo, beta_hi, nu, x0


def test_error_functional_zero_at_zero_budget():
    for _ in range(25):
        beta_lo, beta_hi, _, x0 = random_admissible_tuple()
        assert problem(beta_lo, beta_hi).error(0.0, x0) == 0.0


def test_error_functional_monotonicities():
    h = 1e-6
    for _ in range(150):
        beta_lo, beta_hi, nu, x0 = random_admissible_tuple()
        try:
            at = problem(beta_lo, beta_hi)
            down_nu = at.error(nu + h, x0) - at.error(nu - h, x0)
            up_x0 = at.error(nu, x0 + h) - at.error(nu, x0 - h)
            down_beta = (problem(beta_lo, beta_hi + h).error(nu, x0)
                         - problem(beta_lo, beta_hi - h).error(nu, x0))
        except DomainError:
            continue
        assert down_nu < 1e-9
        assert up_x0 > -1e-9
        assert down_beta < 1e-9


def test_error_functional_names_first_violation():
    with pytest.raises(DomainError, match="a0\\*x0"):
        problem(0.1, 0.4).error(0.02, 1e-9)
    with pytest.raises(DomainError, match="1 - gamma"):
        problem(0.1, 0.4).error(0.9, 0.5)


def test_margin_at_zero_budget():
    for beta_lo in (0.05, 0.3, 1.0):
        pp = P.with_betas(beta_lo, beta_lo + 0.3)
        final = curriculum_coefficients(pp).final
        margin = problem(beta_lo, beta_lo + 0.3).margin(0.0, 0.5)
        assert margin == pytest.approx(-0.5 * (final - 1.0) * (1.0 - P.gamma), rel=1e-12)
        assert margin < 0.0


def test_margin_vanishes_in_flat_limit():
    assert problem(1e-13, 0.4).margin(0.0, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_margin_increasing_in_nu():
    h = 1e-6
    for _ in range(60):
        beta_lo, beta_hi, nu, x0 = random_admissible_tuple()
        try:
            at = problem(beta_lo, beta_hi)
            lo, hi = at.margin(nu - h, x0), at.margin(nu + h, x0)
        except DomainError:
            continue
        assert hi > lo - 1e-12


def test_solvers_build_the_problem_once(monkeypatch):
    """A solve validates no parameters and builds the curriculum
    coefficients at most once, however many margins it evaluates."""
    counts = dict.fromkeys(("params", "coeffs", "margins"), 0)

    def counting(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(TheoryParams, "__post_init__",
                        counting("params", TheoryParams.__post_init__))
    monkeypatch.setattr(regions, "curriculum_coefficients",
                        counting("coeffs", curriculum_coefficients))
    monkeypatch.setattr(regions, "improvement_margin",
                        counting("margins", regions.improvement_margin))
    for solve in (lambda: BoundProblem(P).threshold(0.01),
                  lambda: critical_budgets(P, nu_c=True), lambda: critical_budgets(P, x0=0.49)):
        counts.update(params=0, coeffs=0, margins=0)
        solve()
        assert counts["params"] == 0 and counts["coeffs"] <= 1
        assert counts["margins"] > 10


def test_problem_from_beta_arrays_keeps_six_floats_per_set():
    beta_lo = np.array([0.05, 0.1, 0.4])
    problem = BoundProblem(P, beta_lo, beta_lo + 0.3)
    state = ("first", "final", "hard", "decay", "hard_weight", "margin_offset")
    assert set(vars(problem)) == {"p", *state}
    assert problem.p is P
    for i, lo in enumerate(beta_lo):
        alone = BoundProblem(P.with_betas(lo, lo + 0.3))
        for name in state:
            assert getattr(problem, name)[i].tobytes() == np.float64(getattr(alone, name)).tobytes()
        # The hardest level's factors, each built once per set.
        assert problem.hard[i] == pytest.approx(2.0 ** -(lo + 0.3), rel=1e-15)
        assert problem.decay[i] == pytest.approx(math.exp(-(lo + 0.3) / P.L), rel=1e-15)
        assert problem.hard_weight[i] == pytest.approx(P.L ** -(lo + 0.3), rel=1e-15)
        # The margin's constant, formed once per set.
        assert problem.margin_offset[i] == 0.5 * (problem.final[i] - 1.0) * (1.0 - P.gamma)


@pytest.mark.parametrize("beta_lo, beta_hi, fragment", [
    ([0.1, 0.0, -1.0], 0.5, "beta_lo must be positive"),
    ([0.1, 0.3, 0.2], [0.4, 0.3, 0.1], "beta_hi must exceed beta_lo"),
    ([0.1, 0.2], [0.4, 1e308], "underflows to zero"),
    ([0.1, math.nan], 0.5, "beta_lo must be positive"),
    ([0.1, 0.2], [0.4, math.nan], "beta_hi must exceed beta_lo"),
    ([0.1, 0.4, -1.0], [0.4, 1e308, 0.5], "underflows to zero"),   # the first failing pair
])
def test_problem_from_beta_arrays_validates_as_theory_params(beta_lo, beta_hi, fragment):
    """Each pair obeys the rules and messages of ``TheoryParams``; the first
    failing pair, in order, names its first failed rule."""
    with pytest.raises(ParameterError, match=fragment):
        BoundProblem(P, beta_lo, beta_hi)
    lo, hi = np.broadcast_arrays(beta_lo, beta_hi)
    first_failing = next(pair for pair in zip(lo, hi) if not _valid(*pair))
    with pytest.raises(ParameterError, match=fragment):
        P.with_betas(*first_failing)


def _valid(beta_lo, beta_hi) -> bool:
    try:
        P.with_betas(beta_lo, beta_hi)
    except ParameterError:
        return False
    return True


def test_feasibility_interval_noiseless():
    region = feasibility_interval(P, 0.0)
    first = curriculum_coefficients(P).first
    assert region.valid and region.lo == 0.0
    assert region.hi == pytest.approx(2 ** (-P.beta_hi) * (1 - P.gamma) / first, rel=1e-14)


def test_feasibility_interval_endpoints():
    nu = 0.02
    region = feasibility_interval(P, nu)
    hard = invariant_interval(2 ** (-P.beta_hi), P, nu)
    first = curriculum_coefficients(P).first
    assert region.lo == hard.lo
    assert region.hi == pytest.approx(2 ** (-P.beta_hi) / first * hard.hi, rel=1e-14)


def test_feasibility_shrinkage_two_sided_bound():
    base = feasibility_interval(P, 0.0)
    for nu in np.linspace(0.003, 0.035, 12):
        region = feasibility_interval(P, nu)
        assert region.valid
        shrink = base.length - region.length
        lo_bound = 2 ** P.beta_hi * P.c_delta_prime * nu
        inner = 2 ** (-P.beta_hi) * (1 - P.gamma) - P.c_delta_prime * nu
        hi_bound = lo_bound + 1.5 * math.sqrt(3) * P.c_delta * nu / (P.c * math.sqrt(inner))
        assert lo_bound - 1e-12 <= shrink <= hi_bound + 1e-12


def test_feasibility_length_decreasing_in_budget_parameter():
    lengths = [feasibility_interval(P, nu).length
               for nu in np.linspace(0.0, 0.04, 15)]
    assert all(b < a for a, b in zip(lengths, lengths[1:]))


def one_budget_feasibility_interval(p, nu):
    """Reference: the feasibility interval solved for one budget on its own,
    with its own coefficient call."""
    hard = 2.0 ** (-p.beta_hi)
    inner = invariant_interval(hard, p, nu)
    if not inner.valid:
        return inner
    lo, hi = inner.lo, hard / curriculum_coefficients(p).first * inner.hi
    if hi <= lo:
        return Interval(lo, hi, False,
                        "empty: pulled-back upper endpoint at or below lower endpoint")
    return Interval(lo, hi, True)


def intervals_of(interval):
    """An ``Interval`` of arrays as a list of ``Interval``s, in order."""
    fields = (interval.lo, interval.hi, interval.valid, interval.reason)
    return [Interval(*point) for point in zip(*(field.tolist() for field in fields))]


@pytest.mark.parametrize("p", [P, TheoryParams(L=2, beta_lo=0.7, beta_hi=1.3)])
def test_feasibility_intervals_equal_the_one_budget_solves(p, monkeypatch):
    """Field for field, ``reason`` included, in the order given: nu = 0, the
    smallest subnormal, the last budget before the fold (its pulled-back
    interval is empty) and the first at it, beyond the fold and beyond the
    radicand; one coefficient call for a row with a valid interval, none
    for a row without."""
    hard = 2.0 ** (-p.beta_hi)
    below, at = regions.last_true(lambda nu: invariant_interval(hard, p, float(nu)).valid,
                                  0.0, 1.0)
    nus = [0.02, 0.0, 5e-324, float(below), float(at), 2.0 * float(at), 50.0, 0.004]
    want = [one_budget_feasibility_interval(p, nu) for nu in nus]
    reasons = [(interval.reason or "valid").split(":")[0].split(" ")[0] for interval in want]
    assert reasons == ["valid"] * 3 + ["empty", "near-degenerate", "sigma", "radicand", "valid"]
    calls = []
    coefficients = regions.curriculum_coefficients
    monkeypatch.setattr(regions, "curriculum_coefficients",
                        lambda *args: calls.append(args) or coefficients(*args))
    # repr writes every float exactly and tells NaN fields apart from missing ones.
    assert repr(intervals_of(feasibility_interval(p, np.array(nus)))) == repr(want)
    assert len(calls) == 1
    assert repr(intervals_of(feasibility_interval(p, np.array(nus[4:7])))) == repr(want[4:7])
    assert len(calls) == 1
    assert repr([feasibility_interval(p, nu) for nu in nus]) == repr(want)


@pytest.mark.parametrize("nu", [-0.01, math.nan])
def test_feasibility_rejects_a_negative_or_nan_budget(nu):
    region = feasibility_interval(P, nu)
    assert (region.valid, region.reason) == (False, "nu must be non-negative")
    many = feasibility_interval(P, np.array([nu, 0.01]))
    assert many.valid.tolist() == [False, True]
    assert many.reason[0] == "nu must be non-negative"


def test_feasibility_propagates_invalidity():
    region = feasibility_interval(P, 0.2)
    assert not region.valid


def one_threshold_improvement_interval(p, threshold):
    """Reference: the improving interval of one threshold, case by case."""
    ceiling = 1.0 - p.gamma
    if math.isnan(threshold):
        return Interval(math.nan, math.nan, False, "no improving initialization")
    if threshold >= ceiling:
        return Interval(threshold, ceiling, False, "empty: threshold at or above ceiling")
    return Interval(threshold, ceiling, True)


def test_improvement_intervals_equal_the_one_threshold_rule(monkeypatch):
    """Field for field, ``reason`` included: NaN (none improves), zero, a
    threshold inside, the last double below the ceiling, the ceiling and
    beyond it, fed in as budgets to a threshold that returns them; one
    array call, each threshold alone, and a 2-D array, the shape the scan
    passes, keeps its shape."""
    monkeypatch.setattr(BoundProblem, "threshold", lambda self, nu: np.asarray(nu)[()])
    ceiling = 1.0 - P.gamma
    thresholds = [math.nan, 0.0, 0.3, math.nextafter(ceiling, 0.0), ceiling, 2.0, math.inf]
    want = [one_threshold_improvement_interval(P, t) for t in thresholds]
    many = improvement_interval(P, np.array(thresholds))
    assert repr(intervals_of(many)) == repr(want)
    assert repr([improvement_interval(P, t) for t in thresholds]) == repr(want)
    grid = improvement_interval(P, np.array(thresholds[:6]).reshape(2, 3))
    assert [np.shape(field) for field in (grid.lo, grid.hi, grid.valid)] == [(2, 3)] * 3
    assert repr(intervals_of(Interval(*(np.ravel(field) for field in (
        grid.lo, grid.hi, grid.valid, grid.reason))))) == repr(want[:6])


def test_improvement_intervals_equal_the_one_set_solves():
    """Field for field, ``reason`` included: one call over budgets x beta
    pairs equals the one-set scalar calls, at nu = 0, the smallest
    subnormal, a budget with a valid region, the default budget (its
    threshold above the ceiling), a budget past the collapse budget and NaN."""
    pairs = [(P.beta_lo, P.beta_hi), (0.05, 0.3), (0.3, 0.9), (0.02, 2.0)]
    nus = [0.0, 5e-324, 0.01, P.default_nu, 0.05, math.nan]
    want = [improvement_interval(P.with_betas(*pair), nu) for nu in nus for pair in pairs]
    reasons = {interval.reason for interval in want}
    assert reasons == {None, "empty: threshold at or above ceiling", "no improving initialization"}
    beta_lo, beta_hi = np.array(pairs).T
    many = improvement_interval(P, np.array(nus)[:, None], beta_lo, beta_hi)
    assert np.shape(many.valid) == (len(nus), len(pairs))
    assert repr(intervals_of(Interval(*(np.ravel(field) for field in (
        many.lo, many.hi, many.valid, many.reason))))) == repr(want)


def test_threshold_strictly_increasing():
    nu_c = critical_budgets(P, nu_c=True)["nu_c"]
    values = [PROBLEM.threshold(float(nu)) for nu in np.linspace(0.05, 0.95, 16) * nu_c]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_threshold_zero_at_zero_budget():
    assert PROBLEM.threshold(0.0) == 0.0


def test_threshold_no_root_beyond_collapse():
    nu_c = critical_budgets(P, nu_c=True)["nu_c"]
    assert math.isnan(PROBLEM.threshold(1.05 * nu_c))


def test_threshold_sign_equivalence():
    # margin < 0 exactly for initializations above the threshold
    for nu in (0.005, 0.012, 0.02):
        x_t = PROBLEM.threshold(nu)
        for x0 in (x_t * 1.001, x_t * 1.5, 0.97):
            assert PROBLEM.margin(nu, x0) < 0.0
        for x0 in (x_t * 0.999, x_t * 0.7):
            try:
                assert PROBLEM.margin(nu, x0) > 0.0
            except DomainError:
                pass  # below the domain edge counts as not improving


def test_threshold_blowup_toward_collapse():
    nu_c = critical_budgets(P, nu_c=True)["nu_c"]
    close = PROBLEM.threshold(0.999 * nu_c)
    far = PROBLEM.threshold(0.9 * nu_c)
    assert close > 50 * far


def test_collapse_budget_sign_change():
    nu_c = critical_budgets(P, nu_c=True)["nu_c"]
    assert PROBLEM.margin(nu_c * 0.999) < 0.0
    assert PROBLEM.margin(nu_c * 1.001) > 0.0


def test_collapse_budget_decreasing_in_difficulty_span():
    values = [critical_budgets(P.with_betas(0.1, beta), nu_c=True)["nu_c"]
              for beta in (0.3, 0.5, 0.8, 1.2)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_error_limit_matches_large_initialization():
    for nu in (0.005, 0.015):
        limit = PROBLEM.error(nu)
        at_large = PROBLEM.error(nu, 1e9)
        assert at_large == pytest.approx(limit, abs=1e-7)


def test_half_error_budget():
    nu_t = critical_budgets(P, nu_t=True)["nu_t"]
    target = 0.5 * (1 - P.gamma)
    assert PROBLEM.baseline(nu_t) == pytest.approx(target, abs=1e-9)
    assert PROBLEM.baseline(0.0) == 0.0
    # strictly increasing on a sample grid
    values = [PROBLEM.baseline(float(nu)) for nu in np.linspace(0.0, nu_t, 12)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_baseline_term_geometric_forms_agree():
    for nu in np.linspace(1e-4, 0.05, 9):
        inner = 1 - P.gamma - P.c_delta_prime * nu
        q = P.c_delta * nu / (2 * P.c * inner ** 1.5)
        ratio_form = (P.c_delta * nu / (P.c * math.sqrt(inner))
                      * (1 - q ** (P.L - 1)) / (1 - q))
        assert PROBLEM.baseline(float(nu)) == pytest.approx(ratio_form, rel=1e-12)


@pytest.mark.parametrize("levels", [2, 3, 5, 12])
def test_geometric_series_has_the_bits_of_the_power_sum(levels):
    """The series starts at 1 + q, where the sum of ``np.power(q, j)`` over
    j < L - 1 starts with q^0 and q^1: the same bits, edge values included,
    and so the same baseline term."""
    edges = [math.nan, 0.0, -0.0, 1.0, math.inf, -math.inf, 5e-324, -5e-324, 1e308]
    q = np.concatenate([RNG.uniform(-2.0, 2.0, 200), np.exp(RNG.uniform(-700, 700, 200)),
                        edges])
    with np.errstate(all="ignore"):
        old = sum(np.power(q, j) for j in range(levels - 1))
        new = np.broadcast_to(regions._geometric_series(q, levels), q.shape)
        assert new.tobytes() == old.tobytes()
        for value in q.tolist():  # the float path of a lone budget
            old = sum(np.power(np.float64(value), j) for j in range(levels - 1))
            assert np.float64(regions._geometric_series(np.float64(value), levels)).tobytes() \
                == np.float64(old).tobytes()
    p = TheoryParams(L=levels)
    nu = np.concatenate([RNG.uniform(0.0, 0.05, 50), [0.0, -0.0, 1e-300, 5e-324, math.inf]])
    stage = BoundProblem(p).budget_stage(nu)
    with np.errstate(all="ignore"):
        inner = 1.0 - p.gamma - p.c_delta_prime * nu
        q = p.c_delta * nu / (2.0 * p.c * np.power(inner, 1.5))
        old = p.c_delta * nu / (p.c * np.sqrt(inner)) * sum(np.power(q, j)
                                                            for j in range(levels - 1))
    assert stage.baseline.tobytes() == old.tobytes()


def test_max_improving_nu_roundtrip():
    for x0 in (0.2, 0.49, 0.8):
        star = critical_budgets(P, x0=x0)["nu_star"]
        # the threshold at the root budget equals the initialization
        assert PROBLEM.threshold(star) == pytest.approx(x0, rel=1e-6)
        assert PROBLEM.margin(star * 0.999, x0) < 0.0
        assert PROBLEM.margin(star * 1.001, x0) > 0.0


def test_max_improving_nu_rejects_bad_initialization():
    with pytest.raises(ParameterError):
        critical_budgets(P, x0=0.0)
    with pytest.raises(ParameterError):
        critical_budgets(P, x0=1.0 - P.gamma)


def test_a_missing_profile_root_is_named_after_the_scalar_roots():
    """Where ``beta_lo`` is so small that the final coefficient is 1, the
    margin is not negative at nu = 0 and the profile has no root there: the
    error names the first such ``beta_lo``, and only once every scalar root
    has been found."""
    grid = np.array([0.5, 1e-300, 1e-17, 0.6, 0.7])
    fails = "negative improvement margin at x0=0.49 fails already at nu = 0"
    with pytest.raises(BracketError) as raised:
        critical_budgets(P, nu_c=True, x0=0.3, profile=(0.1, grid, 0.49))
    assert str(raised.value) == f"{fails} (beta_lo=1e-300)"
    with pytest.raises(BracketError) as raised:
        critical_budgets(P.with_betas(1e-300, 0.5), x0=0.3, profile=(0.1, grid, 0.49))
    assert str(raised.value) == "negative improvement margin at x0=0.3 fails already at nu = 0"


def test_max_improving_nu_monotonicities_small_grid():
    x0 = 0.5 * (1 - P.gamma)
    along_hi = [critical_budgets(P.with_betas(0.1, beta), x0=x0)["nu_star"]
                for beta in (0.3, 0.6, 0.9)]
    assert all(b < a for a, b in zip(along_hi, along_hi[1:]))
    along_lo = [critical_budgets(P.with_betas(bl, 1.0), x0=x0)["nu_star"]
                for bl in (0.05, 0.3, 0.6)]
    assert all(b > a for a, b in zip(along_lo, along_lo[1:]))


def test_max_improving_nu_below_half_error_budget():
    nu_t = critical_budgets(P, nu_t=True)["nu_t"]
    x0 = 0.5 * (1 - P.gamma)
    for beta_lo, beta_hi in ((0.05, 0.3), (0.2, 0.9), (1.0, 1.4)):
        assert critical_budgets(P.with_betas(beta_lo, beta_hi), x0=x0)["nu_star"] < nu_t


def test_small_exponent_linear_coefficient():
    log_factor = math.log(P.L) - math.log(math.factorial(P.L)) / P.L
    assert log_factor == pytest.approx(0.6519395638776911, abs=1e-12)
    gap = 0.1
    coeff = (P.c * (1 - P.gamma) ** 1.5 * log_factor
             / (2 * P.c_delta * (2 ** (gap / 2) - 1)))
    beta_lo = 1e-3
    star = critical_budgets(P.with_betas(beta_lo, beta_lo + gap),
                            x0=0.5 * (1 - P.gamma))["nu_star"]
    assert star / beta_lo == pytest.approx(coeff, rel=0.05)


def test_profile_unimodal_small_grid():
    profile = critical_budgets(
        P, profile=(0.1, np.linspace(0.05, 6.0, 40), 0.5 * (1 - P.gamma)))["profile"]
    values = [v for _, v in profile.points]
    peaks = [i for i in range(1, len(values) - 1)
             if values[i] > values[i - 1] and values[i] > values[i + 1]]
    assert len(peaks) == 1
    assert profile.points[profile.argmax_index][1] == max(values)
    assert profile.tail_slope < 0.0


def test_profile_tail_of_zero_roots_has_no_slope():
    # At a subnormal c every root is nu = 0: negative margin there, and none
    # at the next float.  log(0) has no slope, so the profile is a DomainError.
    p = TheoryParams(c=5e-324)
    assert critical_budgets(p, x0=0.49)["nu_star"] == 0.0
    with pytest.raises(DomainError, match="tail slope needs a positive nu_star"):
        critical_budgets(p, profile=(0.1, np.linspace(0.5, 1.0, 5), 0.49))


def test_threshold_curve_samples():
    nu_c = critical_budgets(P, nu_c=True)["nu_c"]
    grid = list(np.linspace(0.1, 0.9, 9) * nu_c) + [1.1 * nu_c]
    thresholds = PROBLEM.threshold(np.array(grid))
    assert thresholds.shape == (len(grid),)
    xs = thresholds[~np.isnan(thresholds)].tolist()
    assert len(xs) == 9
    assert all(b > a for a, b in zip(xs, xs[1:]))
    assert math.isnan(thresholds[-1])


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
