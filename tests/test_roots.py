"""The one root finder and the roots it gives: ``regions.last_true`` on its
own, the scale-free small-budget behaviour of the improvement threshold,
and the critical budgets against a 50-digit bisection of the same margin."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from selfimprove import BoundProblem, TheoryParams, critical_budgets, curriculum_coefficients
from selfimprove.regions import improvement_margin, last_true

from exact import ExactMargin, bisect

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


def test_last_true_evaluates_inside_open_brackets_and_at_lo_once_converged():
    """Every argument ``holds`` receives: strictly inside the bracket of an
    element still open, at ``lo`` once it has converged (here the [0, 1]
    element, one step before the [0, inf] one), and never at a ``hi`` above
    ``lo``.  The converged element's outcome is discarded."""
    lo, hi = np.array([0.0, 0.0, 2.0, 3.0]), np.array([1.0, math.inf, 2.0, 3.0])
    calls = []

    def holds(x):
        calls.append(x.copy())
        return x < -1.0

    new_lo, new_hi = last_true(holds, lo, hi)
    assert new_lo.tolist() == [0.0, 0.0, 2.0, 3.0] and new_hi.tolist() == [5e-324] * 2 + [2.0, 3.0]
    bracket_lo, bracket_hi = lo.copy(), hi.copy()
    at_lo = []
    for x in calls:
        is_open = bracket_lo.view(np.int64) + 1 < bracket_hi.view(np.int64)
        assert ((bracket_lo < x) & (x < bracket_hi))[is_open].all()
        assert (x == bracket_lo)[~is_open].all()
        at_lo.append(~is_open)
        bracket_hi = np.where(is_open & ~(x < -1.0), x, bracket_hi)
    assert (bracket_hi == new_hi).all()
    # The [0, 1] element converges one step before [0, inf], and is then
    # evaluated once at its lo, 0.0; the equal ends are evaluated at lo alone.
    assert np.array(at_lo).sum(axis=0).tolist() == [1, 0, len(calls), len(calls)]
    assert calls[-1][0] == 0.0


def where_loop(holds, lo, hi):
    """``last_true`` as it was before it updated its bracket in place: each
    step builds new ends with ``np.where``."""
    lo, hi = ((np.asarray(end, dtype=float) + 0.0).view(np.int64) for end in (lo, hi))
    while (wide := (gap := hi - lo) > 1).any():
        mid = lo + gap // 2
        ok = np.asarray(holds(mid.view(np.float64)), dtype=bool)
        lo = np.where(ok, mid, lo)
        hi = np.where(wide & ~ok, mid, hi)
    return lo.view(np.float64)[()], hi.view(np.float64)[()]


def _traced(solver, boundary, lo, hi):
    """``solver``'s bracket for ``x < boundary`` and the bytes of every
    point it evaluated; the caller's ends must keep their bytes."""
    before = [np.asarray(end).tobytes() for end in (lo, hi)]
    calls = []

    def holds(x):
        calls.append(x.tobytes())
        return x < boundary

    ends = solver(holds, lo, hi)
    assert [np.asarray(end).tobytes() for end in (lo, hi)] == before
    return ends, calls


TINY, BIG = 5e-324, np.finfo(float).max
BRACKETS = {
    "0-d": (-0.0, math.inf, 1e-300),
    "0-d converged": (1.0, math.nextafter(1.0, 2.0), 1.5),
    "0-d equal ends": (2.0, 2.0, 3.0),
    "0-d ends, 1-d boundary": (0.0, math.inf, np.array([0.0, TINY, 0.5, BIG, math.inf])),
    "1-d": (np.array([-0.0, 0.0, 0.0, 2.0, 1.0, 0.0, 0.25]),
            np.array([math.inf, 1.0, TINY, 2.0, math.nextafter(1.0, 2.0), math.inf, 0.75]),
            np.array([0.3, -0.0, 1.0, 2.0, 1.0, math.inf, 0.5])),
    "2-d": (np.array([[0.0], [-0.0], [1e-310]]), np.array([[1.0, math.inf, 1e-310, 4.0]]),
            np.array([[0.5, 1e300, 0.0, 3.0], [TINY, 2.0, 1e-320, math.inf],
                      [1e-310, 5.0, 1.0, 1e-309]])),
}


@pytest.mark.parametrize("name", BRACKETS)
def test_in_place_bracket_has_the_bits_and_calls_of_the_where_loop(name):
    """On 0-d, 1-d and 2-d brackets (ends broadcast against the boundary),
    with signed zeros, +inf, adjacent (converged) and equal ends, the
    in-place bisection returns the ``np.where`` loop's ends bit for bit,
    after the same calls at the same points, and writes neither of the
    caller's ends."""
    lo, hi, boundary = BRACKETS[name]
    (new_lo, new_hi), calls = _traced(last_true, boundary, lo, hi)
    (old_lo, old_hi), old_calls = _traced(where_loop, boundary, lo, hi)
    assert calls == old_calls
    for new, old in ((new_lo, old_lo), (new_hi, old_hi)):
        assert type(new) is type(old) and np.shape(new) == np.shape(old)
        assert np.asarray(new).tobytes() == np.asarray(old).tobytes()


@given(st.lists(st.tuples(non_negative, non_negative, non_negative), min_size=1, max_size=8))
@settings(deadline=None)
def test_in_place_bracket_equals_the_where_loop_on_random_brackets(triples):
    lo, boundary, hi = (np.array(column) for column in zip(*(sorted(t) for t in triples)))
    (new_lo, new_hi), calls = _traced(last_true, boundary, lo, hi)
    (old_lo, old_hi), old_calls = _traced(where_loop, boundary, lo, hi)
    assert calls == old_calls
    assert new_lo.tobytes() == old_lo.tobytes() and new_hi.tobytes() == old_hi.tobytes()


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
    p = TheoryParams(L=levels)
    beta_lo = np.array([lo for lo, _ in pairs])
    beta_hi = np.array([lo + gap for lo, gap in pairs])
    problem = BoundProblem(p, beta_lo, beta_hi)
    sets = [p.with_betas(lo, hi) for lo, hi in zip(beta_lo.tolist(), beta_hi.tolist())]
    alone = [BoundProblem(pp) for pp in sets]
    batched = problem.max_improving_nu(np.array(x0s)[:, None])
    scalar = [[one.max_improving_nu(x0) for one in alone] for x0 in x0s]
    assert batched.tobytes() == np.array(scalar).tobytes()
    nus = np.concatenate([np.array(fractions)[:, None] * problem.max_improving_nu(math.inf),
                          np.repeat(np.array(budgets)[:, None], len(sets), axis=1)])
    batched = problem.threshold(nus)
    scalar = [[one.threshold(nu) for one, nu in zip(alone, row)] for row in nus]
    assert batched.tobytes() == np.array(scalar).tobytes()


def _one_shot_margin(problem: BoundProblem, nu, x0, half_error):
    """The positivity conditions and the margin (or the half-error
    difference) in one evaluation, every term in the order the functional
    defines it: the reference for the two-stage evaluation."""
    p = problem.p
    c, gamma, L, cd, cdp = p.c, p.gamma, p.L, p.c_delta, p.c_delta_prime
    nu = np.asarray(nu, dtype=float)
    with np.errstate(all="ignore"):
        cd_nu, cdp_nu = cd * nu, cdp * nu
        base_inner = 1.0 - gamma - cdp_nu
        q = cd_nu / (2.0 * c * np.power(base_inner, 1.5))
        series = sum(np.power(q, j) for j in range(L - 1))
        baseline = cd_nu / (c * np.sqrt(base_inner)) * series
        res_inner = problem.first * x0 - cdp_nu
        residual = cd_nu / (c * np.sqrt(res_inner))
        ratio_inner = problem.hard * (1.0 - gamma - residual) - cdp_nu
        ratio = cd_nu / (2.0 * c * np.power(ratio_inner, 1.5))
        hard_inner = problem.hard * (1.0 - gamma) - cdp_nu
        common_ratio = ratio * problem.decay
        tail = cd_nu / (c * np.sqrt(hard_inner)) / (1.0 - common_ratio)
        hard_term = np.power(ratio, L - 1) * problem.hard_weight * residual
        error = baseline - problem.final * (tail + hard_term)
        margin = -error - 0.5 * (problem.final - 1.0) * (1.0 - gamma)
        holds = (nu >= 0.0, base_inner > 0.0, res_inner > 0.0, ratio_inner > 0.0,
                 hard_inner > 0.0, common_ratio < 1.0 - 1e-10)
    margin = np.where(np.logical_and.reduce(np.broadcast_arrays(*holds)), margin, np.nan)
    return holds, np.where(half_error, baseline - 0.5 * (1.0 - gamma), margin)


@pytest.mark.parametrize("levels", [2, 5, 40])
def test_two_stage_margin_equals_one_shot_evaluation_bit_for_bit(levels):
    """The margin from a precomputed budget stage, and from budgets, has the
    bits of the one-shot evaluation, NaN outside the domain and the
    half-error difference included."""
    rng = np.random.default_rng(levels)
    beta_lo = rng.uniform(0.01, 3.0, 30)
    problem = BoundProblem(TheoryParams(L=levels), beta_lo, beta_lo + rng.uniform(0.01, 3.0, 30))
    nu = np.concatenate([[-1e-3, 0.0, 5e-324, 1e-20], rng.uniform(0.0, 0.1, 26)])[:, None, None]
    x0 = np.concatenate([[math.inf, 0.0, 1e-9], rng.uniform(0.0, 0.98, 7)])[:, None]
    half = rng.random((len(x0), 30)) < 0.3
    stage = problem.budget_stage(nu)
    for half_error in (False, half):
        holds, want = _one_shot_margin(problem, nu, x0, half_error)
        assert np.isnan(want).any() and (want < 0.0).any()
        for budgets in (stage, nu):
            got = improvement_margin(problem, budgets, x0, half_error)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # Each condition, in order: the scalar DomainError names the first that fails.
    for got, condition in zip(problem._evaluate(stage, x0)[0], holds, strict=True):
        assert np.array_equal(*np.broadcast_arrays(got, condition))
    assert not all(np.all(condition) for condition in holds)
    one = BoundProblem(TheoryParams(L=levels))
    for nu0, x00 in ((0.01, 0.5), (0.01, math.inf), (0.5, 0.5), (-1.0, 0.5)):
        _, want = _one_shot_margin(one, nu0, x00, False)
        assert _bits(improvement_margin(one, one.budget_stage(nu0), x00)) == _bits(want)
        assert _bits(improvement_margin(one, nu0, x00)) == _bits(want)


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
    assert BoundProblem(P).threshold(nu) / nu == pytest.approx(slope, rel=1e-12 + 25.0 * nu)


@given(beta_hi=st.floats(min_value=0.02, max_value=50.0),
       fraction=st.floats(min_value=0.01, max_value=0.99),
       x0=st.floats(min_value=0.01, max_value=0.97))
@settings(max_examples=60, deadline=None)
def test_max_improving_nu_is_a_sign_change_or_a_domain_edge(beta_hi, fraction, x0):
    pp = P.with_betas(fraction * beta_hi, beta_hi)
    problem = BoundProblem(pp)
    star = critical_budgets(pp, x0=x0)["nu_star"]
    assert improvement_margin(problem, star, x0) < 0.0
    after = improvement_margin(problem, math.nextafter(star, math.inf), x0)
    assert after >= 0.0 or math.isnan(after)


def test_roots_match_a_50_digit_bisection_of_the_same_margin():
    """Agreement is relative, not in ULP: near 0.995 nu_c the threshold is
    ill-conditioned, and thousands of ULP there are still about 1e-12."""
    exact_p = ExactMargin(P)

    def improving_in_nu(exact_margin, x0):
        def holds(nu):
            margin, _, _ = exact_margin.evaluate(nu, x0)
            return margin is not None and margin < 0
        return holds

    def not_improving_in_x0(nu):
        def holds(x0):
            margin, _, _ = exact_p.evaluate(nu, x0)
            return margin is None or margin >= 0
        return holds

    def baseline_below_half(nu):
        return exact_p.evaluate(nu)[1] < (1 - exact_p.gamma) / 2

    budgets = critical_budgets(P, nu_c=True, nu_t=True, x0=X0)
    nu_c = budgets["nu_c"]
    cases = [(nu_c, improving_in_nu(exact_p, math.inf)),
             (budgets["nu_t"], baseline_below_half),
             (budgets["nu_star"], improving_in_nu(exact_p, X0))]
    for beta_hi in (12.0, 40.0):
        pp = P.with_betas(P.beta_lo, beta_hi)
        cases.append((critical_budgets(pp, nu_c=True)["nu_c"],
                      improving_in_nu(ExactMargin(pp), math.inf)))
    nus = np.array([0.02, 0.3, 0.6, 0.9, 0.995]) * nu_c
    for nu, threshold in zip(nus.tolist(), BoundProblem(P).threshold(nus).tolist()):
        cases.append((threshold, not_improving_in_x0(nu)))
    for root, holds in cases:
        exact = bisect(holds, root)
        assert abs(root - float(exact)) <= 1e-11 * float(exact), (root, float(exact))


def ulp_neighbours(roots, width):
    """The ``2 * width + 1`` floats centred on each of ``roots``, one row each."""
    return (np.asarray(roots, dtype=float)[:, None].view(np.int64)
            + np.arange(-width, width + 1)).view(np.float64)


def test_nu_roots_are_the_bisections_inside_a_window_of_sign_flips():
    """A measured fact about the margin as it stands, on a fixed seed: a
    target is monotone outside a window of ULP around some roots, and inside
    it the root is the flip that ``last_true``'s midpoints reach.  Of 100
    random sets, 7 flip the sign of the margin more than once within 2048
    ULP of their ``max_improving_nu``, the widest from first to last flip
    over 155 ULP (at beta_lo = 0.0011, where the margin is a small
    difference of larger terms); on either side of the flips every point
    keeps its sign.  A formula change that moves these counts says so."""
    rng = np.random.default_rng(0)
    beta_hi = rng.uniform(0.02, 3.0, 100)
    beta_lo = rng.uniform(0.01, 0.99, 100) * beta_hi
    x0 = rng.uniform(0.01, 0.97, 100)
    roots = BoundProblem(P, beta_lo, beta_hi).max_improving_nu(x0)
    width = 2048
    improving = improvement_margin(BoundProblem(P, beta_lo[:, None], beta_hi[:, None]),
                                   ulp_neighbours(roots, width), x0[:, None]) < 0.0
    flips = improving[:, 1:] != improving[:, :-1]
    first = np.argmax(flips, axis=1)
    last = flips.shape[1] - 1 - np.argmax(flips[:, ::-1], axis=1)
    assert flips.any(axis=1).all()
    assert (flips.sum(axis=1) > 1).sum() == 7
    assert (last - first).max() == 155
    # The root is a flip: improving at it, not one float above.
    assert improving[:, width].all() and not improving[:, width + 1].any()
    points = np.arange(flips.shape[1] + 1)
    assert np.where(points <= first[:, None], improving, True).all()
    assert not np.where(points > last[:, None], improving, False).any()


def test_a_threshold_on_an_exact_zero_run_of_the_margin_is_its_top():
    """A measured fact about the margin as it stands: at this set and budget
    the margin is exactly 0.0 on the 91 floats up to the threshold, positive
    below them and negative above, and ``threshold``, the last point where
    the margin is not negative, returns the top of the run."""
    problem = BoundProblem(P.with_betas(0.13269625516161898, 1.623667073393449))
    nu = 0.007890896949674233
    threshold = problem.threshold(nu)
    margin = improvement_margin(problem, nu, ulp_neighbours([threshold], 200)[0])
    assert np.flatnonzero(margin == 0.0).tolist() == list(range(110, 201))
    assert (margin[:110] > 0.0).all() and (margin[201:] < 0.0).all()
