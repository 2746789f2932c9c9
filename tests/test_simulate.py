import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfimprove import (DomainError, ParameterError, RoundRecord, SimWorld, TheoryParams,
                         acceptance_gain_ratio, build_world, checks,
                         mean_to_min_acceptance_ratio, multi_try_acceptance,
                         run_replications, run_selfimprove, satisfies_coupling)
from selfimprove.simulate import (ALPHA_FLOOR, MAX_QUESTIONS, MAX_SAMPLES, _distinct, _draw,
                                  _one_round, _RunState)

P = TheoryParams()


def small_world(count=500, alpha_lo=0.05, alpha_hi=1.0, seed=0):
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(alpha_lo, alpha_hi, size=count)
    weights = np.full(count, 1.0 / count)
    return SimWorld(weights=weights, alpha=alpha)


# ---------------------------------------------------------------------------
# world construction
# ---------------------------------------------------------------------------

def test_build_world_hits_target_and_coupling():
    world = build_world(10_000, 0.5, P, seed=42)
    assert abs(world.expected_reward - 0.5) < 1e-3
    assert satisfies_coupling(world.alpha, world.weights, P.c, P.gamma)
    assert world.alpha.min() > 0.0 and world.alpha.max() <= 1.0
    # the low group really sits below the pivot
    below = world.weights[world.alpha < P.c * world.expected_reward].sum()
    assert 0.0 < below <= P.gamma + 1e-12


def test_build_world_deterministic():
    a = build_world(1000, 0.5, P, seed=9)
    b = build_world(1000, 0.5, P, seed=9)
    assert np.array_equal(a.alpha, b.alpha)


def test_build_world_no_low_group_when_gamma_zero():
    p = TheoryParams(gamma=0.0)
    world = build_world(1000, 0.5, p, seed=1)
    assert satisfies_coupling(world.alpha, world.weights, p.c, 0.0)
    assert (world.alpha >= p.c * world.expected_reward).all()


def test_build_world_infeasible_target():
    with pytest.raises(ParameterError, match="infeasible"):
        build_world(1000, 0.99, P, seed=0)
    with pytest.raises(ParameterError):
        build_world(1000, 1.5, P, seed=0)


def test_build_world_bounds_question_count_before_allocating():
    with pytest.raises(ParameterError, match="at most"):
        build_world(MAX_QUESTIONS + 1, 0.5, P, seed=0)


def test_run_bounds_the_sample_count_before_the_first_round():
    with pytest.raises(ParameterError, match="at most"):
        run_selfimprove(small_world(), TheoryParams(n=MAX_SAMPLES + 1), 1, seed=0)


def test_world_validation():
    with pytest.raises(ParameterError, match="probability"):
        SimWorld(weights=np.array([0.5, 0.6]), alpha=np.array([0.5, 0.5]))
    with pytest.raises(ParameterError, match="alpha"):
        SimWorld(weights=np.array([0.5, 0.5]), alpha=np.array([0.5, 1.5]))
    with pytest.raises(ParameterError, match="length"):
        SimWorld(weights=np.array([1.0]), alpha=np.array([0.5, 0.5]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_world_rejects_non_finite_entries(bad):
    with pytest.raises(ParameterError, match="probability"):
        SimWorld(weights=np.array([bad, 0.5, 0.5]), alpha=np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ParameterError, match="alpha"):
        SimWorld(weights=np.full(3, 1 / 3), alpha=np.array([0.5, bad, 0.5]))


def test_world_support_and_cdf():
    world = SimWorld(weights=np.array([0.5, 0.0, 0.5]), alpha=np.array([0.6, 0.1, 0.7]))
    assert np.array_equal(world.support, [True, False, True])
    assert world.cdf[-1] == 1.0 and np.array_equal(world.cdf, [0.5, 0.5, 1.0])
    assert small_world().support is True


def test_coupling_trivial_cases():
    # constant acceptance: holds for any c <= 1
    alpha = np.full(100, 0.5)
    weights = np.full(100, 0.01)
    for c in (0.2, 0.9, 1.0):
        assert satisfies_coupling(alpha, weights, c, 0.0)
    # c = 0 makes the constraint vacuous
    rng = np.random.default_rng(2)
    assert satisfies_coupling(rng.uniform(0.01, 1, 100), weights, 0.0, 0.0)


# ---------------------------------------------------------------------------
# acceptance ratios
# ---------------------------------------------------------------------------

def test_ratio_constant_world_is_one():
    world = SimWorld(weights=np.full(50, 0.02), alpha=np.full(50, 0.37))
    for m in (1, 2, 8, 64):
        assert mean_to_min_acceptance_ratio(world, m) == pytest.approx(1.0, abs=1e-14)


def test_ratio_nonincreasing_and_limits():
    world = small_world()
    ratios = [mean_to_min_acceptance_ratio(world, m) for m in range(1, 65)]
    assert all(r >= 1.0 - 1e-12 for r in ratios)
    assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))
    assert mean_to_min_acceptance_ratio(world, 1024) == pytest.approx(1.0, abs=1e-6)


def test_ratio_ignores_zero_weight_questions():
    weights = np.array([0.5, 0.5, 0.0])
    alpha = np.array([0.6, 0.7, 1e-9])
    world = SimWorld(weights=weights, alpha=alpha)
    assert mean_to_min_acceptance_ratio(world, 1) == pytest.approx(0.65 / 0.6, rel=1e-12)


def test_ratio_degenerate_error():
    world = SimWorld(weights=np.array([0.5, 0.5]), alpha=np.array([0.0, 0.5]))
    with pytest.raises(DomainError):
        mean_to_min_acceptance_ratio(world, 4)


@pytest.mark.parametrize("low", [0.0, 1e-300])
def test_round_of_a_zero_m_try_minimum_is_a_domain_error(low):
    world = SimWorld(weights=np.full(4, 0.25), alpha=np.array([low, 0.5, 0.6, 0.7]))
    with pytest.raises(DomainError):
        run_selfimprove(world, P, rounds=1, seed=0)


def test_gain_ratio_identities():
    for y in np.linspace(0.0, 0.99, 12):
        assert acceptance_gain_ratio(float(y), 1) == pytest.approx(1.0 + y, rel=1e-12)
    for m in (1, 5, 40):
        assert acceptance_gain_ratio(0.0, m) == 1.0


def test_gain_ratio_increasing_in_y():
    for m in (1, 3, 17, 50):
        values = [acceptance_gain_ratio(float(y), m) for y in np.linspace(0, 0.999, 80)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_gain_ratio_domain():
    with pytest.raises(DomainError):
        acceptance_gain_ratio(1.0, 3)
    with pytest.raises(DomainError):
        acceptance_gain_ratio(-0.1, 3)


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

def test_run_reproducible_bit_for_bit():
    p = TheoryParams(n=400)
    world = small_world()
    a = run_selfimprove(world, p, rounds=4, seed=123)
    b = run_selfimprove(world, p, rounds=4, seed=123)
    assert a == b
    c = run_selfimprove(world, p, rounds=4, seed=124)
    assert a != c


def test_replications_reproducible_and_distinct():
    p = TheoryParams(n=300)
    world = small_world()
    a = run_replications(world, p, rounds=2, replications=3, seed=5)
    b = run_replications(world, p, rounds=2, replications=3, seed=5)
    assert a == b
    by_rep = {}
    for r in a:
        by_rep.setdefault(r.replication, []).append(r.n_accept)
    assert len(by_rep) == 3
    assert len({tuple(v) for v in by_rep.values()}) > 1


def test_round_records_well_formed():
    p = TheoryParams(n=500)
    world = build_world(2000, 0.5, p, seed=3)
    records = run_selfimprove(world, p, rounds=4, seed=7)
    assert [r.round_index for r in records] == [0, 1, 2, 3]
    for r in records:
        assert 0 <= r.n_accept <= p.n
        assert r.z_m >= r.alpha_m_min > 0.0
        assert 0.0 < r.v_realized <= 1.0


def test_update_keeps_alpha_in_range_and_v_consistent():
    p = TheoryParams(n=500)
    world = build_world(2000, 0.5, p, seed=3)
    state = _RunState(world)
    alpha = state.alpha
    ss = np.random.SeedSequence(99)
    for t, child in enumerate(ss.spawn(6)):
        rng = np.random.Generator(np.random.Philox(child))
        result, record = _one_round(world, p, state, rng, 0, t)
        assert result is alpha
        assert (alpha > 0.0).all() and (alpha <= 1.0).all()
        if not record.collapsed:
            assert record.v_realized == float(world.weights @ alpha)


def test_unrepresented_questions_keep_alpha():
    p = TheoryParams(n=10)
    world = small_world(count=5000)
    records = run_selfimprove(world, p, rounds=1, seed=1)
    assert records[0].n_accept <= 10


def test_collapse_round_skips_update():
    p = TheoryParams(n=20, m=1)
    alpha = np.full(50, 1e-9)
    world = SimWorld(weights=np.full(50, 0.02), alpha=alpha)
    records = run_selfimprove(world, p, rounds=1, seed=0)
    assert records[0].collapsed
    assert math.isnan(records[0].bound)
    assert records[0].v_realized == pytest.approx(1e-9)


def test_bound_improves_with_answer_budget():
    # more tries per question: smaller mean-to-min ratio and more data
    world = build_world(4000, 0.5, P, seed=11)
    bounds = {}
    for m in (1, 4):
        p = TheoryParams(n=1000, m=m)
        records = run_replications(world, p, rounds=1, replications=50, seed=21)
        bounds[m] = np.mean([r.bound for r in records if not r.collapsed])
    assert bounds[4] >= bounds[1]


def test_bound_slack_scales_with_inverse_root_budget():
    world = build_world(4000, 0.5, P, seed=13)
    slack = {}
    for n in (500, 2000):
        p = TheoryParams(n=n, m=4)
        records = run_replications(world, p, rounds=1, replications=100, seed=31)
        slack[n] = np.mean([p.tau - r.bound for r in records])
    assert slack[500] / slack[2000] == pytest.approx(2.0, rel=0.1)


def test_acceptance_count_matches_binomial_mean():
    p = TheoryParams(n=400, m=4)
    world = small_world(count=800)
    records = run_replications(world, p, rounds=1, replications=400, seed=17)
    counts = np.array([r.n_accept for r in records], dtype=float)
    z = float(world.weights @ multi_try_acceptance(world.alpha, p.m))
    se = math.sqrt(p.n * z * (1 - z) / len(counts))
    assert abs(counts.mean() - p.n * z) <= 3 * se


def test_bound_coverage_reduced():
    p = TheoryParams()  # n=2000, m=4
    world = build_world(10_000, 0.5, p, seed=29)
    records = run_replications(world, p, rounds=3, replications=40, seed=37)
    live = [r for r in records if not r.collapsed]
    coverage = sum(r.bound_satisfied for r in live) / len(live)
    assert coverage >= 0.95


# ---------------------------------------------------------------------------
# where the per-round bound has content: measured facts
# ---------------------------------------------------------------------------

def live_bound_rounds(questions, m, seed):
    """The live rounds of 20 replications x 5 at n = 2000 on a world built as
    criterion 15 builds its own, with ``questions`` questions, at ``m``."""
    p = TheoryParams(m=m)
    world = build_world(questions, 0.5, p, seed=checks._SEED)
    live = [r for r in run_replications(world, p, 5, 20, seed=seed) if not r.collapsed]
    assert len(live) == 100
    return live


BOUND_SEEDS = [checks._SEED, 0, 1]


@pytest.mark.parametrize("seed", BOUND_SEEDS)
def test_the_bound_is_negative_in_criterion_15s_setting(seed):
    """At 10^4 questions and m = 4, Z_m / alpha_m_min is about 11 and the
    budget term about 0.10: every bound is below 0 (largest -0.181), so the
    coverage of 1.0000 that criterion 15 reports holds vacuously."""
    assert all(r.bound < 0.0 for r in live_bound_rounds(10_000, 4, seed))


@pytest.mark.parametrize("seed", BOUND_SEEDS)
def test_a_positive_bound_fails_where_questions_far_outnumber_the_draws(seed):
    """At m = 16 on the same world every bound is positive (smallest 0.653),
    and the realized reward misses it in a fifth of the rounds: coverage
    0.80, 0.79 and 0.79, below 0.95."""
    live = live_bound_rounds(10_000, 16, seed)
    assert all(r.bound > 0.0 for r in live)
    assert sum(r.bound_satisfied for r in live) / len(live) < 0.95


@pytest.mark.parametrize("seed", BOUND_SEEDS)
def test_a_positive_bound_holds_where_the_draws_outnumber_the_questions(seed):
    """At m = 16 and 1,000 questions every bound is positive (0.653 to
    0.900), and every round meets it."""
    live = live_bound_rounds(1000, 16, seed)
    assert all(r.bound > 0.0 and r.bound_satisfied for r in live)



# ---------------------------------------------------------------------------
# the round's shortcuts reproduce the plain computation bit for bit
# ---------------------------------------------------------------------------

def philox(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def zero_weights(count):
    """Positive weights with interior runs of zeros and a zero tail."""
    weights = np.random.default_rng(count).random(count)
    weights[count // 10:count // 5] = 0.0
    weights[count // 2::7] = 0.0
    weights[-count // 20:] = 0.0
    return weights / weights.sum()


@pytest.mark.parametrize("count", [1_000, 100_000])
@pytest.mark.parametrize("kind", ["uniform", "dirichlet", "zeros"])
def test_sorted_draw_is_the_choice_draw_and_keeps_the_stream(count, kind):
    weights = {"uniform": np.full(count, 1.0 / count),
               "dirichlet": np.random.default_rng(count).dirichlet(np.ones(count)),
               "zeros": zero_weights(count)}[kind]
    world = SimWorld(weights=weights, alpha=np.full(count, 0.5))
    for seed in range(3):
        plain, drawing = philox(seed), philox(seed)
        drawn = plain.choice(count, size=2000, p=weights)
        assert np.array_equal(_draw(world, 2000, drawing), drawn)
        assert np.array_equal(plain.random(50), drawing.random(50))


class Uniforms:
    """A generator stub that returns the given uniforms."""

    def __init__(self, *values):
        self.values = np.array(values)

    def random(self, n):
        assert n == self.values.size
        return self.values.copy()


def test_the_top_uniform_draws_the_last_question():
    world = SimWorld(weights=np.full(3, 1.0 / 3), alpha=np.full(3, 0.5))
    assert np.array_equal(_draw(world, 2, Uniforms(*[np.nextafter(1.0, 0.0)] * 2)), [2, 2])
    # The guess floor(u*Q) needs no clamp: for the largest uniform, u*Q
    # rounds below Q at every world size build_world allows.
    for start in range(1, MAX_QUESTIONS + 1, 10**6):
        counts = np.arange(start, min(start + 10**6, MAX_QUESTIONS + 1), dtype=float)
        assert (np.floor(np.nextafter(1.0, 0.0) * counts) < counts).all()


def test_a_uniform_on_a_cdf_step_draws_the_next_positive_weight():
    # cdf = [0, 0.25, 0.5, 0.5, 1]: a uniform equal to a step belongs to the
    # next question of positive weight, never to one of zero weight.
    world = SimWorld(weights=np.array([0.0, 0.25, 0.25, 0.0, 0.5]), alpha=np.full(5, 0.5))
    uniforms = Uniforms(0.0, 0.25, 0.5, 0.75, 0.3)
    expected = world.cdf.searchsorted(uniforms.values, side="right")
    assert np.array_equal(expected, [1, 2, 4, 4, 2])
    assert np.array_equal(_draw(world, 5, uniforms), expected)


@given(weights=st.lists(st.floats(0.0, 1.0) | st.just(0.0), min_size=2, max_size=40),
       spike=st.integers(0, 39), height=st.floats(1.0, 1e6), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_draw_is_the_search_on_weights_with_zeros_and_a_spike(weights, spike, height, seed):
    weights = np.array(weights)
    weights[spike % weights.size] += height
    world = SimWorld(weights=weights / weights.sum(), alpha=np.full(weights.size, 0.5))
    drawn = _draw(world, 300, philox(seed))
    assert np.array_equal(drawn, world.cdf.searchsorted(philox(seed).random(300), side="right"))


def test_distinct_is_unique():
    rng = np.random.default_rng(4)
    for size in (1, 2, 1700):
        values = rng.integers(0, 500, size=size)
        expected = np.unique(values)
        assert np.array_equal(_distinct(values), expected)


def edge_alphas(seed):
    return np.concatenate([np.random.default_rng(seed).uniform(0.0, 1.0, 10_000),
                           [0.0, 1e-300, 1.0 - 1e-16, 1.0]])


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 64, 1024])
def test_multi_try_acceptance_is_the_plain_formula_bit_for_bit(m):
    alpha = edge_alphas(m)
    expected = 1.0 - (1.0 - alpha) ** m
    assert np.array_equal(multi_try_acceptance(alpha, m).view(np.int64),
                          expected.view(np.int64))


@pytest.mark.parametrize("m", [1, 2, 4, 1024])
def test_multi_try_acceptance_into_out_has_the_bits_of_a_new_array(m):
    alpha = edge_alphas(m)
    expected = multi_try_acceptance(alpha, m).view(np.int64)
    buffer = np.full_like(alpha, np.nan)
    assert multi_try_acceptance(alpha, m, out=buffer) is buffer
    assert np.array_equal(buffer.view(np.int64), expected)
    # In place: ``alpha`` itself becomes its m-try acceptance.
    assert multi_try_acceptance(alpha, m, out=alpha) is alpha
    assert np.array_equal(alpha.view(np.int64), expected)


def test_replications_leave_the_world_bit_identical():
    p = TheoryParams(n=400)
    world = build_world(2000, 0.5, p, seed=3)
    alpha, weights, cdf = world.alpha.copy(), world.weights.copy(), world.cdf.copy()
    records = run_replications(world, p, rounds=4, replications=3, seed=5)
    assert any(r.v_realized != world.expected_reward for r in records)
    for now, before in ((world.alpha, alpha), (world.weights, weights), (world.cdf, cdf)):
        assert np.array_equal(now.view(np.int64), before.view(np.int64))


def test_worlds_compare_by_identity():
    weights, alpha = np.full(4, 0.25), np.full(4, 0.5)
    world = SimWorld(weights, alpha)
    assert world == world
    assert SimWorld(weights, alpha) != SimWorld(weights, alpha)
    assert len({world, world, SimWorld(weights, alpha)}) == 2


def plain_round(world, p, rng, replication=0, round_index=0):
    """The round written out with ``rng.choice`` and ``np.unique``: a new
    acceptance array (a copy of the world's after a collapse) and the record."""
    accept_m = 1.0 - (1.0 - world.alpha) ** p.m
    support = world.weights > 0.0
    z_m = float(world.weights @ accept_m)
    alpha_m_min = float(accept_m[support].min())
    questions = rng.choice(len(world.weights), size=p.n, p=world.weights)
    accepted = rng.random(p.n) < accept_m[questions]
    n_accept = int(accepted.sum())
    alpha, bound = world.alpha.copy(), math.nan
    if n_accept:
        error_budget = math.sqrt(2.0 * math.log(p.pi_size / p.delta) / n_accept)
        bound = p.tau * (1.0 - (z_m / alpha_m_min) * error_budget)
        represented = np.unique(questions[accepted])
        filtered = world.weights[represented] * accept_m[represented]
        share = filtered / filtered.sum()
        alpha[represented] = np.maximum(1e-4, 1.0 - error_budget * share)
    v_realized = float(world.weights @ alpha)
    return alpha, RoundRecord(replication, round_index, n_accept, z_m, alpha_m_min,
                              v_realized, bound, v_realized >= bound, collapsed=not n_accept)


def dirichlet_world(count=3000, seed=8):
    """Dirichlet weights with zero-weight questions (the ``support`` mask)."""
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(count))
    weights[::7] = 0.0
    weights /= weights.sum()
    return SimWorld(weights=weights, alpha=rng.uniform(0.05, 1.0, count))


def test_round_matches_the_plain_round():
    world = dirichlet_world()
    p = TheoryParams(n=800)
    expected_world = world
    state = _RunState(world)
    alpha = state.alpha
    for t in range(4):
        _, record = _one_round(world, p, state, philox(t), 0, t)
        expected_alpha, expected = plain_round(expected_world, p, philox(t), 0, t)
        expected_world = SimWorld(weights=world.weights, alpha=expected_alpha)
        assert np.array_equal(alpha.view(np.int64), expected_alpha.view(np.int64))
        assert repr(record) == repr(expected)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("kind", ["uniform", "dirichlet"])
def test_update_spends_exactly_the_error_budget(kind, seed):
    """The shares of the represented questions sum to 1, so over the entries
    a round changes, 1 - alpha sums to the round's error budget (within
    6.4e-14 relative on these worlds)."""
    p = TheoryParams(n=500)
    world = build_world(1000, 0.5, p, seed) if kind == "uniform" else dirichlet_world(800, seed)
    state = _RunState(world)
    alpha = state.alpha
    for t, child in enumerate(np.random.SeedSequence(seed).spawn(4)):
        before = alpha.copy()
        _, record = _one_round(world, p, state, np.random.Generator(np.random.Philox(child)),
                               0, t)
        changed = before != alpha
        assert not record.collapsed and (alpha[changed] > ALPHA_FLOOR).all()
        budget = math.sqrt(2.0 * math.log(p.pi_size / p.delta) / record.n_accept)
        assert math.fsum(1.0 - alpha[changed]) == pytest.approx(budget, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# the run writes its state in place, with the bits of a new array per round
# ---------------------------------------------------------------------------

def chained_rounds(world, p, rounds, seed, replication=0):
    """``run_selfimprove`` as a chain of bare rounds: ``plain_round``s, each
    of which returns a new acceptance array and writes none."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    records = []
    for t, child in enumerate(ss.spawn(rounds)):
        alpha, record = plain_round(world, p, np.random.Generator(np.random.Philox(child)),
                                    replication, t)
        world = SimWorld(weights=world.weights, alpha=alpha)
        records.append(record)
    return records


def chained_replications(world, p, rounds, replications, seed):
    return [r for rep, child in enumerate(np.random.SeedSequence(seed).spawn(replications))
            for r in chained_rounds(world, p, rounds, child, rep)]


# A record's repr shows each float's exact value (and a NaN bound as nan).
def bits(records):
    return [repr(r) for r in records]


# Three draws at m = 1 from acceptance about 0.3 leave a round without an
# accepted draw about a third of the time: runs that mix collapsed rounds
# with updated ones.
COLLAPSING = TheoryParams(n=3, m=1)


def collapsing_world():
    return SimWorld(weights=np.full(40, 1 / 40),
                    alpha=np.random.default_rng(1).uniform(0.2, 0.4, 40))


def crowded_world():
    """50 questions under P's 2000 draws: nearly every question is represented
    in every round, the one that holds the m-try minimum included."""
    return SimWorld(weights=np.full(50, 1 / 50),
                    alpha=np.random.default_rng(2).uniform(0.05, 1.0, 50))


CHAIN_SEEDS = [0, 7, 7919]


@pytest.mark.parametrize("seed", CHAIN_SEEDS)
@pytest.mark.parametrize("world, p", [
    (dirichlet_world(), TheoryParams(n=800)),
    (build_world(2000, 0.5, P, seed=3), TheoryParams(n=500, m=2)),
    (collapsing_world(), COLLAPSING),
    (crowded_world(), P),
], ids=["dirichlet", "built", "collapsing", "crowded"])
def test_run_is_the_chain_of_bare_rounds_bit_for_bit(seed, world, p):
    alpha = world.alpha.copy()
    assert bits(run_selfimprove(world, p, 8, seed, replication=2)) == \
        bits(chained_rounds(world, p, 8, seed, replication=2))
    assert bits(run_replications(world, p, 3, 3, seed)) == \
        bits(chained_replications(world, p, 3, 3, seed))
    assert np.array_equal(world.alpha.view(np.int64), alpha.view(np.int64))


@pytest.mark.parametrize("seed", CHAIN_SEEDS)
def test_the_crowded_setting_updates_the_minimum_holder(seed):
    """On the plain chain of 8 rounds, an entry that a round changed held
    that round's m-try minimum in at least 3 rounds (3 at each seed here): a
    run that carried the minimum through them would record a stale one."""
    world, held = crowded_world(), 0
    for child in np.random.SeedSequence(seed).spawn(8):
        alpha, record = plain_round(world, P, np.random.Generator(np.random.Philox(child)))
        accept_m = 1.0 - (1.0 - world.alpha) ** P.m
        held += bool((accept_m[world.alpha != alpha] == record.alpha_m_min).any())
        world = SimWorld(weights=world.weights, alpha=alpha)
    assert held >= 3


def test_the_collapsing_setting_mixes_collapsed_and_updated_rounds():
    records = chained_replications(collapsing_world(), COLLAPSING, 8, 3, seed=0)
    assert {r.collapsed for r in records} == {True, False}
