"""The paper's lemmas on arrays: an array call has, element for element, the
bits of the scalar calls, and agrees with the pure-Python formulas below."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfimprove import (DomainError, ParameterError, SimWorld, acceptance_gain_ratio,
                         coefficient_growth_ratio, conditional_mean_check,
                         mean_to_min_acceptance_ratio)


# ---------------------------------------------------------------------------
# reference formulas: one scalar at a time, in pure Python
# ---------------------------------------------------------------------------

def reference_ratio(world, m):
    accepted = [1.0 - (1.0 - a) ** m for a in world.alpha.tolist()]
    mean = sum(w * x for w, x in zip(world.weights.tolist(), accepted))
    return mean / min(x for w, x in zip(world.weights.tolist(), accepted) if w > 0.0)


def reference_gain(y, m):
    return (1.0 - y ** (m + 1)) / (1.0 - y ** m)


def reference_growth(beta_lo, num_levels):
    support = [math.log(num_levels / i) for i in range(1, num_levels + 1)]
    boosted = [math.exp(beta_lo * x) for x in support]
    total = sum(boosted)
    mean = sum(x * w for x, w in zip(support, boosted)) / total
    return (total / num_levels - 1.0) / mean


def reference_conditional_mean(num_levels, beta_lo, t):
    support = [math.log(num_levels / i) for i in range(1, num_levels + 1)]
    weights = [i ** (-beta_lo) for i in range(1, num_levels + 1)]
    tail = [(x, w) for x, w in zip(support, weights) if x > t]
    lhs = sum((x - t) * w for x, w in tail) / sum(w for _, w in tail)
    positive = [(x, w) for x, w in zip(support, weights) if x > 0.0]
    rhs = sum(x * w for x, w in positive) / sum(w for _, w in positive)
    return lhs, rhs


def assert_elementwise(batched, scalar, reference, shape):
    """``batched`` has ``shape`` and the bits of the scalar calls; both agree
    with the reference within 1e-12 relative."""
    batched = np.asarray(batched)
    assert batched.shape == shape
    assert batched.tobytes() == np.array(scalar, dtype=float).reshape(shape).tobytes()
    np.testing.assert_allclose(batched.ravel(), reference, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# batched equals scalar
# ---------------------------------------------------------------------------

TRIES = st.lists(st.integers(1, 2000) | st.sampled_from([1, 2, 3]), min_size=1, max_size=12)


@given(count=st.integers(1, 30), zeros=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
       tries=TRIES)
@settings(max_examples=60, deadline=None)
def test_ratio_batched_equals_scalar(count, zeros, seed, tries):
    rng = np.random.default_rng(seed)
    weights = np.append(rng.dirichlet(np.ones(count)), np.zeros(zeros))
    world = SimWorld(weights=weights, alpha=rng.uniform(0.01, 1.0, size=count + zeros))
    m = np.array(tries)
    scalar = [mean_to_min_acceptance_ratio(world, k) for k in tries]
    reference = [reference_ratio(world, k) for k in tries]
    for shape in (m.shape, (1, m.size), (m.size, 1)):
        assert_elementwise(mean_to_min_acceptance_ratio(world, m.reshape(shape)), scalar,
                           reference, shape)


@given(ys=st.lists(st.floats(0.0, 0.999) | st.sampled_from([0.0, 0.5]), min_size=1,
                     max_size=8),
       tries=TRIES)
@settings(max_examples=60, deadline=None)
def test_gain_ratio_batched_equals_scalar(ys, tries):
    y, m = np.array(ys), np.array(tries)
    grid = [(a, k) for k in tries for a in ys]
    assert_elementwise(acceptance_gain_ratio(y, m[:, None]),
                       [acceptance_gain_ratio(a, k) for a, k in grid],
                       [reference_gain(a, k) for a, k in grid], (m.size, y.size))
    pairs = list(zip(ys, tries))
    y, m = np.array(pairs).T
    assert_elementwise(acceptance_gain_ratio(y, m),
                       [acceptance_gain_ratio(a, k) for a, k in pairs],
                       [reference_gain(a, k) for a, k in pairs], y.shape)
    assert_elementwise(acceptance_gain_ratio(y, tries[0]),
                       [acceptance_gain_ratio(a, tries[0]) for a in y],
                       [reference_gain(a, tries[0]) for a in y], y.shape)


@given(betas=st.lists(st.floats(0.01, 20.0) | st.sampled_from([0.5, 1.0, 2.0]),
                     min_size=1, max_size=10),
       levels=st.integers(2, 12))
@settings(max_examples=60, deadline=None)
def test_growth_ratio_batched_equals_scalar(betas, levels):
    beta_lo = np.array(betas)
    scalar = [coefficient_growth_ratio(b, levels) for b in betas]
    reference = [reference_growth(b, levels) for b in betas]
    for shape in (beta_lo.shape, (beta_lo.size, 1)):
        assert_elementwise(coefficient_growth_ratio(beta_lo.reshape(shape), levels), scalar,
                           reference, shape)


@given(betas=st.lists(st.floats(0.01, 5.0) | st.sampled_from([0.5, 1.0, 2.0]), min_size=1,
                     max_size=6),
       fractions=st.lists(st.floats(0.0, 0.999), min_size=1, max_size=6),
       levels=st.integers(2, 12))
@settings(max_examples=60, deadline=None)
def test_conditional_mean_batched_equals_scalar(betas, fractions, levels):
    ts = [f * math.log(levels) for f in fractions]
    grid = [(b, t) for b in betas for t in ts]
    lhs, rhs = conditional_mean_check(levels, np.array(betas)[:, None], np.array(ts))
    scalar = [conditional_mean_check(levels, b, t) for b, t in grid]
    reference = [reference_conditional_mean(levels, b, t) for b, t in grid]
    shape = (len(betas), len(ts))
    assert_elementwise(lhs, [v for v, _ in scalar], [v for v, _ in reference], shape)
    assert_elementwise(np.broadcast_to(rhs, shape), [v for _, v in scalar],
                       [v for _, v in reference], shape)


# ---------------------------------------------------------------------------
# inputs are checked where they enter
# ---------------------------------------------------------------------------

WORLD = SimWorld(weights=np.full(4, 0.25), alpha=np.array([0.3, 0.5, 0.6, 0.7]))


@pytest.mark.parametrize("call, error", [
    (lambda: coefficient_growth_ratio(math.nan, 5), ParameterError),
    (lambda: coefficient_growth_ratio(math.inf, 5), ParameterError),
    (lambda: coefficient_growth_ratio(1000.0, 5), DomainError),
    (lambda: coefficient_growth_ratio(0.5, 2.5), ParameterError),
    (lambda: coefficient_growth_ratio(0.5, 1001), ParameterError),
    (lambda: conditional_mean_check(5, math.nan, 0.1), ParameterError),
    (lambda: acceptance_gain_ratio(0.5, math.nan), ParameterError),
    (lambda: acceptance_gain_ratio(0.5, 2.5), ParameterError),
    (lambda: mean_to_min_acceptance_ratio(WORLD, math.nan), ParameterError),
], ids=["growth-nan-beta", "growth-inf-beta", "growth-overflow", "growth-fractional-levels",
        "growth-levels-above-bound", "conditional-nan-beta", "gain-nan-m", "gain-fractional-m",
        "ratio-nan-m"])
def test_lemma_inputs_are_checked(call, error):
    with pytest.raises(error):
        call()


def test_ratio_of_an_underflowing_m_try_minimum_is_a_domain_error():
    # alpha = 1e-300 passes an alpha > 0 test, but 1 - (1 - 1e-300)**m is 0.
    world = SimWorld(weights=np.full(2, 0.5), alpha=np.array([1e-300, 1.0]))
    with pytest.raises(DomainError):
        mean_to_min_acceptance_ratio(world, 3)
