"""Stochastic generate-filter-update simulator on a synthetic question world.

The world is a finite question universe with per-question acceptance
probabilities constructed to satisfy the acceptance-reward coupling.  Each
round samples questions, keeps one accepted answer per question out of m
tries, and applies a surrogate update whose error scale matches the
finite-sample analysis: the total failure budget sqrt(2*log(pi_size/delta) /
n_accept) is distributed over the questions represented in the accepted
sample, proportionally to the filtered question marginal.  Questions never
represented keep their acceptance probability (a documented modeling
simplification; a shared model would also move them).

Where the per-round bound has content, measured at n = 2000: it is below 0
in every round that criterion 15, the ``sim-bound-coverage`` check and the
``sim_large_world`` benchmark run (10^4 or 10^6 questions, m = 4, where
Z_m / alpha_m_min is about 11; largest bounds -0.119 and -0.230), so their
coverage of 1.0000 holds vacuously.  Where the bound is positive and the
questions far outnumber n, it fails: at m = 16 on criterion 15's world of
10^4 questions every bound is positive (smallest 0.653), and coverage over
20 replications x 5 rounds is 0.80, 0.79 and 0.79 at three seeds.  At
m = 16 and 1,000 questions every round meets its positive bound.

A run owns its state (``_RunState``): a copy of the world's acceptance
array and an m-try buffer, updated in place (40 bytes per question with the
world's 24), and the m-try support minimum, carried with the entries updated
since.  A round takes it in full only after updating the question that held
it, so its full passes are the m-try pass (one per round, pinned by the
benchmark's element counter) and the two BLAS means.  Replications restart
one state; the tests check that a run has the bits of a chain of rounds
that each return a new array.

``run_replications`` is the one way to run the loop; one run is
``replications=1``.  Round t of replication r of a run of R replications of
T rounds draws from the counter-based stream
``Philox(SeedSequence(seed).spawn(R)[r].spawn(T)[t])``, so a run is
reproducible bit for bit at one BLAS thread count, and ``simulate --seed s
--questions Q --rounds T --replications R`` writes the records of
``run_replications(build_world(Q, 0.5, TheoryParams(), seed=s),
TheoryParams(), T, R, s)`` (0.5 is ``--v-target``'s default).  The
weighted means (``weights @ ...``) are BLAS dot products, whose summation
order in a threaded BLAS depends on its thread count: at 10^6 questions
their last bits do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require
from .params import TheoryParams

ALPHA_FLOOR = 1e-4

# Largest world ``build_world`` constructs.  A run holds 40 bytes per
# question: the world's 24 (weights, sampling CDF, initial alpha) and its own
# 16 (current alpha, m-try buffer), with no per-question temporary in a
# round; about 0.4 GB at this bound.  tracemalloc reads 40.8 bytes per
# question at 10^6 questions and n = 2000, and 25.9 at build_world's peak.
MAX_QUESTIONS = 10**7

# Largest per-round sample ``n`` a run draws.  A round peaks at 26 bytes per
# draw, in the draw's check (the uniforms, the questions, one CDF lookup and
# two masks): about 0.26 GB at this bound.  tracemalloc reads 26.0 bytes per
# draw at n = 10^6.
MAX_SAMPLES = 10**7

# Construction margins for the synthetic world: the low group sits in
# [LOW_MIN, c*V - margin), the high group in [c*V + margin, hi].
_LOW_MIN = 0.02
_MARGIN = 0.005

_DEGENERATE = "degenerate world: minimum m-try acceptance probability is 0"


@dataclass(frozen=True, eq=False)
class SimWorld:
    """Finite question universe with acceptance probabilities.

    Acceptance values of exactly zero are representable (the ratio and a
    round reject a zero m-try minimum as degenerate) but never produced by
    ``build_world`` or the update rule.

    Three plain attributes, not fields, are set once on construction.
    ``cdf`` is the sampling CDF of ``weights`` exactly as
    ``Generator.choice(..., p=weights)`` builds it on every call, and
    ``lower`` its lower neighbours (``cdf[q-1]``, 0 at ``q = 0``): two views
    of one zero-padded array, 8 bytes per question.  ``support`` is ``True``
    when every weight is positive and otherwise the mask of positive weights
    (the ``where=`` of a population minimum).  Worlds compare by identity:
    an array field has no single truth value to compare by.

    A run never changes its world: ``alpha`` is the initial acceptance, which
    each replication copies into the acceptance array of its run state.
    """

    weights: np.ndarray   # question distribution, sums to 1
    alpha: np.ndarray     # per-question acceptance probability in (0, 1]

    def __post_init__(self) -> None:
        # Reductions, not masks, which would stay resident in the heap through
        # the run; NaN, which they propagate, fails the rules.  ``min`` needs a
        # non-empty array: the weights' sum rule comes first, alpha's rule later.
        require((self.weights.ndim == 1 and self.weights.shape == self.alpha.shape,
                 "weights and alpha must be 1-D arrays of equal length"),
                (abs(float(self.weights.sum()) - 1.0) <= 1e-9 and self.weights.min() >= 0.0,
                 "weights must be a finite probability vector"))
        require((self.alpha.min() >= 0.0 and self.alpha.max() <= 1.0, "alpha must lie in [0, 1]"))
        padded = np.zeros(self.weights.size + 1)
        cdf = np.cumsum(self.weights, dtype=np.float64, out=padded[1:])
        cdf /= cdf[-1]
        support = self.weights > 0.0
        object.__setattr__(self, "cdf", cdf)
        object.__setattr__(self, "lower", padded[:-1])
        object.__setattr__(self, "support", True if support.all() else support)

    @property
    def expected_reward(self) -> float:
        """Population expected reward under binary reward: mean acceptance."""
        return float(self.weights @ self.alpha)


def satisfies_coupling(alpha: np.ndarray, weights: np.ndarray,
                       c: float, gamma: float) -> bool:
    """Check the acceptance-reward coupling on a finite universe."""
    value = float(weights @ alpha)
    return float(weights[alpha < c * value].sum()) <= gamma + 1e-12


def build_world(question_count: int, v_target: float, p: TheoryParams,
                seed: int) -> SimWorld:
    """Construct a uniform-weight world with expected reward ``v_target``.

    A gamma-fraction of questions receives acceptance below c*v_target
    (spread down to a small floor, which keeps the mean-to-min acceptance
    ratio honest), the rest sit above it; the high group is shifted so the
    population mean matches ``v_target`` almost exactly.  Deterministic
    given ``seed``.
    """
    require((0.0 < v_target < 1.0, "v_target must lie in (0, 1)"),
            (question_count >= 2, "question_count must be >= 2"),
            (question_count <= MAX_QUESTIONS,
             f"question_count must be at most {MAX_QUESTIONS}, got {question_count}"))

    pivot = p.c * v_target
    n_low = int(math.floor(p.gamma * question_count))
    if pivot <= _LOW_MIN + _MARGIN:
        n_low = 0  # no room below the pivot; coupling is then vacuous
    n_high = question_count - n_low

    low_mean = 0.5 * (_LOW_MIN + pivot - _MARGIN) if n_low else 0.0
    need_high = (v_target * question_count - low_mean * n_low) / n_high
    hi_end = 2.0 * need_high - (pivot + _MARGIN)
    require((pivot + _MARGIN < need_high or not n_low,
             f"infeasible target: high-group mean {need_high!r} not above pivot {pivot!r}"),
            (hi_end <= 1.0 and pivot + _MARGIN < need_high < 1.0,
             f"infeasible target: (c={p.c!r}, gamma={p.gamma!r}, v_target={v_target!r}) "
             "admit no valid acceptance vector"))

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    alpha = np.empty(question_count)
    if n_low:
        alpha[:n_low] = rng.uniform(_LOW_MIN, pivot - _MARGIN, size=n_low)
    alpha[n_low:] = rng.uniform(pivot + _MARGIN, hi_end, size=n_high)

    weights = np.full(question_count, 1.0 / question_count)
    # Exact mean correction via a constant shift of the high group.
    shift = (v_target - float(weights @ alpha)) * question_count / n_high
    high = alpha[n_low:]
    np.clip(np.add(high, shift, out=high), pivot + 0.5 * _MARGIN, 1.0, out=high)

    world = SimWorld(weights=weights, alpha=alpha)
    require((abs(world.expected_reward - v_target) <= 1e-3,
             "construction missed the target reward by more than 1e-3"),
            (satisfies_coupling(alpha, weights, p.c, p.gamma),
             "constructed world violates the acceptance-reward coupling"))
    return world


def multi_try_acceptance(alpha: np.ndarray, m: int, out=None) -> np.ndarray:
    """Probability that at least one of m tries is accepted.

    ``1 - (1 - alpha)**m`` in one buffer, ``out`` if given (it may be
    ``alpha``): the same ufuncs, so the same bits.
    """
    out = np.subtract(1.0, alpha, out=out)
    np.power(out, m, out=out)
    np.subtract(1.0, out, out=out)
    return out


def _tries(m) -> np.ndarray:
    """``m`` as a float array, or ``ParameterError`` unless every entry is a
    whole number >= 1 (NaN compares false, so it fails)."""
    m = np.asarray(m, dtype=float)
    require((((m >= 1.0) & (m < math.inf) & (np.trunc(m) == m)).all(),
             "m must be a whole number >= 1"))
    return m


def mean_to_min_acceptance_ratio(world: SimWorld, m):
    """Population mean over minimum of the m-try acceptance, per entry of ``m``.

    Always >= 1; non-increasing in m with limit 1 when every question has
    positive acceptance.
    """
    # One contiguous row per m: numpy squares a stride-0 exponent of 2 and
    # calls pow otherwise, so a broadcast m would tie the bits to the shape.
    rows = np.broadcast_arrays(world.alpha, _tries(m)[..., None])
    accepted = multi_try_acceptance(*map(np.ascontiguousarray, rows))
    worst = np.min(accepted, axis=-1, where=world.support, initial=np.inf)
    if not (worst > 0.0).all():
        raise DomainError(_DEGENERATE)
    return ((accepted * world.weights).sum(axis=-1) / worst)[()]


def acceptance_gain_ratio(y, m):
    """(1 - y^(m+1)) / (1 - y^m) for failure probability y in [0, 1), per ``y`` and ``m``.

    Increasing in y; equals 1 + y at m = 1.  ``float_power`` is C's pow on
    every element, whatever the shape of the call: the bits of Python's ``**``.
    """
    y, m = np.asarray(y, dtype=float), _tries(m)
    if not ((y >= 0.0) & (y < 1.0)).all():
        raise DomainError("y must lie in [0, 1)")
    return ((1.0 - np.float_power(y, m + 1.0)) / (1.0 - np.float_power(y, m)))[()]


@dataclass(frozen=True)
class RoundRecord:
    replication: int
    round_index: int
    n_accept: int
    z_m: float              # population m-try acceptance mean, pre-update
    alpha_m_min: float      # population m-try acceptance minimum, pre-update
    v_realized: float       # expected reward after the update
    bound: float            # finite-sample lower bound from pre-update state
    bound_satisfied: bool
    collapsed: bool = False


def _draw(world: SimWorld, n: int, rng: np.random.Generator) -> np.ndarray:
    """``rng.choice(Q, size=n, p=world.weights)`` draw for draw, leaving the
    stream where ``choice`` leaves it.

    ``choice`` returns ``cdf.searchsorted(rng.random(n), side="right")``: for
    each uniform ``u`` the one ``q`` with ``cdf[q-1] <= u < cdf[q]``.  Each
    ``u`` is guessed at ``floor(u*Q)``, which is below ``Q`` for every double
    ``u < 1`` and, on a uniform world, right up to rounding; the guesses that
    fail that test are searched, in ascending order (about 3x cheaper a key).
    """
    cdf, uniforms = world.cdf, rng.random(n)
    questions = (uniforms * cdf.size).astype(np.intp)
    miss = cdf[questions] <= uniforms
    miss |= world.lower[questions] > uniforms
    if miss.any():
        miss = np.flatnonzero(miss)
        miss = miss[uniforms[miss].argsort()]
        questions[miss] = cdf.searchsorted(uniforms[miss], side="right")
    return questions


def _distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a non-empty array (sorted in place): each run's first."""
    values.sort()
    first = np.empty(values.size, dtype=bool)
    first[0] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


class _RunState:
    """A run's state on ``world``: the acceptance array its rounds update in
    place, the m-try buffer, and the m-try support minimum carried from the
    last round with the entries updated since (``None``: take it in full)."""

    def __init__(self, world: SimWorld) -> None:
        self.alpha, self.tries = world.alpha.copy(), np.empty_like(world.alpha)
        self.minimum, self.changed = math.inf, None

    def restart(self, world: SimWorld) -> None:
        np.copyto(self.alpha, world.alpha)
        self.changed = None


def _one_round(world: SimWorld, p: TheoryParams, state: _RunState,
               rng: np.random.Generator, replication: int,
               round_index: int) -> tuple[np.ndarray, RoundRecord]:
    """One round over ``world``'s questions from the caller's state: writes
    the m-try acceptance of ``state.alpha`` into ``state.tries``, updates
    ``state.alpha`` in place and returns it with the round's record."""
    alpha = state.alpha
    tries = multi_try_acceptance(alpha, p.m, out=state.tries)
    z_m = float(world.weights @ tries)
    if state.changed is None:
        alpha_m_min = float(np.minimum.reduce(tries, where=world.support, initial=np.inf))
    else:  # every other entry of the support kept its value
        alpha_m_min = float(np.minimum.reduce(tries[state.changed], initial=state.minimum))
    if not alpha_m_min > 0.0:
        raise DomainError(_DEGENERATE)

    # Draw i of the sample is accepted when try i of the second stream is
    # below its m-try acceptance.
    questions = _draw(world, p.n, rng)
    accepted_mask = rng.random(p.n) < tries[questions]
    n_accept = int(accepted_mask.sum())

    state.minimum, state.changed = alpha_m_min, np.empty(0, dtype=np.intp)
    bound = math.nan  # a collapsed round (no accepted draw) skips the update
    if n_accept:
        error_budget = math.sqrt(2.0 * math.log(p.pi_size / p.delta) / n_accept)
        bound = p.tau * (1.0 - (z_m / alpha_m_min) * error_budget)
        represented = _distinct(questions[accepted_mask])
        # Drawn questions have positive weight: the carried minimum is stale
        # when one of them held it.
        share = tries[represented]
        state.changed = None if share.min() == alpha_m_min else represented
        share *= world.weights[represented]
        share /= share.sum()
        # Each updated entry lies in [ALPHA_FLOOR, 1]: the budget is positive
        # and every share lies in (0, 1].
        share *= error_budget
        np.subtract(1.0, share, out=share)
        alpha[represented] = np.maximum(ALPHA_FLOOR, share, out=share)

    v_realized = float(world.weights @ alpha)
    record = RoundRecord(replication, round_index, n_accept, z_m, alpha_m_min,
                         v_realized, bound, v_realized >= bound, collapsed=not n_accept)
    return alpha, record


def check_run(p: TheoryParams, rounds: int, replications: int) -> None:
    """``run_replications``' rules on its scalars, in order: ``ParameterError``
    with the first that fails.  A caller about to build a world for the run
    checks them first, so a fault allocates nothing in proportion to it."""
    require((replications >= 1, "replications must be >= 1"),
            (rounds >= 1, "rounds must be >= 1"),
            (p.n <= MAX_SAMPLES, f"n must be at most {MAX_SAMPLES}, got {p.n}"))


def run_replications(world: SimWorld, p: TheoryParams, rounds: int,
                     replications: int, seed: int) -> list[RoundRecord]:
    """``replications`` independent runs of ``rounds`` rounds from ``world``'s
    initial acceptance as one flat record list, deterministic in ``seed``
    (the module docstring gives each round's stream).  The replications share
    one state, restarted for each; ``world`` is left as it was.  Its rules
    are ``check_run``'s."""
    check_run(p, rounds, replications)
    state, records = _RunState(world), []
    for rep, ss in enumerate(np.random.SeedSequence(seed).spawn(replications)):
        if rep:
            state.restart(world)
        for t, child in enumerate(ss.spawn(rounds)):
            rng = np.random.Generator(np.random.Philox(child))
            records.append(_one_round(world, p, state, rng, rep, t)[1])
    return records
