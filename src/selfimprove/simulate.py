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

Randomness comes from counter-based Philox streams keyed by spawned seed
sequences, one per (replication, round), so replications are reproducible
bit for bit and safe to run in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ParameterError
from .params import TheoryParams

ALPHA_FLOOR = 1e-4

# Construction margins for the synthetic world: the low group sits in
# [LOW_MIN, c*V - margin), the high group in [c*V + margin, hi].
_LOW_MIN = 0.02
_MARGIN = 0.005


@dataclass(frozen=True)
class SimWorld:
    """Finite question universe with acceptance probabilities.

    Acceptance values of exactly zero are representable (the ratio
    operations report them as degenerate) but never produced by
    ``build_world`` or the update rule.
    """

    weights: np.ndarray   # question distribution, sums to 1
    alpha: np.ndarray     # per-question acceptance probability in (0, 1]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.alpha):
            raise ParameterError("weights and alpha must have equal length")
        if (self.weights < 0.0).any() or abs(float(self.weights.sum()) - 1.0) > 1e-9:
            raise ParameterError("weights must be a probability vector")
        if (self.alpha < 0.0).any() or (self.alpha > 1.0).any():
            raise ParameterError("alpha must lie in [0, 1]")

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
    if not 0.0 < v_target < 1.0:
        raise ParameterError("v_target must lie in (0, 1)")
    if question_count < 2:
        raise ParameterError("question_count must be >= 2")

    pivot = p.c * v_target
    n_low = int(math.floor(p.gamma * question_count))
    if pivot <= _LOW_MIN + _MARGIN:
        n_low = 0  # no room below the pivot; coupling is then vacuous
    n_high = question_count - n_low

    low_mean = 0.5 * (_LOW_MIN + pivot - _MARGIN) if n_low else 0.0
    need_high = (v_target * question_count - low_mean * n_low) / n_high
    hi_end = 2.0 * need_high - (pivot + _MARGIN)
    if not pivot + _MARGIN < need_high and n_low:
        raise ParameterError(
            f"infeasible target: high-group mean {need_high!r} not above pivot {pivot!r}")
    if hi_end > 1.0 or need_high >= 1.0 or need_high <= pivot + _MARGIN:
        raise ParameterError(
            f"infeasible target: (c={p.c!r}, gamma={p.gamma!r}, v_target={v_target!r}) "
            "admit no valid acceptance vector")

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    alpha = np.empty(question_count)
    if n_low:
        alpha[:n_low] = rng.uniform(_LOW_MIN, pivot - _MARGIN, size=n_low)
    alpha[n_low:] = rng.uniform(pivot + _MARGIN, hi_end, size=n_high)

    weights = np.full(question_count, 1.0 / question_count)
    # Exact mean correction via a constant shift of the high group.
    shift = (v_target - float(weights @ alpha)) * question_count / n_high
    alpha[n_low:] = np.clip(alpha[n_low:] + shift, pivot + 0.5 * _MARGIN, 1.0)

    world = SimWorld(weights=weights, alpha=alpha)
    if abs(world.expected_reward - v_target) > 1e-3:
        raise ParameterError("construction missed the target reward by more than 1e-3")
    if not satisfies_coupling(alpha, weights, p.c, p.gamma):
        raise ParameterError("constructed world violates the acceptance-reward coupling")
    return world


def multi_try_acceptance(alpha: np.ndarray, m: int) -> np.ndarray:
    """Probability that at least one of m tries is accepted."""
    return 1.0 - (1.0 - alpha) ** m


def mean_to_min_acceptance_ratio(world: SimWorld, m: int) -> float:
    """Population mean over minimum of the m-try acceptance probability.

    Always >= 1; non-increasing in m with limit 1 when every question has
    positive acceptance.
    """
    if m < 1:
        raise ParameterError("m must be >= 1")
    support = world.weights > 0.0
    if float(world.alpha[support].min()) <= 0.0:
        raise DomainError("degenerate world: minimum acceptance probability is 0")
    accepted = multi_try_acceptance(world.alpha, m)
    mean = float(world.weights @ accepted)
    worst = float(accepted[support].min())
    return mean / worst


def acceptance_gain_ratio(y: float, m: int) -> float:
    """(1 - y^(m+1)) / (1 - y^m) for failure probability y in [0, 1).

    Increasing in y; equals 1 + y at m = 1.
    """
    if m < 1:
        raise ParameterError("m must be >= 1")
    if not 0.0 <= y < 1.0:
        raise DomainError("y must lie in [0, 1)")
    return (1.0 - y ** (m + 1)) / (1.0 - y ** m)


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


def _one_round(world: SimWorld, p: TheoryParams, rng: np.random.Generator,
               replication: int, round_index: int) -> tuple[SimWorld, RoundRecord]:
    accept_m = multi_try_acceptance(world.alpha, p.m)
    support = world.weights > 0.0
    z_m = float(world.weights @ accept_m)
    alpha_m_min = float(accept_m[support].min())

    questions = rng.choice(len(world.weights), size=p.n, p=world.weights)
    accepted_mask = rng.random(p.n) < accept_m[questions]
    n_accept = int(accepted_mask.sum())

    if n_accept == 0:
        record = RoundRecord(replication, round_index, 0, z_m, alpha_m_min,
                             world.expected_reward, math.nan, False, collapsed=True)
        return world, record

    error_budget = math.sqrt(2.0 * math.log(p.pi_size / p.delta) / n_accept)
    bound = p.tau * (1.0 - (z_m / alpha_m_min) * error_budget)

    represented = np.unique(questions[accepted_mask])
    filtered = world.weights[represented] * accept_m[represented]
    share = filtered / filtered.sum()
    new_alpha = world.alpha.copy()
    new_alpha[represented] = np.maximum(ALPHA_FLOOR, 1.0 - error_budget * share)

    new_world = replace(world, alpha=new_alpha)
    v_realized = new_world.expected_reward
    record = RoundRecord(replication, round_index, n_accept, z_m, alpha_m_min,
                         v_realized, bound, v_realized >= bound)
    return new_world, record


def run_selfimprove(world: SimWorld, p: TheoryParams, rounds: int, seed,
                    replication: int = 0) -> list[RoundRecord]:
    """Run ``rounds`` generate-filter-update rounds; deterministic in seed.

    ``seed`` may be an int or a ``numpy.random.SeedSequence`` (the latter is
    how parallel replications receive spawned substreams).
    """
    if rounds < 1:
        raise ParameterError("rounds must be >= 1")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    records = []
    current = world
    for t, child in enumerate(ss.spawn(rounds)):
        rng = np.random.Generator(np.random.Philox(child))
        current, record = _one_round(current, p, rng, replication, t)
        records.append(record)
    return records


def run_replications(world: SimWorld, p: TheoryParams, rounds: int,
                     replications: int, seed: int) -> list[RoundRecord]:
    """Independent replications from the same initial world, flat record list."""
    if replications < 1:
        raise ParameterError("replications must be >= 1")
    top = np.random.SeedSequence(seed)
    records: list[RoundRecord] = []
    for rep, child in enumerate(top.spawn(replications)):
        records.extend(run_selfimprove(world, p, rounds, child, replication=rep))
    return records

