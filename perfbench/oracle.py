"""Reference model of ``selfimprove simulate`` for seeds without pinned files.

The benchmark passes its workload seed to the simulator, so a run may use a
seed for which no reference was pinned.  This module recomputes that run's
``simulation.csv`` and stdout from the simulator's documented construction:
the same Philox streams (one per replication, one per round), the same
uniform world, m-try acceptance filter, surrogate update and bound.  The
tests check it against the pinned seeds.
"""

from __future__ import annotations

import math

import numpy as np

_LOW_MIN = 0.02
_MARGIN = 0.005
_ALPHA_FLOOR = 1e-4


def build_alpha(questions: int, v_target: float, c: float, gamma: float,
                seed: int) -> np.ndarray:
    pivot = c * v_target
    n_low = 0 if pivot <= _LOW_MIN + _MARGIN else int(math.floor(gamma * questions))
    n_high = questions - n_low
    low_mean = 0.5 * (_LOW_MIN + pivot - _MARGIN) if n_low else 0.0
    hi_end = 2.0 * (v_target * questions - low_mean * n_low) / n_high - (pivot + _MARGIN)

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    alpha = np.empty(questions)
    if n_low:
        alpha[:n_low] = rng.uniform(_LOW_MIN, pivot - _MARGIN, size=n_low)
    alpha[n_low:] = rng.uniform(pivot + _MARGIN, hi_end, size=n_high)
    weights = np.full(questions, 1.0 / questions)
    shift = (v_target - float(weights @ alpha)) * questions / n_high
    alpha[n_low:] = np.clip(alpha[n_low:] + shift, pivot + 0.5 * _MARGIN, 1.0)
    return alpha


def simulate_outputs(parameters: dict, questions: int, rounds: int, replications: int,
                     v_target: float, seed: int) -> tuple[str, str]:
    """(simulation.csv text, stdout text) of one ``simulate`` call."""
    p = parameters
    alpha0 = build_alpha(questions, v_target, p["c"], p["gamma"], seed)
    weights = np.full(questions, 1.0 / questions)
    radius = 2.0 * math.log(p["pi_size"] / p["delta"])
    lines = ["replication,round,n_accept,Z_m,alpha_m_min,V_realized,bound,bound_satisfied"]
    covered = live = 0
    for rep, rep_seed in enumerate(np.random.SeedSequence(seed).spawn(replications)):
        alpha = alpha0
        for t, round_seed in enumerate(rep_seed.spawn(rounds)):
            rng = np.random.Generator(np.random.Philox(round_seed))
            accept = 1.0 - (1.0 - alpha) ** p["m"]
            z_m = float(weights @ accept)
            a_min = float(accept[weights > 0.0].min())
            drawn = rng.choice(questions, size=p["n"], p=weights)
            kept = rng.random(p["n"]) < accept[drawn]
            n_accept = int(kept.sum())
            if n_accept == 0:
                lines.append(f"{rep},{t},0,{z_m!r},{a_min!r},{float(weights @ alpha)!r},"
                             "nan,skipped")
                continue
            budget = math.sqrt(radius / n_accept)
            bound = p["tau"] * (1.0 - (z_m / a_min) * budget)
            hit = np.unique(drawn[kept])
            filtered = weights[hit] * accept[hit]
            alpha = alpha.copy()
            alpha[hit] = np.maximum(_ALPHA_FLOOR, 1.0 - budget * (filtered / filtered.sum()))
            v = float(weights @ alpha)
            live += 1
            covered += v >= bound
            lines.append(f"{rep},{t},{n_accept},{z_m!r},{a_min!r},{v!r},{bound!r},"
                         f"{str(v >= bound).lower()}")
    coverage = covered / live if live else float("nan")
    stdout = f"{rounds * replications} rounds recorded; bound coverage {coverage:.4f}\n"
    return "\n".join(lines) + "\n", stdout
