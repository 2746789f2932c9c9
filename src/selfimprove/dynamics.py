"""Lower-bound maps, curriculum coefficients, and their iteration.

All maps share the one-parameter family
``x -> 1 - gamma - c_delta*nu / (c*sqrt(a*x - c_delta_prime*nu))`` with scale
coefficient ``a``: the uniform-mixture baseline uses a = 1, the easy-to-hard
schedule uses the mixture coefficient for its first step and the adjacent
difficulty ratios afterwards, followed by an optional final rescale.

``step`` is the one place the map is evaluated.  It works on floats and
arrays alike and marks a left domain with NaN, which ``iterate`` carries
forward and ``increasing`` rejects, so whole grids of start points are
iterated and classified without per-point bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import DerivedConstants, TheoryParams

# Steps whose increment magnitude falls below this are plateaus: numerical
# convergence to a fixed point, not a monotonicity violation.
PLATEAU_TOL = 1e-14


@dataclass(frozen=True)
class CurriculumCoefficients:
    """Change-of-measure coefficients of the easy-to-hard schedule.

    ``first`` reweights the uniform mixture to the easiest level, ``final``
    reweights the hardest level back to the mixture, and ``mid[t-1]`` is the
    difficulty ratio between levels t and t+1.
    """

    first: float   # L / sum_i i^(-beta_lo)
    final: float   # sum_i i^(-beta_lo) / L^(1-beta_lo)
    mid: tuple[float, ...]  # (1 + 1/t)^(-beta_hi), t = 1..L-1

    @property
    def schedule(self) -> tuple[float, ...]:
        return (self.first,) + self.mid


def curriculum_coefficients(p: TheoryParams) -> CurriculumCoefficients:
    weight_sum = sum(i ** (-p.beta_lo) for i in range(1, p.L + 1))
    first = p.L / weight_sum
    final = weight_sum / p.L ** (1.0 - p.beta_lo)
    mid = tuple((t + 1) ** (-p.beta_hi) / t ** (-p.beta_hi) for t in range(1, p.L))
    return CurriculumCoefficients(first=first, final=final, mid=mid)


def step(x, a: float, p: TheoryParams, d: DerivedConstants):
    """The scale-``a`` map at ``x`` (a float or an array).

    NaN where ``x`` is NaN or a*x <= c_delta_prime*nu, outside the natural
    domain.  The value is below 1 - gamma, with equality exactly at nu = 0.
    """
    radicand = a * np.asarray(x, dtype=float) - d.c_delta_prime * d.nu
    with np.errstate(invalid="ignore", divide="ignore"):
        value = 1.0 - p.gamma - d.c_delta * d.nu / (p.c * np.sqrt(radicand))
    return np.where(radicand > 0.0, value, np.nan)[()]


def iterate(x0, schedule, p: TheoryParams, d: DerivedConstants) -> np.ndarray:
    """``x0`` and its images under the maps with the scale coefficients of
    ``schedule``, one row each: ``(1.0,) * L`` gives the baseline,
    ``curriculum_coefficients(p).schedule`` the easy-to-hard run before its
    final rescale."""
    x0 = np.asarray(x0, dtype=float)
    values = np.empty((len(schedule) + 1,) + x0.shape)
    values[0] = x0
    for t, a in enumerate(schedule):
        values[t + 1] = step(values[t], a, p, d)
    return values


def increasing(values) -> np.ndarray:
    """Per column of ``values`` (rows are steps): every step rises or stays
    within ``PLATEAU_TOL``, and no value is NaN."""
    values = np.asarray(values, dtype=float)
    change = np.diff(values, axis=0)
    rises = (change > 0.0) | (np.abs(change) <= PLATEAU_TOL)
    return rises.all(axis=0) & ~np.isnan(values).any(axis=0)
