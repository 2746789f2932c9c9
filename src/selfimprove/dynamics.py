"""Lower-bound maps, curriculum coefficients, and their iteration.

All maps share the one-parameter family
``x -> 1 - gamma - c_delta*nu / (c*sqrt(a*x - c_delta_prime*nu))`` with scale
coefficient ``a``: the uniform-mixture baseline uses a = 1, the easy-to-hard
schedule uses the mixture coefficient for its first step and the adjacent
difficulty ratios afterwards, followed by an optional final rescale.

``step`` is the one place the map is evaluated.  It works on floats and
arrays alike and marks a left domain with NaN, which ``iterate`` and
``run_schedule`` carry forward and ``rises`` rejects, so whole grids of
start points are iterated and classified without per-point bookkeeping.
``rises`` is the one test of a step going up; ``increasing`` applies it to
stored trajectories and ``run_schedule`` to a run it does not store.  The
radii come from ``TheoryParams``; the budget ``nu`` is a float, or an array
giving each point its own budget, or its ``MapBudget``: the products with
the radii that every step at those budgets uses, formed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .params import TheoryParams

# Steps whose increment magnitude falls below this are plateaus: numerical
# convergence to a fixed point, not a monotonicity violation.
PLATEAU_TOL = 1e-14


@dataclass(frozen=True)
class CurriculumCoefficients:
    """Change-of-measure coefficients of the easy-to-hard schedule.

    ``first`` reweights the uniform mixture to the easiest level, ``final``
    reweights the hardest level back to the mixture, and ``mid[t-1]`` is the
    difficulty ratio between levels t and t+1, computed when asked for.
    Floats for one pair of betas, arrays, one entry per pair, for several.
    """

    first: float   # L / sum_i i^(-beta_lo)
    final: float   # sum_i i^(-beta_lo) / L^(1-beta_lo)
    L: int
    beta_hi: float

    @property
    def mid(self) -> tuple:
        """(1 + 1/t)^(-beta_hi), t = 1..L-1."""
        neg = -np.asarray(self.beta_hi, dtype=float)
        t = np.arange(1.0, self.L).reshape((-1,) + (1,) * neg.ndim)
        ratio = np.float_power(t + 1.0, neg) / np.float_power(t, neg)
        return tuple(ratio.tolist() if neg.ndim == 0 else ratio)

    @property
    def schedule(self) -> tuple:
        return (self.first,) + self.mid


def _plain(value):
    """A 0-d result as a Python float, whose repr the CSVs print; arrays as they are."""
    return value if isinstance(value, np.ndarray) else float(value)


def curriculum_coefficients(p: TheoryParams, beta_lo=None, beta_hi=None) -> CurriculumCoefficients:
    """The coefficients of ``p``, or of ``p``'s ``L`` with the betas given
    (floats or arrays, unchecked).  Each power is ``np.float_power``, the C
    ``pow`` of Python's ``**``, and the level sum runs left to right, so an
    array call has, pair for pair, the bits of the one-pair calls."""
    if beta_lo is None:
        beta_lo, beta_hi = p.beta_lo, p.beta_hi
    neg = -np.asarray(beta_lo, dtype=float)
    weight_sum = 0.0
    for i in range(1, p.L + 1):
        weight_sum = weight_sum + np.float_power(float(i), neg)
    first = p.L / weight_sum
    final = weight_sum / np.float_power(float(p.L), 1.0 + neg)
    return CurriculumCoefficients(first=_plain(first), final=_plain(final), L=p.L,
                                  beta_hi=_plain(np.asarray(beta_hi, dtype=float)))


class MapBudget(NamedTuple):
    """The map's budget terms at budgets ``nu``, from ``map_budget``."""

    nu: object
    cd_nu: object      # c_delta * nu
    cdp_nu: object     # c_delta_prime * nu


def map_budget(p: TheoryParams, nu) -> MapBudget:
    """The terms of ``p``'s map at budgets ``nu`` (a float or an array):
    every step at these budgets may take them for ``nu``, so a run forms
    the products once instead of once per step, with the same bits."""
    return MapBudget(nu, p.c_delta * nu, p.c_delta_prime * nu)


def step(x, a: float, p: TheoryParams, nu, out=None):
    """The scale-``a`` map at ``x`` (a float or an array; ``nu`` too, or
    its ``MapBudget``).

    NaN where ``x`` is NaN or a*x <= c_delta_prime*nu, outside the natural
    domain.  The value is below 1 - gamma, with equality exactly at nu = 0.
    On arrays every intermediate is written into one array: ``out`` (of
    the result's shape) if given, else a new one; ``x`` and ``nu`` are
    never written.  On floats the same operations rebind numpy scalars, so
    both give the bits of the plain expression.
    """
    budget = nu if isinstance(nu, MapBudget) else map_budget(p, nu)
    value = np.multiply(a, np.asarray(x, dtype=float), out=out)
    value -= budget.cdp_nu                       # the radicand
    inside = value > 0.0
    buffer = value if isinstance(value, np.ndarray) else None
    # An overflowing quotient gives -inf, which the next step's radicand test makes NaN.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        value = np.sqrt(value, out=buffer)
        value *= p.c
        value = np.divide(budget.cd_nu, value, out=buffer)
        value = np.subtract(1.0 - p.gamma, value, out=buffer)
    if buffer is None:
        return value if inside else np.float64(np.nan)
    value[~inside] = np.nan
    return value


def iterate(x0, schedule, p: TheoryParams, nu) -> np.ndarray:
    """``x0`` and its images under the maps with the scale coefficients of
    ``schedule``, one row each: ``(1.0,) * L`` gives the baseline,
    ``curriculum_coefficients(p).schedule`` the easy-to-hard run before its
    final rescale."""
    x0 = np.asarray(x0, dtype=float)
    values = np.empty((len(schedule) + 1,) + x0.shape)
    values[0] = x0
    for t, a in enumerate(schedule):
        values[t + 1] = step(values[t], a, p, nu)
    return values


def rises(before, after, out=None):
    """Per element: the step from ``before`` to ``after`` rises or stays
    within ``PLATEAU_TOL``.  A NaN on either side fails.  The difference
    goes into ``out`` if given (it may be ``before``)."""
    return np.subtract(after, before, out=out) >= -PLATEAU_TOL


def increasing(values) -> np.ndarray:
    """Per column of ``values`` (rows are steps): every step ``rises``, and
    no value is NaN."""
    values = np.asarray(values, dtype=float)
    return rises(values[:-1], values[1:]).all(axis=0) & ~np.isnan(values[0])


def run_schedule(x0, schedule, p: TheoryParams, nu, buffers=None):
    """``iterate``'s last row and ``increasing`` of its rows, without
    storing them: the final images of ``x0`` under ``schedule``, and per
    point whether it is not NaN and every step ``rises``.

    On arrays, which ``nu`` broadcasts to, a run writes into two arrays of
    ``x0``'s shape: ``buffers`` if given, else two of its own.  Step t writes its image into
    ``buffers[t % 2]`` and the difference ``rises`` tests into the other,
    so the final images are in one of them.  ``x0`` is never written,
    unless a caller passes it as ``buffers[1]`` to run on from an image it
    holds there.
    """
    x = np.asarray(x0, dtype=float)
    rising = ~np.isnan(x)
    if x.ndim == 0:
        buffers = (None, None)                   # floats rebind numpy scalars
    elif buffers is None:
        buffers = (np.empty_like(x), np.empty_like(x))
    for t, a in enumerate(schedule):
        image = step(x, a, p, nu, out=buffers[t % 2])
        rising &= rises(x, image, out=buffers[1 - t % 2])
        x = image
    return x, rising
