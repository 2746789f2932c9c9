"""Lower-bound maps, curriculum coefficients, and trajectory generation.

All maps share the one-parameter family
``x -> 1 - gamma - c_delta*nu / (c*sqrt(a*x - c_delta_prime*nu))`` with scale
coefficient ``a``: the uniform-mixture baseline uses a = 1, the easy-to-hard
schedule uses the mixture coefficient for its first step and the adjacent
difficulty ratios afterwards, followed by an optional final rescale.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .errors import DomainError, ParameterError
from .params import DerivedConstants, TheoryParams

# Steps whose increment magnitude falls below this are plateaus: numerical
# convergence to a fixed point, not a monotonicity violation.
PLATEAU_TOL = 1e-14

DEFAULT_BASELINE_STEPS = 100


@dataclass(frozen=True)
class MapSpec:
    """One map of the family, with its natural-domain data."""

    a: float
    nu: float
    c: float
    gamma: float
    c_delta: float
    c_delta_prime: float

    @property
    def domain_lo(self) -> float:
        return self.c_delta_prime * self.nu / self.a


def map_spec(a: float, p: TheoryParams, d: DerivedConstants) -> MapSpec:
    if a <= 0.0:
        raise ParameterError("scale coefficient a must be positive")
    return MapSpec(a=a, nu=d.nu, c=p.c, gamma=p.gamma,
                   c_delta=d.c_delta, c_delta_prime=d.c_delta_prime)


def eval_map(spec: MapSpec, x: float) -> float:
    """Evaluate the map at ``x``; requires a*x > c_delta_prime*nu.

    The result is always below 1 - gamma, with equality exactly at nu = 0.
    """
    radicand = spec.a * x - spec.c_delta_prime * spec.nu
    if radicand <= 0.0:
        raise DomainError(
            f"x={x!r} outside natural domain x > {spec.domain_lo!r}")
    if spec.nu == 0.0:
        return 1.0 - spec.gamma
    return 1.0 - spec.gamma - spec.c_delta * spec.nu / (spec.c * math.sqrt(radicand))


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


@dataclass(frozen=True)
class Trajectory:
    """Recorded iterates with monotonicity annotation.

    ``monotone_prefix`` counts consecutive strictly increasing steps from the
    start of the monitored range (which excludes the initialization step for
    curriculum runs, where the monitored sequence starts at the first image).
    Domain violations truncate the record instead of raising so parameter
    scans can classify the start point as infeasible.
    """

    values: tuple[float, ...]
    monotone_prefix: int
    stayed_in_domain: bool
    monitored_from: int = 0
    exceeded_unit: bool = False

    def strictly_increasing(self) -> bool:
        """Monitored steps all increase, allowing numerical plateaus."""
        mon = self.values[self.monitored_from:]
        return all(b > a or abs(b - a) <= PLATEAU_TOL
                   for a, b in zip(mon, mon[1:]))


def _monotone_prefix(values: tuple[float, ...]) -> int:
    prefix = 0
    for a, b in zip(values, values[1:]):
        if b > a:
            prefix += 1
        else:
            break
    return prefix


def iterate_baseline(p: TheoryParams, d: DerivedConstants, x0: float,
                     t_steps: int = DEFAULT_BASELINE_STEPS) -> Trajectory:
    """Iterate the baseline (a = 1) map ``t_steps`` times from ``x0``."""
    if t_steps < 0:
        raise ParameterError("t_steps must be >= 0")
    spec = map_spec(1.0, p, d)
    values = [float(x0)]
    in_domain = True
    for _ in range(t_steps):
        try:
            values.append(eval_map(spec, values[-1]))
        except DomainError:
            in_domain = False
            break
    vals = tuple(values)
    return Trajectory(values=vals, monotone_prefix=_monotone_prefix(vals),
                      stayed_in_domain=in_domain,
                      exceeded_unit=any(v > 1.0 for v in vals))


def iterate_curriculum(p: TheoryParams, d: DerivedConstants, x0: float,
                       with_final_rescale: bool = True) -> Trajectory:
    """Run the easy-to-hard schedule from ``x0``.

    Applies the first-step map, then the L-1 adjacent-ratio maps, then
    optionally the final rescale.  The rescale is a change of evaluation
    distribution, not a map iterate: it can push the value above 1 - gamma
    (and even above 1, flagged via ``exceeded_unit``), and it never counts
    toward the monotone prefix.  The monitored monotone sequence starts at
    the first image, matching the schedule's guarantee.
    """
    coeffs = curriculum_coefficients(p)
    values = [float(x0)]
    in_domain = True
    for a in coeffs.schedule:
        try:
            values.append(eval_map(map_spec(a, p, d), values[-1]))
        except DomainError:
            in_domain = False
            break
    prefix = _monotone_prefix(tuple(values[1:])) if len(values) > 1 else 0
    if in_domain and with_final_rescale:
        values.append(coeffs.final * values[-1])
    vals = tuple(values)
    return Trajectory(values=vals, monotone_prefix=prefix,
                      stayed_in_domain=in_domain, monitored_from=1,
                      exceeded_unit=any(v > 1.0 for v in vals))


def write_trajectory_csv(trajectory: Trajectory, path: str) -> None:
    """Serialize as CSV with columns step, value, monotone_so_far, in_domain."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["step", "value", "monotone_so_far", "in_domain"])
        monotone = True
        start = trajectory.monitored_from
        for step, value in enumerate(trajectory.values):
            if step > start:
                monotone = monotone and trajectory.values[step] > trajectory.values[step - 1]
            writer.writerow([step, repr(value), str(monotone).lower(), "true"])
        if not trajectory.stayed_in_domain:
            writer.writerow([len(trajectory.values), "", "false", "false"])
