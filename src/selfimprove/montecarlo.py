"""Grid scans of the feasible and improvement initialization regions.

Each panel sweeps one difficulty exponent against the budget parameter.  Per
cell, every start point on a fixed initialization grid is classified by
directly running the bound recursions (feasibility: both sequences strictly
increasing and in-domain; improvement: easy-to-hard final value strictly
above the baseline final value), and the measured interval is compared with
the analytic one.  The analytic conditions are sufficient, so the measured
region may strictly contain the analytic region; the testable guarantee is
containment.  For improvement it holds for the threshold region intersected
with the feasibility interval, since starts below the baseline's lower fixed
point leave the recursion's domain and are not counted as improving.  The
per-cell ``agree`` flag records the stronger endpoint-level agreement.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cubic import Interval
from .dynamics import curriculum_coefficients, increasing, iterate
from .errors import ParameterError
from .params import TheoryParams
from .regions import BoundProblem, feasibility_interval

# Largest grid a caller may ask for: the x0 grid here, and the command
# line's budget curve and beta grid.
MAX_GRID_POINTS = 10**6


@dataclass(frozen=True)
class ScanConfig:
    """One panel: ``vary`` is the swept exponent.

    ``fixed_kind`` selects what ``fixed_value`` holds constant: the other
    exponent ("exponent", the default) or, when sweeping ``beta_lo``, the
    difficulty-gap width beta_hi - beta_lo ("gap").
    """

    kind: str                      # "feasible" or "improvement"
    vary: str                      # "beta_hi" or "beta_lo"
    vary_values: tuple[float, ...]
    fixed_value: float
    nu_values: tuple[float, ...]
    x0_points: int = 2000
    fixed_kind: str = "exponent"

    def __post_init__(self) -> None:
        object.__setattr__(self, "vary_values", tuple(float(v) for v in self.vary_values))
        object.__setattr__(self, "nu_values", tuple(float(v) for v in self.nu_values))
        object.__setattr__(self, "fixed_value", float(self.fixed_value))
        if self.kind not in ("feasible", "improvement"):
            raise ParameterError("kind must be 'feasible' or 'improvement'")
        if self.vary not in ("beta_hi", "beta_lo"):
            raise ParameterError("vary must be 'beta_hi' or 'beta_lo'")
        if self.fixed_kind not in ("exponent", "gap"):
            raise ParameterError("fixed_kind must be 'exponent' or 'gap'")
        if self.fixed_kind == "gap" and self.vary != "beta_lo":
            raise ParameterError("a fixed gap requires sweeping beta_lo")
        for grid, label in ((self.vary_values, "vary_values"), (self.nu_values, "nu_values")):
            if len(grid) == 0 or any(b <= a for a, b in zip(grid, grid[1:])):
                raise ParameterError(f"{label} must be non-empty and strictly increasing")
        if not all(0.0 <= nu < math.inf for nu in self.nu_values):
            raise ParameterError("nu_values must be non-negative and finite")
        if not 2 <= self.x0_points <= MAX_GRID_POINTS:
            raise ParameterError("x0_points must lie in [2, 10^6]")

    def betas(self, value: float) -> tuple[float, float]:
        if self.vary == "beta_hi":
            return self.fixed_value, value
        if self.fixed_kind == "gap":
            return value, value + self.fixed_value
        return value, self.fixed_value


@dataclass(frozen=True)
class CellResult:
    axis1: float            # swept exponent value
    axis2: float            # budget parameter nu
    measured_lo: float
    measured_hi: float
    measured_len: float
    analytic_lo: float
    analytic_hi: float
    analytic_len: float
    agree: bool


def x0_grid(p: TheoryParams, points: int) -> np.ndarray:
    """Cell midpoints of a uniform grid on (0, 1-gamma)."""
    cell = (1.0 - p.gamma) / points
    return (np.arange(points) + 0.5) * cell


def classify_feasible(grid: np.ndarray, p: TheoryParams, nu: float) -> np.ndarray:
    """Start points whose baseline and easy-to-hard sequences are strictly
    increasing (plateau-tolerant) and in-domain at every step.

    The easy-to-hard monotonicity is monitored from the first image on,
    matching the sequence the guarantee is stated for.
    """
    return (increasing(iterate(grid, (1.0,) * p.L, p, nu))
            & increasing(iterate(grid, curriculum_coefficients(p).schedule, p, nu)[1:]))


def classify_improvement(grid: np.ndarray, p: TheoryParams, nu: float) -> np.ndarray:
    """Start points where the easy-to-hard final value (with the final
    rescale) strictly exceeds the baseline final value, both in-domain."""
    coeffs = curriculum_coefficients(p)
    curriculum = coeffs.final * iterate(grid, coeffs.schedule, p, nu)[-1]
    return curriculum > iterate(grid, (1.0,) * p.L, p, nu)[-1]


def measured_interval(grid: np.ndarray, flags: np.ndarray,
                      analytic: Interval | None) -> tuple[float, float, float]:
    """(lo, hi, length) of the maximal run (the first on ties), preferring
    the run containing the analytic midpoint when one exists."""
    # Flag changes alternate between run starts and one past run ends.
    changes = np.flatnonzero(np.diff(np.asarray(flags, dtype=bool), prepend=False, append=False))
    if changes.size == 0:
        return math.nan, math.nan, 0.0
    starts, ends = changes[::2], changes[1::2] - 1

    chosen = None
    if analytic is not None and analytic.valid:
        mid = 0.5 * (analytic.lo + analytic.hi)
        j = int(np.argmin(np.abs(grid - mid)))
        if flags[j]:
            chosen = int(np.searchsorted(starts, j, side="right")) - 1
    if chosen is None:
        chosen = int(np.argmax(ends - starts))
    lo, hi = float(grid[starts[chosen]]), float(grid[ends[chosen]])
    return lo, hi, hi - lo


def _analytic_interval(kind: str, p: TheoryParams, nu: float, threshold: float) -> Interval:
    if kind == "feasible":
        return feasibility_interval(p, nu)
    if math.isnan(threshold):
        return Interval(math.nan, math.nan, False, "no improving initialization")
    ceiling = 1.0 - p.gamma
    if threshold >= ceiling:
        return Interval(threshold, ceiling, False, "empty: threshold at or above ceiling")
    return Interval(threshold, ceiling, True)


def _scan_cell(cfg: ScanConfig, vary_value: float, pp: TheoryParams, nu: float,
               threshold: float, grid: np.ndarray) -> CellResult:
    analytic = _analytic_interval(cfg.kind, pp, nu, threshold)
    classify = classify_feasible if cfg.kind == "feasible" else classify_improvement
    flags = classify(grid, pp, nu)
    lo, hi, length = measured_interval(grid, flags, analytic)

    cell = (1.0 - pp.gamma) / cfg.x0_points
    if analytic.valid:
        agree = (length > 0.0
                 and abs(lo - analytic.lo) <= cell + 1e-12
                 and abs(hi - analytic.hi) <= cell + 1e-12)
        a_lo, a_hi, a_len = analytic.lo, analytic.hi, analytic.length
    else:
        agree = length == 0.0
        a_lo = a_hi = math.nan
        a_len = 0.0
    return CellResult(axis1=vary_value, axis2=nu, measured_lo=lo, measured_hi=hi,
                      measured_len=length, analytic_lo=a_lo, analytic_hi=a_hi,
                      analytic_len=a_len, agree=agree)


def run_scan(cfg: ScanConfig, p: TheoryParams, threads: int = 1) -> tuple[CellResult, ...]:
    """Run one panel: its cells in grid order (swept exponent major, budget
    minor); deterministic regardless of thread count (cells are pure)."""
    grid = x0_grid(p, cfg.x0_points)
    sets = [p.with_betas(*cfg.betas(v)) for v in cfg.vary_values]
    nus = np.array(cfg.nu_values)
    thresholds = (BoundProblem(sets).threshold(nus[:, None]).T if cfg.kind == "improvement"
                  else np.full((len(sets), len(nus)), math.nan))
    tasks = [(v, pp, nu, float(t)) for v, pp, row in zip(cfg.vary_values, sets, thresholds)
             for nu, t in zip(cfg.nu_values, row)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            cells = list(pool.map(lambda t: _scan_cell(cfg, *t, grid), tasks))
    else:
        cells = [_scan_cell(cfg, *t, grid) for t in tasks]
    return tuple(cells)


def default_panels(p: TheoryParams) -> dict[str, ScanConfig]:
    """Panel grids used by the command-line scan.

    Artifact choices: the budget axes span from the mild-shrinkage regime up
    to (feasibility) near the fold of the hardest-level interval and
    (improvement) past the collapse budget of the central cell, so both the
    monotone shrinkage and the collapse are visible.
    """
    beta_axis = tuple(np.round(np.linspace(p.beta_lo + 0.05, 0.75, 13), 10))
    beta_lo_axis = tuple(np.round(np.linspace(0.02, p.beta_hi - 0.02, 13), 10))
    nu_feas = tuple(np.round(np.linspace(0.004, 0.044, 11), 10))
    nu_impr = tuple(np.round(np.linspace(0.002, 0.026, 13), 10))
    return {
        "a": ScanConfig(kind="feasible", vary="beta_hi", vary_values=beta_axis,
                        fixed_value=p.beta_lo, nu_values=nu_feas),
        "b": ScanConfig(kind="feasible", vary="beta_lo", vary_values=beta_lo_axis,
                        fixed_value=p.beta_hi, nu_values=nu_feas),
        "c": ScanConfig(kind="improvement", vary="beta_hi", vary_values=beta_axis,
                        fixed_value=p.beta_lo, nu_values=nu_impr),
        "d": ScanConfig(kind="improvement", vary="beta_lo", vary_values=beta_lo_axis,
                        fixed_value=p.beta_hi, nu_values=nu_impr),
    }
