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

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cubic import Interval
from .dynamics import PLATEAU_TOL, curriculum_coefficients
from .errors import BracketError, DomainError, ParameterError
from .params import DerivedConstants, TheoryParams, derive_constants
from .regions import feasibility_interval, improvement_threshold


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
    t_steps: int | None = None     # defaults to the number of levels
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
        if self.x0_points < 2:
            raise ParameterError("x0_points must be >= 2")

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


@dataclass(frozen=True)
class ScanResult:
    config: ScanConfig
    cells: tuple[CellResult, ...]

    def cell(self, axis1: float, axis2: float) -> CellResult:
        for c in self.cells:
            if c.axis1 == axis1 and c.axis2 == axis2:
                return c
        raise KeyError((axis1, axis2))


def x0_grid(p: TheoryParams, points: int) -> np.ndarray:
    """Cell midpoints of a uniform grid on (0, 1-gamma)."""
    cell = (1.0 - p.gamma) / points
    return (np.arange(points) + 0.5) * cell


def _step(x: np.ndarray, alive: np.ndarray, a: float, p: TheoryParams,
          d: DerivedConstants) -> tuple[np.ndarray, np.ndarray]:
    radicand = a * x - d.c_delta_prime * d.nu
    alive = alive & (radicand > 0.0)
    out = np.full_like(x, np.nan)
    ok = alive
    if d.nu == 0.0:
        out[ok] = 1.0 - p.gamma
    else:
        out[ok] = 1.0 - p.gamma - d.c_delta * d.nu / (p.c * np.sqrt(radicand[ok]))
    return out, alive


def classify_feasible(grid: np.ndarray, p: TheoryParams,
                      d: DerivedConstants, t_steps: int | None = None) -> np.ndarray:
    """Start points whose baseline and easy-to-hard sequences are strictly
    increasing (plateau-tolerant) and in-domain at every step.

    The easy-to-hard monotonicity is monitored from the first image on,
    matching the sequence the guarantee is stated for.
    """
    steps = p.L if t_steps is None else t_steps
    x = grid.astype(float)
    alive = np.ones(len(grid), dtype=bool)
    increasing = np.ones(len(grid), dtype=bool)
    for _ in range(steps):
        nxt, alive = _step(x, alive, 1.0, p, d)
        with np.errstate(invalid="ignore"):
            stepped_up = (nxt > x) | (np.abs(nxt - x) <= PLATEAU_TOL)
        increasing &= alive & stepped_up
        x = nxt
    feasible = increasing & alive

    coeffs = curriculum_coefficients(p)
    y, alive_c = _step(grid.astype(float), np.ones(len(grid), dtype=bool),
                       coeffs.first, p, d)
    for a in coeffs.mid:
        nxt, alive_c = _step(y, alive_c, a, p, d)
        with np.errstate(invalid="ignore"):
            stepped_up = (nxt > y) | (np.abs(nxt - y) <= PLATEAU_TOL)
        feasible &= alive_c & stepped_up
        y = nxt
    return feasible & alive_c


def classify_improvement(grid: np.ndarray, p: TheoryParams,
                         d: DerivedConstants, t_steps: int | None = None) -> np.ndarray:
    """Start points where the easy-to-hard final value (with the final
    rescale) strictly exceeds the baseline final value, both in-domain."""
    steps = p.L if t_steps is None else t_steps
    x = grid.astype(float)
    alive_b = np.ones(len(grid), dtype=bool)
    for _ in range(steps):
        x, alive_b = _step(x, alive_b, 1.0, p, d)

    coeffs = curriculum_coefficients(p)
    y = grid.astype(float)
    alive_c = np.ones(len(grid), dtype=bool)
    for a in coeffs.schedule:
        y, alive_c = _step(y, alive_c, a, p, d)
    y = coeffs.final * y

    with np.errstate(invalid="ignore"):
        better = y > x
    return alive_b & alive_c & better


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


def _analytic_interval(kind: str, beta_lo: float, beta_hi: float,
                       p: TheoryParams, d: DerivedConstants) -> Interval:
    if kind == "feasible":
        return feasibility_interval(p, d, beta_lo, beta_hi)
    try:
        threshold = improvement_threshold(beta_lo, beta_hi, d.nu, p, d)
    except (BracketError, DomainError):
        return Interval(math.nan, math.nan, False, "no improving initialization")
    ceiling = 1.0 - p.gamma
    if threshold >= ceiling:
        return Interval(threshold, ceiling, False, "empty: threshold at or above ceiling")
    return Interval(threshold, ceiling, True)


def _scan_cell(cfg: ScanConfig, vary_value: float, nu: float, grid: np.ndarray,
               p: TheoryParams) -> CellResult:
    beta_lo, beta_hi = cfg.betas(vary_value)
    pp = p.with_betas(beta_lo, beta_hi)
    d = derive_constants(pp, nu=nu)
    analytic = _analytic_interval(cfg.kind, beta_lo, beta_hi, pp, d)
    if cfg.kind == "feasible":
        flags = classify_feasible(grid, pp, d, cfg.t_steps)
    else:
        flags = classify_improvement(grid, pp, d, cfg.t_steps)
    lo, hi, length = measured_interval(grid, flags, analytic)

    cell = (1.0 - p.gamma) / cfg.x0_points
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


def run_scan(cfg: ScanConfig, p: TheoryParams, threads: int = 1) -> ScanResult:
    """Run one panel; deterministic regardless of thread count (cells are
    pure and merged in grid order)."""
    grid = x0_grid(p, cfg.x0_points)
    tasks = [(v, nu) for v in cfg.vary_values for nu in cfg.nu_values]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            cells = list(pool.map(lambda t: _scan_cell(cfg, t[0], t[1], grid, p), tasks))
    else:
        cells = [_scan_cell(cfg, v, nu, grid, p) for v, nu in tasks]
    return ScanResult(config=cfg, cells=tuple(cells))


def write_panel_csv(result: ScanResult, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["axis1", "axis2", "measured_len", "analytic_len", "agree"])
        for c in result.cells:
            writer.writerow([repr(c.axis1), repr(c.axis2), repr(c.measured_len),
                             repr(c.analytic_len), str(c.agree).lower()])


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
