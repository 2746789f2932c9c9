"""Grid scans of the feasible and improvement initialization regions.

Each panel sweeps one difficulty exponent against the budget parameter.  Per
cell, every start point on a fixed initialization grid is classified by
directly running the bound recursions (feasibility: both sequences strictly
increasing and in-domain; improvement: easy-to-hard final value strictly
above the baseline final value), and the measured interval is compared with
the analytic one.  The baseline recursion, which the betas do not enter, runs
once for all the budgets of the panels that share them and their grid, and
a row (one swept value with all its budgets) is classified in one run, each
point carrying its own budget: the map's budget terms are formed once, and
each worker thread runs its rows in one reused pair of buffers.  The
analytic conditions are sufficient, so the measured region may strictly
contain the analytic region; the testable guarantee is containment.  For
improvement it holds for the threshold region intersected with the
feasibility interval, since starts below the baseline's lower fixed point
leave the recursion's domain and are not counted as improving.  The
per-cell ``agree`` flag records the stronger endpoint-level agreement.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cubic import Interval
from .dynamics import curriculum_coefficients, map_budget, run_schedule, step
from .errors import require
from .params import TheoryParams
from .regions import BoundProblem, _improvement_interval, feasibility_interval

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
        # Each rule states what must hold, so a NaN value fails it.
        require(
            (self.kind in ("feasible", "improvement"), "kind must be 'feasible' or 'improvement'"),
            (self.vary in ("beta_hi", "beta_lo"), "vary must be 'beta_hi' or 'beta_lo'"),
            (self.fixed_kind in ("exponent", "gap"), "fixed_kind must be 'exponent' or 'gap'"),
            (self.fixed_kind != "gap" or self.vary == "beta_lo",
             "a fixed gap requires sweeping beta_lo"),
            *((len(grid) > 0 and all(b > a for a, b in zip(grid, grid[1:])),
               f"{label} must be non-empty and strictly increasing")
              for grid, label in ((self.vary_values, "vary_values"), (self.nu_values, "nu_values"))),
            (all(map(math.isfinite, (*self.vary_values, self.fixed_value))),
             "vary_values and fixed_value must be finite"),
            (all(0.0 <= nu < math.inf for nu in self.nu_values),
             "nu_values must be non-negative and finite"),
            (2 <= self.x0_points <= MAX_GRID_POINTS, "x0_points must lie in [2, 10^6]"),
        )

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


def baseline_run(x0, p: TheoryParams, nu):
    """``dynamics.run_schedule`` of the baseline (scale 1 at every step),
    which does not depend on the betas: callers classifying several beta
    pairs at the same points compute it once and pass it on."""
    return run_schedule(x0, (1.0,) * p.L, p, nu)


def classify_feasible(x0, p: TheoryParams, nu, baseline=None, buffers=None) -> np.ndarray:
    """Start points whose baseline and easy-to-hard sequences are strictly
    increasing (plateau-tolerant) and in-domain at every step.

    ``nu`` is a float, one budget per point, or their ``MapBudget``;
    ``baseline`` is ``baseline_run(x0, p, nu)`` if the caller has it, and
    ``buffers`` two arrays of ``x0``'s shape the runs may write (see
    ``run_schedule``).  The easy-to-hard monotonicity is monitored from the
    first image on, matching the sequence the guarantee is stated for.
    """
    _, baseline_rising = baseline_run(x0, p, nu) if baseline is None else baseline
    schedule = curriculum_coefficients(p).schedule
    # The first image may go into ``buffers[1]``, which the run then overwrites.
    first = step(x0, schedule[0], p, nu, out=None if buffers is None else buffers[1])
    _, rising = run_schedule(first, schedule[1:], p, nu, buffers)
    return baseline_rising & rising


def classify_improvement(x0, p: TheoryParams, nu, baseline=None, buffers=None) -> np.ndarray:
    """Start points where the easy-to-hard final value (with the final
    rescale) strictly exceeds the baseline final value, both in-domain.
    ``nu``, ``baseline`` and ``buffers`` as for ``classify_feasible``."""
    baseline_final, _ = baseline_run(x0, p, nu) if baseline is None else baseline
    coeffs = curriculum_coefficients(p)
    final, _ = run_schedule(x0, coeffs.schedule, p, nu, buffers)
    # The schedule is never empty, so an array ``final`` is the run's own.
    final = np.multiply(coeffs.final, final,
                        out=final if isinstance(final, np.ndarray) else None)
    return final > baseline_final


def _nearest_index(grid: np.ndarray, value: float) -> int:
    """``np.argmin(np.abs(grid - value))`` on an ascending uniform grid: the
    index the spacing gives, or a neighbour of it, whichever is nearest, the
    first on ties.  Equal to the argmin wherever distances to adjacent grid
    points do not round together, as for a value in [-1, 2] and the grids of
    ``x0_grid`` (every analytic midpoint lies in (0, 1))."""
    last = grid.size - 1
    if last == 0:
        return 0
    lo, hi = grid.item(0), grid.item(last)
    guess = round(min(max((value - lo) / (hi - lo) * last, 0.0), last))
    start = max(guess - 1, 0)
    distances = [abs(x - value) for x in grid[start:start + 3].tolist()]
    return start + distances.index(min(distances))


def measured_interval(grid: np.ndarray, flags: np.ndarray,
                      analytic: Interval | None) -> tuple[float, float, float]:
    """(lo, hi, length) of the maximal run (the first on ties), preferring
    the run containing the analytic midpoint when one exists; ``grid`` is
    ascending and uniform, as ``x0_grid`` makes it."""
    # Flag changes, with False beyond both ends, alternate between run
    # starts and one past run ends.
    flags = np.asarray(flags, dtype=bool)
    edges = np.empty(flags.size + 1, dtype=bool)
    edges[0], edges[-1] = flags[0], flags[-1]
    np.not_equal(flags[1:], flags[:-1], out=edges[1:-1])
    changes = np.flatnonzero(edges)
    if changes.size == 0:
        return math.nan, math.nan, 0.0
    starts, ends = changes[::2], changes[1::2] - 1

    chosen = None
    if analytic is not None and analytic.valid:
        mid = 0.5 * (analytic.lo + analytic.hi)
        j = _nearest_index(grid, mid)
        if flags[j]:
            chosen = int(np.searchsorted(starts, j, side="right")) - 1
    if chosen is None:
        chosen = int(np.argmax(ends - starts))
    lo, hi = float(grid[starts[chosen]]), float(grid[ends[chosen]])
    return lo, hi, hi - lo


def _scan_cell(cfg: ScanConfig, vary_value: float, pp: TheoryParams, nu: float,
               analytic: Interval, grid: np.ndarray, flags: np.ndarray) -> CellResult:
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


def run_scans(cfgs, p: TheoryParams, threads: int = 1) -> list[tuple[CellResult, ...]]:
    """The cells of each panel of ``cfgs``, in order, each in grid order
    (swept exponent major, budget minor), with the bits of the panel run
    alone at any thread count (a row reads the panel's shared arrays and
    writes only its worker's buffers).

    Panels with the same budgets and grid form a group: it runs the
    baseline once for all of them, solves their thresholds in one bisection
    and their feasibility intervals in one cubic call, over all their beta
    pairs.  One group's arrays are freed before the next group's are built.
    """
    groups: dict = {}
    for i, cfg in enumerate(cfgs):
        groups.setdefault((cfg.nu_values, cfg.x0_points), []).append(i)
    results = [()] * len(cfgs)
    for members in groups.values():
        for i, cells in zip(members, _scan_group([cfgs[i] for i in members], p, threads)):
            results[i] = cells
    return results


def _scan_group(cfgs, p: TheoryParams, threads: int) -> list[tuple[CellResult, ...]]:
    """The panels of one group, which share ``nu_values`` and ``x0_points``."""
    grid = x0_grid(p, cfgs[0].x0_points)
    nus = np.array(cfgs[0].nu_values)
    # Each panel's analytic intervals, one list per swept value.
    analytic = [None] * len(cfgs)
    for kind in ("improvement", "feasible"):
        members = [i for i, cfg in enumerate(cfgs) if cfg.kind == kind]
        if not members:
            continue
        betas = np.array([cfgs[i].betas(v) for i in members for v in cfgs[i].vary_values]).T
        if kind == "improvement":
            solved = BoundProblem(p, *betas).threshold(nus[:, None]).T.tolist()
            rows = [[_improvement_interval(p, t) for t in row] for row in solved]
        else:
            solved = feasibility_interval(p, nus, *betas[:, :, None])
            rows = [list(map(Interval, *row)) for row in zip(*(
                field.tolist() for field in (solved.lo, solved.hi, solved.valid, solved.reason)))]
        for i in members:
            analytic[i], rows = rows[:len(cfgs[i].vary_values)], rows[len(cfgs[i].vary_values):]
    # A row's points: the grid once per budget, each point with its budget.
    x0 = np.tile(grid, len(nus))
    budget = map_budget(p, np.repeat(nus, len(grid)))
    baseline = baseline_run(x0, p, budget)
    for shared in (x0, *budget, *baseline):
        shared.flags.writeable = False
    return [_scan_panel(cfg, p, grid, x0, budget, baseline, rows, threads)
            for cfg, rows in zip(cfgs, analytic)]


def _scan_panel(cfg: ScanConfig, p: TheoryParams, grid, x0, budget, baseline, analytic,
                threads: int) -> tuple[CellResult, ...]:
    """One panel's cells from its group's arrays and its analytic intervals
    (one row per swept value)."""
    sets = [p.with_betas(*cfg.betas(v)) for v in cfg.vary_values]
    classify = classify_feasible if cfg.kind == "feasible" else classify_improvement
    worker = threading.local()

    def scan_row(v: float, pp: TheoryParams, row) -> list[CellResult]:
        if not hasattr(worker, "buffers"):
            worker.buffers = (np.empty_like(x0), np.empty_like(x0))
        flags = classify(x0, pp, budget, baseline, worker.buffers).reshape(-1, len(grid))
        return [_scan_cell(cfg, v, pp, n, a, grid, f)
                for n, a, f in zip(cfg.nu_values, row, flags)]

    per_row = (cfg.vary_values, sets, analytic)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(scan_row, *per_row))
    else:
        rows = list(map(scan_row, *per_row))
    return tuple(cell for row in rows for cell in row)


def default_panels(p: TheoryParams, names="abcd") -> dict[str, ScanConfig]:
    """Panel grids used by the command-line scan, for the panels ``names``.

    Artifact choices: the budget axes span from the mild-shrinkage regime up
    to (feasibility) near the fold of the hardest-level interval and
    (improvement) past the collapse budget of the central cell, so both the
    monotone shrinkage and the collapse are visible.  Only the panels named
    are built, so an axis that ``p`` leaves empty blocks only its own panels:
    its error names the command-line flag that bounds it.
    """
    axes = {  # swept exponent: its first and last value, and how to widen it
        "beta_hi": (p.beta_lo + 0.05, 0.75, "lower --beta-lo"),
        "beta_lo": (0.02, p.beta_hi - 0.02, "raise --beta"),
    }
    nu_feas = tuple(np.round(np.linspace(0.004, 0.044, 11), 10))
    nu_impr = tuple(np.round(np.linspace(0.002, 0.026, 13), 10))
    layout = {"a": ("feasible", "beta_hi"), "b": ("feasible", "beta_lo"),
              "c": ("improvement", "beta_hi"), "d": ("improvement", "beta_lo")}
    panels = {}
    for name in names:
        kind, vary = layout[name]
        first, last, remedy = axes[vary]
        axis = np.round(np.linspace(first, last, 13), 10)
        require(((axis[1:] > axis[:-1]).all(), f"panel {name} sweeps {vary} over an empty "
                 f"axis, from {first:.6g} to {last:.6g}: {remedy}"))
        panels[name] = ScanConfig(
            kind=kind, vary=vary, vary_values=tuple(axis),
            fixed_value=p.beta_hi if vary == "beta_lo" else p.beta_lo,
            nu_values=nu_feas if kind == "feasible" else nu_impr)
    return panels
