"""Grid scans of the feasible and improvement initialization regions.

Each panel sweeps one difficulty exponent against the budget parameter.  Per
cell, every start point on a fixed initialization grid is classified by
directly running the bound recursions (feasibility: both sequences strictly
increasing and in-domain; improvement: easy-to-hard final value strictly
above the baseline final value), and the measured interval is compared with
the analytic one.  The panels of one kind that share their budgets and grid
form a group: the baseline recursion, which the betas do not enter, runs once
for it, and one call of the kind's region function, ``feasibility_interval``
or ``improvement_interval``, gives the analytic intervals of all its panels;
a row (one swept value with all its budgets) is classified in one run, in
arrays the classifier allocates; the first easy-to-hard image, which only
beta_lo enters, runs once for a panel sweeping beta_hi and is passed to each
row as ``first``; a panel's cells are measured and compared in one array
pass.  The analytic conditions are sufficient, so the measured region may
strictly contain the analytic region; the testable guarantee is
containment.  For improvement it holds for the threshold region intersected
with the feasibility interval, since starts below the baseline's lower fixed
point leave the recursion's domain and are not counted as improving.  The
per-cell ``agree`` flag records the stronger endpoint-level agreement.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .cubic import Interval
from .dynamics import MapBudget, curriculum_coefficients, map_budget, run_schedule, step
from .errors import require
from .params import TheoryParams
from .regions import feasibility_interval, improvement_interval

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
            (isinstance(self.x0_points, numbers.Integral), "x0_points must be an integer"),
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


def classify_feasible(x0, p: TheoryParams, nu, baseline=None, first=None) -> np.ndarray:
    """Start points whose baseline and easy-to-hard sequences are strictly
    increasing (plateau-tolerant) and in-domain at every step.

    ``nu`` is a float, one budget per point, or their ``MapBudget``;
    ``baseline`` is ``baseline_run(x0, p, nu)`` and ``first`` the first
    easy-to-hard image, ``step(x0, curriculum_coefficients(p).first, p,
    nu)``, if the caller has them.  No input is written: the runs write
    only arrays of their own.  The easy-to-hard monotonicity is monitored
    from the first image on, matching the sequence the guarantee is stated
    for.
    """
    _, baseline_rising = baseline_run(x0, p, nu) if baseline is None else baseline
    schedule = curriculum_coefficients(p).schedule
    if first is None:
        first = step(x0, schedule[0], p, nu)
    _, rising = run_schedule(first, schedule[1:], p, nu)
    return baseline_rising & rising


def classify_improvement(x0, p: TheoryParams, nu, baseline=None, first=None) -> np.ndarray:
    """Start points where the easy-to-hard final value (with the final
    rescale) strictly exceeds the baseline final value, both in-domain.
    ``nu``, ``baseline`` and ``first`` as for ``classify_feasible``: the
    first step run here allocates one array, and each later step writes
    into it."""
    baseline_final, _ = baseline_run(x0, p, nu) if baseline is None else baseline
    coeffs = curriculum_coefficients(p)
    final, schedule = (x0, coeffs.schedule) if first is None else (first, coeffs.schedule[1:])
    out = None
    for a in schedule:
        final = step(final, a, p, nu, out=out)
        out = final if isinstance(final, np.ndarray) else None
    return np.multiply(coeffs.final, final, out=out) > baseline_final


def measured_interval(grid: np.ndarray, flags, analytic: Interval | None):
    """(lo, hi, length) of each row of ``flags`` (shape (..., N) over the N
    points of ``grid``, ascending and uniform as ``x0_grid`` makes it): its
    maximal run (the first on ties), or, where ``analytic`` (fields of the
    leading shape, or None) is valid and the grid point nearest its midpoint
    is flagged, the run holding that point; NaN, NaN, 0 where no point is
    flagged.  Arrays of the leading shape, or three floats for one row."""
    rows = np.asarray(flags, dtype=bool).reshape(-1, grid.size)
    count, last, index = rows.shape[0], grid.size - 1, np.arange(rows.shape[0])
    # Flag changes, with False beyond both ends of each row, alternate
    # between run starts and one past run ends, row after row.
    edges = np.empty((count, grid.size + 1), dtype=bool)
    edges[:, 0], edges[:, -1] = rows[:, 0], rows[:, -1]
    np.not_equal(rows[:, 1:], rows[:, :-1], out=edges[:, 1:-1])
    row, changes = np.divmod(np.flatnonzero(edges), grid.size + 1)
    row, starts, ends = row[::2], changes[::2], changes[1::2] - 1
    order = np.lexsort((starts - ends, row))      # by row, longest first, stable
    heads = order[np.diff(row[order], prepend=-1) > 0]
    chosen = np.full(count, -1)
    chosen[row[heads]] = heads
    if analytic is not None:
        valid = np.reshape(analytic.valid, count)
        mid = np.where(valid, 0.5 * (np.reshape(analytic.lo, count)
                                     + np.reshape(analytic.hi, count)), grid[0])
        # The grid point nearest the midpoint, the first on ties: the index
        # the spacing gives (``np.rint`` rounds half to even) or a neighbour.
        guess = np.rint(np.clip((mid - grid[0]) / ((grid[-1] - grid[0]) or 1.0) * last, 0, last))
        window = np.minimum(np.maximum(guess.astype(int) - 1, 0)[:, None] + np.arange(3), last)
        near = window[index, np.argmin(np.abs(grid[window] - mid[:, None]), axis=1)]
        # The run holding it is its row's last run starting at or before it.
        holding = np.searchsorted(row * grid.size + starts, index * grid.size + near, "right") - 1
        chosen = np.where(valid & rows[index, near], holding, chosen)
    # A row with no run takes run -1, appended past the others: the NaN past the grid.
    past = np.append(grid, np.nan)
    lo, hi = (past[np.append(side, grid.size)[chosen]] for side in (starts, ends))
    shape = np.shape(flags)[:-1]
    return tuple(a.reshape(shape) if shape else a.item()
                 for a in (lo, hi, np.where(chosen < 0, 0.0, hi - lo)))


def run_scans(cfgs, p: TheoryParams) -> list[tuple[CellResult, ...]]:
    """The cells of each panel of ``cfgs``, in order, each in grid order
    (swept exponent major, budget minor), with the bits of the panel run
    alone.  A call shares no state with another, so concurrent calls give
    the cells of serial ones.

    Panels of one kind with the same budgets and grid form a group: it runs
    the baseline once for all of them and solves their analytic intervals
    in one region call (one threshold bisection, or one cubic call) over
    all their beta pairs.  One group's arrays are freed before the next
    group's are built.
    """
    groups: dict = {}
    for i, cfg in enumerate(cfgs):
        groups.setdefault((cfg.kind, cfg.nu_values, cfg.x0_points), []).append(i)
    results = [()] * len(cfgs)
    for members in groups.values():
        for i, cells in zip(members, _scan_group([cfgs[i] for i in members], p)):
            results[i] = cells
    return results


def _scan_group(cfgs, p: TheoryParams) -> list[tuple[CellResult, ...]]:
    """The panels of one group, which share ``kind``, ``nu_values`` and
    ``x0_points``."""
    grid = x0_grid(p, cfgs[0].x0_points)
    nus = np.array(cfgs[0].nu_values)
    # Each panel's analytic intervals, one row per swept value.  The region
    # is called by its module-level name, so a tracer wrapping module
    # functions (perfbench) sees the call.
    region = improvement_interval if cfgs[0].kind == "improvement" else feasibility_interval
    betas = np.array([cfg.betas(v) for cfg in cfgs for v in cfg.vary_values]).T
    solved = region(p, nus, *betas[:, :, None])
    splits = np.cumsum([len(cfg.vary_values) for cfg in cfgs])[:-1]
    analytic = [Interval(*fields) for fields in zip(
        *(np.split(field, splits) for field in (solved.lo, solved.hi, solved.valid)))]
    # A row's points: the grid once per budget, each point with its budget's
    # terms, formed per budget and repeated: the products' bits, with no
    # array of repeated budgets.
    x0 = np.tile(grid, len(nus))
    budget = MapBudget(*(np.repeat(term, len(grid)) for term in map_budget(p, nus)))
    baseline = baseline_run(x0, p, budget)
    for shared in (x0, *budget, *baseline):
        shared.flags.writeable = False
    return [_scan_panel(cfg, p, grid, x0, budget, baseline, a) for cfg, a in zip(cfgs, analytic)]


def _scan_panel(cfg: ScanConfig, p: TheoryParams, grid, x0, budget, baseline,
                analytic) -> tuple[CellResult, ...]:
    """One panel's cells from its group's read-only arrays and its analytic
    intervals (one row per swept value): each row classified in one call,
    then every cell measured in one call.  A panel sweeping ``beta_hi``
    keeps ``beta_lo``, so its rows share their first easy-to-hard image:
    it is computed once, and read-only like the group's arrays."""
    classify = classify_feasible if cfg.kind == "feasible" else classify_improvement
    rows = [p.with_betas(*cfg.betas(v)) for v in cfg.vary_values]
    first = None
    if cfg.vary == "beta_hi":
        first = step(x0, curriculum_coefficients(rows[0]).first, p, budget)
        first.flags.writeable = False
    flags = np.empty((len(rows), x0.size), dtype=bool)
    for pp, row in zip(rows, flags):
        row[...] = classify(x0, pp, budget, baseline, first)
    lo, hi, length = measured_interval(grid, flags.reshape(*analytic.valid.shape, -1), analytic)
    valid, tol = analytic.valid, (1.0 - p.gamma) / cfg.x0_points + 1e-12   # a cell apart
    agree = np.where(valid, (length > 0.0) & (np.abs(lo - analytic.lo) <= tol)
                     & (np.abs(hi - analytic.hi) <= tol), length == 0.0)
    # Each NaN becomes the one ``math.nan``: tuples compare items by identity
    # first, so the cells of two runs compare equal.
    columns = ([math.nan if math.isnan(v) else v for v in column.ravel().tolist()] for column in (
        lo, hi, length, np.where(valid, analytic.lo, math.nan),
        np.where(valid, analytic.hi, math.nan), np.where(valid, analytic.hi - analytic.lo, 0.0)))
    return tuple(map(CellResult, [v for v in cfg.vary_values for _ in cfg.nu_values],
                     cfg.nu_values * len(cfg.vary_values), *columns, agree.ravel().tolist()))


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
