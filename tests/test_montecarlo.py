import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selfimprove import (ParameterError, ScanConfig, TheoryParams,
                         curriculum_coefficients, derive_constants,
                         feasibility_interval, improvement_threshold, run_scan,
                         write_panel_csv, x0_grid)
from selfimprove.cubic import Interval
from selfimprove.dynamics import PLATEAU_TOL
from selfimprove.montecarlo import (classify_feasible, classify_improvement,
                                    measured_interval)

P = TheoryParams()

SMALL = ScanConfig(kind="feasible", vary="beta_hi", vary_values=(0.3, 0.45),
                   fixed_value=0.1, nu_values=(0.006, 0.014), x0_points=600)


def test_config_validation():
    with pytest.raises(ParameterError):
        ScanConfig(kind="bogus", vary="beta_hi", vary_values=(0.3,),
                   fixed_value=0.1, nu_values=(0.01,))
    with pytest.raises(ParameterError):
        ScanConfig(kind="feasible", vary="beta_hi", vary_values=(0.3, 0.2),
                   fixed_value=0.1, nu_values=(0.01,))
    for points in (1, 10**6 + 1):
        with pytest.raises(ParameterError, match="x0_points"):
            ScanConfig(kind="feasible", vary="beta_hi", vary_values=(0.3,),
                       fixed_value=0.1, nu_values=(0.01,), x0_points=points)
    assert ScanConfig(kind="feasible", vary="beta_hi", vary_values=(0.3,),
                      fixed_value=0.1, nu_values=(0.01,), x0_points=10**6).x0_points == 10**6


def test_grid_spacing_matches_cell():
    grid = x0_grid(P, 2000)
    assert len(grid) == 2000
    assert grid[1] - grid[0] == pytest.approx((1 - P.gamma) / 2000, rel=1e-12)
    assert 0.0 < grid[0] and grid[-1] < 1 - P.gamma


def test_scan_deterministic_across_threads():
    single = run_scan(SMALL, P, threads=1)
    multi = run_scan(SMALL, P, threads=4)
    assert single.cells == multi.cells


def test_noiseless_column_spans_feasibility_interval():
    d0 = derive_constants(P, nu=0.0)
    grid = x0_grid(P, 1000)
    flags = classify_feasible(grid, P, d0)
    region = feasibility_interval(P, d0)
    inside = (grid > region.lo) & (grid < region.hi)
    assert flags[inside].all()


def test_measured_contains_analytic_feasible():
    points = 1500
    grid = x0_grid(P, points)
    cell = (1 - P.gamma) / points
    for nu in (0.005, 0.015, 0.03):
        d = derive_constants(P, nu=nu)
        region = feasibility_interval(P, d)
        assert region.valid
        flags = classify_feasible(grid, P, d)
        inside = (grid > region.lo + cell) & (grid < region.hi - cell)
        assert flags[inside].all()


def test_measured_feasible_upper_endpoint_matches_analytic():
    # The pulled-back upper endpoint is exact for the step classification.
    points = 2000
    grid = x0_grid(P, points)
    cell = (1 - P.gamma) / points
    for nu in (0.01, 0.025):
        d = derive_constants(P, nu=nu)
        region = feasibility_interval(P, d)
        flags = classify_feasible(grid, P, d)
        _, hi, _ = measured_interval(grid, flags, region)
        assert abs(hi - region.hi) <= cell + 1e-12


def test_measured_contains_improvement_region():
    points = 1500
    grid = x0_grid(P, points)
    cell = (1 - P.gamma) / points
    for nu in (0.004, 0.01, 0.018):
        d = derive_constants(P, nu=nu)
        threshold = improvement_threshold(nu, P)
        feas = feasibility_interval(P, d)
        flags = classify_improvement(grid, P, d)
        lo = max(threshold, feas.lo)
        hi = min(1 - P.gamma, feas.hi)
        inside = (grid > lo + cell) & (grid < hi - cell)
        assert flags[inside].all()


def test_improvement_small_budget_spans_nearly_everything():
    points = 2000
    grid = x0_grid(P, points)
    d = derive_constants(P, nu=0.002)
    flags = classify_improvement(grid, P, d)
    lo, hi, length = measured_interval(grid, flags, None)
    assert hi == pytest.approx(grid[-1])
    assert lo < 0.01
    assert length > 0.95 * (1 - P.gamma)


def test_measured_lengths_decrease_in_budget_parameter():
    result = run_scan(SMALL, P)
    for beta in SMALL.vary_values:
        lengths = [result.cell(beta, nu).measured_len for nu in SMALL.nu_values]
        assert all(b < a for a, b in zip(lengths, lengths[1:]))
    improvement = run_scan(ScanConfig(kind="improvement", vary="beta_hi",
                                      vary_values=(0.3, 0.45), fixed_value=0.1,
                                      nu_values=(0.006, 0.014), x0_points=600), P)
    for beta in (0.3, 0.45):
        lengths = [improvement.cell(beta, nu).measured_len for nu in (0.006, 0.014)]
        assert lengths[1] < lengths[0]


def test_measured_interval_prefers_run_containing_analytic_midpoint():
    grid = np.linspace(0.1, 1.0, 10)
    flags = np.array([True, True, False, True, True, True, False, False, True, False])
    lo, hi, _ = measured_interval(grid, flags, Interval(0.4, 0.65, True))
    assert (lo, hi) == (pytest.approx(grid[3]), pytest.approx(grid[5]))
    lo, hi, _ = measured_interval(grid, flags, None)
    assert (lo, hi) == (pytest.approx(grid[3]), pytest.approx(grid[5]))
    lo, hi, length = measured_interval(grid, np.zeros(10, dtype=bool), None)
    assert length == 0.0


def loop_measured_interval(grid, flags, analytic):
    """Plain-loop reference: collect the runs, then pick one."""
    runs = []
    start = None
    for i, v in enumerate(flags):
        if v and start is None:
            start = i
        elif not v and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(flags) - 1))
    if not runs:
        return math.nan, math.nan, 0.0
    chosen = None
    if analytic is not None and analytic.valid:
        mid = 0.5 * (analytic.lo + analytic.hi)
        j = int(np.argmin(np.abs(grid - mid)))
        if flags[j]:
            chosen = next(r for r in runs if r[0] <= j <= r[1])
    if chosen is None:
        best = -1
        for r in runs:
            if r[1] - r[0] > best:     # strict: the first of equally long runs wins
                chosen, best = r, r[1] - r[0]
    lo, hi = float(grid[chosen[0]]), float(grid[chosen[1]])
    return lo, hi, hi - lo


@given(flags=st.lists(st.booleans(), min_size=1, max_size=60),
       mid=st.one_of(st.none(), st.floats(min_value=-0.2, max_value=1.2)),
       valid=st.booleans())
@example(flags=[False] * 7, mid=0.5, valid=True)                     # all False
@example(flags=[True] * 7, mid=None, valid=True)                     # all True
@example(flags=[True, True, False, True, False, True, True], mid=None,
         valid=True)                                                 # runs at both ends
@example(flags=[True, False, True, True, False, True, True], mid=None,
         valid=True)                                                 # tie: first wins
@example(flags=[True, True, False, True, True, False, True], mid=0.95,
         valid=True)                                                 # midpoint in a later run
@example(flags=[True, True, False, True, True, False, True], mid=0.4,
         valid=True)                                                 # midpoint off every run
@example(flags=[True, True, False, True, True, False, True], mid=0.95,
         valid=False)                                                # invalid analytic
@settings(max_examples=300, deadline=None)
def test_measured_interval_matches_plain_loop(flags, mid, valid):
    flags = np.array(flags)
    grid = (np.arange(len(flags)) + 0.5) / len(flags)
    analytic = None if mid is None else Interval(mid - 0.01, mid + 0.01, valid)
    got = measured_interval(grid, flags, analytic)
    want = loop_measured_interval(grid, flags, analytic)
    assert np.array_equal(got, want, equal_nan=True)


def loop_run(x0, schedule, p, d):
    """Plain-loop reference: ``x0`` and its images, or None once the map
    leaves its domain."""
    values = [x0]
    for a in schedule:
        radicand = a * values[-1] - d.c_delta_prime * d.nu
        if not radicand > 0.0:
            return None
        values.append(1.0 - p.gamma - d.c_delta * d.nu / (p.c * math.sqrt(radicand)))
    return values


def loop_rises(values):
    return all(b > a or abs(b - a) <= PLATEAU_TOL for a, b in zip(values, values[1:]))


@given(beta_lo=st.floats(min_value=0.01, max_value=1.5),
       gap=st.floats(min_value=0.01, max_value=1.5),
       nu=st.floats(min_value=0.0, max_value=0.05),
       levels=st.integers(min_value=2, max_value=8))
@example(beta_lo=0.1, gap=0.3, nu=0.0, levels=5)         # noiseless: plateaus at the ceiling
@example(beta_lo=0.1, gap=0.3, nu=0.012, levels=5)       # the default cell
@settings(max_examples=60, deadline=None)
def test_classifiers_match_plain_loop(beta_lo, gap, nu, levels):
    p = TheoryParams(L=levels, beta_lo=beta_lo, beta_hi=beta_lo + gap)
    d = derive_constants(p, nu=nu)
    co = curriculum_coefficients(p)
    grid = x0_grid(p, 300)
    feasible, improving = [], []
    for x0 in grid.tolist():
        base = loop_run(x0, (1.0,) * p.L, p, d)
        cur = loop_run(x0, co.schedule, p, d)
        alive = base is not None and cur is not None
        # The easy-to-hard sequence is monitored from its first image on.
        feasible.append(alive and loop_rises(base) and loop_rises(cur[1:]))
        improving.append(alive and co.final * cur[-1] > base[-1])
    assert classify_feasible(grid, p, d).tolist() == feasible
    assert classify_improvement(grid, p, d).tolist() == improving


def test_grid_refinement_first_order():
    d = derive_constants(P, nu=0.012)

    def lower(points):
        grid = x0_grid(P, points)
        lo, _, _ = measured_interval(grid, classify_feasible(grid, P, d), None)
        return lo

    reference = lower(32000)
    errs = [abs(lower(n) - reference) for n in (500, 1000, 2000, 4000)]
    # halving the step should roughly halve the endpoint error
    assert errs[-1] <= 0.6 * errs[0]


def test_panel_csv_layout(tmp_path):
    result = run_scan(SMALL, P)
    path = tmp_path / "panel_a.csv"
    write_panel_csv(result, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "axis1,axis2,measured_len,analytic_len,agree"
    assert len(lines) == 1 + len(result.cells)
    first = lines[1].split(",")
    assert float(first[0]) == SMALL.vary_values[0]
    assert first[4] in ("true", "false")


def test_infeasible_cells_recorded_with_zero_length():
    cfg = ScanConfig(kind="improvement", vary="beta_hi", vary_values=(0.4,),
                     fixed_value=0.1, nu_values=(0.05,), x0_points=300)
    result = run_scan(cfg, P)
    cell = result.cells[0]
    assert cell.analytic_len == 0.0


def test_gap_fixed_panel_betas():
    cfg = ScanConfig(kind="improvement", vary="beta_lo", vary_values=(0.2, 0.5),
                     fixed_value=0.1, nu_values=(0.01,), fixed_kind="gap")
    assert cfg.betas(0.2) == (0.2, pytest.approx(0.3))
    with pytest.raises(ParameterError, match="gap"):
        ScanConfig(kind="improvement", vary="beta_hi", vary_values=(0.2,),
                   fixed_value=0.1, nu_values=(0.01,), fixed_kind="gap")


def quasiconcave_within(values, tol):
    """True when some split makes the left part non-decreasing and the right
    part non-increasing, both up to ``tol``."""
    n = len(values)
    for split in range(n):
        left_ok = all(values[i + 1] >= values[i] - tol for i in range(split))
        right_ok = all(values[i + 1] <= values[i] + tol for i in range(split, n - 1))
        if left_ok and right_ok:
            return True
    return False


def test_gap_fixed_measured_length_rises_then_falls():
    # At fixed gap the measured improvement length is zero for tiny beta_lo
    # (no reweighting gain), jumps to a plateau, and decays to zero once the
    # hard-level radicand gives out.
    cfg = ScanConfig(kind="improvement", vary="beta_lo",
                     vary_values=tuple(np.geomspace(2e-4, 8.0, 30)),
                     fixed_value=0.1, nu_values=(0.01,), x0_points=800,
                     fixed_kind="gap")
    result = run_scan(cfg, P)
    lengths = [result.cell(v, 0.01).measured_len for v in cfg.vary_values]
    cell = (1 - P.gamma) / cfg.x0_points
    assert lengths[0] == 0.0
    assert max(lengths) > 0.9
    assert lengths[-1] == 0.0
    assert quasiconcave_within(lengths, cell + 1e-12)
