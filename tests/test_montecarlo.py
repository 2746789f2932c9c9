import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selfimprove import (BoundProblem, CellResult, ParameterError, ScanConfig, TheoryParams,
                         curriculum_coefficients, default_panels, feasibility_interval, x0_grid)
from selfimprove import montecarlo
from selfimprove.cubic import Interval
from selfimprove.dynamics import PLATEAU_EPSILONS, iterate, map_budget, run_schedule, step
from selfimprove.montecarlo import (baseline_run, classify_feasible,
                                    classify_improvement, measured_interval, run_scans)
from selfimprove.regions import _improvement_interval

P = TheoryParams()
# A step may fall by PLATEAU_EPSILONS machine epsilons of its start.
PLATEAU_FLOOR = 1.0 - PLATEAU_EPSILONS * np.finfo(float).eps

SMALL = ScanConfig(kind="feasible", vary="beta_hi", vary_values=(0.3, 0.45),
                   fixed_value=0.1, nu_values=(0.006, 0.014), x0_points=600)


def by_axes(cells):
    """Scan cells keyed by (swept exponent, budget)."""
    return {(c.axis1, c.axis2): c for c in cells}


def test_config_validation():
    with pytest.raises(ParameterError):
        ScanConfig(kind="bogus", vary="beta_hi", vary_values=(0.3,),
                   fixed_value=0.1, nu_values=(0.01,))
    with pytest.raises(ParameterError):
        ScanConfig(kind="feasible", vary="beta_hi", vary_values=(0.3, 0.2),
                   fixed_value=0.1, nu_values=(0.01,))
    for points in (1, 10**6 + 1, 2.5):
        with pytest.raises(ParameterError, match="x0_points"):
            ScanConfig(kind="feasible", vary="beta_hi", vary_values=(0.3,),
                       fixed_value=0.1, nu_values=(0.01,), x0_points=points)
    assert ScanConfig(kind="feasible", vary="beta_hi", vary_values=(0.3,),
                      fixed_value=0.1, nu_values=(0.01,), x0_points=10**6).x0_points == 10**6
    for nu in (-0.01, math.inf, math.nan):
        with pytest.raises(ParameterError, match="nu_values"):
            ScanConfig(kind="feasible", vary="beta_hi", vary_values=(0.3,),
                       fixed_value=0.1, nu_values=(nu,))
    # NaN compares false, so it fails the rules stated as what must hold.
    with pytest.raises(ParameterError, match="vary_values must be non-empty and strictly"):
        ScanConfig(kind="feasible", vary="beta_hi", vary_values=(0.3, math.nan),
                   fixed_value=0.1, nu_values=(0.01,))
    with pytest.raises(ParameterError, match="nu_values must be non-empty and strictly"):
        ScanConfig(kind="feasible", vary="beta_hi", vary_values=(0.3,),
                   fixed_value=0.1, nu_values=(0.01, math.nan))
    for vary_values, fixed_value in (((math.nan,), 0.1), ((0.3,), math.nan),
                                     ((0.3, math.inf), 0.1)):
        with pytest.raises(ParameterError, match="vary_values and fixed_value must be finite"):
            ScanConfig(kind="feasible", vary="beta_hi", vary_values=vary_values,
                       fixed_value=fixed_value, nu_values=(0.01,))


def test_grid_spacing_matches_cell():
    grid = x0_grid(P, 2000)
    assert len(grid) == 2000
    assert grid[1] - grid[0] == pytest.approx((1 - P.gamma) / 2000, rel=1e-12)
    assert 0.0 < grid[0] and grid[-1] < 1 - P.gamma


def test_noiseless_column_spans_feasibility_interval():
    grid = x0_grid(P, 1000)
    flags = classify_feasible(grid, P, 0.0)
    region = feasibility_interval(P, 0.0)
    inside = (grid > region.lo) & (grid < region.hi)
    assert flags[inside].all()


def test_measured_contains_analytic_feasible():
    points = 1500
    grid = x0_grid(P, points)
    cell = (1 - P.gamma) / points
    for nu in (0.005, 0.015, 0.03):
        region = feasibility_interval(P, nu)
        assert region.valid
        flags = classify_feasible(grid, P, nu)
        inside = (grid > region.lo + cell) & (grid < region.hi - cell)
        assert flags[inside].all()


def test_measured_feasible_upper_endpoint_matches_analytic():
    # The pulled-back upper endpoint is exact for the step classification.
    points = 2000
    grid = x0_grid(P, points)
    cell = (1 - P.gamma) / points
    for nu in (0.01, 0.025):
        region = feasibility_interval(P, nu)
        flags = classify_feasible(grid, P, nu)
        _, hi, _ = measured_interval(grid, flags, region)
        assert abs(hi - region.hi) <= cell + 1e-12


def test_measured_contains_improvement_region():
    points = 1500
    grid = x0_grid(P, points)
    cell = (1 - P.gamma) / points
    for nu in (0.004, 0.01, 0.018):
        threshold = BoundProblem(P).threshold(nu)
        feas = feasibility_interval(P, nu)
        flags = classify_improvement(grid, P, nu)
        lo = max(threshold, feas.lo)
        hi = min(1 - P.gamma, feas.hi)
        inside = (grid > lo + cell) & (grid < hi - cell)
        assert flags[inside].all()


def test_improvement_small_budget_spans_nearly_everything():
    points = 2000
    grid = x0_grid(P, points)
    flags = classify_improvement(grid, P, 0.002)
    lo, hi, length = measured_interval(grid, flags, None)
    assert hi == pytest.approx(grid[-1])
    assert lo < 0.01
    assert length > 0.95 * (1 - P.gamma)


def test_measured_lengths_decrease_in_budget_parameter():
    result = by_axes(run_scans([SMALL], P)[0])
    for beta in SMALL.vary_values:
        lengths = [result[beta, nu].measured_len for nu in SMALL.nu_values]
        assert all(b < a for a, b in zip(lengths, lengths[1:]))
    improvement = by_axes(run_scans([ScanConfig(kind="improvement", vary="beta_hi",
                                                vary_values=(0.3, 0.45), fixed_value=0.1,
                                                nu_values=(0.006, 0.014), x0_points=600)],
                                    P)[0])
    for beta in (0.3, 0.45):
        lengths = [improvement[beta, nu].measured_len for nu in (0.006, 0.014)]
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


@st.composite
def flag_stacks(draw):
    """Rows of flags over one grid, each with its own analytic interval:
    ``(mid, valid)``, or None for no interval."""
    size = draw(st.integers(min_value=1, max_value=60))
    rows = st.lists(st.booleans(), min_size=size, max_size=size)
    analytic = st.one_of(st.none(), st.tuples(st.floats(min_value=-0.2, max_value=1.2),
                                               st.booleans()))
    return draw(st.lists(st.tuples(rows, analytic), min_size=1, max_size=8))


@given(stack=flag_stacks(), nested=st.booleans())
@example(stack=[([True], None)], nested=False)                        # one point, in a run
@example(stack=[([False], (0.5, True))], nested=False)                # one point, no run
@example(stack=[([False] * 7, (0.5, True)),                           # all False
                ([True] * 7, None),                                   # all True
                ([True] * 7, (0.5, True)),                            # all True, valid
                ([True, True, False, True, False, True, True], None),  # runs at both ends
                ([True, False, True, True, False, True, True], None),  # tie: first wins
                ([True, True, False, True, True, False, True], (0.95, True)),   # later run
                ([True, True, False, True, True, False, True], (0.4, True)),    # off every run
                ([True, True, False, True, True, False, True], (0.95, False))],  # invalid
         nested=True)
@settings(max_examples=200, deadline=None)
def test_measured_interval_matches_plain_loop(stack, nested):
    """One call on a stack of rows gives, row by row, what the plain loop
    gives each row alone, and a call on one row gives three floats.  A row
    without an interval enters the stack as an invalid one."""
    flags = np.array([row for row, _ in stack])
    grid = (np.arange(flags.shape[1]) + 0.5) / flags.shape[1]
    analytic = [None if a is None else Interval(a[0] - 0.01, a[0] + 0.01, a[1])
                for _, a in stack]
    want = [repr(loop_measured_interval(grid, row, a)) for row, a in zip(flags, analytic)]
    for row, a, expected in zip(flags, analytic, want):
        got = measured_interval(grid, row, a)
        assert all(type(v) is float for v in got) and repr(got) == expected
    lead = (2, len(stack) // 2) if nested and len(stack) % 2 == 0 else (len(stack),)
    filled = [Interval(math.nan, math.nan, False) if a is None else a for a in analytic]
    stacked = Interval(*(np.array([getattr(a, name) for a in filled]).reshape(lead)
                         for name in ("lo", "hi", "valid")))
    results = [(lead, measured_interval(grid, flags.reshape(*lead, -1), stacked))]
    if all(a is None for a in analytic):
        results.append(((len(stack),), measured_interval(grid, flags, None)))
    for shape, got in results:
        assert [v.shape for v in got] == [shape] * 3
        assert [repr(tuple(map(float, cell))) for cell in zip(*(v.ravel() for v in got))] == want


def assert_nearest_is_argmin(grid, mids):
    """``measured_interval`` looks up the grid point nearest each of ``mids``,
    the first on ties, as ``np.argmin(np.abs(grid - mid))`` does.  Each
    probe row flags every point but the argmin's two neighbours, so the
    argmin is a one-point run, chosen only if it is the point looked up:
    from 5 points on, either neighbour's lookup gives a longer or earlier run."""
    mids = np.asarray(mids, dtype=float)
    for chunk in np.array_split(mids, max(1, mids.size * grid.size // 10**6)):
        k = np.argmin(np.abs(grid - chunk[:, None]), axis=1)
        probes = np.ones((chunk.size, grid.size + 2), dtype=bool)    # one pad at each end
        probes[np.arange(chunk.size), k] = probes[np.arange(chunk.size), k + 2] = False
        probes = probes[:, 1:-1]
        lo, hi, length = measured_interval(grid, probes,
                                           Interval(chunk, chunk, np.full(chunk.size, True)))
        assert np.array_equal(lo, grid[k]) and np.array_equal(hi, grid[k])
        assert not length.any()


def test_nearest_index_is_argmin_at_every_cell_of_the_default_panels(monkeypatch):
    """Every analytic midpoint the command-line scan looks up, on its own grid."""
    seen = []

    def recorded(grid, flags, analytic):
        seen.append((grid, analytic))
        return measured(grid, flags, analytic)

    measured = montecarlo.measured_interval
    monkeypatch.setattr(montecarlo, "measured_interval", recorded)
    run_scans(list(default_panels(P).values()), P)
    assert len(seen) == 4                                      # one call per panel
    mids = [0.5 * (a.lo + a.hi)[a.valid] for _, a in seen]
    assert sum(m.size for m in mids) > 300
    for (grid, _), m in zip(seen, mids):
        assert_nearest_is_argmin(grid, m)


@pytest.mark.parametrize("points", [1, 2, 3, 10, 600, 2000, 10**5])
def test_nearest_index_is_argmin_at_random_points_and_ties(points):
    rng = np.random.default_rng(points)
    for gamma in (0.0, 0.02, 0.3):
        grid = x0_grid(TheoryParams(gamma=gamma), points)
        k = rng.integers(0, points, 200)
        halfway = 0.5 * (grid[k] + grid[np.minimum(k + 1, points - 1)])
        assert_nearest_is_argmin(grid, np.concatenate([
            rng.uniform(-0.2, 1.2, 200), grid[k], halfway, np.nextafter(halfway, -1.0),
            np.nextafter(halfway, 2.0), [-1.0, 0.0, 1.0, 2.0]]))
    # Exact ties: both neighbours at the same computed distance, so the first wins.
    grid = np.arange(8) + 0.5
    assert_nearest_is_argmin(grid, [1.0, 2.0, 7.0])
    assert np.argmin(np.abs(grid - np.array([[1.0], [2.0], [7.0]])), axis=1).tolist() == [0, 1, 6]


def loop_run(x0, schedule, p, nu):
    """Plain-loop reference: ``x0`` and its images, or None once the map
    leaves its domain."""
    values = [x0]
    for a in schedule:
        radicand = a * values[-1] - p.c_delta_prime * nu
        if not radicand > 0.0:
            return None
        values.append(1.0 - p.gamma - p.c_delta * nu / (p.c * math.sqrt(radicand)))
    return values


def loop_rises(values):
    return all(b >= a * PLATEAU_FLOOR for a, b in zip(values, values[1:]))


@given(beta_lo=st.floats(min_value=0.01, max_value=1.5),
       gap=st.floats(min_value=0.01, max_value=1.5),
       nu=st.floats(min_value=0.0, max_value=0.05),
       levels=st.integers(min_value=2, max_value=8))
@example(beta_lo=0.1, gap=0.3, nu=0.0, levels=5)         # noiseless: plateaus at the ceiling
@example(beta_lo=0.1, gap=0.3, nu=0.012, levels=5)       # the default cell
@settings(max_examples=60, deadline=None)
def test_classifiers_match_plain_loop(beta_lo, gap, nu, levels):
    p = TheoryParams(L=levels, beta_lo=beta_lo, beta_hi=beta_lo + gap)
    co = curriculum_coefficients(p)
    grid = x0_grid(p, 300)
    feasible, improving = [], []
    for x0 in grid.tolist():
        base = loop_run(x0, (1.0,) * p.L, p, nu)
        cur = loop_run(x0, co.schedule, p, nu)
        alive = base is not None and cur is not None
        # The easy-to-hard sequence is monitored from its first image on.
        feasible.append(alive and loop_rises(base) and loop_rises(cur[1:]))
        improving.append(alive and co.final * cur[-1] > base[-1])
    assert classify_feasible(grid, p, nu).tolist() == feasible
    assert classify_improvement(grid, p, nu).tolist() == improving


def test_runs_and_classifiers_never_write_their_inputs():
    """The run kernels write into buffers of their own: ``x0``, the
    per-point budgets, a shared baseline and a shared first image keep
    their bytes."""
    grid = x0_grid(P, 50)
    x0 = np.append(np.tile(grid, 3), math.nan)
    nu = np.append(np.repeat([0.0, 0.012, 0.2], grid.size), 0.01)
    before = x0.tobytes(), nu.tobytes()
    run_schedule(x0, curriculum_coefficients(P).schedule, P, nu)
    baseline = baseline_run(x0, P, nu)
    first = step(x0, curriculum_coefficients(P).first, P, nu)
    shared = [a.tobytes() for a in (*baseline, first)]
    for classify in (classify_feasible, classify_improvement):
        classify(x0, P, nu, baseline)
        classify(x0, P, nu)
        classify(x0, P, nu, baseline, None, first)
        classify(x0, P, nu, baseline, (np.empty_like(x0), np.empty_like(x0)), first)
    assert (x0.tobytes(), nu.tobytes()) == before
    assert [a.tobytes() for a in (*baseline, first)] == shared


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("levels, beta_hi", [(2, 1.2), (5, 0.35)])
def test_classifiers_with_a_given_first_image_equal_the_plain_calls(levels, beta_hi, buffered):
    """A caller's first image, as a ``beta_hi``-swept panel shares it, gives
    the flags of the call that computes it, bit for bit: NaN starts, starts
    outside the domain and zero budgets included.  An improvement call may
    hold it in ``buffers[1]``, which it never writes.  At two levels one
    step more or less moves flags on this grid."""
    p = TheoryParams(L=levels, beta_lo=P.beta_lo, beta_hi=beta_hi)
    grid = x0_grid(p, 400)
    x0 = np.concatenate([np.tile(grid, 4), [math.nan, 0.0, -1.0, 1.0]])
    nu = map_budget(p, np.append(np.repeat([0.0, 0.004, 0.02, 0.3], grid.size), [0.0, 0.01] * 2))
    baseline = baseline_run(x0, p, nu)
    fresh = (lambda: (np.empty_like(x0), np.empty_like(x0))) if buffered else (lambda: None)
    for classify in (classify_feasible, classify_improvement):
        plain = classify(x0, p, nu, baseline, fresh())
        assert plain.any() and not plain.all()
        first = step(x0, curriculum_coefficients(p).first, p, nu)
        assert np.isnan(first).any() and not np.isnan(first).all()
        assert classify(x0, p, nu, baseline, fresh(), first).tobytes() == plain.tobytes()
        if buffered and classify is classify_improvement:
            held = fresh()
            step(x0, curriculum_coefficients(p).first, p, nu, out=held[1])
            assert classify(x0, p, nu, baseline, held, held[1]).tobytes() == plain.tobytes()
            assert held[1].tobytes() == first.tobytes()


@pytest.mark.parametrize("name", ["a", "c"])
def test_rows_on_one_worker_buffers_do_not_depend_on_order(name, monkeypatch):
    """A panel's rows read its x0, budget terms, baseline and shared first
    image and write only the scan's one pair of buffers: on it, the rows in
    reverse order and one row twice give the flags of the panel's own run,
    and after the panel the shared arrays keep their bytes."""
    cfg = replace(default_panels(P)[name], x0_points=300)
    kind = "classify_feasible" if cfg.kind == "feasible" else "classify_improvement"
    classify, rows, before = getattr(montecarlo, kind), [], []

    def recorded(x0, pp, nu, baseline, buffers, first):
        if not rows:
            before.extend(a.tobytes() for a in (x0, *nu, *baseline, first))
        flags = classify(x0, pp, nu, baseline, buffers, first)
        rows.append(((x0, pp, nu, baseline, buffers, first), flags.tobytes()))
        return flags

    monkeypatch.setattr(montecarlo, kind, recorded)
    run_scans([cfg], P)
    assert len(rows) == len(cfg.vary_values)
    x0, _, nu, baseline, buffers, first = rows[0][0]
    shared = (x0, *nu, *baseline, first)
    assert [a.tobytes() for a in shared] == before
    # One set of buffers and one first image, reused by every row.
    assert all(args[-2] is buffers and args[-1] is first for args, _ in rows)
    for args, flags in rows[::-1] + rows[:1] * 2:
        assert classify(*args).tobytes() == flags
    assert [a.tobytes() for a in shared] == before


def test_panels_scanned_in_groups_equal_each_panel_alone():
    """Panels with the same budgets and grid share one baseline run and one
    threshold solve: the cells of each panel run alone, bit for bit, in the
    order given, a repeated panel and a lone grid size included."""
    panels = {name: replace(cfg, x0_points=300) for name, cfg in default_panels(P).items()}
    cfgs = [panels["c"], replace(panels["a"], x0_points=500), panels["d"], panels["b"],
            panels["a"], panels["d"]]
    # repr tells -0.0 from 0.0 and NaN fields apart, bit for bit; compared as
    # one flag, since a diff of the long strings would take minutes.
    same = repr(run_scans(cfgs, P)) == repr([run_scans([cfg], P)[0] for cfg in cfgs])
    assert same


def test_reruns_compare_equal_with_their_nan_fields():
    """Cells compare as tuples, whose items compare by identity first, so
    an empty cell's NaN fields and those of an invalid analytic interval
    are the one ``math.nan``: two runs of the same panels compare equal."""
    cfgs = [ScanConfig(kind="feasible", vary="beta_hi", vary_values=(0.3, 0.75),
                       fixed_value=0.1, nu_values=(0.0, 0.02, 0.09), x0_points=100),
            ScanConfig(kind="improvement", vary="beta_lo", vary_values=(0.05, 0.3),
                       fixed_value=0.4, nu_values=(0.0, 0.01, 0.05), x0_points=100)]
    first = run_scans(cfgs, P)
    fields = [(c.measured_lo, c.analytic_lo) for cells in first for c in cells]
    assert {math.isnan(lo) for lo, _ in fields} == {math.isnan(lo) for _, lo in fields} == \
        {True, False}
    assert run_scans(cfgs, P) == first


def test_concurrent_scans_match_serial_under_fast_switching():
    """More concurrent scans than cores, switching often: each call's
    buffers stay its own, so every call gives the serial default panels."""
    cfgs = list(default_panels(P).values())
    serial = run_scans(cfgs, P)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            concurrent = list(pool.map(lambda _: run_scans(cfgs, P), range(8)))
    finally:
        sys.setswitchinterval(interval)
    same = repr(concurrent) == repr([serial] * 8)
    assert same


def test_grid_refinement_first_order():
    nu = 0.012

    def lower(points):
        grid = x0_grid(P, points)
        lo, _, _ = measured_interval(grid, classify_feasible(grid, P, nu), None)
        return lo

    reference = lower(32000)
    errs = [abs(lower(n) - reference) for n in (500, 1000, 2000, 4000)]
    # halving the step should roughly halve the endpoint error
    assert errs[-1] <= 0.6 * errs[0]


def test_infeasible_cells_recorded_with_zero_length():
    cfg = ScanConfig(kind="improvement", vary="beta_hi", vary_values=(0.4,),
                     fixed_value=0.1, nu_values=(0.05,), x0_points=300)
    (cell,), = run_scans([cfg], P)
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
    result = by_axes(run_scans([cfg], P)[0])
    lengths = [result[v, 0.01].measured_len for v in cfg.vary_values]
    cell = (1 - P.gamma) / cfg.x0_points
    assert lengths[0] == 0.0
    assert max(lengths) > 0.9
    assert lengths[-1] == 0.0
    assert quasiconcave_within(lengths, cell + 1e-12)


def diff_increasing(values):
    """``dynamics.increasing`` written independently: every step ends at or
    above its start scaled by ``PLATEAU_FLOOR``, and no value is NaN."""
    rises = values[1:] >= values[:-1] * PLATEAU_FLOOR
    return rises.all(axis=0) & ~np.isnan(values).any(axis=0)


def per_cell_scan(cfg, p):
    """Reference scan: every cell classified on its own from full
    ``iterate`` trajectories, with its analytic interval from its own
    solve (``feasibility_interval`` or the threshold's), its run from the
    plain loop, and agreement when both endpoints lie within a cell of the
    analytic ones (or, with no analytic interval, when no point is flagged)."""
    grid = x0_grid(p, cfg.x0_points)
    near = (1.0 - p.gamma) / cfg.x0_points + 1e-12
    cells = []
    for v in cfg.vary_values:
        pp = p.with_betas(*cfg.betas(v))
        co = curriculum_coefficients(pp)
        for nu in cfg.nu_values:
            baseline = iterate(grid, (1.0,) * pp.L, pp, nu)
            curriculum = iterate(grid, co.schedule, pp, nu)
            if cfg.kind == "feasible":
                flags = diff_increasing(baseline) & diff_increasing(curriculum[1:])
                analytic = feasibility_interval(pp, nu)
            else:
                flags = co.final * curriculum[-1] > baseline[-1]
                analytic = _improvement_interval(pp, float(BoundProblem(pp).threshold(nu)))
            lo, hi, length = loop_measured_interval(grid, flags, analytic)
            if analytic.valid:
                agree = (length > 0.0 and abs(lo - analytic.lo) <= near
                         and abs(hi - analytic.hi) <= near)
                ends = analytic.lo, analytic.hi, analytic.length
            else:
                agree, ends = length == 0.0, (math.nan, math.nan, 0.0)
            cells.append(CellResult(v, nu, lo, hi, length, *ends, agree))
    return tuple(cells)


@st.composite
def scan_configs(draw):
    """Small panels of both kinds and every sweep, budgets from 0 to past
    the fold and the collapse (runs that leave the domain)."""
    kind = draw(st.sampled_from(("feasible", "improvement")))
    sweep = draw(st.sampled_from(("beta_hi", "beta_lo", "gap")))
    fixed = draw(st.floats(min_value=0.02, max_value=1.5))
    # beta_hi must exceed beta_lo: sweep beta_hi above a fixed beta_lo, beta_lo
    # below a fixed beta_hi, or beta_lo anywhere at a fixed gap.
    low, high = {"beta_hi": (fixed + 0.01, fixed + 2.0), "beta_lo": (0.01, 0.99 * fixed),
                 "gap": (0.01, 2.0)}[sweep]
    values = draw(st.lists(st.floats(min_value=low, max_value=high), min_size=1, max_size=3,
                           unique=True))
    nus = draw(st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.1)),
                        min_size=1, max_size=3, unique=True))
    return ScanConfig(kind=kind, vary="beta_hi" if sweep == "beta_hi" else "beta_lo",
                      vary_values=sorted(values), fixed_value=fixed, nu_values=sorted(nus),
                      x0_points=draw(st.integers(min_value=2, max_value=100)),
                      fixed_kind="gap" if sweep == "gap" else "exponent")


@given(cfg=scan_configs(), levels=st.integers(min_value=2, max_value=8))
@example(cfg=ScanConfig(kind="feasible", vary="beta_hi", vary_values=(0.3, 0.75),
                        fixed_value=0.1, nu_values=(0.0, 0.02, 0.09), x0_points=100),
         levels=5)                                           # nu = 0, past the fold
@example(cfg=ScanConfig(kind="improvement", vary="beta_lo", vary_values=(0.05, 0.3),
                        fixed_value=0.4, nu_values=(0.0, 0.01, 0.05), x0_points=100),
         levels=5)                                           # past the collapse
@example(cfg=ScanConfig(kind="improvement", vary="beta_lo", vary_values=(0.2,),
                        fixed_value=0.1, nu_values=(0.012,), x0_points=50,
                        fixed_kind="gap"), levels=3)         # one budget, fixed gap
@example(cfg=ScanConfig(kind="improvement", vary="beta_lo", vary_values=(1.3579828982301416,),
                        fixed_value=2.25, nu_values=(0.015625,), x0_points=50),
         levels=2)                                           # batched bits once differed
@example(cfg=ScanConfig(kind="feasible", vary="beta_lo", vary_values=(2.0,), fixed_value=1.5,
                        nu_values=(5e-324,), x0_points=2, fixed_kind="gap"),
         levels=2)                                           # sigma underflows to 0
@settings(max_examples=40, deadline=None)
def test_scan_matches_cells_classified_one_by_one(cfg, levels):
    p = TheoryParams(L=levels)
    # repr tells -0.0 from 0.0 and writes every float exactly: bit for bit.
    assert repr(run_scans([cfg], p)[0]) == repr(per_cell_scan(cfg, p))
