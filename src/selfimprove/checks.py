"""Named property checks backing the ``verify`` command.

Each check re-validates one family of invariants, most against an
independent oracle (bisection of the cubic polynomial for its roots, finite
differences for monotonicities, exhaustive summation for the discrete
inequalities).  The oracles share ``regions.last_true``: their independence
lies in the predicate they bisect, not in the bisection.
``fast`` shrinks sample counts so the whole table stays under a minute.
Every check is the single definition of its property: the acceptance suite
calls the full-size (``fast=False``) version instead of re-implementing it.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import cubic, dynamics, montecarlo, regions, simulate
from .params import SIGMA_MAX, TheoryParams

_SEED = 20240613


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def oracle_cubic_roots(sigma):
    """Bisection on y*(1-y)^2 = sigma^2 over (0, 1/3) and (1/3, 1), for a
    float or elementwise for an array of sigma."""
    s2 = np.asarray(sigma, dtype=float) * sigma
    return (regions.last_true(lambda y: y * (1.0 - y) ** 2 < s2, 1e-300, 1.0 / 3.0)[0],
            regions.last_true(lambda y: y * (1.0 - y) ** 2 > s2, 1.0 / 3.0, 1.0 - 1e-16)[0])


def _fold_budget(a, p: TheoryParams):
    """Exact budget parameter at which the scale-``a`` interval folds, per
    entry of ``a``; sigma is NaN, so not below the fold, beyond its regime."""
    return regions.last_true(lambda nu: cubic.effective_sigma(a, p, nu) < SIGMA_MAX, 0.0, 1.0)[0]


def _rng() -> np.random.Generator:
    return np.random.default_rng(_SEED)


def _admissible_sigma(rng, count: int) -> np.ndarray:
    return rng.uniform(1e-4, SIGMA_MAX - 1e-4, size=count)


def _uniform(lo, hi, u):
    """``rng.uniform(lo, hi)`` from its ``u = rng.random()``: so the rows of
    ``rng.random((k, n))`` replay a loop that draws n uniforms per turn."""
    return lo + (hi - lo) * u


def _random_map_setting(draws, p: TheoryParams):
    """Random (a, nu) arrays with a healthy margin from the fold, one pair
    per row of ``draws``, from its first two uniforms."""
    a = _uniform(0.3, 3.0, draws[:, 0])
    sig_per_nu = cubic.effective_sigma(a, p, 1e-9) / 1e-9
    nu_fold = SIGMA_MAX / sig_per_nu  # first-order fold estimate
    nu = _uniform(0.05, 0.8, draws[:, 1]) * nu_fold
    return a, np.where(cubic.invariant_interval(a, p, nu).valid, nu, 0.5 * nu)


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------

def check_derived_constants_monotone(fast: bool) -> CheckResult:
    base = TheoryParams()
    nu = base.default_nu
    ok = (TheoryParams(pi_size=10_000).c_delta > base.c_delta
          and TheoryParams(delta=0.01).c_delta > base.c_delta
          and TheoryParams(n=8000).default_nu < nu
          and abs(nu * nu * base.n - 1.0) < 1e-12)
    return CheckResult("derived-constants-monotone", ok,
                       f"c_delta={base.c_delta:.6f} nu={nu:.6f}")


def check_validate_domain_noiseless(fast: bool) -> CheckResult:
    rng = _rng()
    trials = 20 if fast else 200
    for _ in range(trials):
        p = TheoryParams(c=rng.uniform(0.05, 0.95), gamma=rng.uniform(0.0, 0.5),
                         beta_lo=rng.uniform(0.01, 2.0),
                         beta_hi=rng.uniform(2.01, 4.0))
        report = regions.validate_domain(p, 0.0)
        if any(violation is not None for violation in report.values()):
            return CheckResult("validate-domain-noiseless", False, f"failed for {p}")
    return CheckResult("validate-domain-noiseless", True, f"{trials} random params")


# ---------------------------------------------------------------------------
# cubic
# ---------------------------------------------------------------------------

def check_cubic_oracle(fast: bool) -> CheckResult:
    rng = _rng()
    count = 200 if fast else 1000
    sigmas = _admissible_sigma(rng, count)
    roots = np.column_stack(cubic.cubic_roots(sigmas))
    worst = float(np.abs(roots - np.column_stack(oracle_cubic_roots(sigmas))).max())
    return CheckResult("cubic-trig-vs-bisection", worst < 1e-10,
                       f"max deviation {worst:.3e} over {count} sigma")


def check_fixed_point_residuals(fast: bool) -> CheckResult:
    p = TheoryParams()
    a = np.linspace(0.4, 2.5, 10)[:, None]
    nu = np.linspace(0.08, 0.9, 10) * _fold_budget(a, p)
    interval = cubic.invariant_interval(a, p, nu)
    if not interval.valid.all():
        i, j = np.argwhere(~interval.valid)[0]
        return CheckResult("fixed-point-residuals", False,
                           f"inadmissible cell a={a[i, 0]}, nu={nu[i, j]}")
    worst = max(np.abs(dynamics.step(end, a, p, nu) - end).max()
                for end in (interval.lo, interval.hi))
    return CheckResult("fixed-point-residuals", worst < 1e-10,
                       f"max residual {worst:.3e} on 10x10 grid")


def check_gap_identities(fast: bool) -> CheckResult:
    rng = _rng()
    count = 200 if fast else 1000
    p = TheoryParams()
    sigmas = _admissible_sigma(rng, count)
    fails = cubic.exact_root_gap(sigmas) < cubic.gap_lower_bound(sigmas) - 1e-12
    if fails.any():
        return CheckResult("gap-bound-and-identity", False,
                           f"bound fails at sigma={sigmas[np.argmax(fails)]}")
    special = cubic.exact_root_gap(math.sqrt(2.0 / 27.0))
    if abs(special - 1.0 / math.sqrt(3.0)) > 1e-12:
        return CheckResult("gap-bound-and-identity", False, "special value mismatch")
    # length identity |I| = scale * exact gap, where the interval is valid
    a, nu = _random_map_setting(rng.random((10 if fast else 50, 2)), p)
    interval = cubic.invariant_interval(a, p, nu)
    scale = 1.0 - p.gamma - p.c_delta_prime * nu / a
    ident = scale * cubic.exact_root_gap(cubic.effective_sigma(a, p, nu))
    length = interval.hi - interval.lo
    off = interval.valid & (np.abs(ident - length) > 1e-12 * np.maximum(1.0, length))
    if off.any():
        i = np.argmax(off)
        return CheckResult("gap-bound-and-identity", False,
                           f"length identity off at a={a[i]}, nu={nu[i]}")
    return CheckResult("gap-bound-and-identity", True, f"{count} sigma samples")


def check_interval_inclusion(fast: bool) -> CheckResult:
    rng = _rng()
    count = 100 if fast else 500
    p = TheoryParams()
    # Four draws per setting: a1 and nu, then the factors a2/a1 and nu2/nu.
    # Settings are drawn until each direction has ``count`` valid pairs; the
    # first ``count`` of each are checked, and the first failure reported.
    draws = np.empty((0, 4))
    while True:
        draws = np.vstack([draws, rng.random((count, 4))])
        a1, nu = _random_map_setting(draws, p)
        a2, nu2 = a1 * _uniform(1.01, 2.0, draws[:, 2]), nu * _uniform(1.01, 1.5, draws[:, 3])
        i1, i2, j2 = (cubic.invariant_interval(a, p, n) for a, n in ((a1, nu), (a2, nu), (a1, nu2)))
        by_a, by_nu = i1.valid & i2.valid, i1.valid & j2.valid
        if by_a.sum() >= count and by_nu.sum() >= count:
            break
    fails_a = by_a & (np.cumsum(by_a) <= count) & ~((i2.lo < i1.lo) & (i1.hi < i2.hi))
    fails_nu = by_nu & (np.cumsum(by_nu) <= count) & ~((i1.lo < j2.lo) & (j2.hi < i1.hi))
    if (fails_a | fails_nu).any():
        k = np.argmax(fails_a | fails_nu)
        return CheckResult("interval-inclusion", False,
                           f"scale inclusion fails at a1={a1[k]}, a2={a2[k]}, nu={nu[k]}"
                           if fails_a[k] else f"budget inclusion fails at a={a1[k]}, "
                                              f"nu={nu[k]}->{nu2[k]}")
    return CheckResult("interval-inclusion", True, f"{count} pairs per direction")


def check_conjugate_derivatives(fast: bool) -> CheckResult:
    rng = _rng()
    sigma = _admissible_sigma(rng, 20 if fast else 100)
    ym, yp = cubic.cubic_roots(sigma)
    g_lo = (1.0 - ym) / (2.0 * ym)   # conjugate map derivative at a fixed point
    g_hi = (1.0 - yp) / (2.0 * yp)
    ok = (g_lo > 1.0) & (1.0 > g_hi) & (g_hi >= 0.0)
    if not ok.all():
        i = np.argmin(ok)
        return CheckResult("conjugate-derivative-classification", False,
                           f"sigma={sigma[i]}: {g_lo[i]}, {g_hi[i]}")
    return CheckResult("conjugate-derivative-classification", True,
                       "repelling below, attracting above")


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def check_map_monotonicities(fast: bool) -> CheckResult:
    rng = _rng()
    p = TheoryParams()
    h = 1e-7
    draws = rng.random((100 if fast else 1000, 3))  # a, nu, then x
    a, nu = _random_map_setting(draws, p)
    x = _uniform(p.c_delta_prime * nu / a + 0.05, 1.0, draws[:, 2])
    up_x = dynamics.step(x + h, a, p, nu) - dynamics.step(x - h, a, p, nu)
    down_nu = dynamics.step(x, a, p, nu + h) - dynamics.step(x, a, p, nu - h)
    up_a = dynamics.step(x, a + h, p, nu) - dynamics.step(x, a - h, p, nu)
    ok = (up_x > 0.0) & (down_nu < 0.0) & (up_a > 0.0)
    if not ok.all():
        i = np.argmin(ok)
        return CheckResult("map-monotonicities", False, f"a={a[i]}, nu={nu[i]}, x={x[i]}")
    return CheckResult("map-monotonicities", True, "increasing in x and a, decreasing in nu")


def check_coefficient_telescoping(fast: bool) -> CheckResult:
    rng = _rng()
    for _ in range(20 if fast else 100):
        p = TheoryParams(L=int(rng.integers(2, 12)),
                         beta_lo=rng.uniform(0.01, 1.0),
                         beta_hi=rng.uniform(1.01, 3.0))
        co = dynamics.curriculum_coefficients(p)
        product = math.prod(co.mid)
        target = p.L ** (-p.beta_hi)
        if abs(product - target) > 1e-12 * target:
            return CheckResult("coefficient-telescoping", False, f"L={p.L}")
        if not (co.first >= 1.0 and co.final >= 1.0):
            return CheckResult("coefficient-telescoping", False, "coefficient below 1")
    return CheckResult("coefficient-telescoping", True, "mid product equals L^(-beta_hi)")


def check_trajectory_classification(fast: bool) -> CheckResult:
    rng = _rng()
    count = 50 if fast else 200
    steps = 100
    p = TheoryParams()
    nu = 0.05
    interval = cubic.invariant_interval(1.0, p, nu)
    margin = 1e-6
    draws = rng.random((count, 3))  # the inside start, the outside's side, the outside start
    x_in = _uniform(interval.lo + margin, interval.hi - margin, draws[:, 0])
    below = draws[:, 1] < 0.5
    x_out = _uniform(np.where(below, p.c_delta_prime * nu + margin, interval.hi + margin),
                     np.where(below, interval.lo - margin, 1.0 - p.gamma), draws[:, 2])
    inside, outside = (dynamics.iterate(x0, (1.0,) * steps, p, nu) for x0 in (x_in, x_out))
    # Inside: never a genuine decrease, never leaves the closed interval
    # (1e-12 slack for rounding at the attracting endpoint).  Outside: the
    # first step goes down, or the sequence leaves the domain.
    in_closed = (interval.lo - 1e-12 <= inside) & (inside <= interval.hi + 1e-12)
    inside_ok = dynamics.increasing(inside) & in_closed.all(axis=0)
    outside_ok = ~dynamics.rises(outside[0], outside[1]) | np.isnan(outside[-1])
    if not (inside_ok & outside_ok).all():
        i = np.argmin(inside_ok & outside_ok)
        return CheckResult("trajectory-classification", False,
                           f"outside x0={x_out[i]} misclassified" if inside_ok[i]
                           else f"inside x0={x_in[i]} misclassified")
    return CheckResult("trajectory-classification", True,
                       f"{count} starts per side, {steps} steps")


def check_trajectory_reproducibility(fast: bool) -> CheckResult:
    p = TheoryParams()
    schedule = dynamics.curriculum_coefficients(p).schedule
    ok = all(np.array_equal(dynamics.iterate(0.4, s, p, 0.03),
                            dynamics.iterate(0.4, s, p, 0.03))
             for s in ((1.0,) * 50, schedule))
    return CheckResult("trajectory-reproducibility", ok, "bit-identical reruns")


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

def _sample_error_tuples(rng, p: TheoryParams, count: int) -> np.ndarray:
    """``count`` random (beta_lo, beta_hi, nu, x0), one per row."""
    u = rng.random((count, 4)).T  # beta_lo, the gap, x0, nu
    beta_lo, gap = _uniform(0.02, 1.0, u[0]), _uniform(0.02, 1.0, u[1])
    x0, nu = _uniform(0.05, 0.95, u[2]) * (1.0 - p.gamma), _uniform(1e-4, 0.04, u[3])
    return np.column_stack([beta_lo, beta_lo + gap, nu, x0])


def _first_defined(rng, p: TheoryParams, count: int, evaluate):
    """Rejection sampling in batches: the first ``count`` tuples drawn by
    ``_sample_error_tuples`` at which no array of
    ``evaluate(beta_lo, beta_hi, nu, x0)`` is NaN, as four arrays, and those
    arrays there."""
    kept = []
    while len(kept) < count:
        draws = _sample_error_tuples(rng, p, count - len(kept))
        rows = np.column_stack([draws, *evaluate(*draws.T)])
        kept.extend(rows[~np.isnan(rows).any(axis=1)])
    kept = np.array(kept).T
    return kept[:4], kept[4:]


def check_error_functional_monotone(fast: bool) -> CheckResult:
    rng = _rng()
    count = 200 if fast else 2000
    step, guard = 1e-6, 1e-9
    p = TheoryParams()

    def differences(beta_lo, beta_hi, nu, x0):
        problem, harder, easier = (regions.BoundProblem(p, beta_lo, b)
                                   for b in (beta_hi, beta_hi + step, beta_hi - step))
        return (problem.error(nu + step, x0) - problem.error(nu - step, x0),
                problem.error(nu, x0 + step) - problem.error(nu, x0 - step),
                harder.error(nu, x0) - easier.error(nu, x0))

    tuples, (d_nu, d_x0, d_beta) = _first_defined(rng, p, count, differences)
    wrong = ~((d_nu < guard) & (d_x0 > -guard) & (d_beta < guard))
    if wrong.any():
        return CheckResult("error-functional-monotone", False,
                           f"sign violation at {tuple(tuples[:, np.argmax(wrong)])}")
    return CheckResult("error-functional-monotone", True,
                       f"{count} admissible tuples, step {step}")


def check_improvement_equivalence(fast: bool) -> CheckResult:
    rng = _rng()
    p = TheoryParams()
    trials = 20 if fast else 100
    ceiling = 1.0 - p.gamma

    def threshold_or_nan(beta_lo, beta_hi, nu, _):
        value = regions.BoundProblem(p, beta_lo, beta_hi).threshold(np.minimum(nu, 0.02))
        return (np.where(value < ceiling, value, np.nan),)

    (beta_lo, beta_hi, nu, _), (threshold,) = _first_defined(rng, p, trials, threshold_or_nan)
    nu = np.minimum(nu, 0.02)
    x0 = np.stack([threshold * 0.9 + 1e-9, threshold * 1.1, rng.uniform(threshold, ceiling)])
    margin = regions.BoundProblem(p, beta_lo, beta_hi).margin(nu, x0)
    # Below the threshold the margin may also be NaN (outside the domain).
    above = x0 > threshold
    wrong = ((margin < 0.0) != above) & ~(np.isnan(margin) & ~above)
    wrong &= np.abs(x0 - threshold) >= 1e-9
    if wrong.any():
        i, j = np.argwhere(wrong)[0]
        return CheckResult("improvement-equivalence", False,
                           f"margin {margin[i, j]} at x0={x0[i, j]}, threshold={threshold[j]}")
    return CheckResult("improvement-equivalence", True,
                       "margin < 0 exactly above the threshold")


def check_threshold_curve(fast: bool) -> CheckResult:
    p = TheoryParams()
    nu_c = regions.critical_budgets(p, nu_c=True)["nu_c"]
    grid = np.linspace(0.05, 0.95, 10 if fast else 25) * nu_c
    xs = regions.BoundProblem(p).threshold(grid)
    if np.isnan(xs).any():
        return CheckResult("threshold-curve", False, "threshold undefined below nu_c")
    if not (np.diff(xs) > 0.0).all():
        return CheckResult("threshold-curve", False, "not strictly increasing")
    low, high = regions.BoundProblem(p).threshold(np.array([0.5e-6, 1.5e-6]))
    slope = float(high - low) / 1e-6
    first = dynamics.curriculum_coefficients(p).first
    expected = p.c_delta_prime / first
    ok = abs(slope - expected) <= 0.01 * expected
    return CheckResult("threshold-curve", ok,
                       f"increasing; slope at 0 = {slope:.6f} vs {expected:.6f}")


def check_critical_budgets(fast: bool) -> CheckResult:
    p = TheoryParams()
    nu_t = regions.critical_budgets(p, nu_t=True)["nu_t"]
    betas = np.linspace(0.3, 0.9, 4 if fast else 8)
    problem = regions.BoundProblem(p, 0.1, betas)
    nu_c = problem.max_improving_nu(math.inf)  # x0 = inf: the collapse budgets
    if not (np.diff(nu_c) < 0.0).all():
        return CheckResult("critical-budgets", False, "nu_c not decreasing in beta_hi")
    if not (problem.max_improving_nu(0.5 * (1 - p.gamma)) < nu_t).all():
        return CheckResult("critical-budgets", False, "max improving nu above nu_T")
    return CheckResult("critical-budgets", True, f"nu_T={nu_t:.5f}")


def check_growth_ratio(fast: bool) -> CheckResult:
    grid = np.linspace(0.01, 20.0, 50 if fast else 200)
    for levels in (2, 3, 5, 10):
        values = regions.coefficient_growth_ratio(grid, levels)
        if (values[1:] <= values[:-1]).any():
            return CheckResult("growth-ratio-increasing", False, f"L={levels}")
        if not (values[0] < 0.05 and values[-1] > 1e3):
            return CheckResult("growth-ratio-increasing", False,
                               f"endpoint magnitudes off for L={levels}")
    return CheckResult("growth-ratio-increasing", True, "L in {2,3,5,10}")


def check_conditional_mean(fast: bool) -> CheckResult:
    levels_max = 8 if fast else 12
    betas = np.linspace(0.05, 5.0, 10 if fast else 20)[:, None]
    violations = 0
    for levels in range(2, levels_max + 1):
        t = np.linspace(0.0, math.log(levels) * 0.999, 20 if fast else 50)
        lhs, rhs = regions.conditional_mean_check(levels, betas, t)
        violations += int((lhs > rhs + 1e-12).sum())
    return CheckResult("conditional-mean-inequality", violations == 0,
                       f"violations={violations}")


def check_geometric_identity(fast: bool) -> CheckResult:
    rng = _rng()
    for _ in range(50 if fast else 500):
        q = rng.uniform(0.0, 0.99)
        length = int(rng.integers(2, 12))
        ratio_form = (1.0 - q ** (length - 1)) / (1.0 - q)
        sum_form = sum(q ** j for j in range(length - 1))
        if abs(ratio_form - sum_form) > 1e-12 * max(1.0, abs(sum_form)):
            return CheckResult("geometric-forms-identity", False, f"q={q}, L={length}")
    return CheckResult("geometric-forms-identity", True, "ratio equals explicit sum")


def check_feasibility_length_bounds(fast: bool) -> CheckResult:
    p = TheoryParams()
    nu = np.linspace(0.002, 0.03, 5 if fast else 15)
    now, base = regions.feasibility_interval(p, nu), regions.feasibility_interval(p, 0.0)
    shrink = base.length - (now.hi - now.lo)
    lo_bound = 2.0 ** p.beta_hi * p.c_delta_prime * nu
    inner = 2.0 ** (-p.beta_hi) * (1.0 - p.gamma) - p.c_delta_prime * nu
    hi_bound = lo_bound + 1.5 * math.sqrt(3.0) * p.c_delta * nu / (p.c * np.sqrt(inner))
    outside = (now.valid & base.valid
               & ~((lo_bound - 1e-12 <= shrink) & (shrink <= hi_bound + 1e-12)))
    if outside.any():
        i = np.argmax(outside)
        return CheckResult("feasibility-length-bounds", False,
                           f"nu={nu[i]}: shrink={shrink[i]} outside [{lo_bound[i]}, {hi_bound[i]}]")
    return CheckResult("feasibility-length-bounds", True, "two-sided shrinkage bound holds")


def check_tail_exceeds_baseline(fast: bool) -> CheckResult:
    rng = _rng()
    p = TheoryParams()

    def baseline_and_tail(beta_lo, beta_hi, nu, x0):
        _, t1, _, t3 = regions.BoundProblem(p, beta_lo, beta_hi).terms(nu, x0)
        return t1, t3

    tuples, (t1, t3) = _first_defined(rng, p, 50 if fast else 300, baseline_and_tail)
    if not (t3 > t1).all():
        return CheckResult("tail-exceeds-baseline-term", False,
                           f"t3 <= t1 at {tuple(tuples[:, np.argmin(t3 > t1)])}")
    return CheckResult("tail-exceeds-baseline-term", True, "hard-level tail dominates")


def check_coefficients_increasing(fast: bool) -> CheckResult:
    grid = np.linspace(0.01, 5.0, 30 if fast else 100)
    p = TheoryParams()
    problem = regions.BoundProblem(p, grid, 6.0)
    ok = bool(all((values[1:] > values[:-1]).all() for values in (problem.first, problem.final)))
    return CheckResult("coefficients-increasing", ok,
                       "first and final coefficients increase in beta_lo")


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------

def check_scan_determinism(fast: bool) -> CheckResult:
    p = TheoryParams()
    # The budget 0.06 is past the fold: half the cells are empty, with NaN
    # fields, which compare equal only if every run holds the same NaN.
    cfg = montecarlo.ScanConfig(kind="feasible", vary="beta_hi", vary_values=(0.3, 0.4),
                                fixed_value=0.1, nu_values=(0.005, 0.06), x0_points=400)
    first = montecarlo.run_scans([cfg], p)[0]
    # Two scans at once on two threads: they must share no state.
    with ThreadPoolExecutor(max_workers=2) as pool:
        again = list(pool.map(lambda _: montecarlo.run_scans([cfg], p)[0], range(2)))
    ok = again == [first, first]
    return CheckResult("scan-determinism", ok, "single- vs multi-thread identical")


def check_scan_contains_analytic(fast: bool) -> CheckResult:
    p = TheoryParams()
    points = 500 if fast else 2000
    grid = montecarlo.x0_grid(p, points)
    cell = (1.0 - p.gamma) / points
    nus = (0.005, 0.012, 0.02)
    thresholds = regions.BoundProblem(p).threshold(np.array(nus))  # NaN: none improves
    for nu, threshold in zip(nus, thresholds):
        baseline = montecarlo.baseline_run(grid, p, nu)
        feas = montecarlo.classify_feasible(grid, p, nu, baseline)
        analytic = regions.feasibility_interval(p, nu)
        if analytic.valid:
            inside = (grid > analytic.lo + cell) & (grid < analytic.hi - cell)
            if not feas[inside].all():
                return CheckResult("scan-contains-analytic", False,
                                   f"feasible point misclassified at nu={nu}")
        impr = montecarlo.classify_improvement(grid, p, nu, baseline)
        if analytic.valid and threshold < 1.0 - p.gamma:
            lo = max(threshold, analytic.lo)
            hi = min(1.0 - p.gamma, analytic.hi)
            inside = (grid > lo + cell) & (grid < hi - cell)
            if not impr[inside].all():
                return CheckResult("scan-contains-analytic", False,
                                   f"improving point misclassified at nu={nu}")
    return CheckResult("scan-contains-analytic", True,
                       "analytic regions contained in measured regions")


def check_grid_refinement(fast: bool) -> CheckResult:
    p = TheoryParams()

    def lower_endpoint(points: int) -> float:
        grid = montecarlo.x0_grid(p, points)
        flags = montecarlo.classify_feasible(grid, p, 0.012)
        lo, _, _ = montecarlo.measured_interval(grid, flags, None)
        return lo

    reference = lower_endpoint(16000)
    err_coarse = abs(lower_endpoint(1000) - reference)
    err_fine = abs(lower_endpoint(2000) - reference)
    ok = err_fine <= 0.75 * err_coarse + 1e-9
    return CheckResult("grid-refinement-convergence", ok,
                       f"halving the step: {err_coarse:.2e} -> {err_fine:.2e}")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def check_acceptance_ratio_laws(fast: bool) -> CheckResult:
    rng = _rng()
    p = TheoryParams()
    worlds = 50 if fast else 200
    tries = np.append(np.arange(1, 65), 1024)
    for _ in range(worlds):
        count = int(rng.integers(5, 400))
        alpha = rng.uniform(0.05, 1.0, size=count)
        weights = rng.dirichlet(np.ones(count))
        world = simulate.SimWorld(weights=weights, alpha=alpha)
        ratios = simulate.mean_to_min_acceptance_ratio(world, tries)  # the last at m = 1024
        if (ratios[:-1] < 1.0 - 1e-12).any():
            return CheckResult("acceptance-ratio-laws", False, "ratio below 1")
        if (ratios[1:-1] > ratios[:-2] + 1e-12).any():
            return CheckResult("acceptance-ratio-laws", False, "ratio increased in m")
        if abs(ratios[-1] - 1.0) > 1e-6:
            return CheckResult("acceptance-ratio-laws", False, "no convergence to 1")
    values = simulate.acceptance_gain_ratio(np.linspace(0.0, 0.999, 60), np.arange(1, 51)[:, None])
    falls = (values[:, 1:] < values[:, :-1] - 1e-12).any(axis=1)
    if falls.any():
        return CheckResult("acceptance-ratio-laws", False,
                           f"gain ratio not increasing, m={np.argmax(falls) + 1}")
    return CheckResult("acceptance-ratio-laws", True, f"{worlds} random worlds, m up to 1024")


def check_world_invariants(fast: bool) -> CheckResult:
    p = TheoryParams()
    world = simulate.build_world(2000 if fast else 10_000, 0.5, p, seed=7)
    ok = (abs(world.expected_reward - 0.5) < 1e-3
          and simulate.satisfies_coupling(world.alpha, world.weights, p.c, p.gamma)
          and world.alpha.min() > 0.0 and world.alpha.max() <= 1.0)
    return CheckResult("world-invariants", ok,
                       f"V={world.expected_reward:.6f}, min alpha={world.alpha.min():.4f}")


def check_sim_reproducibility(fast: bool) -> CheckResult:
    p = TheoryParams(n=500)
    world = simulate.build_world(1000, 0.5, p, seed=3)
    a = simulate.run_replications(world, p, rounds=3, replications=3, seed=11)
    b = simulate.run_replications(world, p, rounds=3, replications=3, seed=11)
    return CheckResult("sim-reproducibility", a == b, "identical seeds, identical records")


def check_sim_bound_coverage(fast: bool) -> CheckResult:
    p = TheoryParams()
    replications = 50 if fast else 500
    world = simulate.build_world(10_000, 0.5, p, seed=_SEED)
    records = simulate.run_replications(world, p, 5, replications, seed=_SEED)
    live = [r for r in records if not r.collapsed]
    covered = sum(r.bound_satisfied for r in live)
    rate = covered / len(live)
    return CheckResult("sim-bound-coverage", rate >= 0.95,
                       f"coverage {rate:.4f} over {len(live)} rounds")


def check_acceptance_count_mean(fast: bool) -> CheckResult:
    p = TheoryParams(n=400)
    world = simulate.build_world(800, 0.5, p, seed=5)
    replications = 200 if fast else 1000
    records = simulate.run_replications(world, p, 1, replications, seed=17)
    counts = np.array([r.n_accept for r in records], dtype=float)
    accept = simulate.multi_try_acceptance(world.alpha, p.m)
    z = float(world.weights @ accept)
    expected = p.n * z
    # Each draw's acceptance indicator is marginally Bernoulli(z) and draws
    # are independent, so the count is Binomial(n, z).
    se = math.sqrt(p.n * z * (1.0 - z) / replications)
    dev = abs(counts.mean() - expected)
    return CheckResult("acceptance-count-mean", dev <= 3.0 * se,
                       f"|mean - nZ| = {dev:.3f} vs 3 SE = {3*se:.3f}")


def check_update_range(fast: bool) -> CheckResult:
    p = TheoryParams(n=500)
    world = simulate.build_world(1000, 0.5, p, seed=9)
    alpha = world.alpha.copy()
    tries = simulate.multi_try_acceptance(alpha, p.m, out=np.empty_like(alpha))
    ss = np.random.SeedSequence(23)
    for t, child in enumerate(ss.spawn(5)):
        rng = np.random.Generator(np.random.Philox(child))
        _, record = simulate._one_round(world, p, alpha, rng, 0, t, tries)
        if not ((alpha > 0.0).all() and (alpha <= 1.0).all()):
            return CheckResult("update-range", False, "alpha escaped (0, 1]")
        if not record.collapsed and record.v_realized != float(world.weights @ alpha):
            return CheckResult("update-range", False, "recorded V mismatch")
    return CheckResult("update-range", True, "alpha in (0,1], V consistent")


# Every ``check_*`` function of this module, in the order defined: the table
# ``verify`` prints.  Defining a check registers it.
CHECKS = [fn for name, fn in list(globals().items()) if name.startswith("check_")]


def run_checks(fast: bool = False) -> list[CheckResult]:
    return [fn(fast) for fn in CHECKS]
