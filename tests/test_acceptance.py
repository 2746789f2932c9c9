"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Criteria 1-7 and 12-15 run the full-size ``selfimprove.checks`` function
that ``verify`` runs, at its seed ``checks._SEED``, and add only the
wall-time bounds and criterion 7's blow-up exponent.

The improvement and feasibility regions are sufficient conditions built
from finite-sample lower bounds, and the budget laws are asymptotic.
Criteria 9, 10, 16 and 17 therefore assert what the bounds promise (a
limit, an upper envelope, containment, the collapse of the analytic
region) and assert the stronger expectation that exact computation refutes
as a measured fact; their docstrings give the numbers.  The last test
re-evaluates the improvement margin in 50-digit arithmetic to show that
the computed roots behind those refutations are not rounding artefacts.
"""

import math
import time

import numpy as np
import pytest

import selfimprove as si
from selfimprove import checks
from selfimprove.montecarlo import (classify_improvement, measured_interval,
                                    x0_grid)

P = si.TheoryParams()
X0_REFERENCE = 0.5 * (1.0 - P.gamma)

BETA_LO_GRID = np.linspace(0.05, 0.5, 20)
BETA_HI_GRID = np.linspace(0.55, 1.5, 20)


def report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:>2}: {description}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {description} -- {detail}"


@pytest.fixture(scope="module")
def nu_star_grid():
    problem = si.BoundProblem([P.with_betas(float(beta_lo), float(beta_hi))
                               for beta_lo in BETA_LO_GRID for beta_hi in BETA_HI_GRID])
    return problem.max_improving_nu(X0_REFERENCE).reshape(len(BETA_LO_GRID), -1)


@pytest.fixture(scope="module")
def panels():
    start = time.perf_counter()
    configs = si.default_panels(P)
    results = {name: (cfg, si.run_scan(cfg, P, threads=8)) for name, cfg in configs.items()}
    return results, time.perf_counter() - start


def _timed(check):
    """A check's full-size result and its wall time in seconds."""
    start = time.perf_counter()
    result = check(False)
    return result, time.perf_counter() - start


def test_c01_cubic_oracle_equivalence():
    result, elapsed = _timed(checks.check_cubic_oracle)
    report(1, "trig roots match bisection oracle to 1e-10 in under 1 s",
           result.passed and elapsed < 1.0, f"{result.detail}, {elapsed:.2f} s")


def test_c02_fixed_point_residuals():
    result = checks.check_fixed_point_residuals(False)
    report(2, "fixed-point residuals below 1e-10 on a 10x10 admissible grid",
           result.passed, result.detail)


def test_c03_gap_bound():
    result = checks.check_gap_identities(False)
    report(3, "exact gap dominates closed-form bound; special value exact; "
              "interval length identity", result.passed, result.detail)


def test_c04_interval_inclusion():
    result = checks.check_interval_inclusion(False)
    report(4, "inclusion monotone in scale and anti-monotone in budget (500+500 pairs)",
           result.passed, result.detail)


def test_c05_trajectory_classification():
    result = checks.check_trajectory_classification(False)
    report(5, "100-step trajectories classified by the invariant interval "
              "(200 starts per side)", result.passed, result.detail)


def test_c06_error_functional_monotonicities():
    result = checks.check_error_functional_monotone(False)
    report(6, "error functional: decreasing in nu and beta_hi, increasing in x0 "
              "(2000 tuples)", result.passed, result.detail)


def test_c07_threshold_asymptotics():
    result = checks.check_threshold_curve(False)
    nu_c = si.collapse_budget(P)
    gaps = np.geomspace(0.001, 0.1, 12) * nu_c
    log_x = [math.log(si.improvement_threshold(float(nu_c - g), P)) for g in gaps]
    blowup_slope = float(np.polyfit(np.log(gaps), log_x, 1)[0])
    blowup_ok = abs(blowup_slope + 2.0) <= 0.15
    report(7, "threshold increasing, slope within 1% at zero budget; blow-up "
              "exponent -2 near collapse", result.passed and blowup_ok,
           f"{result.detail}; blow-up slope {blowup_slope:.3f}")


def test_c08_max_improving_nu_monotonicities(nu_star_grid):
    row_violations = int(np.sum(np.diff(nu_star_grid, axis=1) >= 0))
    col_violations = int(np.sum(np.diff(nu_star_grid, axis=0) <= 0))
    report(8, "largest improving budget: decreasing in beta_hi, increasing in "
              "beta_lo on a 20x20 grid",
           row_violations == 0 and col_violations == 0,
           f"{row_violations} row / {col_violations} column violations")


def test_c09_small_exponent_coefficient():
    """The coefficient is a limit as beta_lo -> 0, so it is checked as one.

    The remainder r(beta_lo)/coeff - 1 of the linear expansion is first
    order, about -4.9 * beta_lo / gap: at beta_lo = 1e-3 it measures -10.26%,
    -4.86% and -2.43% for gaps 0.05, 0.1 and 0.2, so a 5% tolerance at that
    fixed point fails for gap 0.05; at 1e-4 it is -0.98%, -0.49% and -0.25%.
    The Richardson extrapolant (10 r(1e-4) - r(1e-3)) / 9 removes the first
    order and matches the closed form within 0.1% (measured 4.9e-4, 2.1e-5,
    3.3e-5); the remainder ratio rel(1e-4) / rel(1e-3) is 0.096, 0.100 and
    0.101.  Smaller beta_lo would not help: at 1e-7 the absolute bisection
    tolerance already shows in the remainder.
    """
    log_factor = math.log(P.L) - math.log(math.factorial(P.L)) / P.L
    assert abs(log_factor - 0.6519395638776911) < 1e-12
    details = []
    ok = True
    for gap in (0.05, 0.1, 0.2):
        coeff = (P.c * (1 - P.gamma) ** 1.5 * log_factor
                 / (2 * P.c_delta * (2 ** (gap / 2) - 1)))
        coarse, fine = (si.max_improving_nu(X0_REFERENCE, P.with_betas(b, b + gap)) / b
                        for b in (1e-3, 1e-4))
        limit = (10.0 * fine - coarse) / 9.0
        limit_rel = (limit - coeff) / coeff
        rel_coarse, rel_fine = (coarse - coeff) / coeff, (fine - coeff) / coeff
        order = rel_fine / rel_coarse
        ok &= abs(limit_rel) <= 1e-3 and rel_coarse < 0.0 and 0.08 <= order <= 0.12
        if gap == 0.05:  # the fixed-point 5% expectation, refuted
            ok &= rel_coarse < -0.05
        details.append(f"gap {gap}: limit {limit_rel:+.1e}, remainder "
                       f"{rel_coarse:+.2%} -> {rel_fine:+.2%}")
    report(9, "Richardson limit of the largest improving budget's linear "
              "coefficient within 0.1%; remainder negative and first order", ok,
           "; ".join(details))


def _breakdown_budget(beta_lo: float, beta_hi: float, lo: float) -> float:
    """Budget at which the error functional at ``X0_REFERENCE`` leaves its
    domain (the hard-level series ratio reaches 1); ``lo`` is in-domain."""
    problem = si.BoundProblem(P.with_betas(beta_lo, beta_hi))

    def defined(nu: float) -> bool:
        try:
            problem.error(nu, X0_REFERENCE)
            return True
        except si.DomainError:
            return False

    return float(si.regions.last_true(defined, lo, math.inf)[0])


def test_c10_profile_unimodality_and_tail():
    """The tail follows the hard-level domain breakdown, with 2^(-beta_lo/2)
    only as an upper envelope.

    2^(-beta_lo/2) is the leading-order rate while the hard-level series
    ratio rho = c_delta*nu / (2c*inner^(3/2)) * e^(-beta_hi/L) is small.  On
    [8, 12] rho is close to 1 at the root.  The breakdown budget nu_break,
    where rho reaches 1 and the error functional raises DomainError, shrinks
    like 2^(-beta_hi*(3/2 - log2(e)/L)) ~ 2^(-1.21*beta_hi), and
    nu_star < nu_break, so nu_star * 2^(beta_lo/2) falls from 5.43e-3 to
    8.58e-4 (an 84% spread, not < 10%).  The root is still a true sign
    change driven by 1/(1 - rho), not a domain edge: at beta_lo = 12 the
    margin goes from -2.9e3 to +2.8e3 across nu_star*(1 -+ 1e-6).
    Measured: nu_star/nu_break rises from 0.949 to 0.992; the fitted tail
    slope is -1.170 log2 units against -1.211.
    """
    profile = si.max_improving_nu_profile(0.1, np.linspace(0.01, 12.0, 121),
                                          X0_REFERENCE, P)
    values = [v for _, v in profile.points]
    peaks = [i for i in range(1, len(values) - 1)
             if values[i] > values[i - 1] and values[i] > values[i + 1]]
    unimodal_ok = len(peaks) == 1

    fractions, envelope = [], []
    for b in np.linspace(8.0, 12.0, 9):
        b = float(b)
        nu_star = si.max_improving_nu(X0_REFERENCE, P.with_betas(b, b + 0.1))
        fractions.append(nu_star / _breakdown_budget(b, b + 0.1, nu_star))
        envelope.append(nu_star * 2 ** (b / 2))
    pinned_ok = (0.9 <= fractions[0] and fractions[-1] < 1.0
                 and all(b > a for a, b in zip(fractions, fractions[1:])))
    envelope_ok = all(b < a for a, b in zip(envelope, envelope[1:]))
    spread = (envelope[0] - envelope[-1]) / envelope[0]
    rate = -(1.5 - math.log2(math.e) / P.L)
    slope = profile.tail_slope / math.log(2)
    slope_ok = abs(slope - rate) <= 0.1
    report(10, "profile has a unique maximum; tail tracks the hard-level "
               "breakdown under a 2^(-beta_lo/2) envelope",
           unimodal_ok and pinned_ok and envelope_ok and slope_ok,
           f"{len(peaks)} local maxima at beta_lo={profile.argmax_beta_lo:.3f}; "
           f"nu_star/nu_break {fractions[0]:.3f} -> {fractions[-1]:.3f}; "
           f"nu_star*2^(beta_lo/2) falls {spread:.1%}; "
           f"tail slope {slope:.3f} vs {rate:.3f} (log2)")


def test_c11_max_improving_below_half_error_budget(nu_star_grid):
    nu_t = si.baseline_half_error_budget(P)
    worst = float(nu_star_grid.max())
    report(11, "largest improving budget below the half-error budget at every "
               "grid point", worst < nu_t, f"max {worst:.5f} < nu_T {nu_t:.5f}")


def test_c12_growth_ratio_monotone():
    result = checks.check_growth_ratio(False)
    report(12, "growth ratio strictly increasing with limits 0 and +inf",
           result.passed, result.detail)


def test_c13_conditional_mean_exhaustive():
    result, elapsed = _timed(checks.check_conditional_mean)
    report(13, "tail conditional-mean inequality holds exhaustively in under 5 s",
           result.passed and elapsed < 5.0, f"{result.detail}, {elapsed:.2f} s")


def test_c14_acceptance_ratio_laws():
    result = checks.check_acceptance_ratio_laws(False)
    report(14, "mean-to-min ratio at least 1, non-increasing to 1; gain ratio "
               "increasing", result.passed, result.detail)


def test_c15_simulation_bound_coverage():
    result, elapsed = _timed(checks.check_sim_bound_coverage)
    report(15, "realized reward meets the bound in >= 95% of rounds in under 2 min",
           result.passed and elapsed < 120.0, f"{result.detail}, {elapsed:.1f} s")


def test_c16_scan_agreement(panels):
    """Measured regions contain the analytic ones and share their upper
    endpoints, within one cell; the lower endpoints do not agree.

    The analytic regions are sufficient conditions, so the trajectory-
    measured regions extend below their lower endpoints, by up to 218, 97,
    1131 and 725 cells in panels a-d.  What the theory promises is
    containment: the analytic region, intersected with the feasibility
    interval, lies inside the measured run (143, 143, 126 and 146 cells).
    The intersection is not a tolerance: the bare (threshold, ceiling)
    escapes the measured run in 26 cells of panel c and 66 of panel d, by
    up to 8.6 cells, because it starts below the baseline's lower fixed
    point, where the baseline recursion leaves its domain within L steps
    and the direct comparison counts the start as not improving.
    Upper endpoints agree in every valid cell (143, 143, 128, 146; worst
    under one cell): the pulled-back feasibility endpoint is exact and the
    improvement region reaches the ceiling.
    """
    results, elapsed = panels
    cell = (1.0 - P.gamma) / 2000
    within = cell + 1e-12
    ok = True
    monotone_ok = True
    details = []
    for name, (cfg, cells) in results.items():
        contained = upper = 0
        extension = 0.0
        for c in cells:
            if math.isnan(c.analytic_lo):
                continue
            # An empty measured run has NaN endpoints and fails both checks.
            upper += 1
            ok &= abs(c.measured_hi - c.analytic_hi) <= within
            extension = max(extension, (c.analytic_lo - c.measured_lo) / cell)
            beta_lo, beta_hi = cfg.betas(c.axis1)
            pp = P.with_betas(beta_lo, beta_hi)
            feas = si.feasibility_interval(pp, c.axis2)
            lo, hi = max(c.analytic_lo, feas.lo), min(c.analytic_hi, feas.hi)
            if feas.valid and lo < hi:
                contained += 1
                ok &= c.measured_lo <= lo + within and c.measured_hi >= hi - within
        # Endpoint equality is refuted in every panel, by more than a cell.
        ok &= contained > 0 and extension > 1.0
        by_axes = {(c.axis1, c.axis2): c for c in cells}
        for vary in cfg.vary_values:
            lengths = [by_axes[vary, nu].measured_len for nu in cfg.nu_values]
            monotone_ok &= all(b <= a + within for a, b in zip(lengths, lengths[1:]))
        details.append(f"{name}: {contained} contained, {upper} upper endpoints, "
                       f"lower endpoint extended by up to {extension:.0f} cells")
    report(16, "analytic regions (within the feasibility interval) contained "
               "in measured ones and upper endpoints agree within one cell; "
               "lengths monotone; scan under 10 min",
           ok and monotone_ok and elapsed < 600.0,
           f"{elapsed:.1f} s; " + "; ".join(details))


def test_c17_phase_transition():
    """The analytic improvement region collapses near the collapse budget;
    the measured one does not.

    collapse_budget is the root of the large-initialization analytic
    margin, so the collapse belongs to the sufficient condition: the length
    1 - gamma - threshold (0 once the threshold reaches the ceiling, at
    0.9375 nu_c, or has no bracket) falls 137.7x faster around 0.95 nu_c
    than around 0.10 nu_c.  The measured (direct-comparison) region shrinks
    smoothly instead (slope ratio 2.0) and still spans 0.936 at nu_c and
    0.849 at 2 nu_c.
    """
    nu_c = si.collapse_budget(P)
    ceiling = 1.0 - P.gamma

    def analytic_length(nu: float) -> float:
        try:
            threshold = si.improvement_threshold(nu, P)
        except si.BracketError:
            return 0.0
        return max(ceiling - threshold, 0.0)

    def slope_at(fraction: float) -> float:
        nus = (fraction + np.linspace(-0.02, 0.02, 5)) * nu_c
        lengths = [analytic_length(float(nu)) for nu in nus]
        return abs(float(np.polyfit(nus, lengths, 1)[0]))

    steep = slope_at(0.95)
    shallow = slope_at(0.10)
    grid = x0_grid(P, 2000)
    near = 0.95 * nu_c
    flags = classify_improvement(grid, P, near)
    _, _, measured = measured_interval(grid, flags, None)
    analytic = analytic_length(near)
    report(17, "analytic improvement length collapses 10x faster near the "
               "collapse budget; the measured region survives there",
           steep >= 10.0 * shallow and measured > 0.0 and measured >= analytic,
           f"slope ratio {steep / shallow:.1f}; at 0.95 nu_c measured "
           f"{measured:.3f} vs analytic {analytic:.3f}")


def _margin_50_digits(mpmath, beta_lo: float, beta_hi: float, nu: float, x0: float):
    """Improvement margin and hard-level series ratio at the given floats,
    assembled term by term as ``regions`` does but in 50-digit arithmetic."""
    f = mpmath.mpf
    with mpmath.workdps(50):
        bl, bh, nu, x0 = f(beta_lo), f(beta_hi), f(nu), f(x0)
        c, gamma, L = f(P.c), f(P.gamma), P.L
        cd = mpmath.sqrt(2 * mpmath.log(f(P.pi_size) / f(P.delta)))
        cdp = mpmath.sqrt(mpmath.log(1 / f(P.delta_prime)) / 2)
        weight_sum = mpmath.fsum(mpmath.power(i, -bl) for i in range(1, L + 1))
        first = L / weight_sum
        final = weight_sum / mpmath.power(L, 1 - bl)
        hard = mpmath.power(2, -bh)

        base_inner = 1 - gamma - cdp * nu
        res_inner = first * x0 - cdp * nu
        hard_inner = hard * (1 - gamma) - cdp * nu
        assert min(base_inner, res_inner, hard_inner) > 0
        q = cd * nu / (2 * c * base_inner ** 1.5)
        baseline = (cd * nu / (c * mpmath.sqrt(base_inner))
                    * mpmath.fsum(q ** j for j in range(L - 1)))
        residual = cd * nu / (c * mpmath.sqrt(res_inner))
        ratio_inner = hard * (1 - gamma - residual) - cdp * nu
        assert ratio_inner > 0
        ratio = cd * nu / (2 * c * ratio_inner ** 1.5)
        rho = ratio * mpmath.exp(-bh / L)
        tail = cd * nu / (c * mpmath.sqrt(hard_inner)) / (1 - rho)
        hard_term = ratio ** (L - 1) * mpmath.power(L, -bh) * residual
        error = baseline - final * (tail + hard_term)
        return -error - (final - 1) * (1 - gamma) / 2, rho


def test_refuted_expectations_survive_50_digit_arithmetic():
    """The float roots behind criteria 9 and 10 are true sign changes of the
    margin, and at large beta_lo the root lies inside the domain (rho < 1,
    so nu_star < nu_break) although rho is close to 1 there."""
    mpmath = pytest.importorskip("mpmath")
    for beta_lo, gap in ((1e-3, 0.05), (1e-4, 0.05), (8.0, 0.1), (12.0, 0.1)):
        beta_hi = beta_lo + gap
        pp = P.with_betas(beta_lo, beta_hi)
        nu_star = si.max_improving_nu(X0_REFERENCE, pp)
        half, _ = _margin_50_digits(mpmath, beta_lo, beta_hi, 0.5 * nu_star, X0_REFERENCE)
        reference = si.BoundProblem(pp).margin(0.5 * nu_star, X0_REFERENCE)
        assert abs(float(half) - reference) <= 1e-9 * abs(reference)
        below, _ = _margin_50_digits(mpmath, beta_lo, beta_hi,
                                     nu_star * (1 - 1e-7), X0_REFERENCE)
        above, rho = _margin_50_digits(mpmath, beta_lo, beta_hi,
                                       nu_star * (1 + 1e-7), X0_REFERENCE)
        assert below < 0 < above, (beta_lo, gap)
        assert rho < 1, (beta_lo, gap)
        if beta_lo >= 8.0:
            assert rho > 0.9, (beta_lo, gap)
