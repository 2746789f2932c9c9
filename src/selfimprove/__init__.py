"""Numerical toolkit for finite-sample self-improvement dynamics.

Computes the lower-bound maps of the generate-filter-update loop, their
invariant intervals, the feasibility and improvement regions of easy-to-hard
curricula with the associated critical sample budgets, and stochastically
simulates the loop itself.
"""

from .cubic import (Interval, cubic_roots, effective_sigma, exact_root_gap,
                    gap_lower_bound, invariant_interval)
from .dynamics import CurriculumCoefficients, curriculum_coefficients
from .errors import BracketError, DomainError, ParameterError, SelfImproveError
from .montecarlo import CellResult, ScanConfig, default_panels, run_scan, x0_grid
from .params import TheoryParams, load_config
from .regions import (BoundProblem, ProfileResult, baseline_half_error_budget,
                      coefficient_growth_ratio, collapse_budget, conditional_mean_check,
                      critical_budgets, feasibility_interval, improvement_threshold,
                      max_improving_nu, max_improving_nu_profile, threshold_curve,
                      validate_domain)
from .simulate import (RoundRecord, SimWorld, acceptance_gain_ratio, build_world,
                       mean_to_min_acceptance_ratio, multi_try_acceptance,
                       run_replications, run_selfimprove, satisfies_coupling)

__version__ = "0.1.0"

__all__ = [
    "BoundProblem", "BracketError", "CellResult", "CurriculumCoefficients", "DomainError",
    "Interval", "ParameterError", "ProfileResult", "RoundRecord", "ScanConfig",
    "SelfImproveError", "SimWorld", "TheoryParams", "acceptance_gain_ratio",
    "baseline_half_error_budget", "build_world", "coefficient_growth_ratio",
    "collapse_budget", "conditional_mean_check", "critical_budgets", "cubic_roots",
    "curriculum_coefficients",
    "default_panels", "effective_sigma", "exact_root_gap", "feasibility_interval",
    "gap_lower_bound", "improvement_threshold", "invariant_interval", "load_config",
    "max_improving_nu", "max_improving_nu_profile", "mean_to_min_acceptance_ratio",
    "multi_try_acceptance", "run_replications", "run_scan", "run_selfimprove",
    "satisfies_coupling", "threshold_curve", "validate_domain", "x0_grid",
]
