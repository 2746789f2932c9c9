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
from .montecarlo import CellResult, ScanConfig, default_panels, x0_grid
from .params import TheoryParams, load_config
from .regions import (BoundProblem, ProfileResult, coefficient_growth_ratio,
                      conditional_mean_check, critical_budgets, feasibility_interval,
                      improvement_interval, validate_domain)
from .simulate import (RoundRecord, SimWorld, acceptance_gain_ratio, build_world,
                       mean_to_min_acceptance_ratio, multi_try_acceptance,
                       run_replications, satisfies_coupling)

__version__ = "0.1.0"

__all__ = [
    "BoundProblem", "BracketError", "CellResult", "CurriculumCoefficients", "DomainError",
    "Interval", "ParameterError", "ProfileResult", "RoundRecord", "ScanConfig",
    "SelfImproveError", "SimWorld", "TheoryParams", "acceptance_gain_ratio", "build_world",
    "coefficient_growth_ratio", "conditional_mean_check", "critical_budgets", "cubic_roots",
    "curriculum_coefficients", "default_panels", "effective_sigma", "exact_root_gap",
    "feasibility_interval", "gap_lower_bound", "improvement_interval", "invariant_interval",
    "load_config", "mean_to_min_acceptance_ratio", "multi_try_acceptance", "run_replications",
    "satisfies_coupling", "validate_domain", "x0_grid",
]
