"""Steady-state multistability and dual-mode cooling of a driven cavity
coupled linearly and quadratically to two mechanical oscillators."""

__version__ = "0.1.0"

from .cooling import (CovarianceResult, DarkModeDiagnostics, build_noise_model,
                      cool_linearized, dark_mode_diagnostics, phonon_numbers,
                      solve_lyapunov)
from .params import (LinearizedParams, SystemParams, rescale_params,
                     validate_linearized, validate_params)
from .recipes import RECIPES, branch_cooling_sweep, run_recipe
from .stability import (StabilityVerdict, build_drift_matrix,
                        classify_branch_stability, classify_stability,
                        derive_linearized)
from .steady_state import (Diagnostic, PolynomialCoefficients,
                           SteadyStateBranch, build_polynomial,
                           find_real_roots, mechanical_response, oracle_roots,
                           reconstruct_branch, solve_branches)
from .sweep import Axis, SweepResult, SweepSpec, run_sweep

__all__ = [
    "Axis", "CovarianceResult", "DarkModeDiagnostics", "Diagnostic",
    "LinearizedParams", "PolynomialCoefficients", "RECIPES",
    "StabilityVerdict", "SteadyStateBranch", "SweepResult",
    "SweepSpec", "SystemParams", "branch_cooling_sweep",
    "build_drift_matrix", "build_noise_model", "build_polynomial",
    "classify_branch_stability", "classify_stability", "cool_linearized",
    "dark_mode_diagnostics", "derive_linearized",
    "find_real_roots", "mechanical_response", "oracle_roots",
    "phonon_numbers", "reconstruct_branch", "rescale_params", "run_recipe",
    "run_sweep", "solve_branches", "solve_lyapunov", "validate_linearized",
    "validate_params",
]
