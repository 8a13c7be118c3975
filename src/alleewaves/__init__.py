"""Exact traveling waves of a diffusive predator-prey system with Allee effect."""

__version__ = "0.1.0"

from .algebraic import CoeffResiduals, coeff_residuals, solve_families
from .exact import (ExpansionCoeffs, SolutionSpec, derive_set_a, derive_set_b,
                    eval_phi, eval_uv, find_singularities, make_spec)
from .model import CaseKind, classify_case, discriminant
from .sim import GridField, SimConfig, measure_wave_speed, simulate, step
from .verify import ResidualReport, check_G_ode, ode_residual, pde_residual

__all__ = [
    "CaseKind", "CoeffResiduals", "ExpansionCoeffs", "GridField",
    "ResidualReport", "SimConfig", "SolutionSpec",
    "check_G_ode", "classify_case", "coeff_residuals",
    "derive_set_a", "derive_set_b", "discriminant", "eval_phi",
    "eval_uv", "find_singularities", "make_spec", "measure_wave_speed",
    "ode_residual", "pde_residual", "simulate",
    "solve_families", "step",
]
