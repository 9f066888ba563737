"""Regularity analysis of planar nondivergence elliptic operators.

The library builds, from the coefficients a, b, c of
a u_xx + b u_xy + c u_yy = 0, a radius-indexed linear dynamical system in
t = -log r, probes its uniform stability and asymptotic constancy,
evaluates analytic sufficient criteria, and cross-validates the predicted
gradient regularity against a desk-scale finite-difference solve.
"""

__version__ = "0.1.0"

from .coeff import (CoefficientField, ModulusOfContinuity, classify_modulus,
                    constant_laplacian, family_from_descriptor,
                    make_harmonic_family, make_radial_family, make_trig_field,
                    validate_field)
from .criteria import (CriterionResult, check_decoupled_case,
                       check_dini_integrability, check_iterated_integral,
                       check_symmetric_part_bound, criteria_conclusion,
                       run_all_criteria)
from .dynsys import (FullSystem, ReducedSystem, StabilityReport,
                     asymptotic_constancy_probe, propagate_dense,
                     propagate_lanes, second_harmonic_system,
                     uniform_stability_probe)
from .moments import (BlockTable, MomentVector, block_table, moment_matrix,
                      moment_matrix_residual, moment_vector)
from .pdelab import (DecompositionProfile, GridSolution, compare_with_dynamics,
                     decompose, gradient_field, hessian_quotients,
                     regularity_diagnostics, solve_dirichlet)

__all__ = [name for name in dir() if not name.startswith("_")]
