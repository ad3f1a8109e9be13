"""abelint: vanishing of zero-dimensional and hyperelliptic Abelian integrals.

Exact certificates where the algebra allows them, high-precision numeric
oracles everywhere else.
"""

from .config import Config, DEFAULT_CONFIG
from .cycles import (Constellation, CycleVector, IntervalSystem, LevelCycle,
                     VanishingCycleCombo, WeightedInterval,
                     build_constellation, constellation_svg,
                     nontrivial_cycle_exists, real_interval_to_coefficients,
                     vanishing_combo_to_cycle)
from .errors import (AbelintError, CertificateError, ComputationError,
                     ConsistencyError, InputError, TrackingError)
from .hyperelliptic import (ConstancyReport, ExthWitness, Main4Report,
                            OneForm, OvalFamily, ReducedForm, cauchy_J,
                            check_exth, integral_I, integral_I_prime,
                            loop_integral, main4_limit_check,
                            oval_form_integral, reduce_form,
                            vanishing_criterion)
from .invariant import (FourierIndexSet, SubspaceDecomposition,
                        decompose_v_delta, pairing_is_zero, psi_set,
                        u_d_dimension_table, u_d_rational_basis, v_d_basis)
from .monodromy import (DivisorLattice, MonodromyRep, Permutation,
                        continue_fiber, critical_values, divisor_lattice,
                        generated_group_order, is_full_symmetric, monodromy,
                        track_fiber)
from .ratpoly import (Decomposition, RatPoly, TracePoly, chebyshev, compose,
                      cyclotomic, cyclotomic_divides, decompose_all,
                      trace_poly, w_adic)
from .solver import (ClassificationReport, PuiseuxExpansion, PullbackPart,
                     SolutionBasis, VanishingCheck, classify,
                     common_right_factor, puiseux, solve_moment_problem,
                     verify_vanishing_numeric, z_delta_basis, z_ud_basis,
                     z_vd_basis)

__all__ = [
    "Config", "DEFAULT_CONFIG",
    "AbelintError", "CertificateError", "ComputationError",
    "ConsistencyError", "InputError", "TrackingError",
    "RatPoly", "Decomposition", "TracePoly", "chebyshev", "compose",
    "cyclotomic", "cyclotomic_divides", "decompose_all", "trace_poly",
    "w_adic",
    "Permutation", "MonodromyRep", "DivisorLattice", "critical_values",
    "track_fiber", "continue_fiber", "monodromy", "divisor_lattice",
    "is_full_symmetric", "generated_group_order",
    "CycleVector", "Constellation", "IntervalSystem", "WeightedInterval",
    "LevelCycle", "VanishingCycleCombo", "build_constellation",
    "constellation_svg", "real_interval_to_coefficients",
    "vanishing_combo_to_cycle", "nontrivial_cycle_exists",
    "FourierIndexSet", "SubspaceDecomposition", "pairing_is_zero", "psi_set",
    "decompose_v_delta", "v_d_basis", "u_d_dimension_table",
    "u_d_rational_basis",
    "SolutionBasis", "PuiseuxExpansion", "VanishingCheck",
    "ClassificationReport", "PullbackPart", "z_vd_basis", "z_ud_basis",
    "z_delta_basis", "puiseux", "verify_vanishing_numeric",
    "common_right_factor", "classify", "solve_moment_problem",
    "OneForm", "ReducedForm", "OvalFamily", "ConstancyReport", "ExthWitness",
    "Main4Report", "reduce_form", "vanishing_criterion", "check_exth",
    "integral_I", "integral_I_prime", "cauchy_J", "oval_form_integral",
    "loop_integral", "main4_limit_check",
]
