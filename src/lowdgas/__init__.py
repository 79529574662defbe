"""Thermodynamics of low-dimensional quantum gases.

Scaled-unit solvers for the repulsive 1d Bose gas at zero and finite
temperature, second virial coefficients for 2d anyons (hard-core,
soft-core with a bound state, and the non-Abelian Chern-Simons
generalization), and virial-series diagnostics for the interaction
shift in the energy-pressure relation.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .numerics import (
    BracketError,
    ConvergenceError,
    EvaluationError,
    FixedPointConfig,
    QuadratureRule,
    composite_rule,
    derivative,
    erfcx,
    find_root,
    gauss_legendre,
    golden_section_max,
    integrate,
    solve_fixed_point,
)
from .lieb_liniger import (
    GroundState,
    LLParams,
    TBASolution,
    b2_ll,
    e_res_finite_T,
    e_res_high_T,
    e_res_zero_T,
    observables,
    solve_ground_state,
    solve_tba,
)
from .anyon_abelian import (
    B2Value,
    SoftCoreBC,
    StatisticsParameter,
    b2_hardcore,
    b2_softcore,
    e_rel_abelian,
    e_rel_semion,
    y_dilute,
)
from .anyon_nacs import (
    ChannelWeights,
    NACSSystem,
    b2_nacs_general,
    b2_nacs_isotropic,
    channel_weights,
    e_rel_nacs,
)
from .virial import (
    B2SmallBetaShape,
    ScaleInvarianceReport,
    ShiftClassification,
    VirialModel,
    VirialThermo,
    check_scale_invariance,
    classify_shift,
    hardcore_1d,
    internal_pressure,
    isoentropic_scale,
    leading_exponent,
    lieb_liniger_b2_model,
    pair_with_numeric_derivative,
    power_law_model,
    scale_invariance_residuals,
    shift_from_b2,
    thermo_from_virial,
)

__all__ = [
    "__version__",
    # numerics
    "BracketError",
    "ConvergenceError",
    "EvaluationError",
    "FixedPointConfig",
    "QuadratureRule",
    "composite_rule",
    "derivative",
    "erfcx",
    "find_root",
    "gauss_legendre",
    "golden_section_max",
    "integrate",
    "solve_fixed_point",
    # 1d Bose gas
    "GroundState",
    "LLParams",
    "TBASolution",
    "b2_ll",
    "e_res_finite_T",
    "e_res_high_T",
    "e_res_zero_T",
    "observables",
    "solve_ground_state",
    "solve_tba",
    # 2d anyons, single channel
    "B2Value",
    "SoftCoreBC",
    "StatisticsParameter",
    "b2_hardcore",
    "b2_softcore",
    "e_rel_abelian",
    "e_rel_semion",
    "y_dilute",
    # 2d anyons, isospin channels
    "ChannelWeights",
    "NACSSystem",
    "b2_nacs_general",
    "b2_nacs_isotropic",
    "channel_weights",
    "e_rel_nacs",
    # virial-series thermodynamics
    "B2SmallBetaShape",
    "ScaleInvarianceReport",
    "ShiftClassification",
    "VirialModel",
    "VirialThermo",
    "check_scale_invariance",
    "classify_shift",
    "hardcore_1d",
    "internal_pressure",
    "isoentropic_scale",
    "leading_exponent",
    "lieb_liniger_b2_model",
    "pair_with_numeric_derivative",
    "power_law_model",
    "scale_invariance_residuals",
    "shift_from_b2",
    "thermo_from_virial",
]
