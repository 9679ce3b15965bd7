"""Steady treadmilling of an incompressible elastic shell accreting on a
rigid sphere: closed-form stress and kinematics, steady particle transport,
and the nonlinear solver for the treadmilling state with its asymptotic
estimators."""

from .strain_energy import (
    NeoHookean,
    ReducedEnergy,
    ValidationReport,
    validate,
)
from .mechanics import (
    FieldSample,
    ShellGeometry,
    fields_at,
    radius_of_particle,
    stress_profile,
)
from .diffusion import (
    SteadyProfiles,
    interface_residuals,
)
from .treadmill import (
    ModelParams,
    NoTreadmillingState,
    NumericFailure,
    Scales,
    Solvability,
    TreadmillState,
    compute_scales,
    grid_scan_oracle,
    large_bead_asymptote,
    small_bead_asymptote,
    small_bead_quadratic,
    solvable,
    solve,
    solve_eta,
)

__version__ = "0.1.0"

__all__ = [
    "NeoHookean",
    "ReducedEnergy",
    "ValidationReport",
    "validate",
    "FieldSample",
    "ShellGeometry",
    "radius_of_particle",
    "fields_at",
    "stress_profile",
    "SteadyProfiles",
    "interface_residuals",
    "ModelParams",
    "Scales",
    "TreadmillState",
    "Solvability",
    "NoTreadmillingState",
    "NumericFailure",
    "compute_scales",
    "solvable",
    "solve",
    "solve_eta",
    "grid_scan_oracle",
    "small_bead_asymptote",
    "small_bead_quadratic",
    "large_bead_asymptote",
]
