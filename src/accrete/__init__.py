"""Steady treadmilling of an incompressible elastic shell accreting on a
rigid sphere: closed-form stress and kinematics, steady particle transport,
and the nonlinear solver for the treadmilling state with its asymptotic
estimators.

``import accrete`` loads none of its modules.  Each exported name, and each
module by its name (``accrete.treadmill``), is imported on first use.  The
records (ModelParams, Scales, TreadmillState) and compute_scales, solve and
solve_eta come from accrete.records, the one module that imports
dataclasses; accrete.treadmill also resolves those six names from it."""

__version__ = "0.1.0"

# Exported name -> the module that defines it, in __all__ order.
_EXPORTS = {name: module for module, names in [
    ("strain_energy", "NeoHookean ReducedEnergy ValidationReport validate"),
    ("mechanics", "FieldSample ShellGeometry radius_of_particle fields_at stress_profile"),
    ("diffusion", "SteadyProfiles interface_residuals"),
    ("records", "ModelParams Scales TreadmillState compute_scales solve solve_eta"),
    ("treadmill", "Solvability NoTreadmillingState NumericFailure solvable grid_scan_oracle"
                  " small_bead_asymptote small_bead_quadratic large_bead_asymptote"),
] for name in names.split()}
_MODULES = ("cli", "diffusion", "mechanics", "records", "strain_energy", "treadmill")

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = name if name in _MODULES else _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import statement's machinery, which binds the module here and,
    # unlike importlib.import_module, shows in python -X importtime.
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
