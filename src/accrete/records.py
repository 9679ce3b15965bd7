"""The library's records, ModelParams, Scales and TreadmillState, and the
three functions that return them: compute_scales, solve and solve_eta.

The records are dataclasses, so callers may use dataclasses.replace, asdict
and astuple on them.  The solver in accrete.treadmill works on plain floats
and tuples, and each function here wraps its values in a record.
accrete.treadmill resolves these six names from this module on first use,
so a run that asks for no record, as no CLI command does, never imports
dataclasses (with the inspect it pulls in, about 8 ms of a cold start).
"""

from __future__ import annotations

from dataclasses import dataclass

from .strain_energy import ReducedEnergy
from .treadmill import _check_params, _scale_values, _solve, _solve_eta

__all__ = ["ModelParams", "Scales", "TreadmillState", "compute_scales", "solve", "solve_eta"]


@dataclass(frozen=True)
class ModelParams:
    """All physical constants of the model.

    Parameters
    ----------
    energy : ReducedEnergy
        Reduced strain energy of the solid.
    b0, b1 : float
        Kinetic moduli of the inner and outer surfaces, > 0.
    muR0, muR1 : float
        Referential chemical potentials assigned to bound material at the
        inner and outer surfaces.
    mu_inf : float
        Remote chemical potential of the free particles.
    rhoR : float
        Referential density, > 0.
    M : float
        Particle mobility inside the solid, > 0.
    r0 : float
        Bead radius, > 0.
    """

    energy: ReducedEnergy
    b0: float
    b1: float
    muR0: float
    muR1: float
    mu_inf: float
    rhoR: float
    M: float
    r0: float

    def __post_init__(self):
        _check_params(self)


@dataclass(frozen=True)
class Scales:
    """Characteristic scales derived from ModelParams.

    Vstar and Vstarstar are velocity scales, ellStar a diffusion length,
    muStar the kinetics-weighted mean referential potential, and
    eta = r0/ellStar the nondimensional bead radius.
    """

    Vstar: float
    Vstarstar: float
    ellStar: float
    muStar: float
    eta: float


@dataclass
class TreadmillState:
    """The full steady solution.

    V1 = -V0 and mu1 = mu_inf hold in every treadmilling state; f0 and f1
    are the driving forces b0 V0 and b1 V1.  solve gives floats; solve_eta
    gives one state whose fields are float64 arrays, one element per eta.
    A plain dataclass, mutable and unhashable: building a frozen one took
    about a fifth of a solve.
    """

    nu: float
    r1: float
    d: float
    V0: float
    V1: float
    mu0: float
    mu1: float
    f0: float
    f1: float


def compute_scales(params: ModelParams) -> Scales:
    """Characteristic velocity, length and potential scales.

    Raises ValueError when a scale leaves the float range, as it does for
    rhoR = 1e-200, whose square underflows to zero.
    """
    return Scales(*_scale_values(params))


def solve(params: ModelParams) -> TreadmillState:
    """Solve the treadmilling system.

    Raises NoTreadmillingState when the existence conditions fail, and
    NumericFailure if bracket expansion passes lam = 1e9 (unreachable for
    energies that grow without bound) or a field leaves the float range.

    The equation is solved in the nondimensional variables
    (u = nu - 1, V/Vstar, w/(b1 Vstar)) so conditioning is uniform across
    many decades of eta; outputs are dimensional.
    """
    return TreadmillState(*_solve(params))


def solve_eta(params: ModelParams, eta) -> TreadmillState:
    """Solve the treadmilling system at every bead radius r0 = eta * ellStar.

    eta is a 1-D array of nondimensional bead radii; params.r0 is not used.
    Returns one TreadmillState whose fields are float64 arrays, element i
    bit for bit the state solve(dataclasses.replace(params, r0=r0[i])) with
    r0 = eta * ellStar.  That solve works at (eta * ellStar)/ellStar, which
    can differ from eta in the last bit, and so does this one.

    Raises NoTreadmillingState as solve does; ValueError when some r0 is not
    positive or its eta is not finite, as building those params or their
    scales would; and NumericFailure when solve would for some element.
    """
    return TreadmillState(*_solve_eta(params, eta))
