"""Closed-form kinematics and residual stress in the grown spherical shell.

The shell occupies r0 <= r <= r1 around a rigid sphere of radius r0.  New
material is deposited unstretched at r0 and pushed outward, so a particle's
current radius follows from incompressibility alone, and the stress field
is known in closed form once the reduced energy is fixed.  fields_at
evaluates every field at a float or an array of radii, and stress_profile
samples them on a uniform grid.  Time never enters.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .strain_energy import ReducedEnergy, _elementwise

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ShellGeometry",
    "FieldSample",
    "radius_of_particle",
    "fields_at",
    "stress_profile",
]


class ShellGeometry(NamedTuple("ShellGeometry", [("r0", float), ("r1", float)])):
    """Concentric spherical shell, inf > r1 >= r0 > 0, with r1/r0 finite.

    A named tuple (r0, r1) that checks its radii however it is built: by
    the constructor, _make or _replace.
    """

    __slots__ = ()

    def __new__(cls, r0: float, r1: float):
        if not r0 > 0.0:
            raise ValueError("inner radius r0 must be positive")
        if not r1 >= r0:
            raise ValueError("outer radius r1 must not be below r0")
        if r1 == math.inf:
            raise ValueError("outer radius r1 must be finite")
        if not math.isfinite(r1 / r0):
            raise ValueError("radius ratio r1/r0 is out of the float range")
        return super().__new__(cls, r0, r1)

    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace checks too

    @property
    def nu(self) -> float:
        """Radius ratio r1/r0 (>= 1)."""
        return self.r1 / self.r0


class FieldSample(NamedTuple):
    """Mechanical fields sampled at the radii r, one float64 array per
    field (one float per field at a single radius).

    The velocity at an accretion speed V0 is V0 * lam_r: incompressibility
    keeps r**2 v = r0**2 V0.  The transport fields of a solved state come from
    diffusion.SteadyProfiles.
    """

    r: np.ndarray
    lam_r: np.ndarray
    lam_theta: np.ndarray
    sigma_r: np.ndarray
    sigma_theta: np.ndarray


def radius_of_particle(Z: float, Z0: float, r0: float) -> float:
    """Current radius of the particle deposited when the growth front was at Z.

    r = (r0**3 + 3 r0**2 (Z - Z0))**(1/3); Z is the cumulative material
    coordinate and Z0 marks the particle currently at the inner surface.
    """
    import numpy as np
    if any(map(np.ndim, (Z, Z0, r0))):
        raise ValueError("Z, Z0 and r0 must be numbers: radius_of_particle takes one particle")
    if not r0 > 0.0:
        raise ValueError("r0 must be positive")
    if not Z >= Z0:
        raise ValueError("Z < Z0: particle is not in the body")
    try:
        r = float(np.cbrt(r0**3 + 3.0 * r0**2 * (Z - Z0)))
    except OverflowError:  # from r0**3 of a float
        r = math.inf
    if not math.isfinite(r):
        raise ValueError("r0**3 + 3 r0**2 (Z - Z0) is out of the float range")
    return r


def fields_at(r, geom: ShellGeometry, energy: ReducedEnergy) -> FieldSample:
    """The fields at r, a float or a float64 array of radii in [r0, r1].

    lam_theta = r/r0 and lam_r = (r0/r)**2, so lam_r lam_theta**2 = 1.
    sigma_r = w(lam_theta) - w(nu) is nonpositive: zero at the
    traction-free outer surface and -w(nu) at the bead.  sigma_theta =
    sigma_r + (1/2) lam_theta dw(lam_theta) equals it at the bead, where
    dw(1) = 0.

    A float r gives floats and an array arrays, with the same bits.
    """
    r, _, _, all_ = _elementwise(r)
    if not all_((r >= geom.r0) & (r <= geom.r1)):
        raise ValueError("r outside the shell [r0, r1]")
    if not math.isfinite(w_nu := energy.w(geom.nu)):  # sigma_r would be NaN
        raise ValueError("energy w(nu) of the shell is out of the float range")
    lam, q = r / geom.r0, geom.r0 / r
    lam_r = q * q  # a product rounds alike for floats and arrays; libm pow may not
    sig_r = energy.w(lam) - w_nu
    sig_t = sig_r + 0.5 * lam * energy.dw(lam)
    return FieldSample(r, lam_r, lam, sig_r, sig_t)


def stress_profile(geom: ShellGeometry, energy: ReducedEnergy, n: int) -> FieldSample:
    """Sample the shell uniformly in r with n points.

    Every field is a float64 array of length n; r[-1] is r1 exactly, so
    sigma_r[-1] is 0.
    """
    import numpy as np
    if n < 2:
        raise ValueError("need at least 2 sample points")
    return fields_at(np.linspace(geom.r0, geom.r1, n), geom, energy)
