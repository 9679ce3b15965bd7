"""Closed-form kinematics and residual stress in the grown spherical shell.

The shell occupies r0 <= r <= r1 around a rigid sphere of radius r0.  New
material is deposited unstretched at r0 and pushed outward, so a particle's
current radius follows from incompressibility alone, and the stress field
is known in closed form once the reduced energy is fixed.  All operations
here are pure functions of a static geometry; time never enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .strain_energy import ReducedEnergy

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ShellGeometry",
    "FieldSample",
    "radius_of_particle",
    "stretches",
    "velocity",
    "radial_stress",
    "hoop_stress",
    "stress_profile",
    "equilibrium_residual",
    "outer_radius_rate",
]


@dataclass(frozen=True)
class ShellGeometry:
    """Concentric spherical shell, r1 >= r0 > 0."""

    r0: float
    r1: float

    def __post_init__(self):
        if not self.r0 > 0.0:
            raise ValueError("inner radius r0 must be positive")
        if not self.r1 >= self.r0:
            raise ValueError("outer radius r1 must not be below r0")

    @property
    def nu(self) -> float:
        """Radius ratio r1/r0 (>= 1)."""
        return self.r1 / self.r0


@dataclass(frozen=True)
class FieldSample:
    """Mechanical fields sampled at the radii r, one float64 array per
    field (one float per field at a single radius).

    The velocity v needs an accretion speed, so it is None unless one is
    given.  The transport fields of a solved state come from
    diffusion.SteadyProfiles.
    """

    r: np.ndarray
    lam_r: np.ndarray
    lam_theta: np.ndarray
    sigma_r: np.ndarray
    sigma_theta: np.ndarray
    v: np.ndarray | None = None


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
    return float(np.cbrt(r0**3 + 3.0 * r0**2 * (Z - Z0)))


def _lam_r(r, r0):
    """Radial stretch (r0/r)**2, squared by one multiplication.

    A product rounds the same for floats and arrays; the scalar ``**`` goes
    through libm pow, which can differ from it in the last bit.
    """
    q = r0 / r
    return q * q


def stretches(r: float, r0: float) -> tuple[float, float]:
    """Principal stretches (lam_r, lam_theta) at radius r.

    lam_theta = r/r0 and lam_r = (r0/r)**2, so lam_r * lam_theta**2 = 1.
    """
    if not r0 > 0.0:
        raise ValueError("r0 must be positive")
    if not r >= r0:
        raise ValueError("r < r0: point is inside the bead")
    return _lam_r(r, r0), r / r0


def velocity(r: float, V0: float, r0: float) -> float:
    """Radial particle velocity v = V0 (r0/r)**2.

    V0 is the accretion speed at the inner surface; incompressibility makes
    r**2 v constant through the shell.
    """
    return V0 * stretches(r, r0)[0]


def _sigma(lam, lam1, energy: ReducedEnergy) -> tuple:
    """Radial and hoop Cauchy stress at the stretches lam, a float or an
    array, of a shell whose outer surface is at stretch lam1.

    sigma_r = w(lam) - w(lam1) and sigma_theta = sigma_r + (1/2) lam dw(lam).
    An array calls w once, on lam with lam1 appended.  Wherever lam == lam1
    sigma_r is w(lam1) - w(lam1) = 0 exactly.
    """
    if isinstance(lam, float):
        w, w1 = energy.w(lam), energy.w(lam1)
    else:
        import numpy as np
        w = energy.w(np.append(lam, lam1))
        w, w1 = w[:-1], w[-1]
    sig_r = w - w1
    return sig_r, sig_r + 0.5 * lam * energy.dw(lam)


def _check_in_shell(r: float, geom: ShellGeometry) -> None:
    if not geom.r0 <= r <= geom.r1:
        raise ValueError("r outside the shell [r0, r1]")


def radial_stress(r: float, geom: ShellGeometry, energy: ReducedEnergy) -> float:
    """Radial Cauchy stress sigma_r(r) = w(r/r0) - w(r1/r0).

    Nonpositive throughout, zero at the traction-free outer surface and
    -w(nu) at the bead.
    """
    _check_in_shell(r, geom)
    return float(_sigma(r / geom.r0, geom.nu, energy)[0])


def hoop_stress(r: float, geom: ShellGeometry, energy: ReducedEnergy) -> float:
    """Circumferential Cauchy stress sigma_theta(r).

    sigma_theta = sigma_r + (1/2)(r/r0) dw(r/r0).  The state is hydrostatic
    at the bead and carries hoop tension (1/2) nu dw(nu) at the outer
    surface when nu > 1.
    """
    _check_in_shell(r, geom)
    return float(_sigma(r / geom.r0, geom.nu, energy)[1])


def stress_profile(
    geom: ShellGeometry,
    energy: ReducedEnergy,
    n: int,
    V0: float | None = None,
) -> FieldSample:
    """Sample the shell uniformly in r with n points.

    Every field is a float64 array of length n; r[-1] is r1 exactly, so
    sigma_r[-1] is 0.  Velocity is filled only when V0 is given.
    """
    import numpy as np
    if n < 2:
        raise ValueError("need at least 2 sample points")
    return _sample(np.linspace(geom.r0, geom.r1, n), geom, energy, V0)


def _sample(r, geom: ShellGeometry, energy: ReducedEnergy, V0) -> FieldSample:
    """The fields at r, a float or a float64 array of radii.  At the floats
    of strain_energy._linspace they are the bits of stress_profile."""
    lam = r / geom.r0
    lam_r = _lam_r(r, geom.r0)
    sig_r, sig_t = _sigma(lam, geom.nu, energy)
    return FieldSample(r, lam_r, lam, sig_r, sig_t, None if V0 is None else V0 * lam_r)


def equilibrium_residual(geom: ShellGeometry, energy: ReducedEnergy, n: int) -> float:
    """Discrete check of the radial equilibrium equation.

    Returns max over interior grid points of
    |centered-difference(sigma_r)/dr - 2 (sigma_theta - sigma_r)/r| on a
    uniform n-point grid.  The closed-form stress satisfies
    d sigma_r/dr = 2 (sigma_theta - sigma_r)/r exactly, so the residual is
    pure truncation error and shrinks as O(dr**2).
    """
    import numpy as np
    if n < 3:
        raise ValueError("need at least 3 grid points")
    if geom.r1 == geom.r0:
        return 0.0
    r = np.linspace(geom.r0, geom.r1, n)
    dr = (geom.r1 - geom.r0) / (n - 1)
    sig_r, sig_t = _sigma(r / geom.r0, geom.nu, energy)
    dsig = (sig_r[2:] - sig_r[:-2]) / (2.0 * dr)
    target = 2.0 * (sig_t[1:-1] - sig_r[1:-1]) / r[1:-1]
    return float(np.max(np.abs(dsig - target)))


def outer_radius_rate(geom: ShellGeometry, V0: float, V1: float) -> float:
    """Growth rate of the outer radius from volume conservation.

    r1**2 rdot1 = r0**2 (V0 + V1); treadmilling (V1 = -V0) gives zero.
    """
    return geom.r0**2 * (V0 + V1) / geom.r1**2
