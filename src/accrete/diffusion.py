"""Steady radial transport of free particles around the growing shell.

In steady state the radial flux h(r) satisfies (r**2 h)' = 0 on each side
of the outer surface, with a jump there set by the ablation speed, and the
chemical potential follows from Fick's law h = -M mu'.  Both fields are
closed-form in (V0, V1, mu0, mu_inf, r0, r1).  SteadyProfiles holds that
parameter bundle, and its methods h and mu evaluate the two fields on
demand at a float or an array of radii, so there is no discretization
error to track.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .strain_energy import _elementwise

__all__ = [
    "SteadyProfiles",
    "interface_residuals",
]


@dataclass(frozen=True)
class SteadyProfiles:
    """Closed-form steady flux and chemical-potential profiles.

    Parameterized by the interface speeds, the inner-surface potential mu0,
    the geometry, and the transport constants: the mobilities inside and
    outside the solid, the referential density and the remote chemical
    potential.  mu is continuous at r1 for any consistent state; h jumps
    there by -(r0/r1)**2 rhoR V1.
    """

    V0: float
    V1: float
    mu0: float
    r0: float
    r1: float
    M_inner: float
    M_outer: float
    rhoR: float
    mu_inf: float

    def __post_init__(self):
        for name in ("r0", "M_inner", "M_outer", "rhoR"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if not self.r1 >= self.r0:
            raise ValueError("r1 must not be below r0")
        if self.r1 == math.inf:
            raise ValueError("r1 must be finite")

    def h(self, r, side: str | None = None):
        """Steady free-particle flux h(r), r >= r0.

        h(r) = -rhoR V0 (r0/r)**2 inside the solid and
        h(r) = -rhoR (V0+V1) (r0/r)**2 outside it.  The flux jumps at r1, so
        a radius exactly there needs side="below" or side="above", the
        one-sided limit; side is ignored elsewhere.  A float r gives a
        float, an array an array.
        """
        p = self
        r, where, any_, all_ = _elementwise(r)
        if not all_(r >= p.r0):
            raise ValueError("r < r0: no flux defined inside the bead")
        at_r1 = r == p.r1
        if any_(at_r1) and side not in ("below", "above"):
            raise ValueError('flux jumps at r1; pass side="below" or side="above"')
        inside = (r < p.r1) | (at_r1 & (side == "below"))
        q = p.r0 / r
        value = where(inside, -p.rhoR * p.V0, -p.rhoR * (p.V0 + p.V1)) * (q * q)
        # A treadmilling state has V0 + V1 = 0 exactly, which gives -0.0
        # outside; adding 0.0 turns -0.0 into 0.0 and changes nothing else.
        value += 0.0
        return value if getattr(value, "ndim", 0) else float(value)

    def mu(self, r):
        """Chemical potential mu(r), r >= r0.

        mu(r) = mu0 + (rhoR r0 V0 / M_inner)(1 - r0/r)      for r0 <= r < r1,
        mu(r) = mu_inf - (rhoR (V0+V1) / M_outer)(r0**2/r)  for r >= r1.

        At r = r1 the outer expression is returned; for a consistent state it
        coincides with the inner limit.  A float r gives a float, an array an
        array.
        """
        p = self
        r, where, _, all_ = _elementwise(r)
        if not all_(r >= p.r0):
            raise ValueError("r < r0: no potential defined inside the bead")
        inner = p.mu0 + (p.rhoR * p.r0 * p.V0 / p.M_inner) * (1.0 - p.r0 / r)
        outer = p.mu_inf - (p.rhoR * (p.V0 + p.V1) / p.M_outer) * (p.r0 / r * p.r0)
        value = where(r < p.r1, inner, outer)
        return value if getattr(value, "ndim", 0) else float(value)


def interface_residuals(state, profiles: SteadyProfiles) -> tuple[float, float]:
    """Mass-balance residuals linking interface speeds to the potentials.

    res0 = rhoR V0 - M_inner (mu1 - mu0)/(r1 - r0) * (r1/r0)
    res1 = rhoR (V0 + V1) - M_outer (mu_inf - mu1) * r1/r0**2

    Both vanish for any consistent steady state.  ``state`` needs attributes
    V0, V1, mu0, mu1 and r1 (a solved treadmilling state qualifies); r0 and
    the transport constants are those of ``profiles``.
    """
    p, r0, r1 = profiles, profiles.r0, state.r1
    if not r1 > r0:
        raise ValueError("interface residuals need r1 > r0")
    res0 = p.rhoR * state.V0 - p.M_inner * (state.mu1 - state.mu0) / (r1 - r0) * (r1 / r0)
    res1 = p.rhoR * (state.V0 + state.V1) - p.M_outer * (p.mu_inf - state.mu1) * r1 / r0 / r0
    return res0, res1
