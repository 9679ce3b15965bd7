"""Steady radial transport of free particles around a treadmilling shell.

Ablation at r1 balances accretion at r0, so outside the shell the bath is
quiescent: h = 0 and mu = mu_inf.  Inside, (r**2 h)' = 0 and Fick's law
h = -M mu' make both fields closed-form in (V0, mu0, mu_inf) and the
shell's r0 and r1.  SteadyProfiles holds that parameter bundle, and its
methods h and mu evaluate the two fields on demand at a float or an array
of radii, so there is no discretization error to track.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .mechanics import ShellGeometry
from .strain_energy import _elementwise

__all__ = [
    "SteadyProfiles",
    "interface_residuals",
]


class SteadyProfiles(NamedTuple("SteadyProfiles", [
        ("V0", float), ("mu0", float), ("geom", ShellGeometry),
        ("M_inner", float), ("rhoR", float), ("mu_inf", float)])):
    """Closed-form steady flux and chemical-potential profiles of a
    treadmilling state, from its accretion speed V0 and inner-surface
    potential mu0, the shell geometry, the mobility of the solid, the
    referential density and the remote potential mu_inf.  h jumps at r1
    from -(r0/r1)**2 rhoR V0 to 0.  A named tuple of those six fields;
    building one, by the constructor, _make or _replace, raises ValueError
    where some r >= r0 would give a non-finite h or mu.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("M_inner", "rhoR"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        # |h| <= rhoR |V0| inside, and mu runs monotonically from mu0 at r0
        # to its inside limit at r1, which no radius reaches when r1 == r0
        r1 = self.geom.r1
        limit = self._mu_inside(r1) if r1 > self.geom.r0 else self.mu0
        if not all(map(math.isfinite, (self.rhoR * self.V0, limit, self.mu_inf))):
            raise ValueError("h or mu is not finite at some r >= r0")
        return self

    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace checks too

    def h(self, r, side: str | None = None):
        """Steady free-particle flux h(r), r >= r0.

        h(r) = -rhoR V0 (r0/r)**2 inside the solid and 0 outside it.  The
        flux jumps at r1, so a radius exactly there needs side="below" or
        side="above", the one-sided limit; side is ignored elsewhere.  A
        float r gives a float, an array an array.
        """
        p, r0, r1 = self, self.geom.r0, self.geom.r1
        r, where, any_, all_ = _elementwise(r)
        if not all_(r >= r0):
            raise ValueError("r < r0: no flux defined inside the bead")
        at_r1 = r == r1
        if any_(at_r1) and side not in ("below", "above"):
            raise ValueError('flux jumps at r1; pass side="below" or side="above"')
        inside = (r < r1) | (at_r1 & (side == "below"))
        q = r0 / r
        value = where(inside, -p.rhoR * p.V0 * (q * q), 0.0)
        # A solved V0 that rounds to 0.0 gives -0.0 inside; adding 0.0 turns
        # -0.0 into 0.0 and changes nothing else.
        value += 0.0
        return value if getattr(value, "ndim", 0) else float(value)

    def mu(self, r):
        """Chemical potential mu(r), r >= r0.

        mu(r) = mu0 + (rhoR r0 V0 / M_inner)(1 - r0/r) for r0 <= r < r1, and
        mu_inf for r >= r1.  A float r gives a float, an array an array.
        The inside formula is evaluated at the inside radii only, where it
        cannot overflow.
        """
        r, where, _, all_ = _elementwise(r)
        if not all_(r >= self.geom.r0):
            raise ValueError("r < r0: no potential defined inside the bead")
        inside = r < self.geom.r1
        if isinstance(r, (float, int)):
            return float(self._mu_inside(r) if inside else self.mu_inf)
        value = where(inside, 0.0, self.mu_inf)
        value[inside] = self._mu_inside(r[inside])
        return value if value.ndim else float(value)

    def _mu_inside(self, r):
        p, r0 = self, self.geom.r0
        return p.mu0 + (p.rhoR * r0 * p.V0 / p.M_inner) * (1.0 - r0 / r)


def interface_residuals(state, profiles: SteadyProfiles) -> float:
    """Accretion-side mass-balance residual linking V0 to the potentials,
    rhoR V0 - M_inner (mu1 - mu0)/(r1 - r0) * (r1/r0); it vanishes for any
    consistent steady state, and the ablation side balances identically.
    ``state`` needs attributes V0, mu0, mu1 and r1 (a solved treadmilling
    state qualifies); r0 and the transport constants are those of ``profiles``.
    """
    p, r0, r1 = profiles, profiles.geom.r0, state.r1
    if not r1 > r0:
        raise ValueError("interface residuals need r1 > r0")
    return p.rhoR * state.V0 - p.M_inner * (state.mu1 - state.mu0) / (r1 - r0) * (r1 / r0)
