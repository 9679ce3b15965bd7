"""High-precision reference for the shell thickness d/r0.

Independent of accrete: the governing equation is restated here in the
thickness u = d/r0 = nu - 1 and solved by bisection in mpmath at 60 digits.
With lam = 1 + u and x = u (2 + u), the neo-Hookean energy is written as
w = (G/2) x**2 (2 lam**2 + 1) / lam**4, which does not cancel near lam = 1,
and the drive 1 - Vstarstar/Vstar as (mu_inf - muStar) rhoR / (b1 Vstar).
The equation is

    drive - eta u / (1 + (1 + eta) u) - w(lam) / (b1 Vstar) = 0,

whose left side falls strictly from drive > 0 at u = 0.  Inputs are taken
as the exact binary values of the floats the program receives.
"""

from __future__ import annotations

import math

import mpmath

DPS = 60
TOLERANCE = 1e-9  # relative error in d/r0 above which an operation fails
_BISECTIONS = 64  # halves a [u, 2u] bracket to a relative width of 2**-64


def eta_of(r0: float, b0: float, b1: float, rhoR: float, M: float):
    """Exact nondimensional bead radius r0 / ellStar, ellStar = (b0 + b1) M / rhoR**2."""
    with mpmath.workdps(DPS):
        return mpmath.mpf(r0) * mpmath.mpf(rhoR) ** 2 / ((mpmath.mpf(b0) + mpmath.mpf(b1)) * mpmath.mpf(M))


def thickness(G, b0, b1, muR0, muR1, mu_inf, rhoR, eta) -> float:
    """d/r0 of the treadmilling state at bead radius eta, rounded to a float."""
    with mpmath.workdps(DPS):
        G, b0, b1, muR0, muR1, mu_inf, rhoR, eta = (
            mpmath.mpf(v) for v in (G, b0, b1, muR0, muR1, mu_inf, rhoR, eta)
        )
        bsum = b0 + b1
        vstar = (muR1 - muR0) * rhoR / bsum
        mu_star = (b0 * muR1 + b1 * muR0) / bsum
        drive = (mu_inf - mu_star) * rhoR / (b1 * vstar)
        if not (vstar > 0 and drive > 0):
            raise ValueError("no treadmilling state for these parameters")
        wscale = G / (2 * b1 * vstar)

        def F(u):
            lam2 = (1 + u) ** 2
            x = u * (2 + u)
            return drive - eta * u / (1 + (1 + eta) * u) - wscale * x * x * (2 * lam2 + 1) / (lam2 * lam2)

        lo = hi = mpmath.mpf(1)
        if F(hi) > 0:
            while F(hi) > 0:
                lo, hi = hi, 2 * hi
        else:
            while F(lo) <= 0:
                lo, hi = lo / 2, lo
        for _ in range(_BISECTIONS):
            mid = (lo + hi) / 2
            if F(mid) > 0:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def relative_error(value: float, ref: float) -> float:
    """|value - ref| / |ref|; inf for a non-finite value."""
    if not math.isfinite(value):
        return math.inf
    return abs(value - ref) / abs(ref)


def digits(value: float, ref: float) -> float:
    """Correct significant digits of value against ref, clamped to [0, 17]."""
    err = relative_error(value, ref)
    if err == 0.0:
        return 17.0
    return min(17.0, max(0.0, -math.log10(err)))
