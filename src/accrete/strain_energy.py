"""Reduced strain energies for isochoric equi-biaxial deformations.

An incompressible spherical shell grown outward from a sphere deforms with
principal stretches (lam**-2, lam, lam), so the full strain energy collapses
to a single-variable function w(lam).  Everything downstream (stress fields,
the treadmilling solver) only ever needs w, its first derivative dw, and its
second derivative d2w.

Energies supply the three callables analytically; finite differences are
used only as a consistency oracle in :func:`validate` and in the test suite.
A well-posed reduced energy satisfies

* w(1) = 0 and dw(1) = 0,
* dw(lam) * (lam - 1) > 0 for lam != 1,
* w(lam) > 0 for lam != 1,
* w grows without bound as lam -> inf.

Validation is advisory rather than enforced at construction so that
deliberately pathological energies can be exercised in negative tests.
"""

from __future__ import annotations

import math
from typing import NamedTuple

__all__ = [
    "ReducedEnergy",
    "NeoHookean",
    "validate",
    "CheckResult",
    "ValidationReport",
    "modulus_scale",
]


def _elementwise(x):
    """x with its (where, any, all): Python's for a float (np.float64 too)
    or an int x, so that numpy is not imported; numpy's for anything else,
    taken as a float64 array, which the caller computes on."""
    if isinstance(x, (float, int)):
        return x, (lambda c, a, b: a if c else b), bool, bool
    import numpy as np
    return np.asarray(x, dtype=float), np.where, np.any, np.all


_INF = math.inf  # a module global: the fast paths below read no math.inf attribute


def _check_positive_stretch(lam):
    """lam as _elementwise gives it, if no element is <= 0 or infinite;
    NaN passes."""
    lam, _, any_, _ = _elementwise(lam)
    if any_(lam <= 0.0):
        raise ValueError("stretch must be positive")
    if any_(lam == _INF):
        raise ValueError("stretch must be finite")
    return lam


class ReducedEnergy:
    """Base interface: subclasses provide w, dw and d2w for lam > 0.

    Methods operate elementwise, so plain floats and numpy arrays both work.
    A float must give the same bits as that float inside a float64 array:
    solve_eta matches solve bit for bit only then, and fields_at's
    sigma_r = w(lam) - w(nu) is exactly 0 at r1 only then.
    """

    def w(self, lam):
        """Energy density at stretch lam."""
        raise NotImplementedError

    def dw(self, lam):
        """First derivative of w at stretch lam."""
        raise NotImplementedError

    def d2w(self, lam):
        """Second derivative of w at stretch lam."""
        raise NotImplementedError


class NeoHookean(ReducedEnergy):
    """Neo-Hookean solid reduced to equi-biaxial stretching.

    w(lam) = (G/2) (lam**-4 + 2 lam**2 - 3)

    w is evaluated as (G/2) y**2 (2 lam**2 + 1) with
    y = (lam - 1)(lam + 1)/lam**2.  That equals the form above and keeps
    full relative precision near lam = 1, where the sum cancels; the root
    finder's Newton iteration needs F at rounding level there.  w, dw and
    d2w use + - * / only, no powers, so a float and a float64 array give
    the same bits; the batch solve relies on that.  Where a value
    overflows, a float gives inf like an array does, not OverflowError:
    w where the sum overflows, d2w below about lam = 4e-52, and dw gives
    -inf below about lam = 2e-65, where lam**5 underflows to 0.

    Parameters
    ----------
    G : float
        Shear modulus, stress units, inf > G > 0.
    """

    def __init__(self, G: float):
        if not 0.0 < G < math.inf:
            raise ValueError("shear modulus G must be positive and finite")
        self.G = float(G)

    def __repr__(self) -> str:
        return f"NeoHookean(G={self.G!r})"

    def w(self, lam):
        if not (isinstance(lam, float) and 0.0 < lam < _INF):
            lam = _check_positive_stretch(lam)
        y = (lam - 1.0) / lam * ((lam + 1.0) / lam)
        return 0.5 * self.G * (y * y * (2.0 * (lam * lam) + 1.0))

    def dw(self, lam):
        if not (isinstance(lam, float) and 0.0 < lam < _INF):
            lam = _check_positive_stretch(lam)
        l2 = lam * lam
        try:
            return 2.0 * (self.G * (lam - 1.0 / (l2 * l2 * lam)))
        except ZeroDivisionError:  # a float lam**5 underflowed to 0
            return -math.inf

    def d2w(self, lam):
        lam = _check_positive_stretch(lam)
        q = 1.0 / lam
        q2 = q * q
        return 2.0 * (self.G * (1.0 + 5.0 * (q2 * q2 * q2)))


def modulus_scale(energy: ReducedEnergy) -> float:
    """Stress scale of an energy, taken as |d2w(1)| / 12.

    For the neo-Hookean energy this recovers the shear modulus exactly
    (d2w(1) = 12 G).  Degenerate energies with d2w(1) = 0 fall back to 1.0
    so tolerance checks still have a usable scale.
    """
    scale = abs(float(energy.d2w(1.0))) / 12.0
    return scale if scale > 0.0 else 1.0


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


class ValidationReport(NamedTuple):
    """Outcome of the structural-assumption checks on an energy."""

    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def _linspace(a: float, b: float, n: int) -> list[float]:
    """numpy.linspace(a, b, n) as floats, for n >= 2: i * step + a, or
    i / (n - 1) * (b - a) + a where the step underflows to 0, and b last."""
    div, delta = n - 1, b - a
    step = delta / div
    y = (i * step + a for i in range(div)) if step else (i / div * delta + a for i in range(div))
    return [*y, float(b)]


def _geomspace(a: float, b: float, n: int) -> list[float]:
    """numpy.geomspace(a, b, n) as floats, a and b exact; a point may differ
    from numpy's in the last bit, as numpy's SIMD pow is not libm's."""
    logs = _linspace(math.log10(a), math.log10(b), n)
    return [float(a), *(10.0 ** y for y in logs[1:-1]), float(b)]


def _extreme(pick, values: list[float]) -> float:
    """min or max of values, NaN if any value is NaN, as numpy's are."""
    return math.nan if any(v != v for v in values) else pick(values)


def validate(energy: ReducedEnergy, lam_min: float, lam_max: float, n: int) -> ValidationReport:
    """Check the structural assumptions on an energy over a log grid.

    The energy is called one float at a time, without numpy, so an energy
    that raises on a float raises here (NeoHookean: d2w below lam = 4e-52).

    Parameters
    ----------
    energy : ReducedEnergy
    lam_min, lam_max : float
        Grid bounds, 0 < lam_min < 1 < lam_max < inf.
    n : int
        Number of grid points, n >= 3.

    Returns
    -------
    ValidationReport
        One CheckResult per assumption; report.ok is the conjunction.
    """
    if not (0.0 < lam_min < 1.0 < lam_max < math.inf):
        raise ValueError("grid bounds must satisfy 0 < lam_min < 1 < lam_max < inf")
    if n < 3:
        raise ValueError("need at least 3 grid points")

    grid = _geomspace(lam_min, lam_max, n)
    off_identity = [x for x in grid if abs(x - 1.0) > 1e-9]
    gscale = modulus_scale(energy)
    checks: list[CheckResult] = []

    w1 = float(energy.w(1.0))
    checks.append(
        CheckResult(
            "zero-at-identity",
            abs(w1) <= 1e-12 * gscale,
            f"w(1) = {w1:.3e}",
        )
    )

    dw1 = float(energy.dw(1.0))
    checks.append(
        CheckResult(
            "stationary-at-identity",
            abs(dw1) <= 1e-10 * gscale,
            f"dw(1) = {dw1:.3e}",
        )
    )

    w_vals = [float(energy.w(x)) for x in off_identity]
    checks.append(
        CheckResult(
            "positive-away-from-identity",
            all(v > 0.0 for v in w_vals),
            f"min w off identity = {_extreme(min, w_vals):.3e}",
        )
    )

    sign_ok = all(float(energy.dw(x)) * (x - 1.0) > 0.0 for x in off_identity)
    checks.append(
        CheckResult(
            "sign-condition",
            sign_ok,
            "dw(lam)*(lam-1) > 0 off identity" if sign_ok else "sign violation on grid",
        )
    )

    # Unboundedness is untestable as a limit; check monotone growth on the
    # tensile tail, which ends at lam_max, and a gain over the identity value.
    tail_w = [float(energy.w(x)) for x in grid if x >= 1.0]
    growing = all(b - a > 0.0 for a, b in zip(tail_w, tail_w[1:]))
    checks.append(
        CheckResult(
            "unbounded-growth",
            growing and tail_w[-1] > w1 + gscale,
            f"w({lam_max:g}) - w(1) = {tail_w[-1] - w1:.3e}",
        )
    )

    checks.append(_derivative_check(energy, grid, 1, gscale))
    checks.append(_derivative_check(energy, grid, 2, gscale))

    return ValidationReport(tuple(checks))


def _derivative_check(energy: ReducedEnergy, grid: list, order: int, gscale: float) -> CheckResult:
    """Compare dw or d2w against central finite differences of w on grid.

    A NaN anywhere on the grid makes the deviation NaN, so the check fails.
    """
    rel = 1e-5 if order == 1 else 1e-4
    deviations = []
    for x in grid:
        s = rel * x
        wp, wm = float(energy.w(x + s)), float(energy.w(x - s))
        if order == 1:
            fd, exact = (wp - wm) / (2.0 * s), float(energy.dw(x))
        else:
            fd, exact = (wp - 2.0 * float(energy.w(x)) + wm) / (s * s), float(energy.d2w(x))
        deviations.append(abs(exact - fd) / max(abs(exact), gscale))
    worst = _extreme(max, deviations)
    name = "first-derivative-consistency" if order == 1 else "second-derivative-consistency"
    return CheckResult(name, worst <= 1e-6, f"max relative deviation {worst:.3e}")
