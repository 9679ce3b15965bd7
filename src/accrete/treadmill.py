"""Solver for the steady treadmilling state of the accreting shell.

The steady state couples three effects: linear accretion/ablation kinetics
at the two surfaces, the elastic energy stored by growth, and steady
diffusion of free particles to the inner surface.  Eliminating everything
else reduces the problem to one scalar equation for the radius ratio
nu = r1/r0,

    g(eta, nu) = h(nu),

where g is strictly decreasing in nu, h is strictly increasing and
unbounded, and eta is the bead radius measured in the diffusion length
ellStar.  A root with g(1) - h(1) = Vstar - Vstarstar > 0 therefore exists
and is unique exactly when Vstar > 0 and Vstar > Vstarstar.

The equation is solved for the thickness u = nu - 1 = d/r0, with the
drive 1 - Vstarstar/Vstar = (mu_inf - muStar) rhoR/(b1 Vstar) computed from
the inputs rather than from the rounded scales, which cancel for thin
shells.  The root finder brackets the root with w alone, from an estimate
that models w as quadratic in u, and then runs a Newton iteration on the
analytic dw, safeguarded by bisection; a solve typically costs three
evaluations of w.  Everything downstream of nu is closed-form
back-substitution.

solve_eta solves a whole table of bead radii in one array pass: each
element goes through the same IEEE operations in the same order as solve at
that bead radius, so every row matches solve bit for bit.  solve keeps its
scalar root finder, which is about forty times faster for a single state.
`accrete sweep` solves a long table with solve_eta, and a short one row by
row with solve's root finder, which gives the same bits without numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .strain_energy import ReducedEnergy, _elementwise, _geomspace

__all__ = [
    "ModelParams",
    "Scales",
    "TreadmillState",
    "Solvability",
    "NoTreadmillingState",
    "NumericFailure",
    "compute_scales",
    "solvable",
    "g",
    "h",
    "solve",
    "solve_eta",
    "grid_scan_oracle",
    "small_bead_asymptote",
    "small_bead_quadratic",
    "large_bead_asymptote",
]

_LAM_CAP = 1e9
# Smallest float above 1; the bracketing probes never go below it.
_ONE_UP = 1.0 + 2.0**-52
# A Newton step of at most _NOISE * lam that fails the safeguard is taken
# as rounding noise in F, and ends the iteration.  The iteration gives up
# after _MAX_STEPS steps; bisection alone never needs that many.
_NOISE = 4.0 * 2.0**-52
_MAX_STEPS = 200


class NoTreadmillingState(Exception):
    """No steady treadmilling state exists for the given parameters."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class NumericFailure(RuntimeError):
    """Root bracketing or iteration failed; indicates a malformed energy."""


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
        for name in ("b0", "b1", "rhoR", "M", "r0"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")


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


@dataclass(frozen=True)
class Solvability:
    """Decision of the existence test, with the violated inequality if any."""

    ok: bool
    reason: str | None = None


def compute_scales(params: ModelParams) -> Scales:
    """Characteristic velocity, length and potential scales.

    Raises ValueError when a scale leaves the float range, as it does for
    rhoR = 1e-200, whose square underflows to zero.
    """
    return Scales(*_scale_values(params))


def _scale_values(params: ModelParams) -> tuple[float, float, float, float, float]:
    """The fields of compute_scales(params) as a tuple of floats, in order."""
    bsum = params.b0 + params.b1
    try:
        ellStar = bsum * params.M / params.rhoR**2
        eta = params.r0 / ellStar
    except (OverflowError, ZeroDivisionError):
        raise ValueError("diffusion length ellStar is out of the float range") from None
    values = (
        (params.muR1 - params.muR0) * params.rhoR / bsum,
        (params.muR1 - params.mu_inf) * params.rhoR / params.b1,
        ellStar,
        (params.b0 * params.muR1 + params.b1 * params.muR0) / bsum,
        eta,
    )
    if not all(map(math.isfinite, values)):
        name = next(f.name for f, v in zip(fields(Scales), values) if not math.isfinite(v))
        raise ValueError(f"scale {name} is not finite")
    return values


def solvable(params: ModelParams) -> Solvability:
    """Existence test for the treadmilling state.

    A state exists iff Vstar > 0 and Vstar > Vstarstar; in terms of the
    chemistry these are muR1 > muR0 and mu_inf > muStar.
    """
    reason = _unsolvable(*_scale_values(params)[:2])
    return Solvability(reason is None, reason)


def _unsolvable(Vstar: float, Vstarstar: float) -> str | None:
    """The violated existence inequality, or None when a state exists."""
    if not Vstar > 0.0:
        return "Vstar <= 0 (requires muR1 > muR0)"
    if not Vstar > Vstarstar:
        return "Vstar <= Vstarstar (requires mu_inf > muStar)"
    return None


def _solvable_scales(params: ModelParams) -> tuple[float, float, float, float, float]:
    """_scale_values(params); raises NoTreadmillingState when no state exists."""
    s = _scale_values(params)
    reason = _unsolvable(s[0], s[1])
    if reason is not None:
        raise NoTreadmillingState(reason)
    return s


def _check_lam(lam):
    lam, _, any_, _ = _elementwise(lam)
    if any_(lam < 1.0):
        raise ValueError("lam must be >= 1")
    return lam


def g(eta: float, lam: float, Vstar: float):
    """Supply-side curve g = Vstar / (1 + eta (1 - 1/lam)).

    Strictly decreasing in lam for eta > 0.  The factor is evaluated as
    (lam - 1)/lam, which is exact near lam = 1 where 1 - 1/lam cancels.
    """
    lam = _check_lam(lam)
    if eta < 0.0:
        raise ValueError("eta must be >= 0")
    return Vstar / (1.0 + eta * (lam - 1.0) / lam)


def h(lam: float, Vstarstar: float, b1: float, energy: ReducedEnergy):
    """Demand-side curve h = Vstarstar + w(lam)/b1; increasing, unbounded."""
    lam = _check_lam(lam)
    return Vstarstar + energy.w(lam) / b1


def _estimate(drive: float, eta: float, k: float) -> float:
    """Root u > 0 of eta u/(1 + (1 + eta) u) + k u**2 = drive.

    This is F(u) = 0 with w/wscale replaced by k u**2; it starts the root
    finder.  The left side is the sum of two increasing terms, so the
    smaller of the u at which either alone reaches the drive bounds the
    root from above.  Newton steps on the equivalent convex cubic
    k A u**3 + k u**2 + (eta - A drive) u - drive, with A = 1 + eta, fall
    from that bound monotonically towards the root.  With k = 0 the root
    is where the eta term alone reaches the drive, inf if it never does.
    """
    a = 1.0 + eta
    c1 = eta - a * drive
    if c1 == -math.inf:  # a * drive overflowed: divide the cubic through by a
        drive, c1, k = drive / a, eta / a - drive, k / a
    u = drive / c1 if c1 > 0.0 else math.inf
    if not k > 0.0:
        return u
    return _polish(drive, a, c1, k, min(u, math.sqrt(drive / k)))


def _estimates(drive: float, eta, k):
    """_estimate for every element of eta and k, with the same operations."""
    import numpy as np
    a = 1.0 + eta
    c1 = eta - a * drive
    big = c1 == -np.inf
    if big.any():  # as in _estimate, in the rows where a * drive overflowed
        scale = np.where(big, a, 1.0)
        drive, c1, k = drive / scale, np.where(big, eta / a - drive, c1), k / scale
    u = np.where(c1 > 0.0, drive / c1, np.inf)
    s = np.sqrt(drive / k)
    return np.where(k > 0.0, _polish(drive, a, c1, k, np.where(s < u, s, u)), u)


def _polish(drive, a, c1, k, u):
    """Four Newton steps on k a u**3 + k u**2 + c1 u - drive from u."""
    ka, k3a, k2 = k * a, 3.0 * k * a, 2.0 * k  # same bits: k * a * u is (k * a) * u
    for _ in range(4):
        u = u - (((ka * u + k) * u + c1) * u - drive) / ((k3a * u + k2) * u + c1)
    return u


def _find_root(energy: ReducedEnergy, wscale: float, drive: float, eta: float):
    """Root of F(u) = drive - eta u/(1 + (1 + eta) u) - w(1 + u)/wscale.

    u = nu - 1 is the thickness d/r0.  F(0) = drive > 0 and F falls
    strictly when w grows, so the root is unique.  Every iterate is taken
    as the thickness of a float lam = 1 + u, so F is evaluated at the
    value that is returned.  Returns (lam, w(lam)), so callers can
    back-substitute without another call.

    Bracketing calls only w.  F is evaluated first at min(1, u_eta), where
    u_eta is the u at which the eta term alone reaches the drive.  Each
    evaluation fits k = w/(wscale u**2) and solves the model equation of
    _estimate; while F stays positive, u moves to twice that estimate, and
    NumericFailure is raised once lam would pass _LAM_CAP.  From the
    estimate, clipped to the bracket, a safeguarded Newton iteration
    ("rtsafe", Numerical Recipes 9.4) takes the step -F/F' while it lands
    inside the bracket and is at most half the step before last, and
    bisects otherwise.  It stops when the Newton step rounds to the same
    lam, when a rejected Newton step is within a few ulp of lam (F is then
    down to its rounding noise), or when the bracket holds no float between
    its ends, and returns the bracket endpoint with the smaller |F|.
    """
    if wscale == 0.0:  # b1 times a speed, underflowed
        raise ValueError("energy scale b1 V of the root is out of the float range")
    w, inf = energy.w, math.inf  # once q = 1 + (1 + eta) u overflows, eta u / q rounds to 1.0
    a1 = 1.0 + eta
    lo, f_lo, w_lo = 0.0, drive, 0.0
    u = min(1.0, _estimate(drive, eta, 0.0))
    while True:
        lam = max(1.0 + u, _ONE_UP)
        if not lam <= _LAM_CAP:
            raise NumericFailure(
                f"no sign change below lam = {_LAM_CAP:g}; energy growth assumption violated?"
            )
        u = lam - 1.0
        wu = w(lam)
        q = 1.0 + a1 * u
        fu = drive - (eta * u / q if q < inf else 1.0) - wu / wscale
        if fu <= 0.0:
            break
        lo, f_lo, w_lo = u, fu, wu
        u = 2.0 * _estimate(drive, eta, wu / (wscale * u * u))
    if fu == 0.0:
        return lam, wu
    hi, f_hi, w_hi = u, fu, wu

    x = (1.0 + _estimate(drive, eta, wu / (wscale * u * u))) - 1.0
    if not lo < x < hi:
        x = lo if x <= lo else hi
    step = step_old = hi - lo
    dw = energy.dw
    for _ in range(_MAX_STEPS):
        lam = 1.0 + x
        wx = w(lam)
        q = 1.0 + a1 * x
        fx = drive - (eta * x / q if q < inf else 1.0) - wx / wscale
        if fx > 0.0:
            lo, f_lo, w_lo = x, fx, wx
        elif fx < 0.0:
            hi, f_hi, w_hi = x, fx, wx
        else:
            return lam, wx
        dfx = -eta / (q * q) - dw(lam) / wscale
        newton = fx / dfx if dfx < 0.0 else math.inf
        x_new = (lam - newton) - 1.0
        if x_new == x:
            break
        if not (lo < x_new < hi and abs(newton + newton) <= abs(step_old)):
            if abs(newton) <= _NOISE * lam:
                break
            x_new = (1.0 + 0.5 * (lo + hi)) - 1.0
            if not lo < x_new < hi:
                break
        step_old, step = step, x - x_new
        x = x_new
    else:
        raise NumericFailure("root iteration failed to converge")
    if abs(f_lo) < abs(f_hi):
        return 1.0 + lo, w_lo
    return 1.0 + hi, w_hi


def _find_roots(energy: ReducedEnergy, wscale: float, drive: float, eta):
    """_find_root for every element of the 1-D array eta, in one array pass.

    Each element goes through the same IEEE operations in the same order as
    _find_root(energy, wscale, drive, eta[i]): the start at min(1, u_eta),
    the model probes and the doubling, the rtsafe steps with their stops,
    and the endpoint with the smaller |F|.  So each returns the same bits.
    Python's min(a, b) is b if b < a else a, and the array forms below keep
    that rule for NaN.  Every row takes every step, under the masks probing
    and live.  A row that stops keeps its result and its last u, where F was
    already evaluated, so w and dw see no stretch that _find_root would not.
    Every row is bracketed before any row iterates, so a row counts its
    steps as _find_root does.  Returns the arrays (lam, w(lam)).
    """
    if wscale == 0.0:  # b1 times a speed, underflowed
        raise ValueError("energy scale b1 V of the root is out of the float range")
    import numpy as np
    w, dw, a1 = energy.w, energy.dw, 1.0 + eta

    def F(u):
        lam = 1.0 + u
        wu = w(lam)
        q = 1.0 + a1 * u
        return lam, wu, q, drive - np.where(q < np.inf, eta * u / q, 1.0) - wu / wscale

    # A bracket end is held as the rows (u, F(u), w(1 + u)).  A row probes
    # while F(u) > 0; a row that stops keeps u, its upper end.
    low = np.repeat([[0.0], [drive], [0.0]], eta.size, axis=1)
    u = _estimates(drive, eta, np.zeros(eta.size))
    u = np.where(u < 1.0, u, 1.0)
    probing = np.ones(eta.size, dtype=bool)
    while True:
        lam = np.where(_ONE_UP > 1.0 + u, _ONE_UP, 1.0 + u)
        if not np.all(lam <= _LAM_CAP):
            raise NumericFailure(
                f"no sign change below lam = {_LAM_CAP:g}; energy growth assumption violated?"
            )
        u = lam - 1.0  # 1 + u is lam again, since lam < 2**53
        lam, wu, _, fu = F(u)
        probing &= ~(fu <= 0.0)
        if not probing.any():
            break
        low = np.where(probing, (u, fu, wu), low)
        u = np.where(probing, 2.0 * _estimates(drive, eta, wu / (wscale * u * u)), u)

    # A live row takes rtsafe steps from x.  A row that stops keeps x, where
    # F gives it the same lam, wu, fx and bracket at every later step.
    lo, hi, high = low[0], u, np.array((u, fu, wu))
    live, exact = fu != 0.0, fu == 0.0
    x = (1.0 + _estimates(drive, eta, wu / (wscale * u * u))) - 1.0
    x = np.where(live & (lo < x) & (x < hi), x, np.where(live & (x <= lo), lo, hi))
    step = step_old = hi - lo
    for _ in range(_MAX_STEPS):
        if not live.any():
            break
        lam, wu, q, fx = F(x)
        pos, neg = fx > 0.0, fx < 0.0
        low, high = np.where(pos, (x, fx, wu), low), np.where(neg, (x, fx, wu), high)
        lo, hi = low[0], high[0]
        dfx = -eta / (q * q) - dw(lam) / wscale
        newton = np.where(dfx < 0.0, fx / dfx, np.inf)
        x_new = (lam - newton) - 1.0
        ok = (lo < x_new) & (x_new < hi) & (np.abs(newton + newton) <= np.abs(step_old))
        mid = (1.0 + 0.5 * (lo + hi)) - 1.0
        give_up = (np.abs(newton) <= _NOISE * lam) | ~((lo < mid) & (mid < hi))
        exact = ~(pos | neg)
        live &= ~(exact | (x_new == x) | (~ok & give_up))
        x_new = np.where(ok, x_new, mid)
        step_old, step = step, x - x_new
        x = np.where(live, x_new, x)
    if live.any():
        raise NumericFailure("root iteration failed to converge")
    end = np.where(np.abs(low[1]) < np.abs(high[1]), low, high)
    return np.where(exact, lam, 1.0 + end[0]), np.where(exact, wu, end[2])


def _drive(params: ModelParams, Vstar: float, Vstarstar: float) -> float:
    """The drive 1 - Vstarstar/Vstar = (mu_inf - muStar) rhoR/(b1 Vstar).

    It is taken from the inputs.  Near mu_inf = muStar both of those forms
    cancel after rounding Vstarstar/Vstar or muStar, and showed up to four
    times the error of this one.
    """
    try:
        drive = (
            params.b0 * (params.mu_inf - params.muR1) + params.b1 * (params.mu_inf - params.muR0)
        ) / (params.b1 * (params.muR1 - params.muR0))
    except ZeroDivisionError:
        raise ValueError("drive scale b1 (muR1 - muR0) is out of the float range") from None
    if not drive > 0.0:
        # mu_inf within rounding of muStar, which the existence test does
        # not see; the quotient is positive whenever Vstar > Vstarstar.
        drive = 1.0 - Vstarstar / Vstar
    return drive


def _state(params: ModelParams, Vstar, Vstarstar, nu, w_nu, r0, mu1) -> TreadmillState:
    """Back-substitute the state at nu from w(nu) and r0: floats, or
    float64 arrays with mu1 filled to their shape."""
    V0 = Vstarstar + w_nu / params.b1
    mu0 = params.mu_inf - (params.b0 + params.b1) * (Vstar - V0) / params.rhoR
    return TreadmillState(
        nu, nu * r0, (nu - 1.0) * r0, V0, -V0, mu0, mu1, params.b0 * V0, params.b1 * (-V0)
    )


def solve(params: ModelParams) -> TreadmillState:
    """Solve the treadmilling system.

    Raises NoTreadmillingState when the existence conditions fail and
    NumericFailure if bracket expansion passes lam = 1e9 (unreachable for
    energies that grow without bound).

    The equation is solved in the nondimensional variables
    (u = nu - 1, V/Vstar, w/(b1 Vstar)) so conditioning is uniform across
    many decades of eta; outputs are dimensional.
    """
    Vstar, Vstarstar, _, _, eta = _solvable_scales(params)
    nu, w_nu = _find_root(params.energy, params.b1 * Vstar, _drive(params, Vstar, Vstarstar), eta)
    return _state(params, Vstar, Vstarstar, nu, float(w_nu), params.r0, params.mu_inf)


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
    import numpy as np
    Vstar, Vstarstar, ellStar, _, _ = _solvable_scales(params)
    eta = np.asarray(eta, dtype=float)
    if eta.ndim != 1:
        raise ValueError("eta must be a 1-D array")
    # r0 and eta may leave the float range, which is checked below.  Both
    # arms of every np.where are computed, and a row that has stopped is
    # still computed in every later step, so a row may also overflow or
    # divide by zero in an arm or a step that its scalar solve never takes.
    with np.errstate(all="ignore"):
        r0 = eta * ellStar
        if not np.all(r0 > 0.0):
            raise ValueError("r0 must be positive")
        eta = r0 / ellStar
        if not np.all(np.isfinite(eta)):
            raise ValueError("scale eta is not finite")
        drive = _drive(params, Vstar, Vstarstar)
        nu, w_nu = _find_roots(params.energy, params.b1 * Vstar, drive, eta)
        return _state(params, Vstar, Vstarstar, nu, w_nu, r0, np.full_like(nu, params.mu_inf))


def _solve_rows(params: ModelParams, eta: list) -> list[TreadmillState]:
    """solve_eta on a list of floats, without numpy: the same checks of
    every row first, then solve's root finder row by row; a list of states."""
    Vstar, Vstarstar, ellStar, _, _ = _solvable_scales(params)
    r0 = [e * ellStar for e in eta]
    if not all(r > 0.0 for r in r0):
        raise ValueError("r0 must be positive")
    if not all(math.isfinite(r / ellStar) for r in r0):
        raise ValueError("scale eta is not finite")
    wscale, drive = params.b1 * Vstar, _drive(params, Vstar, Vstarstar)
    roots = [(r, *_find_root(params.energy, wscale, drive, r / ellStar)) for r in r0]
    return [_state(params, Vstar, Vstarstar, nu, float(w), r, params.mu_inf) for r, nu, w in roots]


def grid_scan_oracle(
    params: ModelParams, lam_max: float, n: int
) -> list[tuple[float, float]]:
    """Independent uniqueness check: scan g - h for sign changes.

    Evaluates F = g - h on floats, without numpy, at lam = 1 and on n
    points log-spaced in (lam - 1) up to lam_max, and returns every interval
    whose endpoints straddle zero.  F(1) = Vstar - Vstarstar > 0, so a root
    below the first log-spaced point still gives a bracket.  Valid parameters
    must yield exactly one bracket, and it must contain the solver's nu;
    anything else signals an inconsistency.
    """
    Vstar, Vstarstar, _, _, eta = _solvable_scales(params)
    if not 1.0 < lam_max < math.inf:
        raise ValueError("lam_max must exceed 1 and be finite")
    if n < 100:
        raise ValueError("need at least 100 scan points")
    lam = [1.0, *(1.0 + u for u in _geomspace((lam_max - 1.0) * 1e-13, lam_max - 1.0, n))]
    w, b1 = params.energy.w, params.b1
    pos = [Vstar / (1.0 + eta * (x - 1.0) / x) - (Vstarstar + w(x) / b1) > 0.0 for x in lam]
    return [(lam[i], lam[i + 1]) for i in range(n) if pos[i] != pos[i + 1]]


def _root_of_w(energy: ReducedEnergy, b1: float, target: float) -> float:
    """Unique lam > 1 with w(lam)/b1 = target, for target > 0."""
    return _find_root(energy, b1 * target, 1.0, 0.0)[0]


def small_bead_asymptote(params: ModelParams) -> tuple[float, float, float]:
    """Limiting state as eta -> 0 (stress-limited regime).

    Returns (nu_star, V0_limit, mu0_limit): nu_star is the root of
    w(nu)/b1 = Vstar - Vstarstar, the accretion speed tends to Vstar and
    the inner potential to mu_inf.
    """
    Vstar, Vstarstar, _, _, _ = _solvable_scales(params)
    nu_star = _root_of_w(params.energy, params.b1, Vstar - Vstarstar)
    return nu_star, Vstar, params.mu_inf


def small_bead_quadratic(params: ModelParams) -> float:
    """Small-thickness estimate d/r0 = sqrt(2 (mu_inf - muStar) rhoR / d2w(1)).

    Replaces w by its quadratic expansion about lam = 1, so it is accurate
    when the shell is thin.  Returns 0 at zero drive (mu_inf = muStar).
    """
    d2w1 = float(params.energy.d2w(1.0))
    if not d2w1 > 0.0:
        raise ValueError("estimate needs d2w(1) > 0")
    muStar = _scale_values(params)[3]
    drive = (params.mu_inf - muStar) * params.rhoR
    if drive < 0.0:
        raise ValueError("estimate needs mu_inf >= muStar")
    est = math.sqrt(2.0 * drive / d2w1)
    if not math.isfinite(est):
        raise ValueError("small-bead estimate is out of the float range")
    return est


def large_bead_asymptote(
    params: ModelParams, eta: float
) -> tuple[float | None, float, float]:
    """Limiting behavior as eta -> inf, branched on the sign of Vstarstar.

    Returns (d_over_r0_est, V0_est, mu0_limit).

    For Vstarstar > 0 (diffusion-limited): the thickness estimate is
    (Vstar/Vstarstar - 1)/eta and V0 tends to Vstarstar.  For
    Vstarstar < 0: nu tends to the root nu2 of w(nu2)/b1 = -Vstarstar,
    the thickness estimate is nu2 - 1 and V0 decays like
    Vstar/(1 - 1/nu2)/eta.  At exactly Vstarstar = 0 the thickness
    estimate is unavailable (None): the first branch divides by zero and
    no intermediate scaling is provided here.
    """
    Vstar, Vstarstar, _, _, _ = _solvable_scales(params)
    if not eta > 0.0:
        raise ValueError("eta must be positive")
    bsum = params.b0 + params.b1
    if Vstarstar > 0.0:
        d_est = (Vstar / Vstarstar - 1.0) / eta
        est = d_est, Vstarstar, params.mu_inf + bsum * (Vstarstar - Vstar) / params.rhoR
    elif Vstarstar == 0.0:
        return None, 0.0, params.mu_inf - bsum * Vstar / params.rhoR
    else:
        nu2 = _root_of_w(params.energy, params.b1, -Vstarstar)
        if nu2 == 1.0:  # nu2 - 1 is below one ulp, and V0 would divide by zero
            raise ValueError("large-bead shell thickness nu2 - 1 is out of the float range")
        est = nu2 - 1.0, Vstar / (1.0 - 1.0 / nu2) / eta, params.mu_inf + params.muR0 - params.muR1
    if not all(map(math.isfinite, est)):  # the estimate grows like 1/eta
        raise ValueError("large-bead estimate is out of the float range")
    return est
