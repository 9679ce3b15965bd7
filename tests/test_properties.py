"""Property tests of the solves over drawn chemistries.

Hypothesis draws G, b0, b1 and the drive mu_inf - muStar; each example
solves one table of 61 bead radii with solve_eta.  The drive runs from
1e-6 to 10, so with muR1 = 3 both signs of Vstarstar occur, and eta stops
at 1e6, where d/r0 still moves by many ulp of nu from one row to the next.
The small-bead rate tests solve three small eta per example, and the
large-bead limit test two large ones, at a drawn Vstarstar/Vstar.  The
rescaling test solves single states, with muR0 drawn as well.  The
transport test draws finite floats that favour the edges of the float range.
"""

import dataclasses
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from accrete.diffusion import SteadyProfiles  # noqa: E402
from accrete.mechanics import ShellGeometry  # noqa: E402
from accrete.strain_energy import NeoHookean  # noqa: E402
from accrete.treadmill import (  # noqa: E402
    ModelParams, NoTreadmillingState, NumericFailure, compute_scales, small_bead_asymptote,
    solve, solve_eta,
)
from test_treadmill import NONFINITE_STATES  # noqa: E402

ETAS = np.geomspace(1e-6, 1e6, 61)
EPS = 2.0**-52


def decades(lo, hi):
    return st.floats(lo, hi).map(lambda x: 10.0**x)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(G=decades(-1.0, 1.0), b0=decades(-1.0, 1.0), b1=decades(-1.0, 1.0), drive=decades(-6.0, 1.0))
def test_thickness_falls_and_speed_is_bounded(G, b0, b1, drive):
    p = ModelParams(
        energy=NeoHookean(G), b0=b0, b1=b1, muR0=0.0, muR1=3.0,
        mu_inf=3.0 * b0 / (b0 + b1) + drive, rhoR=1.0, M=1.0, r0=1.0,
    )
    s = compute_scales(p)
    table = solve_eta(p, ETAS)
    assert np.all(np.diff(table.nu - 1.0) < 0.0)
    ratio, lower = table.V0 / s.Vstar, s.Vstarstar / s.Vstar
    assert np.all(ratio >= lower - 4.0 * EPS * abs(lower))
    assert np.all(ratio <= 1.0 + 4.0 * EPS)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(G=decades(-1.0, 1.0), b0=decades(-1.0, 1.0), b1=decades(-1.0, 1.0), drive=decades(-3.0, 1.0))
def test_small_bead_thickness_converges_like_eta(G, b0, b1, drive):
    """u -> u* = nu* - 1 like eta: the error falls tenfold per decade of eta.

    A thin shell has w/wscale about k u**2 with k = 6 G/wscale, and u
    expands in powers of eta/sqrt(4 k D), D = 1 - Vstarstar/Vstar the
    dimensionless drive.  Over the drawn box that ratio is at most 0.6 at
    eta = 1e-2 (G = 0.1, drive = 1e-3, b0 << b1), where the rate over the
    first decade is still 7.4, and at most 0.06 from eta = 1e-3 on."""
    p = ModelParams(
        energy=NeoHookean(G), b0=b0, b1=b1, muR0=0.0, muR1=3.0,
        mu_inf=3.0 * b0 / (b0 + b1) + drive, rhoR=1.0, M=1.0, r0=1.0,
    )
    u_star = small_bead_asymptote(p)[0] - 1.0
    error = np.abs((solve_eta(p, np.array([1e-3, 1e-4, 1e-5])).nu - 1.0) / u_star - 1.0)
    assert (error[:-1] / error[1:]).tolist() == [pytest.approx(10.0, rel=0.05)] * 2


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(G=decades(-1.0, 1.0), b0=decades(-1.0, 1.0), b1=decades(-1.0, 1.0), drive=decades(-3.0, 1.0))
def test_small_bead_thickness_converges_like_eta_squared(G, b0, b1, drive):
    """u* + eta u1 -> u like eta**2, with u1 = -u* b1 Vstar/((1 + u*)
    dw(1 + u*)): the error falls a hundredfold per decade of eta.

    Over 3 000 uniform draws in the box (two seeds), the rates from eta =
    1e-3 were at most 4.7% off; from 1e-2 the first decade is still
    pre-asymptotic, up to 47% off.  The rate is lost where the error at
    1e-5 nears the rounding of u = nu - 1, half an ulp of 1 over u: at
    G = 9.75, b0 = 10, b1 = 0.1 and drive = 7.9e-3 it is 3.4e-14, about
    four such roundings, and the rate is 45% off.  The 50 derandomized
    draws here do not come near it."""
    p = ModelParams(
        energy=NeoHookean(G), b0=b0, b1=b1, muR0=0.0, muR1=3.0,
        mu_inf=3.0 * b0 / (b0 + b1) + drive, rhoR=1.0, M=1.0, r0=1.0,
    )
    u_star = small_bead_asymptote(p)[0] - 1.0
    u1 = -u_star * b1 * compute_scales(p).Vstar / ((1.0 + u_star) * p.energy.dw(1.0 + u_star))
    eta = np.array([1e-3, 1e-4, 1e-5])
    error = np.abs((u_star + eta * u1) / (solve_eta(p, eta).nu - 1.0) - 1.0)
    assert (error[:-1] / error[1:]).tolist() == [pytest.approx(100.0, rel=0.2)] * 2


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(G=decades(-1.0, 1.0), b0=decades(-1.0, 1.0), b1=decades(-1.0, 1.0), ratio=st.floats(0.1, 0.9))
def test_large_bead_thickness_tends_to_the_stiffness_free_limit(G, b0, b1, ratio):
    """eta u -> Vstar/Vstarstar - 1 with an error like 1/eta, whatever G,
    b0 and b1, for Vstarstar/Vstar = ratio > 0.

    The error is bounded, not its decade ratio: at G = 9.1, b0 = 6.7,
    b1 = 0.1 it reads 4.7e-3, 1.5e-5 and 6.4e-6 at eta = 1e4, 1e5 and 1e6.
    Over 3 000 draws the worst were 9.0e-5 and 9.0e-6, at ratio near 0.1."""
    p = ModelParams(
        energy=NeoHookean(G), b0=b0, b1=b1, muR0=0.0, muR1=3.0,
        mu_inf=3.0 - 3.0 * ratio * b1 / (b0 + b1), rhoR=1.0, M=1.0, r0=1.0,
    )
    s = compute_scales(p)
    eta = np.array([1e5, 1e6])
    error = np.abs(eta * (solve_eta(p, eta).nu - 1.0) / (s.Vstar / s.Vstarstar - 1.0) - 1.0)
    assert error[0] <= 2e-4
    assert error[1] <= 2e-5


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    G=decades(-1.0, 1.0), b0=decades(-1.0, 1.0), b1=decades(-1.0, 1.0),
    muR0=st.floats(-3.0, 3.0), gap=decades(-1.0, 1.0), drive=decades(-6.0, 1.0),
    eta=decades(-6.0, 6.0), k=st.integers(-40, 40), j=st.integers(-40, 40),
)
def test_matched_rescaling_is_bit_for_bit(G, b0, b1, muR0, gap, drive, eta, k, j):
    """Scaling muR0, muR1, mu_inf and G by 2**k, or r0 and M by 2**j, is
    exact in floating point, so the solve must be too: nu and d keep their
    bits under the first, nu under the second, and V0 and d scale exactly."""
    muR1 = muR0 + gap
    mu_inf = (b0 * muR1 + b1 * muR0) / (b0 + b1) + drive

    def state(c, m):
        return solve(ModelParams(
            energy=NeoHookean(G * c), b0=b0, b1=b1, muR0=muR0 * c, muR1=muR1 * c,
            mu_inf=mu_inf * c, rhoR=1.0, M=m, r0=eta * (b0 + b1) * m,
        ))

    base, chem, geom = state(1.0, 1.0), state(2.0**k, 1.0), state(1.0, 2.0**j)
    assert (chem.nu, chem.d, chem.V0) == (base.nu, base.d, base.V0 * 2.0**k)
    assert (geom.nu, geom.d) == (base.nu, base.d * 2.0**j)


BIG = 1.7976931348623157e308
EDGES = [5e-324, 2.0**-1074 * 3, 2.2250738585072014e-308, 1e-308, 1e-300, 1.0, 1e300, 1e308, BIG]
magnitudes = st.one_of(st.sampled_from(EDGES), st.floats(min_value=5e-324, max_value=BIG))
signed = st.one_of(magnitudes, magnitudes.map(lambda x: -x), st.sampled_from([0.0, -0.0]))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(V0=signed, mu0=signed, r0=magnitudes, r1=magnitudes, M_inner=magnitudes, rhoR=magnitudes,
       mu_inf=signed, t=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_profiles_are_finite_or_rejected(V0, mu0, r0, r1, M_inner, rhoR, mu_inf, t):
    """For finite inputs, SteadyProfiles either raises ValueError or gives a
    finite h and mu at every radius in [r0, 4 r1], float or array, and an
    array call makes numpy give no warning."""
    r0, r1 = min(r0, r1), max(r0, r1)
    try:
        p = SteadyProfiles(V0, mu0, ShellGeometry(r0, r1), M_inner, rhoR, mu_inf)
    except ValueError:
        return
    top = min(4.0 * r1, BIG)
    radii = [r0, r1, top, *(min(r0 + x * (top - r0), top) for x in t)]
    for r in radii:
        for side in ("below", "above"):
            assert np.isfinite(p.h(r, side=side)), (r, side)
        assert np.isfinite(p.mu(r)), r
    # an accepted profile computes nothing that overflows at any radius, so
    # numpy has no warning to give
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for side in ("below", "above"):
            assert np.isfinite(p.h(np.array(radii), side=side)).all()
        assert np.isfinite(p.mu(np.array(radii))).all()


def decades_or(lo, hi, *edges):
    """10**x for x in [-2, 2] or in [lo, hi], or one of the edges."""
    return st.one_of(decades(-2.0, 2.0), decades(lo, hi), st.sampled_from(edges))


@st.composite
def float_range_corner(draw):
    """Solvable chemistries, most of them, with the bead radius, b1 and the
    mobility drawn often near the ends of the float range, and the others
    over many decades."""
    b0, b1 = draw(decades_or(-300.0, 300.0, 1e200)), draw(decades_or(-300.0, -200.0, 1e-300))
    muR0 = draw(st.sampled_from([1.0, -1.0])) * draw(st.one_of(st.just(0.0), decades(-12.0, 200.0)))
    muR1 = muR0 + draw(decades_or(-12.0, 200.0, 1e-12))
    muStar = (b0 * muR1 + b1 * muR0) / (b0 + b1)
    return ModelParams(
        energy=NeoHookean(draw(decades_or(-12.0, 12.0, 1e308))), b0=b0, b1=b1, muR0=muR0,
        muR1=muR1, mu_inf=muStar + draw(decades_or(-12.0, 2.0, 1e-12)) * (muR1 - muR0),
        rhoR=draw(decades_or(-150.0, 150.0, 1e-12, 1e-6)), M=draw(decades_or(-323.0, -250.0, 5e-324)),
        r0=draw(decades_or(-3.0, 308.25, 1e308, 1.7e308, BIG)),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(params=float_range_corner())
@example(params=NONFINITE_STATES["r1-overflows"])
@example(params=NONFINITE_STATES["mu0-overflows"])
def test_solved_state_is_finite_or_raised(params):
    """solve and solve_eta, on one row and on a short table, either return
    a state whose every field is finite or raise NumericFailure,
    ValueError or NoTreadmillingState."""
    try:
        eta = compute_scales(params).eta
    except ValueError:
        eta = 1.0  # the solves raise the same ValueError
    solves = (lambda: solve(params), lambda: solve_eta(params, np.array([eta])),
              lambda: solve_eta(params, np.array([0.5 * eta, eta, 2.0 * eta])))
    for solve_one in solves:
        try:
            state = solve_one()
        except (NumericFailure, ValueError, NoTreadmillingState):
            continue
        assert np.all(np.isfinite(dataclasses.astuple(state))), state
