"""Tests for the steady free-particle transport fields around the shell.

The reference configuration used below is a treadmilling state chosen with
dyadic numbers so the hand-derived values are exact: r0 = 1, r1 = 2,
V0 = 1 (so V1 = -1), unit mobility and reference density, far-field
potential mu_inf = 1.  The outside is quiescent, so mu(r1) = mu_inf = 1,
and the inside solution mu0 + (1 - r0/r) meets it at r1 for mu0 = 0.5.
"""

import types
import warnings

import numpy as np
import pytest

from accrete.diffusion import SteadyProfiles, interface_residuals
from accrete.mechanics import ShellGeometry


def make_reference():
    return SteadyProfiles(V0=1.0, mu0=0.5, geom=ShellGeometry(1.0, 2.0),
                          M_inner=1.0, rhoR=1.0, mu_inf=1.0)


# the solved state of make_reference
REFERENCE_STATE = types.SimpleNamespace(V0=1.0, V1=-1.0, mu0=0.5, mu1=1.0, r1=2.0)


def test_transport_params_validation():
    base = dict(V0=1.0, mu0=0.0, geom=ShellGeometry(1.0, 2.0), M_inner=1.0, rhoR=1.0, mu_inf=0.0)
    for name, value in (("M_inner", 0.0), ("rhoR", -2.0), ("M_inner", np.nan)):
        with pytest.raises(ValueError, match=f"^{name} must be positive$"):
            SteadyProfiles(**{**base, name: value})


def test_profiles_reject_a_non_finite_flux_or_potential():
    overflow = "^h or mu is not finite at some r >= r0$"
    unit = ShellGeometry(1.0, 2.0)
    for args in (
        (1e308, 0.0, unit, 1e-300, 1e10, 0.0),  # rhoR V0 and rhoR r0 V0 / M_inner overflow
        (1e300, 0.0, ShellGeometry(1e-300, 1e-299), 1.0, 1e10, 0.0),  # only rhoR V0 does
        (1e299, 1e299, ShellGeometry(1e10, 2e10), 1.0, 1.0, 9e299),  # only mu's inside limit does
        (1e308, 1.7e308, unit, 1.0, 1.0, 0.0),  # mu0 + (rhoR r0 V0 / M_inner) / 2 does
        (np.nan, 0.0, unit, 1.0, 1.0, 0.0),
        (1.0, np.inf, unit, 1.0, 1.0, 0.0),
        (1.0, 0.5, unit, 1.0, 1.0, -np.inf),
    ):
        with pytest.raises(ValueError, match=overflow):
            SteadyProfiles(*args)
    # with r1 == r0 no radius is inside, so only the flux at r0 counts
    p = SteadyProfiles(1e10, 0.0, ShellGeometry(1e300, 1e300), 1e-300, 1.0, 1.0)
    assert (p.h(1e300, side="below"), p.h(1e300, side="above"), p.mu(1e300)) == (-1e10, 0.0, 1.0)
    # the extreme finite values are accepted where no field overflows
    p = SteadyProfiles(1e308, -1.7e308, ShellGeometry(1.0, 2.0), 1.0, 1.0, 1.7e308)
    assert p.mu(1.5) == -1.7e308 + 1e308 * (1.0 - 1.0 / 1.5)


def test_profiles_validation():
    # the profiles take the shell's r0 and r1 from a ShellGeometry, whose
    # checks they do not repeat; the geometry is rejected as it is built
    for r1, message in ((1.0, "^outer radius r1 must not be below r0$"),
                        (np.nan, "^outer radius r1 must not be below r0$"),
                        (np.inf, "^outer radius r1 must be finite$")):
        with pytest.raises(ValueError, match=message):
            SteadyProfiles(V0=1.0, mu0=0.0, geom=ShellGeometry(2.0, r1),
                           M_inner=1.0, rhoR=1.0, mu_inf=0.0)
    assert list(SteadyProfiles._fields) == [
        "V0", "mu0", "geom", "M_inner", "rhoR", "mu_inf"]


def test_flux_frozen_values():
    p = make_reference()
    assert p.h(1.0) == -1.0
    assert p.h(1.5) == pytest.approx(-4.0 / 9.0, rel=1e-15)
    assert p.h(2.0, side="below") == -0.25
    for h in (p.h(2.0, side="above"), p.h(4.0)):
        assert h == 0.0 and str(h) == "0.0"


def test_flux_jump_at_ablation_front():
    # the jump equals -(r0/r1)**2 rhoR V1 = (r0/r1)**2 rhoR V0
    p = make_reference()
    below = p.h(2.0, side="below")
    above = p.h(2.0, side="above")
    assert above - below == 0.25


def test_flux_requires_side_only_at_r1():
    p = make_reference()
    with pytest.raises(ValueError):
        p.h(2.0)
    with pytest.raises(ValueError):
        p.h(2.0, side="sideways")
    for r in (0.5, np.nan, np.array([1.5, np.nan])):
        with pytest.raises(ValueError, match="^r < r0: no flux defined inside the bead$"):
            p.h(r)


def test_flux_conserves_particles_piecewise():
    p = make_reference()
    inner = np.linspace(1.0, 2.0, 30, endpoint=False)
    q_in = np.array([r * r * p.h(r) for r in inner])
    assert np.ptp(q_in) <= 1e-12
    outer = np.linspace(2.0 + 1e-9, 10.0, 30)
    q_out = np.array([r * r * p.h(r) for r in outer])
    assert np.all(q_out == 0.0)


def test_potential_frozen_values():
    p = make_reference()
    # inner branch: mu0 + (1 - r0/r); outside: mu_inf
    assert p.mu(1.0) == 0.5
    assert p.mu(1.5) == pytest.approx(0.5 + 1.0 / 3.0, rel=1e-15)
    assert p.mu(2.0) == 1.0
    assert p.mu(4.0) == 1.0
    assert p.mu(1e9) == 1.0


def test_potential_evaluates_the_inside_formula_only_inside():
    # flat: rhoR r0 V0 / M_inner overflows, and the inside formula would
    # multiply it by 1 - r0/r = 0 at r0 == r1.  thin: the inside formula
    # overflows past r1.  mu computes it at no radius outside the shell, so
    # numpy has nothing to warn about.
    flat = SteadyProfiles(1e308, 0.0, ShellGeometry(1.0, 1.0), 1e-300, 1.0, 0.0)
    thin = SteadyProfiles(1e308, 1e308, ShellGeometry(1.0, 1.0 + 2.0**-52), 1.0, 1.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert flat.mu(np.array([1.0, 2.0])).tolist() == [0.0, 0.0]
        assert flat.mu(np.array(1.0)) == flat.mu(1.0) == 0.0
        assert thin.mu(np.array([1.0, 2.0, 1e300])).tolist() == [1e308, 2.0, 2.0]


def test_potential_is_continuous_at_r1():
    p = make_reference()
    eps = 1e-10
    gap = p.mu(2.0) - p.mu(2.0 - eps)
    assert abs(gap) <= 1e-9


def test_potential_monotone_toward_far_field():
    p = make_reference()
    r = np.linspace(1.0, 20.0, 200)
    mu = np.array([p.mu(ri) for ri in r])
    inside = r < 2.0
    assert np.all(np.diff(mu[inside]) > 0.0)
    assert np.all(mu[inside] < 1.0) and np.all(mu[~inside] == 1.0)


def test_potential_domain():
    p = make_reference()
    for r in (0.5, np.nan, np.array([1.5, np.nan])):
        with pytest.raises(ValueError, match="^r < r0: no potential defined inside the bead$"):
            p.mu(r)


def test_flux_is_fickian():
    """h = -M dmu/dr on both sides of the ablation front."""
    p = make_reference()
    for r in (1.3, 1.8, 3.0, 7.0):  # mobilities are 1 on both sides here
        s = 1e-6 * r
        grad = (p.mu(r + s) - p.mu(r - s)) / (2 * s)
        assert p.h(r) == pytest.approx(-grad, rel=1e-8)


def test_interface_residuals_vanish_for_consistent_state():
    p = make_reference()
    res = interface_residuals(REFERENCE_STATE, p)
    assert type(res) is float and res == 0.0
    assert p.mu(2.0) == REFERENCE_STATE.mu1  # the profiles' mu at r1


def test_interface_residuals_linear_in_mu0():
    base = REFERENCE_STATE
    delta = 1e-3
    bumped = types.SimpleNamespace(**{**vars(base), "mu0": base.mu0 + delta})
    res_base = interface_residuals(base, make_reference())
    res_bump = interface_residuals(bumped, make_reference())
    # shifting mu0 changes the accretion-side mismatch by M delta r1 / ((r1-r0) r0)
    assert res_bump - res_base == pytest.approx(delta * 2.0, rel=1e-9)


def test_interface_residuals_geometry_check():
    for r1 in (0.5, np.nan):
        state = types.SimpleNamespace(**{**vars(REFERENCE_STATE), "r1": r1})
        with pytest.raises(ValueError, match=r"^interface residuals need r1 > r0$"):
            interface_residuals(state, make_reference())


def test_treadmilling_outer_region_is_quiescent():
    """With V1 = -V0 the outside sees no flux and a flat potential; with
    V0 = 0.0 the inside sees no flux either."""
    for V0 in (2.0, 0.0):
        p = SteadyProfiles(V0=V0, mu0=1.0, geom=ShellGeometry(1.0, 1.75),
                           M_inner=2.0, rhoR=1.5, mu_inf=3.25)
        for r in (1.75, 2.0, 5.0, 40.0):
            h = p.h(r, side="above") if r == 1.75 else p.h(r)
            assert h == 0.0
            assert str(h) == "0.0"  # not -0.0: the printed value must carry no sign
            assert p.mu(r) == 3.25
        outside = p.h(np.array([1.75, 2.0, 40.0]), side="above")
        assert outside.tolist() == [0.0, 0.0, 0.0] and not np.signbit(outside).any()
    # -rhoR V0 (r0/r)**2 is -0.0 inside for V0 = 0.0; h gives +0.0 there too
    zero = SteadyProfiles(V0=0.0, mu0=1.0, geom=ShellGeometry(1.0, 1.75),
                          M_inner=2.0, rhoR=1.5, mu_inf=3.25)
    for r in (1.0, 1.5, 1.75):
        h = zero.h(r, side="below")
        assert h == 0.0 and str(h) == "0.0"
    inside = zero.h(np.array([1.0, 1.5, 1.75]), side="below")
    assert inside.tolist() == [0.0, 0.0, 0.0] and not np.signbit(inside).any()


def test_array_fields_match_scalar_calls():
    rng = np.random.default_rng(3)
    for _ in range(20):
        r0 = rng.uniform(0.2, 3.0)
        r1 = r0 * rng.uniform(1.0, 4.0)
        V0 = rng.uniform(0.1, 3.0)
        M_inner, rhoR = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
        p = SteadyProfiles(V0=V0, mu0=rng.uniform(-1.0, 1.0), geom=ShellGeometry(r0, r1),
                           M_inner=M_inner, rhoR=rhoR, mu_inf=1.5)
        r = np.concatenate([np.linspace(r0, r1, 50), r1 * rng.uniform(1.0, 5.0, 20)])
        for side in ("below", "above"):
            h = p.h(r, side=side)
            assert isinstance(h, np.ndarray) and h.shape == r.shape
            for ri, hi in zip(r.tolist(), h.tolist()):
                scalar = p.h(ri, side=side)
                assert type(scalar) is float
                assert hi == scalar
                assert str(hi) == str(scalar)  # same sign of zero
        mu = p.mu(r)
        assert isinstance(mu, np.ndarray) and mu.shape == r.shape
        for ri, mi in zip(r.tolist(), mu.tolist()):
            scalar = p.mu(ri)
            assert type(scalar) is float
            assert mi == scalar


def test_array_flux_side_rule_and_zero():
    p = make_reference()
    r = np.array([1.0, 1.5, 2.0, 4.0])
    assert p.h(r, side="below").tolist() == [-1.0, -4.0 / 9.0, -0.25, 0.0]
    assert p.h(r, side="above").tolist() == [-1.0, -4.0 / 9.0, 0.0, 0.0]
    assert not np.signbit(p.h(r, side="above")[2:]).any()
    # side is needed only when r1 itself is in the array
    with pytest.raises(ValueError):
        p.h(r)
    with pytest.raises(ValueError):
        p.h(r, side="sideways")
    assert p.h(np.array([1.0, 3.0])).tolist() == [-1.0, 0.0]
    with pytest.raises(ValueError):
        p.h(np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        p.mu(np.array([0.5, 1.0]))
    assert p.mu(r).tolist() == [0.5, p.mu(1.5), 1.0, 1.0]

