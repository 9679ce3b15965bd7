"""Tests for the steady free-particle transport fields around the shell.

The reference configuration used below is chosen with dyadic numbers so the
hand-derived values are exact: r0 = 1, r1 = 2, V0 = 1, V1 = -0.5, unit
mobilities and reference density, far-field potential mu_inf = 1.  Matching
the outer solution at r1 gives mu(r1) = 0.75 and hence mu0 = 0.25.
"""

import types

import numpy as np
import pytest

from accrete.diffusion import SteadyProfiles, interface_residuals


def make_reference():
    return SteadyProfiles(V0=1.0, V1=-0.5, mu0=0.25, r0=1.0, r1=2.0,
                          M_inner=1.0, M_outer=1.0, rhoR=1.0, mu_inf=1.0)


def test_transport_params_validation():
    base = dict(V0=1.0, V1=0.0, mu0=0.0, r0=1.0, r1=2.0,
                M_inner=1.0, M_outer=1.0, rhoR=1.0, mu_inf=0.0)
    for name, value in (("M_inner", 0.0), ("rhoR", -2.0), ("M_outer", 0.0)):
        with pytest.raises(ValueError, match=f"^{name} must be positive$"):
            SteadyProfiles(**{**base, name: value})


def test_profiles_validation():
    for r1, message in ((1.0, "^r1 must not be below r0$"), (np.nan, "^r1 must not be below r0$"),
                        (np.inf, "^r1 must be finite$")):
        with pytest.raises(ValueError, match=message):
            SteadyProfiles(V0=1.0, V1=0.0, mu0=0.0, r0=2.0, r1=r1,
                           M_inner=1.0, M_outer=1.0, rhoR=1.0, mu_inf=0.0)


def test_flux_frozen_values():
    p = make_reference()
    assert p.h(1.0) == -1.0
    assert p.h(1.5) == pytest.approx(-4.0 / 9.0, rel=1e-15)
    assert p.h(2.0, side="below") == -0.25
    assert p.h(2.0, side="above") == -0.125
    assert p.h(4.0) == -0.03125


def test_flux_jump_at_ablation_front():
    # the jump equals -(r0/r1)**2 rhoR V1
    p = make_reference()
    below = p.h(2.0, side="below")
    above = p.h(2.0, side="above")
    assert above - below == 0.125


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
    assert np.ptp(q_out) <= 1e-12 * abs(q_out[0])


def test_potential_frozen_values():
    p = make_reference()
    # inner branch: mu0 + (1 - r0/r); outer branch: mu_inf - 0.5 r0**2 / r
    assert p.mu(1.0) == 0.25
    assert p.mu(1.5) == pytest.approx(0.25 + 1.0 / 3.0, rel=1e-15)
    assert p.mu(2.0) == 0.75
    assert p.mu(4.0) == 0.875
    assert p.mu(1e9) == pytest.approx(1.0, rel=1e-9)


def test_potential_is_continuous_at_r1():
    p = make_reference()
    eps = 1e-10
    gap = p.mu(2.0) - p.mu(2.0 - eps)
    assert abs(gap) <= 1e-9


def test_potential_monotone_toward_far_field():
    p = make_reference()
    r = np.linspace(1.0, 20.0, 200)
    mu = np.array([p.mu(ri) for ri in r])
    assert np.all(np.diff(mu) > 0.0)


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
    state = types.SimpleNamespace(V0=1.0, V1=-0.5, mu0=0.25, mu1=0.75, r1=2.0)
    res0, res1 = interface_residuals(state, make_reference())
    assert res0 == 0.0
    assert res1 == 0.0


def test_interface_residuals_linear_in_mu0():
    base = types.SimpleNamespace(V0=1.0, V1=-0.5, mu0=0.25, mu1=0.75, r1=2.0)
    delta = 1e-3
    bumped = types.SimpleNamespace(V0=1.0, V1=-0.5, mu0=0.25 + delta, mu1=0.75, r1=2.0)
    res_base, _ = interface_residuals(base, make_reference())
    res_bump, _ = interface_residuals(bumped, make_reference())
    # shifting mu0 changes the accretion-side mismatch by M delta r1 / ((r1-r0) r0)
    assert res_bump - res_base == pytest.approx(delta * 2.0, rel=1e-9)


def test_interface_residuals_geometry_check():
    for r1 in (0.5, np.nan):
        state = types.SimpleNamespace(V0=1.0, V1=-0.5, mu0=0.25, mu1=0.75, r1=r1)
        with pytest.raises(ValueError, match=r"^interface residuals need r1 > r0$"):
            interface_residuals(state, make_reference())


def test_treadmilling_outer_region_is_quiescent():
    """With V1 = -V0 the outside sees no flux and a flat potential."""
    p = SteadyProfiles(V0=2.0, V1=-2.0, mu0=1.0, r0=1.0, r1=1.75,
                       M_inner=2.0, M_outer=0.5, rhoR=1.5, mu_inf=3.25)
    for r in (1.75, 2.0, 5.0, 40.0):
        h = p.h(r, side="above") if r == 1.75 else p.h(r)
        assert h == 0.0
        assert str(h) == "0.0"  # not -0.0: the printed value must carry no sign
        assert p.mu(r) == 3.25


def test_array_fields_match_scalar_calls():
    rng = np.random.default_rng(3)
    for _ in range(20):
        r0 = rng.uniform(0.2, 3.0)
        r1 = r0 * rng.uniform(1.0, 4.0)
        V0 = rng.uniform(0.1, 3.0)
        V1 = -V0 if rng.uniform() < 0.5 else rng.uniform(-3.0, 0.0)
        M_inner, M_outer, rhoR = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
        p = SteadyProfiles(V0=V0, V1=V1, mu0=rng.uniform(-1.0, 1.0), r0=r0, r1=r1,
                           M_inner=M_inner, M_outer=M_outer, rhoR=rhoR, mu_inf=1.5)
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
    assert p.h(r, side="below").tolist() == [-1.0, -4.0 / 9.0, -0.25, -0.03125]
    assert p.h(r, side="above").tolist() == [-1.0, -4.0 / 9.0, -0.125, -0.03125]
    # side is needed only when r1 itself is in the array
    with pytest.raises(ValueError):
        p.h(r)
    with pytest.raises(ValueError):
        p.h(r, side="sideways")
    assert p.h(np.array([1.0, 3.0])).tolist() == [-1.0, -0.5 / 9.0]
    with pytest.raises(ValueError):
        p.h(np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        p.mu(np.array([0.5, 1.0]))
    # treadmilling: the outside flux is +0.0, never -0.0
    q = SteadyProfiles(V0=2.0, V1=-2.0, mu0=1.0, r0=1.0, r1=1.75,
                       M_inner=2.0, M_outer=0.5, rhoR=1.5, mu_inf=3.25)
    h = q.h(np.array([1.75, 2.0, 40.0]), side="above")
    assert h.tolist() == [0.0, 0.0, 0.0]
    assert not np.signbit(h).any()
    assert q.mu(np.array([1.75, 2.0, 40.0])).tolist() == [3.25, 3.25, 3.25]
