"""Tests for kinematics and stress fields in the growing spherical shell."""

import numpy as np
import pytest

from accrete.mechanics import (
    FieldSample,
    ShellGeometry,
    equilibrium_residual,
    hoop_stress,
    outer_radius_rate,
    radial_stress,
    radius_of_particle,
    stress_profile,
    stretches,
    velocity,
)
from accrete.strain_energy import NeoHookean


def test_geometry_validation():
    g = ShellGeometry(1.0, 2.5)
    assert g.nu == 2.5
    with pytest.raises(ValueError):
        ShellGeometry(0.0, 1.0)
    for r0, r1 in ((2.0, 1.0), (1.0, np.nan)):
        with pytest.raises(ValueError, match="^outer radius r1 must not be below r0$"):
            ShellGeometry(r0, r1)


def test_radius_of_particle_frozen_values():
    # r**3 = r0**3 + 3 r0**2 (Z - Z0)
    assert radius_of_particle(0.0, 0.0, 1.0) == 1.0
    assert radius_of_particle(7.0 / 3.0, 0.0, 1.0) == pytest.approx(2.0, rel=1e-14)
    r = radius_of_particle(1.0, 0.0, 2.0)
    assert r**3 == pytest.approx(20.0, rel=1e-13)
    assert r == pytest.approx(2.7144, abs=1e-3)


def test_radius_of_particle_is_numpy_cbrt_bit_for_bit():
    # math.cbrt (Python 3.11+) differs from np.cbrt in the last bit on about
    # half of these draws, so this pins the cube root, not just the formula.
    rng = np.random.default_rng(20261018)
    r0 = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 5000)).tolist()
    Z0 = rng.uniform(-10.0, 10.0, 5000).tolist()
    dZ = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), 5000)).tolist()
    for r, z0, dz in zip(r0, Z0, dZ):
        Z = z0 + dz
        expected = float(np.cbrt(r**3 + 3.0 * r**2 * (Z - z0)))
        assert radius_of_particle(Z, z0, r).hex() == expected.hex()


def test_radius_of_particle_rejects_bad_input():
    with pytest.raises(ValueError):
        radius_of_particle(1.0, 0.0, -1.0)
    for Z, Z0 in ((-0.5, 0.0), (np.nan, 0.0), (1.0, np.nan)):
        with pytest.raises(ValueError, match="^Z < Z0: particle is not in the body$"):
            radius_of_particle(Z, Z0, 1.0)
    with pytest.raises(ValueError, match="radius_of_particle takes one particle$"):
        radius_of_particle(np.array([1.0, 2.0]), 0.0, 1.0)


def test_radius_is_increasing_in_deposited_volume():
    Z = np.linspace(0.0, 10.0, 50)
    r = np.array([radius_of_particle(z, 0.0, 1.3) for z in Z])
    assert np.all(np.diff(r) > 0.0)


def test_stretches_frozen_values():
    lam_r, lam_t = stretches(3.0, 2.0)
    assert lam_r == pytest.approx(4.0 / 9.0, rel=1e-15)
    assert lam_t == 1.5
    assert stretches(2.0, 2.0) == (1.0, 1.0)


def test_stretches_domain():
    for r in (1.5, np.nan):
        with pytest.raises(ValueError, match="^r < r0: point is inside the bead$"):
            stretches(r, 2.0)


def test_incompressibility_everywhere():
    rng = np.random.default_rng(7)
    for _ in range(100):
        r0 = rng.uniform(0.3, 3.0)
        r = r0 * rng.uniform(1.0, 5.0)
        lam_r, lam_t = stretches(r, r0)
        assert abs(lam_r * lam_t**2 - 1.0) <= 1e-12


def test_velocity_conserves_volume_flux():
    r0, V0 = 1.7, 2.2
    r = np.linspace(r0, 8.0, 60)
    q = np.array([ri**2 * velocity(ri, V0, r0) for ri in r])
    assert np.ptp(q) <= 1e-12 * abs(q[0])
    assert velocity(r0, V0, r0) == V0


def test_radial_stress_boundary_values():
    geom = ShellGeometry(1.0, 2.0)
    e = NeoHookean(1.0)
    # zero at the ablation surface, -w(nu) at the bead: both exact here
    assert radial_stress(2.0, geom, e) == 0.0
    assert radial_stress(1.0, geom, e) == -2.53125


def test_radial_stress_is_compressive_inside():
    geom = ShellGeometry(0.5, 1.9)
    e = NeoHookean(3.0)
    r = np.linspace(geom.r0, geom.r1, 40)
    s = np.array([radial_stress(ri, geom, e) for ri in r])
    assert np.all(s[:-1] < 0.0)
    assert s[-1] == 0.0
    assert np.all(np.diff(s) > 0.0)


def test_radial_stress_domain():
    geom = ShellGeometry(1.0, 2.0)
    e = NeoHookean(1.0)
    for r in (0.5, 2.5, np.nan):
        for stress in (radial_stress, hoop_stress):
            with pytest.raises(ValueError, match=r"^r outside the shell \[r0, r1\]$"):
                stress(r, geom, e)


def test_hoop_stress_frozen_value():
    # at the outer surface sigma_theta = (nu/2) dw(nu); for nu = 2, G = 1
    # that is 0.5 * 2 * 3.9375 = 3.9375
    geom = ShellGeometry(1.0, 2.0)
    assert hoop_stress(2.0, geom, NeoHookean(1.0)) == 3.9375


def test_stress_state_is_hydrostatic_at_bead():
    # dw(1) = 0, so the deviatoric part vanishes exactly at r = r0
    geom = ShellGeometry(1.2, 3.1)
    e = NeoHookean(0.8)
    assert hoop_stress(geom.r0, geom, e) == radial_stress(geom.r0, geom, e)


def test_hoop_stress_changes_sign_once():
    geom = ShellGeometry(1.0, 2.0)
    e = NeoHookean(1.0)
    s = stress_profile(geom, e, 101).sigma_theta
    flips = np.count_nonzero(s[:-1] * s[1:] < 0.0)
    assert s[0] < 0.0 < s[-1]
    assert flips == 1


def test_stress_profile_samples():
    geom = ShellGeometry(1.0, 2.0)
    e = NeoHookean(1.0)
    prof = stress_profile(geom, e, 11, V0=3.0)
    assert isinstance(prof, FieldSample)
    for field in (prof.r, prof.lam_r, prof.lam_theta, prof.sigma_r, prof.sigma_theta, prof.v):
        assert isinstance(field, np.ndarray)
        assert field.dtype == np.float64 and field.shape == (11,)
    assert prof.r[0] == 1.0 and prof.r[-1] == 2.0
    assert prof.sigma_r[-1] == 0.0
    assert prof.v[0] == 3.0
    # velocity decays as (r0/r)**2
    assert prof.v[-1] == pytest.approx(0.75, rel=1e-15)
    no_vel = stress_profile(geom, e, 5)
    assert no_vel.v is None


def test_profile_consistent_with_pointwise_evaluations():
    geom = ShellGeometry(0.7, 1.6)
    e = NeoHookean(2.3)
    prof = stress_profile(geom, e, 17)
    for i, r in enumerate(prof.r.tolist()):
        assert prof.sigma_r[i] == pytest.approx(radial_stress(r, geom, e), abs=1e-14)
        assert prof.sigma_theta[i] == pytest.approx(hoop_stress(r, geom, e), abs=1e-14)
        lam_r, lam_t = stretches(r, geom.r0)
        assert prof.lam_r[i] == lam_r and prof.lam_theta[i] == lam_t


def test_profile_arrays_match_scalar_fields():
    # the array path and the scalar functions share their formulas: the
    # stretches and the velocity agree exactly, the stresses to rounding
    rng = np.random.default_rng(5)
    eps = np.finfo(float).eps
    for _ in range(30):
        r0 = rng.uniform(0.2, 3.0)
        geom = ShellGeometry(r0, r0 * rng.uniform(1.0, 4.0))
        e = NeoHookean(rng.uniform(0.2, 5.0))
        V0 = rng.uniform(-2.0, 2.0)
        prof = stress_profile(geom, e, int(rng.integers(2, 300)), V0=V0)
        scale = 16.0 * eps * max(1.0, float(np.max(np.abs(prof.sigma_theta))))
        assert prof.sigma_r[-1] == 0.0
        for i, r in enumerate(prof.r.tolist()):
            assert abs(prof.sigma_r[i] - radial_stress(r, geom, e)) <= scale
            assert abs(prof.sigma_theta[i] - hoop_stress(r, geom, e)) <= scale
            assert (prof.lam_r[i], prof.lam_theta[i]) == stretches(r, geom.r0)
            assert prof.v[i] == velocity(r, V0, geom.r0)


def test_equilibrium_residual_second_order():
    geom = ShellGeometry(1.0, 2.0)
    e = NeoHookean(1.0)
    res_a = equilibrium_residual(geom, e, 101)
    res_b = equilibrium_residual(geom, e, 201)
    assert res_a > 0.0
    assert 3.5 <= res_a / res_b <= 4.5


def test_equilibrium_residual_degenerate_shell():
    geom = ShellGeometry(1.0, 1.0)
    assert equilibrium_residual(geom, NeoHookean(1.0), 51) == 0.0


def test_outer_radius_rate():
    geom = ShellGeometry(1.0, 2.0)
    assert outer_radius_rate(geom, 3.0, -1.0) == 0.5
    # treadmilling: ablation exactly cancels accretion
    assert outer_radius_rate(geom, 3.0, -3.0) == 0.0


def test_stress_scales_linearly_with_modulus():
    geom = ShellGeometry(1.0, 1.8)
    e1, e2 = NeoHookean(1.1), NeoHookean(2.2)
    for r in np.linspace(1.0, 1.8, 7):
        assert radial_stress(r, geom, e2) == 2.0 * radial_stress(r, geom, e1)
        assert hoop_stress(r, geom, e2) == 2.0 * hoop_stress(r, geom, e1)


def test_bead_pressure_matches_energy_at_outer_stretch():
    rng = np.random.default_rng(11)
    for _ in range(25):
        r0 = rng.uniform(0.4, 2.0)
        nu = rng.uniform(1.01, 3.5)
        G = rng.uniform(0.2, 5.0)
        geom = ShellGeometry(r0, nu * r0)
        e = NeoHookean(G)
        p_bead = -radial_stress(r0, geom, e)
        assert p_bead == pytest.approx(float(e.w(geom.nu)), rel=1e-12)
