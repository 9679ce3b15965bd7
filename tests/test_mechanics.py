"""Tests for kinematics and stress fields in the growing spherical shell."""

import dataclasses

import numpy as np
import pytest

from accrete.mechanics import (
    FieldSample,
    ShellGeometry,
    fields_at,
    radius_of_particle,
    stress_profile,
)
from accrete.strain_energy import NeoHookean


def equilibrium_residual(geom, energy, n):
    """Discrete check of the radial equilibrium equation.

    Returns max over interior grid points of
    |centered-difference(sigma_r)/dr - 2 (sigma_theta - sigma_r)/r| on a
    uniform n-point grid.  The closed-form stress satisfies
    d sigma_r/dr = 2 (sigma_theta - sigma_r)/r exactly, so the residual is
    pure truncation error and shrinks as O(dr**2).
    """
    if geom.r1 == geom.r0:
        return 0.0
    f = stress_profile(geom, energy, n)
    dr = (geom.r1 - geom.r0) / (n - 1)
    dsig = (f.sigma_r[2:] - f.sigma_r[:-2]) / (2.0 * dr)
    target = 2.0 * (f.sigma_theta[1:-1] - f.sigma_r[1:-1]) / f.r[1:-1]
    return float(np.max(np.abs(dsig - target)))


def outer_radius_rate(geom, V0, V1):
    """Growth rate of the outer radius from volume conservation.

    r1**2 rdot1 = r0**2 (V0 + V1); treadmilling (V1 = -V0) gives zero.
    """
    return geom.r0**2 * (V0 + V1) / geom.r1**2


def test_geometry_validation():
    g = ShellGeometry(1.0, 2.5)
    assert g.nu == 2.5
    with pytest.raises(ValueError):
        ShellGeometry(0.0, 1.0)
    for r0, r1 in ((2.0, 1.0), (1.0, np.nan)):
        with pytest.raises(ValueError, match="^outer radius r1 must not be below r0$"):
            ShellGeometry(r0, r1)
    for r0 in (1.0, np.inf):
        with pytest.raises(ValueError, match="^outer radius r1 must be finite$"):
            ShellGeometry(r0, np.inf)
    with pytest.raises(ValueError, match="^radius ratio r1/r0 is out of the float range$"):
        ShellGeometry(5e-324, 1.0)


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
    # an infinite coordinate, an overflowing sum, an overflowing r0**3
    for Z, Z0, r0 in ((np.inf, 0.0, 1.0), (1e308, 0.0, 1.0), (1.0, 0.0, 1e200), (np.inf, np.inf, 1.0)):
        with pytest.raises(ValueError, match=r"\(Z - Z0\) is out of the float range$"):
            radius_of_particle(Z, Z0, r0)


def test_radius_is_increasing_in_deposited_volume():
    Z = np.linspace(0.0, 10.0, 50)
    r = np.array([radius_of_particle(z, 0.0, 1.3) for z in Z])
    assert np.all(np.diff(r) > 0.0)


def test_stretches_frozen_values():
    geom, e = ShellGeometry(2.0, 3.0), NeoHookean(1.0)
    f = fields_at(3.0, geom, e)
    assert f.lam_r == pytest.approx(4.0 / 9.0, rel=1e-15)
    assert f.lam_theta == 1.5
    # a float radius gives Python floats, as the CLI's float rows need
    assert all(type(x) is float for x in (f.r, f.lam_r, f.lam_theta, f.sigma_r, f.sigma_theta))
    f = fields_at(2.0, geom, e)
    assert (f.lam_r, f.lam_theta) == (1.0, 1.0)


def test_incompressibility_everywhere():
    rng = np.random.default_rng(7)
    e = NeoHookean(1.0)
    for _ in range(100):
        r0 = rng.uniform(0.3, 3.0)
        r = r0 * rng.uniform(1.0, 5.0)
        f = fields_at(r, ShellGeometry(r0, r), e)
        assert abs(f.lam_r * f.lam_theta**2 - 1.0) <= 1e-12


def test_velocity_conserves_volume_flux():
    # the velocity is V0 lam_r, so r**2 lam_r is constant and lam_r is 1 at r0
    r0 = 1.7
    geom, e = ShellGeometry(r0, 8.0), NeoHookean(1.0)
    r = np.linspace(r0, 8.0, 60)
    q = np.array([ri**2 * fields_at(ri, geom, e).lam_r for ri in r])
    assert np.ptp(q) <= 1e-12 * abs(q[0])
    assert fields_at(r0, geom, e).lam_r == 1.0


def test_radial_stress_boundary_values():
    geom = ShellGeometry(1.0, 2.0)
    e = NeoHookean(1.0)
    # zero at the ablation surface, -w(nu) at the bead: both exact here
    assert fields_at(2.0, geom, e).sigma_r == 0.0
    assert fields_at(1.0, geom, e).sigma_r == -2.53125


def test_radial_stress_is_compressive_inside():
    geom = ShellGeometry(0.5, 1.9)
    e = NeoHookean(3.0)
    r = np.linspace(geom.r0, geom.r1, 40)
    s = np.array([fields_at(ri, geom, e).sigma_r for ri in r])
    assert np.all(s[:-1] < 0.0)
    assert s[-1] == 0.0
    assert np.all(np.diff(s) > 0.0)


def test_radial_stress_domain():
    geom = ShellGeometry(1.0, 2.0)
    e = NeoHookean(1.0)
    for r in (0.5, 2.5, np.nan, *map(np.array, ([0.5, 1.5], [1.5, 2.5], [1.5, np.nan]))):
        with pytest.raises(ValueError, match=r"^r outside the shell \[r0, r1\]$"):
            fields_at(r, geom, e)
    # w(nu) overflows, so sigma_r = w(lam) - w(nu) would be NaN
    message = r"^energy w\(nu\) of the shell is out of the float range$"
    for r in (1e300, np.array([1.0, 1e300])):
        with pytest.raises(ValueError, match=message):
            fields_at(r, ShellGeometry(1.0, 1e300), e)


def test_hoop_stress_frozen_value():
    # at the outer surface sigma_theta = (nu/2) dw(nu); for nu = 2, G = 1
    # that is 0.5 * 2 * 3.9375 = 3.9375
    geom = ShellGeometry(1.0, 2.0)
    assert fields_at(2.0, geom, NeoHookean(1.0)).sigma_theta == 3.9375


def test_stress_state_is_hydrostatic_at_bead():
    # dw(1) = 0, so the deviatoric part vanishes exactly at r = r0
    geom = ShellGeometry(1.2, 3.1)
    e = NeoHookean(0.8)
    f = fields_at(geom.r0, geom, e)
    assert f.sigma_theta == f.sigma_r


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
    prof = stress_profile(geom, e, 11)
    assert isinstance(prof, FieldSample)
    names = [f.name for f in dataclasses.fields(prof)]
    assert names == ["r", "lam_r", "lam_theta", "sigma_r", "sigma_theta"]
    for field in dataclasses.astuple(prof):
        assert isinstance(field, np.ndarray)
        assert field.dtype == np.float64 and field.shape == (11,)
    assert prof.r[0] == 1.0 and prof.r[-1] == 2.0
    assert prof.sigma_r[-1] == 0.0
    # lam_r, and with it the velocity, decays as (r0/r)**2
    assert prof.lam_r[0] == 1.0 and prof.lam_r[-1] == 0.25


def test_profile_consistent_with_pointwise_evaluations():
    geom = ShellGeometry(0.7, 1.6)
    e = NeoHookean(2.3)
    prof = stress_profile(geom, e, 17)
    for i, r in enumerate(prof.r.tolist()):
        f = fields_at(r, geom, e)
        assert prof.sigma_r[i] == f.sigma_r and prof.sigma_theta[i] == f.sigma_theta
        assert prof.lam_r[i] == f.lam_r and prof.lam_theta[i] == f.lam_theta


def test_profile_arrays_match_scalar_fields():
    # fields_at at an array and at each of its floats gives the same bits
    rng = np.random.default_rng(5)
    for _ in range(30):
        r0 = rng.uniform(0.2, 3.0)
        geom = ShellGeometry(r0, r0 * rng.uniform(1.0, 4.0))
        e = NeoHookean(rng.uniform(0.2, 5.0))
        rng.uniform(-2.0, 2.0)  # a spare draw, so the seeded geometries stay the same
        prof = stress_profile(geom, e, int(rng.integers(2, 300)))
        assert prof.sigma_r[-1] == 0.0
        columns = np.array(dataclasses.astuple(prof)).T.tolist()
        for r, row in zip(prof.r.tolist(), columns):
            assert dataclasses.astuple(fields_at(r, geom, e)) == tuple(row)


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
        f1, f2 = fields_at(r, geom, e1), fields_at(r, geom, e2)
        assert f2.sigma_r == 2.0 * f1.sigma_r
        assert f2.sigma_theta == 2.0 * f1.sigma_theta


def test_bead_pressure_matches_energy_at_outer_stretch():
    rng = np.random.default_rng(11)
    for _ in range(25):
        r0 = rng.uniform(0.4, 2.0)
        nu = rng.uniform(1.01, 3.5)
        G = rng.uniform(0.2, 5.0)
        geom = ShellGeometry(r0, nu * r0)
        e = NeoHookean(G)
        p_bead = -fields_at(r0, geom, e).sigma_r
        assert p_bead == pytest.approx(float(e.w(geom.nu)), rel=1e-12)
