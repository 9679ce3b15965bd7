"""Acceptance gate: ten fixed criteria, one summary line each.

Reference values never come from the solver under test: the closed-form
reduced energy is restated locally, limiting radius ratios are found by
plain bisection, and the existence decision is cross-checked against a
from-scratch bracketing attempt.  Run with ``pytest -s`` to see the
per-criterion lines; without ``-s`` the test names carry the same
information.
"""

import numpy as np
import pytest

from accrete import cli
from accrete.diffusion import SteadyProfiles, interface_residuals
from accrete.mechanics import ShellGeometry, fields_at
from accrete.strain_energy import NeoHookean
from accrete.treadmill import (
    ModelParams,
    compute_scales,
    grid_scan_oracle,
    small_bead_quadratic,
    solvable,
    solve,
)
from test_mechanics import equilibrium_residual

# ---------------------------------------------------------------------------
# test-local oracles


def w_closed(G, lam):
    """Closed-form reduced energy, restated independently of the package."""
    return G / 2.0 * (lam**-4 + 2.0 * lam**2 - 3.0)


def scales_closed(p):
    """Velocity scales and diffusion length, from their definitions."""
    bsum = p.b0 + p.b1
    Vstar = (p.muR1 - p.muR0) * p.rhoR / bsum
    Vstarstar = (p.muR1 - p.mu_inf) * p.rhoR / p.b1
    ell = bsum * p.M / p.rhoR**2
    return Vstar, Vstarstar, ell


def bisect_energy_level(G, b1, target):
    """The lam > 1 with w_closed(G, lam)/b1 = target, by plain bisection."""
    lo, hi = 1.0, 2.0
    while w_closed(G, hi) / b1 < target:
        hi = 1.0 + 2.0 * (hi - 1.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if w_closed(G, mid) / b1 < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def attempt_bracket(p):
    """From-scratch numerical search for a treadmilling state.

    Expands (lam - 1) by doubling until the supply/demand gap changes
    sign, bisects to the crossing, and accepts only a positive accretion
    speed there.  Shares nothing with solvable() except the parameter
    definitions.
    """
    Vstar, Vstarstar, ell = scales_closed(p)
    eta = p.r0 / ell
    G = p.energy.G

    def F(lam):
        return (
            Vstar / (1.0 + eta * (lam - 1.0) / lam)
            - Vstarstar
            - w_closed(G, lam) / p.b1
        )

    if not F(1.0) > 0.0:
        return False
    u = 1e-3
    while True:
        lam = 1.0 + u
        if lam > 1e9:
            return False
        if F(lam) <= 0.0:
            break
        u *= 2.0
    lo, hi = 1.0, lam
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if F(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    lam_root = 0.5 * (lo + hi)
    V0 = Vstarstar + w_closed(G, lam_root) / p.b1
    return V0 > 0.0


def scan_bound(p):
    """A lam beyond the crossing, for the grid oracle's upper end."""
    Vstar, Vstarstar, ell = scales_closed(p)
    eta = p.r0 / ell
    lam = 2.0
    while (
        Vstar / (1.0 + eta * (lam - 1.0) / lam)
        - Vstarstar
        - w_closed(p.energy.G, lam) / p.b1
    ) > 0.0:
        lam = 1.0 + 2.0 * (lam - 1.0)
    return lam


def make_params(**kw):
    base = dict(
        energy=NeoHookean(1.0),
        b0=1.0,
        b1=1.0,
        muR0=0.0,
        muR1=3.0,
        mu_inf=2.5,
        rhoR=1.0,
        M=1.0,
        r0=1.0,
    )
    base.update(kw)
    return ModelParams(**base)


def at_eta(eta, **kw):
    """Parameters with the bead radius set to hit a prescribed eta."""
    p = make_params(**kw)
    _, _, ell = scales_closed(p)
    return make_params(r0=eta * ell, **kw)


def draw_any(rng):
    """Wide draw mixing solvable and unsolvable chemistries."""
    b0 = 10.0 ** rng.uniform(-1.0, 1.0)
    b1 = 10.0 ** rng.uniform(-1.0, 1.0)
    rhoR = 10.0 ** rng.uniform(-0.5, 0.5)
    M = 10.0 ** rng.uniform(-1.0, 1.0)
    muR0 = rng.uniform(-2.0, 2.0)
    ell = (b0 + b1) * M / rhoR**2
    return make_params(
        energy=NeoHookean(10.0 ** rng.uniform(-1.0, 1.0)),
        b0=b0,
        b1=b1,
        muR0=muR0,
        muR1=muR0 + rng.uniform(-3.0, 3.0),
        mu_inf=rng.uniform(-2.0, 5.0),
        rhoR=rhoR,
        M=M,
        r0=10.0 ** rng.uniform(-3.0, 3.0) * ell,
    )


def draw_conditioned(rng):
    """Solvable draw kept inside the well-conditioned eta window."""
    b0 = 10.0 ** rng.uniform(-0.5, 0.5)
    b1 = 10.0 ** rng.uniform(-0.5, 0.5)
    rhoR = 10.0 ** rng.uniform(-0.3, 0.3)
    M = 10.0 ** rng.uniform(-0.5, 0.5)
    muR0 = rng.uniform(-1.0, 1.0)
    muR1 = muR0 + 10.0 ** rng.uniform(-0.3, 0.5)
    muStar = (b0 * muR1 + b1 * muR0) / (b0 + b1)
    mu_inf = muStar + rng.uniform(0.1, 1.3) * (muR1 - muStar)
    ell = (b0 + b1) * M / rhoR**2
    return make_params(
        energy=NeoHookean(10.0 ** rng.uniform(-0.5, 0.5)),
        b0=b0,
        b1=b1,
        muR0=muR0,
        muR1=muR1,
        mu_inf=mu_inf,
        rhoR=rhoR,
        M=M,
        r0=10.0 ** rng.uniform(-3.0, 3.0) * ell,
    )


def _report(name, body):
    try:
        body()
    except AssertionError:
        print(f"{name}: FAIL")
        raise
    print(f"{name}: PASS")


# ---------------------------------------------------------------------------
# the ten criteria


def test_c01_existence_decision_matches_numeric_evidence():
    def body():
        rng = np.random.default_rng(20260822)
        n_ok = n_no = 0
        for _ in range(500):
            p = draw_any(rng)
            dec = solvable(p)
            assert dec.ok == attempt_bracket(p), p
            if not dec.ok:
                n_no += 1
                continue
            n_ok += 1
            brackets = grid_scan_oracle(p, scan_bound(p), 10000)
            assert len(brackets) == 1, p
            lo, hi = brackets[0]
            assert lo <= solve(p).nu <= hi, p
        assert n_ok >= 100 and n_no >= 100, (n_ok, n_no)

    _report("C1 existence decision vs from-scratch bracketing", body)


def test_c02_speed_strictly_between_velocity_scales():
    def body():
        rng = np.random.default_rng(7151)
        checked = 0
        while checked < 200:
            p = draw_any(rng)
            if not solvable(p).ok:
                continue
            s = compute_scales(p)
            st = solve(p)
            assert s.Vstarstar < st.V0 < s.Vstar, p
            checked += 1

    _report("C2 strict bounds Vstarstar < V0 < Vstar", body)


def test_c03_small_bead_asymptote():
    def body():
        for kw in (
            dict(muR1=6.0, mu_inf=5.53125),  # nu* = 2 by construction
            dict(
                energy=NeoHookean(2.0),
                b0=0.5,
                b1=2.0,
                muR0=-1.0,
                muR1=2.0,
                mu_inf=1.0,
                rhoR=1.5,
                M=2.0,
            ),
        ):
            p = at_eta(1e-8, **kw)
            Vstar, Vstarstar, _ = scales_closed(p)
            nu_star = bisect_energy_level(p.energy.G, p.b1, Vstar - Vstarstar)
            st = solve(p)
            assert abs(st.nu - nu_star) / nu_star <= 1e-6, kw
            assert abs(st.V0 - Vstar) / Vstar <= 1e-6, kw

    _report("C3 small-bead limit (eta = 1e-8, tol 1e-6)", body)


def test_c04_large_bead_diffusion_limited():
    def body():
        for kw in (
            dict(),  # Vstar = 1.5, Vstarstar = 0.5
            dict(
                energy=NeoHookean(2.0),
                b0=0.5,
                b1=2.0,
                muR0=-1.0,
                muR1=2.0,
                mu_inf=1.0,
                rhoR=1.5,
                M=2.0,
            ),
        ):
            p = at_eta(1e8, **kw)
            Vstar, Vstarstar, _ = scales_closed(p)
            assert Vstarstar > 0.0
            st = solve(p)
            assert abs(st.V0 - Vstarstar) / Vstarstar <= 1e-4, kw
            thickness = 1e8 * (st.nu - 1.0)
            target = Vstar / Vstarstar - 1.0
            assert abs(thickness - target) / target <= 1e-3, kw

    _report("C4 diffusion-limited large-bead branch (eta = 1e8)", body)


def test_c05_large_bead_ablation_limited():
    def body():
        p = at_eta(1e8, mu_inf=5.53125)  # Vstarstar = -2.53125 < 0
        Vstar, Vstarstar, _ = scales_closed(p)
        assert Vstarstar < 0.0
        nu2 = bisect_energy_level(p.energy.G, p.b1, -Vstarstar)
        st = solve(p)
        assert abs(st.nu - nu2) / nu2 <= 1e-3
        target = Vstar / (1.0 - 1.0 / nu2)
        assert abs(1e8 * st.V0 - target) / target <= 1e-3

    _report("C5 ablation-limited large-bead branch (eta = 1e8)", body)


def test_c06_quadratic_thickness_estimate():
    def body():
        for nu_star_goal in (1.05, 1.02):
            mu_inf = 1.0 + w_closed(1.0, nu_star_goal)
            p = make_params(muR1=2.0, mu_inf=mu_inf)  # muStar = 1
            nu_star = bisect_energy_level(1.0, 1.0, mu_inf - 1.0)
            assert nu_star == pytest.approx(nu_star_goal, rel=1e-12)
            est = small_bead_quadratic(p)
            assert abs(est - (nu_star - 1.0)) / (nu_star - 1.0) <= 0.05, nu_star_goal

    _report("C6 quadratic thin-shell estimate within 5%", body)


def test_c07_stress_field_checks():
    def body():
        for r0, r1, G in ((1.0, 2.0, 1.0), (0.7, 1.6, 3.7)):
            geom = ShellGeometry(r0, r1)
            e = NeoHookean(G)
            assert fields_at(r1, geom, e).sigma_r == 0.0, (r0, r1, G)
            bead = fields_at(r0, geom, e).sigma_r
            assert abs(bead + w_closed(G, r1 / r0)) <= 1e-12 * G, (r0, r1, G)
            ratio = equilibrium_residual(geom, e, 101) / equilibrium_residual(geom, e, 201)
            assert 3.5 <= ratio <= 4.5, (r0, r1, G)

    _report("C7 stress boundary values and equilibrium order", body)


def test_c08_back_substituted_residuals():
    def relative_residuals(p, st):
        W = w_closed(p.energy.G, st.nu)
        out = []
        # accretion kinetics at the bead surface
        lhs = p.b0 * st.V0
        rhs = (st.mu0 - p.muR0) * p.rhoR - W
        out.append(abs(lhs - rhs) / max(abs(lhs), abs(rhs), W))
        # ablation kinetics at the outer surface
        lhs = p.b1 * st.V1
        rhs = (st.mu1 - p.muR1) * p.rhoR - W
        out.append(abs(lhs - rhs) / max(abs(lhs), abs(rhs), W))
        # diffusion link between bath and bead surface
        demand = p.rhoR * st.V0
        supply = p.M * (p.mu_inf - st.mu0) * st.nu / ((st.nu - 1.0) * p.r0)
        out.append(abs(demand - supply) / max(abs(demand), abs(supply)))
        return out

    def check(p):
        st = solve(p)
        for r in relative_residuals(p, st):
            assert r <= 1e-10, p

        profiles = SteadyProfiles(st.V0, st.V1, st.mu0, ShellGeometry(p.r0, st.r1),
                                  p.M, p.M, p.rhoR, p.mu_inf)
        res0, res1 = interface_residuals(st, profiles)
        scale0 = max(
            abs(p.rhoR * st.V0),
            abs(p.M * (st.mu1 - st.mu0) / (st.r1 - p.r0) * (st.r1 / p.r0)),
        )
        assert abs(res0) / scale0 <= 1e-10, p
        # both terms of the outer balance vanish identically in treadmilling
        assert res1 == 0.0, p
        assert profiles.h(st.r1, side="above") == 0.0
        assert profiles.h(2.0 * st.r1) == 0.0

    def body():
        canonical = (
            dict(),
            dict(muR1=6.0, mu_inf=5.53125),
            dict(mu_inf=5.53125),
            dict(
                energy=NeoHookean(2.0),
                b0=0.5,
                b1=2.0,
                muR0=-1.0,
                muR1=2.0,
                mu_inf=1.0,
                rhoR=1.5,
                M=2.0,
            ),
        )
        for kw in canonical:
            for eta in (1e-5, 1.0, 1e5):
                check(at_eta(eta, **kw))
        rng = np.random.default_rng(424243)
        for _ in range(50):
            check(draw_conditioned(rng))

    _report("C8 back-substituted residuals below 1e-10", body)


def test_c09_sweep_table_consistency(tmp_path):
    def run_sweep(path, overrides):
        argv = ["sweep", "--out", str(path)]
        for item in overrides:
            argv += ["--set", item]
        assert cli.main(argv) == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == (
            "eta,nu,d_over_r0,V0,V0_over_Vstar,mu0,f0,f1,"
            "d_small_bead_est,d_diffusion_limited_est"
        )
        rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
        assert len(rows) == 121
        return rows

    def body():
        # stress-limited to diffusion-limited chemistry
        rows = run_sweep(tmp_path / "a.csv", [])
        p = make_params()
        Vstar, Vstarstar, _ = scales_closed(p)
        nu_star = bisect_energy_level(1.0, 1.0, Vstar - Vstarstar)
        d = [float(r["d_over_r0"]) for r in rows]
        assert all(b < a for a, b in zip(d, d[1:]))
        assert abs(float(rows[0]["nu"]) - nu_star) / nu_star <= 1e-6
        est = float(rows[0]["d_small_bead_est"])
        assert len({r["d_small_bead_est"] for r in rows}) == 1
        assert abs(est - (nu_star - 1.0)) / (nu_star - 1.0) <= 1e-6
        last = rows[-1]
        assert abs(float(last["V0"]) - Vstarstar) / Vstarstar <= 1e-4
        target = Vstar / Vstarstar - 1.0
        assert abs(1e6 * float(last["d_over_r0"]) - target) / target <= 1e-3
        assert float(last["d_diffusion_limited_est"]) == pytest.approx(
            target / 1e6, rel=1e-12
        )

        # stress-limited to ablation-limited chemistry
        rows = run_sweep(tmp_path / "b.csv", ["chem.mu_inf=5.53125"])
        p = make_params(mu_inf=5.53125)
        Vstar, Vstarstar, _ = scales_closed(p)
        nu_star = bisect_energy_level(1.0, 1.0, Vstar - Vstarstar)
        nu2 = bisect_energy_level(1.0, 1.0, -Vstarstar)
        d = [float(r["d_over_r0"]) for r in rows]
        assert all(b < a for a, b in zip(d, d[1:]))
        assert abs(float(rows[0]["nu"]) - nu_star) / nu_star <= 1e-6
        assert all(r["d_diffusion_limited_est"] == "" for r in rows)
        last = rows[-1]
        assert abs(float(last["nu"]) - nu2) / nu2 <= 1e-3
        target = Vstar / (1.0 - 1.0 / nu2)
        assert abs(1e6 * float(last["V0"]) - target) / target <= 1e-3

    _report("C9 sweep table matches both asymptotic regimes", body)


def test_c10_byte_identical_reruns(tmp_path):
    def body():
        for fmt in ("csv", "json"):
            paths = [tmp_path / f"run{i}.{fmt}" for i in (1, 2)]
            for path in paths:
                code = cli.main(
                    ["sweep", "--points", "41", "--format", fmt, "--out", str(path)]
                )
                assert code == 0
            assert paths[0].read_bytes() == paths[1].read_bytes()

    _report("C10 byte-identical repeated runs", body)
