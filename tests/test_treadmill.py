"""Tests for the treadmilling solver, scales, and asymptotic estimators.

The canonical parameter sets below are built so the limiting radius ratios
are known in closed form: with G = 1 the reduced energy has w(2) = 2.53125,
so choosing the chemistry to make the relevant drive equal 2.53125 pins the
limiting ratio at exactly 2.
"""

import ast
import dataclasses
import hashlib
import math
import random
from pathlib import Path

import numpy as np
import pytest

from accrete import cli, treadmill
from accrete.strain_energy import NeoHookean, ReducedEnergy
from accrete.treadmill import (
    ModelParams,
    NoTreadmillingState,
    NumericFailure,
    Scales,
    compute_scales,
    g,
    grid_scan_oracle,
    h,
    large_bead_asymptote,
    small_bead_asymptote,
    small_bead_quadratic,
    solvable,
    solve,
    solve_eta,
)
from test_cli_corpus import chemistries
from test_root_finder import SkewedDerivative, WrongSignDerivative


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


def draw_solvable(rng):
    """A random parameter set that is always solvable and well-conditioned."""
    b0 = 10.0 ** rng.uniform(-0.5, 0.5)
    b1 = 10.0 ** rng.uniform(-0.5, 0.5)
    rhoR = 10.0 ** rng.uniform(-0.3, 0.3)
    M = 10.0 ** rng.uniform(-0.5, 0.5)
    muR0 = rng.uniform(-1.0, 1.0)
    muR1 = muR0 + 10.0 ** rng.uniform(-0.3, 0.5)
    muStar = (b0 * muR1 + b1 * muR0) / (b0 + b1)
    # t in (0, 1] is stress-limited territory, t > 1 makes Vstarstar < 0
    t = rng.uniform(0.1, 1.3)
    mu_inf = muStar + t * (muR1 - muStar)
    eta = 10.0 ** rng.uniform(-3.0, 3.0)
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
        r0=eta * ell,
    )


# ---------------------------------------------------------------------------
# scales and solvability


def test_scales_frozen_values():
    s = compute_scales(make_params())
    assert s.Vstar == 1.5
    assert s.Vstarstar == 0.5
    assert s.ellStar == 2.0
    assert s.muStar == 1.5
    assert s.eta == 0.5


def test_scales_asymmetric_kinetics():
    p = make_params(b0=0.5, b1=2.0, muR0=-1.0, muR1=2.0, mu_inf=1.0, rhoR=1.5, M=2.0)
    s = compute_scales(p)
    assert s.Vstar == 1.8
    assert s.Vstarstar == 0.75
    assert s.muStar == -0.4
    assert s.ellStar == pytest.approx(20.0 / 9.0, rel=1e-15)


def test_scale_identity():
    # b1 (Vstar - Vstarstar) = (mu_inf - muStar) rhoR ties the two drives
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = draw_solvable(rng)
        s = compute_scales(p)
        lhs = p.b1 * (s.Vstar - s.Vstarstar)
        rhs = (p.mu_inf - s.muStar) * p.rhoR
        assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize(
    "kw",
    [
        dict(rhoR=1e-200),  # rhoR**2 underflows to zero
        dict(rhoR=1e200),  # rhoR**2 overflows
        dict(M=1e-320, rhoR=1e10),  # ellStar underflows to zero
        dict(muR0=-1e308, muR1=1e308),  # Vstar overflows
    ],
)
def test_scales_out_of_float_range(kw):
    with pytest.raises(ValueError):
        compute_scales(make_params(**kw))


def test_solvable_cases():
    assert solvable(make_params()).ok
    assert solvable(make_params()).reason is None

    no_accretion = solvable(make_params(muR1=-1.0))
    assert not no_accretion.ok
    assert "muR1 > muR0" in no_accretion.reason

    weak_bath = solvable(make_params(mu_inf=1.0))
    assert not weak_bath.ok
    assert "mu_inf > muStar" in weak_bath.reason

    # both boundaries count as unsolvable
    assert not solvable(make_params(muR1=0.0)).ok
    assert not solvable(make_params(mu_inf=1.5)).ok


def draw_any(rng):
    """A parameter set from every corner of the existence and range checks.

    muR1 falls below, on or above muR0; mu_inf below or above muStar, or
    within a few ulp of it; rhoR is sometimes 1e-200, whose square
    underflows, and r0 sometimes 1.7e308 with ellStar = 1e-3, which makes
    eta overflow.
    """
    b0, b1, M, G = 10.0 ** rng.uniform(-2.0, 2.0, 4)
    muR0 = rng.uniform(-3.0, 3.0)
    muR1 = muR0 + rng.choice([-1.0, 0.0, 1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 1.0)
    mu_star = (b0 * muR1 + b1 * muR0) / (b0 + b1)
    gap = 10.0 ** rng.uniform(-6.0, 1.0)
    mu_inf = rng.choice([mu_star - gap, mu_star + gap, mu_star + gap,
                         mu_star + int(rng.integers(-3, 4)) * math.ulp(mu_star)])
    rhoR = 10.0 ** rng.uniform(-1.0, 1.0)
    r0 = 10.0 ** rng.uniform(-6.0, 6.0) * (b0 + b1) * M / rhoR**2
    if rng.random() < 0.1:
        rhoR = 1e-200
    elif rng.random() < 0.1:
        rhoR, M, r0 = 1.0, 1e-3 / (b0 + b1), 1.7e308  # eta near 1.7e311
    values = dict(b0=b0, b1=b1, muR0=muR0, muR1=muR1, mu_inf=mu_inf, rhoR=rhoR, M=M, r0=r0)
    return make_params(energy=NeoHookean(G), **{k: float(v) for k, v in values.items()})


def test_solve_errors_agree_with_scales_and_solvable():
    """solve raises what compute_scales and solvable decide, message for message,
    and compute_scales gives the written-out formulas."""
    rng = np.random.default_rng(20261018)
    outcomes = set()
    for _ in range(3000):
        p = draw_any(rng)
        try:
            s = compute_scales(p)
        except ValueError as e:
            outcomes.add(str(e))
            for fn in (solve, solvable):
                with pytest.raises(ValueError) as exc:
                    fn(p)
                assert str(exc.value) == str(e)
            continue
        bsum = p.b0 + p.b1
        ell = bsum * p.M / p.rhoR**2
        assert s == Scales(
            Vstar=(p.muR1 - p.muR0) * p.rhoR / bsum,
            Vstarstar=(p.muR1 - p.mu_inf) * p.rhoR / p.b1,
            ellStar=ell,
            muStar=(p.b0 * p.muR1 + p.b1 * p.muR0) / bsum,
            eta=p.r0 / ell,
        )
        dec = solvable(p)
        outcomes.add(dec.reason)
        if dec.ok:
            assert solve(p).nu >= 1.0
        else:
            with pytest.raises(NoTreadmillingState) as exc:
                solve(p)
            assert exc.value.reason == dec.reason
    assert outcomes == {
        None,
        "Vstar <= 0 (requires muR1 > muR0)",
        "Vstar <= Vstarstar (requires mu_inf > muStar)",
        "diffusion length ellStar is out of the float range",
        "scale eta is not finite",
    }


def test_model_params_validation():
    with pytest.raises(ValueError):
        make_params(b0=0.0)
    with pytest.raises(ValueError):
        make_params(r0=-1.0)
    with pytest.raises(ValueError):
        make_params(rhoR=0.0)


# ---------------------------------------------------------------------------
# the two sides of the scalar equation


def test_g_constant_without_diffusion_resistance():
    lam = np.geomspace(1.0, 100.0, 20)
    assert np.all(g(0.0, lam, 5.0) == 5.0)


def test_g_decreasing_h_increasing():
    lam = np.geomspace(1.0 + 1e-9, 50.0, 200)
    gv = g(2.0, lam, 1.0)
    hv = h(lam, -0.5, 1.0, NeoHookean(1.0))
    assert np.all(np.diff(gv) < 0.0)
    assert np.all(np.diff(hv) > 0.0)
    assert hv[-1] > 1e3  # unbounded growth


def test_g_h_domains():
    with pytest.raises(ValueError):
        g(1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        g(-1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        h(0.5, 0.0, 1.0, NeoHookean(1.0))


def test_h_at_identity():
    assert h(1.0, 0.625, 2.0, NeoHookean(3.0)) == 0.625


# ---------------------------------------------------------------------------
# the solver


def test_solve_state_structure():
    p = make_params()
    st = solve(p)
    s = compute_scales(p)
    assert 1.0 < st.nu
    assert st.r1 == st.nu * p.r0
    assert st.d == (st.nu - 1.0) * p.r0
    assert st.V1 == -st.V0
    assert st.mu1 == p.mu_inf
    assert st.f0 == p.b0 * st.V0
    assert st.f1 == -p.b1 * st.V0
    assert s.Vstarstar < st.V0 < s.Vstar
    assert p.muR0 < st.mu0 < p.mu_inf


def test_solve_regression_pin():
    # determinism pin from a residual-checked run of this solver
    st = solve(make_params())
    assert st.nu == pytest.approx(1.4786636917559184, rel=1e-12)
    assert st.V0 == pytest.approx(1.2910368444196476, rel=1e-12)
    assert st.mu0 == pytest.approx(2.0820736888392952, rel=1e-12)


def test_solve_golden_bits():
    """Every bit of 500 solves, pinned by one digest.

    The draw is log-uniform in G, b0, b1, the drive mu_inf - muStar
    (1e-12..10) and eta (1e-6..1e6); with muR1 = 3 it holds both signs of
    Vstarstar, and every 25th draw puts mu_inf below muStar, where solve
    raises.  A state enters as float.hex of each field, an error as its type
    and reason.  A change to the solver that moves any bit must change the
    digest on purpose.
    """
    rng = random.Random(20261018)
    lines = []
    for i in range(500):
        G, b0, b1 = (10.0 ** rng.uniform(-1.0, 1.0) for _ in range(3))
        drive = 10.0 ** rng.uniform(-12.0, 1.0)
        eta = 10.0 ** rng.uniform(-6.0, 6.0)
        mu_star = 3.0 * b0 / (b0 + b1)
        p = ModelParams(
            energy=NeoHookean(G), b0=b0, b1=b1, muR0=0.0, muR1=3.0,
            mu_inf=mu_star + (drive if i % 25 else -drive), rhoR=1.0, M=1.0, r0=eta * (b0 + b1),
        )
        try:
            lines.append(" ".join(map(float.hex, dataclasses.astuple(solve(p)))))
        except Exception as e:
            lines.append(f"{type(e).__name__}: {e}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "cdb0db0ee9d50ad3426ff6d721bcca72508734022dc7b185e3d58e8b073fe7a6"


def test_treadmill_state_is_a_plain_dataclass():
    """The state is mutable and unhashable; == and replace work as before."""
    st = solve(make_params())
    assert st.__hash__ is None
    assert dataclasses.replace(st) == st
    st.nu = 2.0
    assert st.nu == 2.0 and st != solve(make_params())


def test_solve_satisfies_scalar_equation():
    p = make_params()
    s = compute_scales(p)
    st = solve(p)
    gap = g(s.eta, st.nu, s.Vstar) - h(st.nu, s.Vstarstar, p.b1, p.energy)
    assert abs(gap) <= 1e-12 * s.Vstar


def test_solve_root_lies_in_oracle_bracket():
    p = make_params()
    st = solve(p)
    brackets = grid_scan_oracle(p, 4.0, 500)
    assert len(brackets) == 1
    lo, hi = brackets[0]
    assert lo <= st.nu <= hi


def test_solve_raises_when_unsolvable():
    with pytest.raises(NoTreadmillingState, match="muR1 > muR0"):
        solve(make_params(muR1=-2.0))
    with pytest.raises(NoTreadmillingState, match="mu_inf > muStar"):
        solve(make_params(mu_inf=0.5))


def test_thickness_and_speed_decrease_with_bead_radius():
    nus, V0s = [], []
    for r0 in 10.0 ** np.linspace(-4.0, 4.0, 33):
        st = solve(make_params(r0=r0))
        nus.append(st.nu)
        V0s.append(st.V0)
    assert np.all(np.diff(nus) < 0.0)
    assert np.all(np.diff(V0s) < 0.0)


GEOM = np.geomspace(1e-6, 1e6, 2500)


@pytest.mark.parametrize(
    "kw, etas",
    [
        ({}, GEOM),
        ({"mu_inf": 5.53125}, GEOM),  # Vstarstar < 0: ablation-limited
        ({"mu_inf": 1.500000000001}, GEOM),  # thin shell, d/r0 down to 1e-18
        ({"energy": NeoHookean(0.1), "b0": 10.0, "b1": 0.1, "mu_inf": 3.5}, GEOM),
        # 0.3 (mu_inf - 3) + 7 mu_inf rounds to 0, so the drive is the
        # quotient 1 - Vstarstar/Vstar
        ({"b0": 0.3, "b1": 7.0, "mu_inf": 0.12328767123287672}, GEOM),
        ({}, np.linspace(1e-6, 1e6, 2500)),
        # a wrong dw sends rows to bisection, so they stop many steps apart
        ({"energy": SkewedDerivative(1.0)}, GEOM),
        ({"energy": WrongSignDerivative(1.0)}, GEOM),
    ],
    ids=[
        "default", "ablation", "thin-shell", "soft-skewed", "drive-fallback", "linear",
        "skewed-dw", "wrong-sign-dw",
    ],
)
def test_solve_eta_matches_solve_bit_for_bit(kw, etas):
    """solve_eta, and the float rows of _solve_rows, match solve in all
    nine fields."""
    p = make_params(**kw)
    ell = compute_scales(p).ellStar
    table = solve_eta(p, etas)
    names = [f.name for f in dataclasses.fields(table)]
    got = np.column_stack([getattr(table, name) for name in names])
    want = np.array(
        [dataclasses.astuple(solve(dataclasses.replace(p, r0=eta * ell))) for eta in etas.tolist()]
    )
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    rows = np.array([dataclasses.astuple(st) for st in treadmill._solve_rows(p, etas.tolist())])
    assert rows.shape == (len(etas), 9)
    np.testing.assert_array_equal(rows.view(np.int64), want.view(np.int64))


def test_solve_eta_where_one_plus_eta_times_the_drive_overflows():
    """With the drive 19 of mu_inf = 30, (1 + eta) drive passes the float
    range near eta = 1e307, and so does (1 + eta) u once u > 2.  The model
    equation is then divided through by 1 + eta, and F takes its eta term as
    the 1.0 it rounds to.  The state is the large-bead limit nu2, and
    solve_eta still matches solve bit for bit."""
    p = make_params(mu_inf=30.0)
    ell = compute_scales(p).ellStar
    etas = np.array([0.5, 1e300, 1e307, 5e307, 8.5e307])
    table = solve_eta(p, etas)
    names = [f.name for f in dataclasses.fields(table)]
    got = np.column_stack([getattr(table, name) for name in names])
    want = np.array(
        [dataclasses.astuple(solve(dataclasses.replace(p, r0=eta * ell))) for eta in etas.tolist()]
    )
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    nu2 = 1.0 + large_bead_asymptote(p, 1.0)[0]
    assert table.nu[1:].tolist() == pytest.approx([nu2] * 4, rel=1e-14)


def test_solve_eta_rejects_rows_out_of_float_range():
    p = make_params(rhoR=1e3)  # ellStar = 2e-6
    with pytest.raises(ValueError, match="r0 must be positive"):
        solve_eta(p, np.array([1e-320, 1.0]))
    with pytest.raises(ValueError, match="scale eta is not finite"):
        solve_eta(make_params(), np.array([1.0, 1e308]))
    with pytest.raises(NoTreadmillingState):
        solve_eta(make_params(muR1=-2.0), np.array([1.0]))
    with pytest.raises(ValueError, match="^eta must be a 1-D array$"):
        solve_eta(make_params(), np.ones((2, 2)))


@pytest.mark.parametrize(
    "kw, scale",
    [
        # b1 (muR1 - muR0) = 1e-500 underflows in the drive
        (dict(b1=1e-300, muR1=1e-200, mu_inf=3.0), "drive scale"),
        # b1 Vstar = 1e-420 underflows, though b1 (muR1 - muR0) = 1e-320 does not
        (dict(b1=1e-300, muR1=1e-20, mu_inf=2e-20, rhoR=1e-100), "energy scale"),
    ],
)
def test_underflowing_kinetic_scale_is_value_error(kw, scale):
    p = make_params(**kw)
    with pytest.raises(ValueError, match=f"^{scale} .* is out of the float range$"):
        solve(p)
    with pytest.raises(ValueError, match=f"^{scale} .* is out of the float range$"):
        solve_eta(p, np.array([0.5, 2.0]))


def test_small_bead_asymptote_underflowing_scale_is_value_error():
    # b1 (Vstar - Vstarstar) = 1e-300 * 2.5e-300 underflows
    p = make_params(b0=1e300, b1=1e-300, muR0=5e-324, muR1=2.5, mu_inf=2.5)
    with pytest.raises(ValueError, match="^energy scale .* is out of the float range$"):
        small_bead_asymptote(p)


def test_solution_bounds_random_parameters():
    rng = np.random.default_rng(20260822)
    for _ in range(150):
        p = draw_solvable(rng)
        s = compute_scales(p)
        st = solve(p)
        assert s.Vstarstar < st.V0 < s.Vstar
        assert st.nu > 1.0
        assert p.muR0 < st.mu0 < p.mu_inf
        gap = g(s.eta, st.nu, s.Vstar) - h(st.nu, s.Vstarstar, p.b1, p.energy)
        assert abs(gap) <= 1e-11 * s.Vstar


def test_solution_scales_with_chemistry():
    """Doubling G and all potentials doubles every output exactly."""
    p1 = make_params()
    p2 = make_params(energy=NeoHookean(2.0), muR0=0.0, muR1=6.0, mu_inf=5.0)
    st1, st2 = solve(p1), solve(p2)
    assert st2.nu == st1.nu
    assert st2.V0 == 2.0 * st1.V0
    assert st2.mu0 == 2.0 * st1.mu0
    assert st2.f0 == 2.0 * st1.f0


def test_solution_invariant_under_matched_rescaling():
    """Scaling M and r0 together keeps eta and hence nu unchanged."""
    p1 = make_params()
    p2 = make_params(M=2.0, r0=2.0)
    assert compute_scales(p2).eta == compute_scales(p1).eta
    st1, st2 = solve(p1), solve(p2)
    assert st2.nu == st1.nu
    assert st2.V0 == st1.V0
    assert st2.r1 == 2.0 * st1.r1


class Plateau(ReducedEnergy):
    """Bounded energy: deliberately violates the growth assumption."""

    def __init__(self, G=1.0):
        self.G = G

    def w(self, lam):
        lam = np.asarray(lam, dtype=float)
        return self.G * (1.0 - 1.0 / lam) ** 2


def test_bounded_energy_raises_numeric_failure():
    p = make_params(energy=Plateau(1.0), muR1=6.0, mu_inf=6.0)
    with pytest.raises(NumericFailure):
        solve(p)
    with pytest.raises(NumericFailure):
        solve_eta(p, np.geomspace(1e-3, 1e3, 7))


def test_root_iteration_limit_is_numeric_failure(monkeypatch):
    # no input is known to reach the limit; with no step allowed, every one does
    monkeypatch.setattr(treadmill, "_MAX_STEPS", 0)
    with pytest.raises(NumericFailure, match="^root iteration failed to converge$"):
        solve(make_params())
    with pytest.raises(NumericFailure, match="^root iteration failed to converge$"):
        solve_eta(make_params(), np.geomspace(1e-3, 1e3, 7))


# Solvable inputs whose solved state has an infinite field; the CLI exits 4
# on both, with "non-finite value in the output".  The library should raise
# or return finite fields.
NONFINITE_STATES = {
    "r1-overflows": ModelParams(NeoHookean(3.0), 1e12, 1e-12, -2.9999999999999996, -0.5,
                                1e-12, 1e-12, 2.5, 1.7976931348623157e308),
    "mu0-overflows": ModelParams(NeoHookean(2.5), 1e200, 1e-300, -1e200, -1e-12, 0.0, 1e-6,
                                 5e-324, 7.0),
}


@pytest.mark.xfail(strict=True, reason="solve returns r1 = inf or mu0 = f0 = -inf here")
@pytest.mark.parametrize("params", NONFINITE_STATES.values(), ids=NONFINITE_STATES)
@pytest.mark.parametrize("batch", [False, True], ids=["solve", "solve_eta"])
def test_solved_state_is_finite_or_raises(params, batch):
    try:
        if batch:
            state = solve_eta(params, np.array([compute_scales(params).eta]))
        else:
            state = solve(params)
    except (NumericFailure, ValueError):
        return
    assert np.all(np.isfinite(dataclasses.astuple(state)))


# ---------------------------------------------------------------------------
# uniqueness oracle


def test_oracle_argument_validation():
    p = make_params()
    with pytest.raises(ValueError):
        grid_scan_oracle(p, 0.9, 500)
    with pytest.raises(ValueError):
        grid_scan_oracle(p, 4.0, 50)
    with pytest.raises(ValueError):
        grid_scan_oracle(p, math.inf, 100)
    with pytest.raises(NoTreadmillingState):
        grid_scan_oracle(make_params(muR1=-1.0), 4.0, 500)


def test_oracle_empty_when_scan_stops_short_of_root():
    # the root sits near 1.48; a scan capped at 1.2 must find nothing
    assert grid_scan_oracle(make_params(), 1.2, 200) == []


def test_oracle_brackets_root_below_first_log_point():
    # d/r0 is about 1.3e-18, far below the scan's first log-spaced point at
    # (lam_max - 1) * 1e-13, where F is already negative; F(1) > 0 still
    # brackets the root
    p = make_params(mu_inf=1.500000000001, r0=1e6)
    nu = solve(p).nu
    brackets = grid_scan_oracle(p, 2.0, 10000)
    assert len(brackets) == 1
    lo, hi = brackets[0]
    assert lo <= nu <= hi


# ---------------------------------------------------------------------------
# asymptotic estimators


def test_small_bead_asymptote_exact_target():
    # chemistry built so b1 (Vstar - Vstarstar) = w(2): nu_star = 2 exactly
    p = make_params(muR1=6.0, mu_inf=5.53125)
    s = compute_scales(p)
    assert s.Vstar == 3.0
    assert s.Vstarstar == 0.46875
    nu_star, V0_lim, mu0_lim = small_bead_asymptote(p)
    assert nu_star == pytest.approx(2.0, rel=1e-12)
    assert V0_lim == 3.0
    assert mu0_lim == 5.53125


def test_small_bead_limit_is_approached():
    p = make_params(muR1=6.0, mu_inf=5.53125, r0=2e-8)  # eta = 1e-8
    st = solve(p)
    assert st.nu == pytest.approx(2.0, abs=1e-6)
    assert st.V0 == pytest.approx(3.0, rel=1e-6)
    assert st.mu0 == pytest.approx(5.53125, abs=1e-6)


def test_small_bead_asymptote_requires_solvable():
    with pytest.raises(NoTreadmillingState):
        small_bead_asymptote(make_params(muR1=-1.0))


def test_quadratic_estimate_frozen_value():
    # drive = 0.06, d2w(1) = 12: sqrt(0.12/12) = 0.1
    p = make_params(muR1=2.0, mu_inf=1.06)
    assert small_bead_quadratic(p) == pytest.approx(0.1, rel=1e-14)


def test_quadratic_estimate_zero_drive():
    # mu_inf = muStar sits on the existence boundary yet the estimate is 0
    p = make_params(muR1=2.0, mu_inf=1.0)
    assert small_bead_quadratic(p) == 0.0


def test_quadratic_estimate_errors():
    with pytest.raises(ValueError):
        small_bead_quadratic(make_params(muR1=2.0, mu_inf=0.9))

    class NoCurvature(NeoHookean):
        def d2w(self, lam):
            return 0.0 * np.asarray(lam, dtype=float)

    with pytest.raises(ValueError):
        small_bead_quadratic(make_params(energy=NoCurvature(1.0)))
    # 2 drive / d2w(1) overflows where d2w(1) = 12 G is subnormal
    with pytest.raises(ValueError, match="^small-bead estimate is out of the float range$"):
        small_bead_quadratic(make_params(energy=NeoHookean(1e-320)))


def test_quadratic_tracks_thin_shells():
    rng = np.random.default_rng(99)
    for _ in range(20):
        drive = rng.uniform(1e-4, 1e-3)
        p = make_params(muR1=2.0, mu_inf=1.0 + drive)
        nu_star, _, _ = small_bead_asymptote(p)
        est = small_bead_quadratic(p)
        assert est == pytest.approx(nu_star - 1.0, rel=0.02)


def test_large_bead_diffusion_limited_branch():
    p = make_params()  # Vstarstar = 0.5 > 0
    d_est, V0_est, mu0_lim = large_bead_asymptote(p, 1e8)
    assert d_est == 2e-8  # (Vstar/Vstarstar - 1)/eta
    assert V0_est == 0.5
    assert mu0_lim == 0.5  # mu_inf - (b0+b1)(Vstar - Vstarstar)/rhoR

    st = solve(make_params(r0=2e8))  # eta = 1e8
    assert st.V0 == pytest.approx(0.5, rel=1e-4)
    assert 1e8 * (st.nu - 1.0) == pytest.approx(2.0, rel=1e-3)
    assert st.mu0 == pytest.approx(0.5, abs=1e-3)


def test_large_bead_ablation_limited_branch():
    # mu_inf above muR1 makes Vstarstar = -2.53125, so nu -> 2 exactly
    p = make_params(mu_inf=5.53125)
    d_est, V0_est, mu0_lim = large_bead_asymptote(p, 1e8)
    assert d_est == pytest.approx(1.0, rel=1e-12)
    assert V0_est == pytest.approx(3e-8, rel=1e-12)  # Vstar/(1 - 1/nu2)/eta
    assert mu0_lim == 2.53125  # mu_inf + muR0 - muR1

    st = solve(make_params(mu_inf=5.53125, r0=2e8))
    assert st.nu == pytest.approx(2.0, abs=1e-3)
    assert 1e8 * st.V0 == pytest.approx(3.0, rel=1e-3)
    assert st.mu0 == pytest.approx(2.53125, abs=1e-3)


def rates(errors):
    """How many times smaller each error is than the one a decade before."""
    return [a / b for a, b in zip(errors, errors[1:])]


@pytest.mark.parametrize("G", [0.1, 1.0, 10.0])
def test_small_bead_thickness_converges_at_first_and_second_order(G):
    """u -> u* like eta, and u* + eta u1 -> u like eta**2, where u1 =
    -u* b1 Vstar/((1 + u*) dw(1 + u*)) is dF/deta over dF/du at eta = 0."""
    p = make_params(energy=NeoHookean(G))  # the CLI defaults, at modulus G
    Vstar = compute_scales(p).Vstar
    u_star = small_bead_asymptote(p)[0] - 1.0
    u1 = -u_star * p.b1 * Vstar / ((1.0 + u_star) * p.energy.dw(1.0 + u_star))
    eta = np.array([1e-2, 1e-3, 1e-4])
    u = solve_eta(p, eta).nu - 1.0
    assert rates(np.abs(u / u_star - 1.0)) == [pytest.approx(10.0, rel=0.2)] * 2
    assert rates(np.abs((u_star + eta * u1) / u - 1.0)) == [pytest.approx(100.0, rel=0.2)] * 2


def test_large_bead_thickness_converges_like_one_over_eta_whatever_the_stiffness():
    """eta u -> Vstar/Vstarstar - 1 with an error like 1/eta, for Vstarstar
    > 0; the limit does not depend on G.  At G = 10 the rate only sets in
    past eta = 1e3, where the error is 1.28e-3 against 1.93e-4 at 1e4."""
    eta, errors = np.array([1e4, 1e5]), []
    for G in (0.1, 1.0, 10.0):
        p = make_params(energy=NeoHookean(G))  # the CLI defaults: Vstarstar = 0.5
        s = compute_scales(p)
        u = solve_eta(p, eta).nu - 1.0
        errors.append(np.abs(eta * u / (s.Vstar / s.Vstarstar - 1.0) - 1.0))
        assert rates(errors[-1]) == [pytest.approx(10.0, rel=0.2)]
    at_1e5 = [e[-1] for e in errors]
    assert max(at_1e5) < 2.0 * min(at_1e5) < 1e-4


@pytest.mark.parametrize("G", [0.1, 1.0, 10.0])
def test_large_bead_thickness_tends_to_nu2_like_one_over_eta(G):
    """For Vstarstar < 0, u -> nu2 - 1 with an error like 1/eta.  Expanding
    eta u/(1 + (1 + eta) u) = 1 - nu/(eta u) + O(1/eta**2) in F = 0 about
    nu2 gives eta (u - (nu2 - 1)) -> b1 Vstar nu2/((nu2 - 1) dw(nu2)), which
    the solves reach like 1/eta too."""
    p = make_params(energy=NeoHookean(G), mu_inf=4.0)  # Vstarstar = -1
    Vstar = compute_scales(p).Vstar
    eta = np.array([1e3, 1e4, 1e5, 1e6])
    u2 = large_bead_asymptote(p, 1.0)[0]
    error = solve_eta(p, eta).nu - 1.0 - u2
    assert rates(np.abs(error)) == [pytest.approx(10.0, rel=0.02)] * 3
    slope = p.b1 * Vstar * (1.0 + u2) / (u2 * p.energy.dw(1.0 + u2))
    assert slope == pytest.approx({0.1: 3.139, 1.0: 1.458, 10.0: 0.946}[G], abs=5e-4)
    assert rates(np.abs(eta * error / slope - 1.0)) == [pytest.approx(10.0, rel=0.03)] * 3


def test_thickness_never_rises_with_eta():
    """dF/deta = -u (1 + u)/q**2 < 0, so nu falls with eta: never rises over
    2 001 log-spaced eta from 1e-6 to 1e6, for the corpus's chemistries."""
    eta = np.geomspace(1e-6, 1e6, 2001)
    parser, solved = cli._build_parser(), 0
    for chem in chemistries(200):
        p = cli._config_from_args(parser.parse_args(["solve", *chem])).params
        if solvable(p).ok:
            nu = solve_eta(p, eta).nu
            assert not np.any(np.diff(nu) > 0.0), chem
            solved += 1
    assert solved >= 150


def test_large_bead_balanced_bath():
    # mu_inf = muR1 zeroes Vstarstar: no thickness estimate is offered
    p = make_params(mu_inf=3.0)
    d_est, V0_est, mu0_lim = large_bead_asymptote(p, 100.0)
    assert d_est is None
    assert V0_est == 0.0
    assert mu0_lim == 0.0  # mu_inf - (b0+b1) Vstar / rhoR
    st = solve(make_params(mu_inf=3.0, r0=200.0))
    assert st.nu > 1.0 and st.V0 > 0.0


def test_large_bead_argument_validation():
    with pytest.raises(ValueError):
        large_bead_asymptote(make_params(), 0.0)
    for mu_inf in (2.5, 5.53125):  # Vstarstar > 0, where d_est is inf, and < 0, where V0_est is
        with pytest.raises(ValueError, match="out of the float range"):
            large_bead_asymptote(make_params(mu_inf=mu_inf), 1e-320)
    with pytest.raises(NoTreadmillingState):
        large_bead_asymptote(make_params(muR1=-1.0), 10.0)


def test_large_bead_shell_thinner_than_an_ulp_is_a_value_error():
    # w(nu2)/b1 = -Vstarstar = 1e-32 puts nu2 - 1 near 4e-17, so nu2 rounds
    # to 1.0 and V0 = Vstar/(1 - 1/nu2)/eta would divide by zero; the state
    # itself solves (nu about 1.337)
    p = ModelParams(NeoHookean(1.0), b0=1.0, b1=1.0, muR0=-1.0, muR1=0.0, mu_inf=1e-32,
                    rhoR=1.0, M=1.0, r0=1.0)
    assert solve(p).nu > 1.3
    with pytest.raises(ValueError, match="out of the float range"):
        large_bead_asymptote(p, 10.0)


def test_traced_treadmill_names_exist():
    """perfbench/tracing.py wraps every name in its TREADMILL_API with
    getattr(treadmill, name), so each one must stay on the module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = None
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TREADMILL_API" for t in node.targets
        ):
            names = ast.literal_eval(node.value)
    assert names, "TREADMILL_API not found in perfbench/tracing.py"
    assert [n for n in names if not hasattr(treadmill, n)] == []
