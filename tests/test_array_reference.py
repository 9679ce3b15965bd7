"""The float `validate` and uniqueness oracle against their former array forms.

`strain_energy.validate` and `treadmill.grid_scan_oracle` evaluate the energy
one float at a time and never import numpy.  The functions below are the
numpy versions they replaced, kept here as the reference: over seeded draws
and the ill-posed test energies the float forms must give the same
CheckResults and the same number of brackets.  Grid points agree to the
last bit or to one ulp (numpy's SIMD pow differs from libm's in the last
bit on a few percent of points), so bracket endpoints are compared to 1 ulp.
"""

import math
import random

import numpy as np
import pytest

from accrete.strain_energy import (
    CheckResult,
    NeoHookean,
    ValidationReport,
    _geomspace,
    _linspace,
    modulus_scale,
    validate,
)
from accrete.treadmill import (
    ModelParams,
    _solvable_scales,
    g,
    grid_scan_oracle,
    h,
    solvable,
    solve,
)
from test_strain_energy import (
    LinearRamp,
    NaNCurvatureAboveTwo,
    NaNDerivative,
    NaNAtOnePoint,
    SkewedDerivative,
    Wavy,
)

# ---------------------------------------------------------------------------
# the array forms, as they were in src/


def array_validate(energy, lam_min, lam_max, n):
    if not (0.0 < lam_min < 1.0 < lam_max):
        raise ValueError("grid bounds must satisfy 0 < lam_min < 1 < lam_max")
    if n < 3:
        raise ValueError("need at least 3 grid points")

    grid = np.geomspace(lam_min, lam_max, n)
    off_identity = grid[np.abs(grid - 1.0) > 1e-9]
    gscale = modulus_scale(energy)
    checks = []

    w1 = float(energy.w(1.0))
    checks.append(CheckResult("zero-at-identity", abs(w1) <= 1e-12 * gscale, f"w(1) = {w1:.3e}"))

    dw1 = float(energy.dw(1.0))
    checks.append(
        CheckResult("stationary-at-identity", abs(dw1) <= 1e-10 * gscale, f"dw(1) = {dw1:.3e}")
    )

    w_vals = np.asarray(energy.w(off_identity), dtype=float)
    checks.append(
        CheckResult(
            "positive-away-from-identity",
            bool(np.all(w_vals > 0.0)),
            f"min w off identity = {w_vals.min():.3e}",
        )
    )

    dw_vals = np.asarray(energy.dw(off_identity), dtype=float)
    sign_ok = bool(np.all(dw_vals * (off_identity - 1.0) > 0.0))
    checks.append(
        CheckResult(
            "sign-condition",
            sign_ok,
            "dw(lam)*(lam-1) > 0 off identity" if sign_ok else "sign violation on grid",
        )
    )

    tail = grid[grid >= 1.0]
    tail_w = np.asarray(energy.w(tail), dtype=float)
    growing = bool(np.all(np.diff(tail_w) > 0.0)) if tail.size >= 2 else True
    gained = float(energy.w(lam_max)) > w1 + gscale
    checks.append(
        CheckResult(
            "unbounded-growth",
            growing and gained,
            f"w({lam_max:g}) - w(1) = {float(energy.w(lam_max)) - w1:.3e}",
        )
    )

    checks.append(array_derivative_check(energy, grid, order=1))
    checks.append(array_derivative_check(energy, grid, order=2))
    return ValidationReport(tuple(checks))


def array_derivative_check(energy, grid, order):
    gscale = modulus_scale(energy)
    rel = 1e-5 if order == 1 else 1e-4
    s = rel * grid
    wp, wm = energy.w(grid + s), energy.w(grid - s)
    if order == 1:
        fd = (wp - wm) / (2.0 * s)
        exact = energy.dw(grid)
    else:
        fd = (wp - 2.0 * energy.w(grid) + wm) / (s * s)
        exact = energy.d2w(grid)
    worst = float(np.max(np.abs(exact - fd) / np.maximum(np.abs(exact), gscale)))
    name = "first-derivative-consistency" if order == 1 else "second-derivative-consistency"
    return CheckResult(name, worst <= 1e-6, f"max relative deviation {worst:.3e}")


def array_oracle(params, lam_max, n):
    Vstar, Vstarstar, _, _, eta = _solvable_scales(params)
    if not lam_max > 1.0:
        raise ValueError("lam_max must exceed 1")
    if n < 100:
        raise ValueError("need at least 100 scan points")
    u = np.geomspace((lam_max - 1.0) * 1e-13, lam_max - 1.0, n)
    lam = 1.0 + np.append(0.0, u)
    F = np.asarray(
        g(eta, lam, Vstar) - h(lam, Vstarstar, params.b1, params.energy),
        dtype=float,
    )
    pos = F > 0.0
    flips = np.nonzero(pos[:-1] != pos[1:])[0]
    return [(float(lam[i]), float(lam[i + 1])) for i in flips]


# ---------------------------------------------------------------------------
# draws


def loguniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def draw_params(rng):
    """A solvable chemistry: moduli and kinetics over twelve decades, a drive
    from near threshold to far past it, both signs of Vstarstar."""
    b0, b1 = loguniform(rng, 1e-6, 1e6), loguniform(rng, 1e-6, 1e6)
    mu_star = 3.0 * b0 / (b0 + b1)  # muR0 = 0, muR1 = 3
    return ModelParams(
        energy=NeoHookean(loguniform(rng, 1e-6, 1e6)), b0=b0, b1=b1, muR0=0.0, muR1=3.0,
        mu_inf=mu_star + loguniform(rng, 1e-10, 10.0), rhoR=1.0, M=1.0,
        r0=loguniform(rng, 1e-6, 1e6) * (b0 + b1),
    )


def within_one_ulp(a, b):
    return a == b or math.nextafter(a, b) == b


TEST_ENERGIES = [
    LinearRamp(),
    SkewedDerivative(1.0),
    NaNDerivative(1.0),
    NaNCurvatureAboveTwo(1.0),
    NaNAtOnePoint(1.0, "w"),
    NaNAtOnePoint(1.0, "dw"),
    NaNAtOnePoint(1.0, "d2w"),
    Wavy(1.0),
]


@pytest.mark.parametrize(
    "energy",
    TEST_ENERGIES,
    ids=["linear-ramp", "skewed-dw", "nan-dw", "nan-d2w-above-2", "nan-w-at-one", "nan-dw-at-one",
         "nan-d2w-at-one", "wavy"],
)
def test_validate_and_oracle_match_the_array_forms_on_test_energies(energy):
    with np.errstate(all="ignore"):
        expected = array_validate(energy, 0.1, 10.0, 100)
    assert validate(energy, 0.1, 10.0, 100) == expected
    p = ModelParams(energy=energy, b0=1.0, b1=1.0, muR0=0.0, muR1=3.0, mu_inf=2.0,
                    rhoR=1.0, M=1.0, r0=1.0)
    for lam_max in (1.5, 4.0, 100.0):
        expected = array_oracle(p, lam_max, 10000)
        brackets = grid_scan_oracle(p, lam_max, 10000)
        assert len(brackets) == len(expected)
        for got, ref in zip(brackets, expected):
            assert all(math.isclose(a - 1.0, b - 1.0, rel_tol=1e-14) for a, b in zip(got, ref))


@pytest.mark.parametrize(
    "a, b, n", [(0.1, 10.0, 100), (0.3, 7.7, 5), (148.0e-13, 148.0, 10000), (0.9, 1.1, 3)]
)
def test_float_geomspace_is_numpys(a, b, n):
    got, ref = _geomspace(a, b, n), np.geomspace(a, b, n).tolist()
    assert len(got) == n and got[0] == a and got[-1] == b
    assert all(math.isclose(x, y, rel_tol=1e-14) for x, y in zip(got, ref))


@pytest.mark.parametrize(
    "a, b, n",
    [
        (1e-6, 1e6, 121), (1.0, 3.0, 5), (0.1, 10.0, 256), (2.5, 2.5, 4), (1.0, 1e308, 7),
        (math.log10(1e-6), math.log10(1e6), 2500),
        # a subnormal step underflows to 0: numpy scales i / (n - 1) instead
        (5e-324, 1e-323, 100), (5e-324, 2e-323, 257), (1e308, math.inf, 4),
    ],
)
def test_float_linspace_is_numpys_bit_for_bit(a, b, n):
    with np.errstate(invalid="ignore"):
        ref = np.linspace(a, b, n)
    assert np.array(_linspace(a, b, n)).tobytes() == ref.tobytes()


def test_float_linspace_is_numpys_on_draws():
    rng = random.Random(20261019)
    for _ in range(2000):
        a = 10.0 ** rng.uniform(-320.0, 300.0)
        b = a * (1.0 + 10.0 ** rng.uniform(-17.0, 8.0))
        n = rng.randint(2, 600)
        assert np.array(_linspace(a, b, n)).tobytes() == np.linspace(a, b, n).tobytes()


def test_validate_matches_the_array_form_on_draws():
    rng = random.Random(20261018)
    for _ in range(300):
        energy = NeoHookean(loguniform(rng, 1e-300, 1e308))
        with np.errstate(all="ignore"):
            expected = array_validate(energy, 0.1, 10.0, 100)
        assert validate(energy, 0.1, 10.0, 100) == expected, energy


@pytest.mark.parametrize(
    "lam_min, lam_max, n", [(0.5, 2.0, 37), (0.01, 100.0, 1000), (0.9, 1.1, 3)]
)
def test_validate_matches_the_array_form_on_other_grids(lam_min, lam_max, n):
    for G in (1e-6, 0.37, 1.0, 12.5, 3e5):
        energy = NeoHookean(G)
        assert validate(energy, lam_min, lam_max, n) == array_validate(energy, lam_min, lam_max, n)


def test_oracle_matches_the_array_form_on_draws():
    """Same bracket counts; endpoints within 1 ulp at the CLI's scan bound.

    At an arbitrary bound numpy's log10 of a scan end can also differ in the
    last bit, which moves every point by up to about ln(10) ulp(log10 u)
    relative in u = lam - 1 (some 2 ulps of lam); there u is compared to
    1e-14 relative.
    """
    rng = random.Random(7)
    for _ in range(300):
        p = draw_params(rng)
        assert solvable(p).ok
        cli_bound = max(2.0, 2.0 * solve(p).nu - 1.0)
        for lam_max in (cli_bound, 1.0 + loguniform(rng, 1e-15, 1e3)):
            expected = array_oracle(p, lam_max, 10000)
            brackets = grid_scan_oracle(p, lam_max, 10000)
            assert len(brackets) == len(expected), (p, lam_max)
            for got, ref in zip(brackets, expected):
                for a, b in zip(got, ref):
                    if lam_max == cli_bound:
                        assert within_one_ulp(a, b), (p, lam_max)
                    else:
                        assert math.isclose(a - 1.0, b - 1.0, rel_tol=1e-14), (p, lam_max)
