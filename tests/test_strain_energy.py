"""Tests for the reduced strain-energy abstraction and its neo-Hookean instance.

Frozen expected values were computed by hand from the closed form
w(lam) = (G/2)(lam**-4 + 2 lam**2 - 3); they are dyadic rationals, so the
comparisons can be exact.
"""

import math

import numpy as np
import pytest

from accrete.strain_energy import (
    NeoHookean,
    ReducedEnergy,
    modulus_scale,
    validate,
)


@pytest.mark.parametrize(
    "G, lam, expected",
    [
        (1.0, 1.0, 0.0),
        (1.0, 2.0, 2.53125),   # (1/2)(0.0625 + 8 - 3)
        (2.0, 2.0, 5.0625),    # linear in G
    ],
)
def test_w_frozen_values(G, lam, expected):
    assert NeoHookean(G).w(lam) == expected


@pytest.mark.parametrize(
    "G, lam, expected",
    [
        (1.0, 1.0, 0.0),
        (1.0, 2.0, 3.9375),    # 2(2 - 2**-5)
        (1.0, 0.5, -63.0),     # 2(0.5 - 32), compressive side is negative
    ],
)
def test_dw_frozen_values(G, lam, expected):
    assert NeoHookean(G).dw(lam) == expected


@pytest.mark.parametrize(
    "G, lam, expected",
    [
        (1.0, 1.0, 12.0),      # 2(1 + 5)
        (0.5, 1.0, 6.0),
    ],
)
def test_d2w_frozen_values(G, lam, expected):
    assert NeoHookean(G).d2w(lam) == expected


def test_d2w_large_stretch_asymptote():
    # lam**-6 dies off; the limit is 2G
    assert abs(NeoHookean(1.0).d2w(1e3) - 2.0) <= 1e-9


@pytest.mark.parametrize("bad", [0.0, -1.0, -1e-9])
def test_domain_errors(bad):
    e = NeoHookean(1.0)
    with pytest.raises(ValueError):
        e.w(bad)
    with pytest.raises(ValueError):
        e.dw(bad)
    with pytest.raises(ValueError):
        e.d2w(bad)


@pytest.mark.parametrize("method", ["w", "dw", "d2w"])
def test_base_energy_defines_no_method(method):
    with pytest.raises(NotImplementedError):
        getattr(ReducedEnergy(), method)(2.0)


def test_neo_hookean_repr():
    assert repr(NeoHookean(2.5)) == "NeoHookean(G=2.5)"


@pytest.mark.parametrize("G", [0.0, -2.0, math.inf])
def test_modulus_must_be_positive(G):
    with pytest.raises(ValueError):
        NeoHookean(G)


def test_identity_is_stress_free():
    for G in (0.25, 1.0, 7.0):
        e = NeoHookean(G)
        assert e.w(1.0) == 0.0
        assert e.dw(1.0) == 0.0


def test_sign_condition_on_grid():
    e = NeoHookean(2.0)
    grid = np.geomspace(0.2, 5.0, 41)
    for lam in grid[np.abs(grid - 1.0) > 1e-12]:
        assert e.dw(lam) * (lam - 1.0) > 0.0
        assert e.w(lam) > 0.0


def test_growth_on_tensile_ray():
    e = NeoHookean(1.0)
    lams = np.linspace(1.0, 50.0, 200)
    w = e.w(lams)
    assert np.all(np.diff(w) > 0.0)
    assert w[-1] > 1e3


def test_homogeneous_in_G():
    # Doubling G is an exact power-of-two scaling, so equality is exact.
    e1, e2 = NeoHookean(1.3), NeoHookean(2.6)
    for lam in np.geomspace(0.3, 4.0, 17):
        assert e2.w(lam) == 2.0 * e1.w(lam)
        assert e2.dw(lam) == 2.0 * e1.dw(lam)
        assert e2.d2w(lam) == 2.0 * e1.d2w(lam)


def test_derivatives_match_finite_differences_quadratically():
    """Central differences of w converge to dw at O(step**2)."""
    e = NeoHookean(1.0)
    for lam in np.geomspace(0.2, 5.0, 9):
        errs = []
        for eps in (1e-3, 5e-4):
            s = eps * lam
            fd = (e.w(lam + s) - e.w(lam - s)) / (2.0 * s)
            errs.append(abs(fd - e.dw(lam)))
        ratio = errs[0] / errs[1]
        assert 3.5 <= ratio <= 4.5, f"lam={lam}: ratio {ratio}"


def test_second_derivative_matches_finite_differences():
    e = NeoHookean(3.0)
    for lam in np.geomspace(0.3, 4.0, 9):
        s = 1e-4 * lam
        fd2 = (e.w(lam + s) - 2.0 * e.w(lam) + e.w(lam - s)) / (s * s)
        assert fd2 == pytest.approx(e.d2w(lam), rel=1e-6)


def test_modulus_scale_recovers_G():
    assert modulus_scale(NeoHookean(0.75)) == 0.75
    assert modulus_scale(NeoHookean(4.0)) == 4.0


def test_derivatives_keep_the_bits_of_the_doubled_modulus_form():
    """dw and d2w are 2 (G x), which doubles exactly; wherever G x is a
    normal float that has the bits of the old form (2 G) x."""
    rng = np.random.default_rng(20261018)
    G = np.exp(rng.uniform(np.log(1e-100), np.log(1e100), 2000))
    lam = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 2000))

    def old_dw(G, lam):
        l2 = lam * lam
        return 2.0 * G * (lam - 1.0 / (l2 * l2 * lam))

    def old_d2w(G, lam):
        q = 1.0 / lam  # lam**-6 as d2w writes it, without a power
        q2 = q * q
        return 2.0 * G * (1.0 + 5.0 * (q2 * q2 * q2))

    for g, x in zip(G.tolist(), lam.tolist()):
        e = NeoHookean(g)
        assert e.dw(x) == old_dw(g, x) and e.d2w(x) == old_d2w(g, x)
    for g in G[:20].tolist():
        e = NeoHookean(g)
        assert e.dw(lam).tobytes() == old_dw(g, lam).tobytes()
        assert e.d2w(lam).tobytes() == old_d2w(g, lam).tobytes()


def test_d2w_is_lam_to_the_minus_six_within_a_few_ulp():
    rng = np.random.default_rng(20261019)
    lam = np.exp(rng.uniform(np.log(1e-40), np.log(1e40), 5000))
    e = NeoHookean(1.0)
    assert np.all(np.abs(e.d2w(lam) / (2.0 * (1.0 + 5.0 * lam**-6)) - 1.0) <= 8 * 2.0**-52)


def test_d2w_of_a_tiny_float_is_inf_as_in_an_array():
    """Below lam = 4e-52 lam**-6 overflows; a float gives inf, not OverflowError."""
    e = NeoHookean(1.0)
    tiny = [1e-60, 4e-52, 1e-300, 5e-324]
    with np.errstate(over="ignore"):
        assert e.d2w(np.array(tiny)).tolist() == [e.d2w(x) for x in tiny] == [math.inf] * 4
    report = validate(e, 1e-60, 10.0, 100)
    assert {c.name: c.passed for c in report.checks}["second-derivative-consistency"] is False
    assert report.checks[-1].detail == "max relative deviation nan"


def test_dw_of_a_tiny_float_is_minus_inf_as_in_an_array():
    """Below lam = 2e-65 lam**5 underflows to 0; a float gives -inf, not
    ZeroDivisionError, and above it a float keeps the bits of an array."""
    e = NeoHookean(1.0)
    tiny = [1e-70, 2e-65, 1e-300, 5e-324]
    near = np.geomspace(1e-66, 1e-60, 200)
    with np.errstate(divide="ignore", over="ignore"):
        assert e.dw(np.array(tiny)).tolist() == [e.dw(x) for x in tiny] == [-math.inf] * 4
        assert e.dw(near).tolist() == [e.dw(x) for x in near.tolist()]
    report = validate(e, 1e-70, 10.0, 100)
    assert {c.name: c.passed for c in report.checks}["first-derivative-consistency"] is False


@pytest.mark.parametrize("method", ["w", "dw", "d2w"])
@pytest.mark.parametrize(
    "lam",
    [math.inf, np.float64(np.inf), np.array(np.inf), np.array([2.0, np.inf]), [2.0, math.inf]],
    ids=["float", "float64", "0-d", "array", "list"],
)
def test_infinite_stretch_is_rejected(method, lam):
    """w(inf) would be inf/inf = NaN and dw(inf) inf, with no error."""
    with pytest.raises(ValueError, match="stretch must be finite"):
        getattr(NeoHookean(1.0), method)(lam)


@pytest.mark.parametrize("method", ["w", "dw", "d2w"])
def test_nan_stretch_still_passes(method):
    fn = getattr(NeoHookean(1.0), method)
    assert math.isnan(fn(math.nan))
    assert np.isnan(fn(np.array([2.0, np.nan]))).tolist() == [False, True]


def test_dw_does_not_overflow_before_the_true_value_does():
    # 2 G overflows at G = 1e308, but G (lam - lam**-5) does not
    e = NeoHookean(1e308)
    assert e.dw(1.0) == 0.0
    assert e.dw(np.array([1.0])).tolist() == [0.0]
    assert e.dw(1.1) == 2.0 * (1e308 * (1.1 - 1.1**-5))
    assert np.isfinite(e.dw(1.1))
    with np.errstate(over="ignore", invalid="ignore"):  # w overflows on the grid
        report = validate(e, 0.1, 10.0, 100)
    assert {c.name: c.passed for c in report.checks}["stationary-at-identity"]


# ---------------------------------------------------------------------------
# validate()


class LinearRamp(ReducedEnergy):
    """Deliberately ill-posed energy w = G (lam - 1)."""

    def __init__(self, G=1.0):
        self.G = G

    def w(self, lam):
        return self.G * (np.asarray(lam, dtype=float) - 1.0)

    def dw(self, lam):
        return self.G + 0.0 * np.asarray(lam, dtype=float)

    def d2w(self, lam):
        return 0.0 * np.asarray(lam, dtype=float)


class SkewedDerivative(NeoHookean):
    """Neo-Hookean with a deliberately wrong first derivative."""

    def dw(self, lam):
        return 1.01 * super().dw(lam)


def loop_deviation(energy, grid, order):
    """Largest relative deviation of dw or d2w from central differences of
    w, one scalar call at a time: the reference for validate's array form."""
    gscale = modulus_scale(energy)
    rel = 1e-5 if order == 1 else 1e-4
    worst = 0.0
    for lam in map(float, grid):
        s = rel * lam
        wp, wm = float(energy.w(lam + s)), float(energy.w(lam - s))
        if order == 1:
            fd, exact = (wp - wm) / (2.0 * s), float(energy.dw(lam))
        else:
            fd = (wp - 2.0 * float(energy.w(lam)) + wm) / (s * s)
            exact = float(energy.d2w(lam))
        worst = max(worst, abs(exact - fd) / max(abs(exact), gscale))
    return worst


@pytest.mark.parametrize("G", [1e-6, 0.37, 1.0, 12.5, 3e5])
@pytest.mark.parametrize("lam_min, lam_max, n", [(0.1, 10.0, 100), (0.5, 2.0, 37), (0.01, 100.0, 1000)])
def test_derivative_checks_match_scalar_loop(G, lam_min, lam_max, n):
    energy = NeoHookean(G)
    checks = {c.name: c for c in validate(energy, lam_min, lam_max, n).checks}
    grid = np.geomspace(lam_min, lam_max, n)
    for order, name in ((1, "first-derivative-consistency"), (2, "second-derivative-consistency")):
        worst = loop_deviation(energy, grid, order)
        assert checks[name].detail == f"max relative deviation {worst:.3e}"
        assert checks[name].passed == (worst <= 1e-6)


class NaNDerivative(NeoHookean):
    """Neo-Hookean whose first derivative is NaN everywhere."""

    def dw(self, lam):
        return np.nan * super().dw(lam)


class NaNCurvatureAboveTwo(NeoHookean):
    """Neo-Hookean whose second derivative is NaN above lam = 2."""

    def d2w(self, lam):
        return np.where(np.asarray(lam) > 2.0, np.nan, super().d2w(lam))


@pytest.mark.parametrize(
    "energy, name",
    [
        (NaNDerivative(1.0), "first-derivative-consistency"),
        (NaNCurvatureAboveTwo(1.0), "second-derivative-consistency"),
    ],
    ids=["nan-dw", "nan-d2w-above-2"],
)
def test_derivative_check_fails_on_nan(energy, name):
    checks = {c.name: c for c in validate(energy, 0.1, 10.0, 100).checks}
    assert not checks[name].passed
    assert checks[name].detail == "max relative deviation nan"


class NaNAtOnePoint(NeoHookean):
    """Neo-Hookean whose w, dw or d2w is NaN within 0.1% of one interior
    point of the grid geomspace(0.1, 10, 100), its 31st, and nowhere else
    on the grid."""

    AT = 0.1 * 100.0 ** (30 / 99)

    def __init__(self, G, which):
        super().__init__(G)
        self.which = which

    def _poison(self, name, lam):
        value = getattr(super(), name)(lam)
        if name != self.which:
            return value
        return np.where(np.abs(np.asarray(lam) / self.AT - 1.0) < 1e-3, np.nan, value)

    def w(self, lam):
        return self._poison("w", lam)

    def dw(self, lam):
        return self._poison("dw", lam)

    def d2w(self, lam):
        return self._poison("d2w", lam)


@pytest.mark.parametrize(
    "which, name, detail",
    [
        ("w", "positive-away-from-identity", "min w off identity = nan"),
        ("dw", "first-derivative-consistency", "max relative deviation nan"),
        ("d2w", "second-derivative-consistency", "max relative deviation nan"),
    ],
)
def test_check_fails_on_nan_at_one_interior_point(which, name, detail):
    # a min or max that skips a NaN not in first place would pass these
    checks = {c.name: c for c in validate(NaNAtOnePoint(1.0, which), 0.1, 10.0, 100).checks}
    assert not checks[name].passed
    assert checks[name].detail == detail


def test_validate_passes_for_neo_hookean():
    report = validate(NeoHookean(1.0), 0.1, 10.0, 100)
    assert report.ok, report.failed()


def test_validate_flags_sign_violation():
    report = validate(LinearRamp(), 0.1, 10.0, 100)
    names = {c.name: c.passed for c in report.checks}
    assert not report.ok
    assert not names["sign-condition"]
    assert not names["positive-away-from-identity"]
    assert not names["stationary-at-identity"]
    # exactly the failed checks, in order
    assert report.failed() == [report.checks[i] for i in (1, 2, 3, 6)]
    assert report.checks[6].name == "second-derivative-consistency"


def test_validate_flags_wrong_derivative():
    report = validate(SkewedDerivative(1.0), 0.1, 10.0, 100)
    names = {c.name: c.passed for c in report.checks}
    assert not report.ok
    assert not names["first-derivative-consistency"]
    # everything not involving dw against w is still fine
    assert names["zero-at-identity"]


class Wavy(NeoHookean):
    """Neo-Hookean times 1 + 0.9 sin(5 lam): positive off identity and large
    at lam = 10, but not increasing on the tensile tail."""

    def w(self, lam):
        return super().w(lam) * (1.0 + 0.9 * np.sin(5.0 * np.asarray(lam)))


def test_validate_flags_growth_that_is_not_monotone():
    names = {c.name: c.passed for c in validate(Wavy(1.0), 0.1, 10.0, 100).checks}
    assert names["positive-away-from-identity"]
    assert not names["unbounded-growth"]


@pytest.mark.parametrize(
    "lam_min, lam_max, n",
    [(1.5, 10.0, 100), (0.1, 0.9, 100), (-0.1, 10.0, 100), (0.1, 10.0, 2), (0.1, math.inf, 100)],
)
def test_validate_rejects_bad_grid(lam_min, lam_max, n):
    with pytest.raises(ValueError):
        validate(NeoHookean(1.0), lam_min, lam_max, n)
