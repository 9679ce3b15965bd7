"""Tests for the bracketed Newton root finder and the stretch guards.

The root finder is judged by what it costs (energy calls per solve, over a
seeded draw that reaches thin shells and both signs of Vstarstar) and by
what a bad derivative may change (only the cost).  The guards are pinned
input by input: each must raise or pass exactly as the plain numpy test
``np.any(np.asarray(lam) <= 0)`` (or ``< 1`` for g and h) decides.
"""

import ast
import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import accrete
from accrete import treadmill
from accrete.strain_energy import NeoHookean, _check_positive_stretch, validate
from accrete.treadmill import (
    ModelParams,
    NoTreadmillingState,
    _check_lam,
    compute_scales,
    g,
    h,
    solve,
    solve_eta,
)


class CountingEnergy(NeoHookean):
    """Neo-Hookean energy that counts its w, dw and d2w calls."""

    def __init__(self, G):
        super().__init__(G)
        self.calls = {"w": 0, "dw": 0, "d2w": 0}

    def w(self, lam):
        self.calls["w"] += 1
        return super().w(lam)

    def dw(self, lam):
        self.calls["dw"] += 1
        return super().dw(lam)

    def d2w(self, lam):
        self.calls["d2w"] += 1
        return super().d2w(lam)


class SkewedDerivative(NeoHookean):
    """Neo-Hookean with a first derivative 1% too large."""

    def dw(self, lam):
        return 1.01 * super().dw(lam)


class WrongSignDerivative(NeoHookean):
    """Neo-Hookean whose first derivative points the wrong way."""

    def dw(self, lam):
        return -super().dw(lam)


def draw(rng, energy):
    """G, b0, b1, the drive mu_inf - muStar and eta, log-uniform.

    The drive runs from 1e-12 to 10 and eta from 1e-6 to 1e6, so the draw
    holds thin shells and, with muR1 = 3, both signs of Vstarstar.
    """
    G, b0, b1 = 10.0 ** rng.uniform(-1.0, 1.0, 3)
    drive = 10.0 ** rng.uniform(-12.0, 1.0)
    eta = 10.0 ** rng.uniform(-6.0, 6.0)
    mu_star = 3.0 * b0 / (b0 + b1)
    return ModelParams(
        energy=energy(G), b0=b0, b1=b1, muR0=0.0, muR1=3.0,
        mu_inf=mu_star + drive, rhoR=1.0, M=1.0, r0=eta * (b0 + b1),
    )


def test_energy_calls_per_solve():
    rng = np.random.default_rng(20261018)
    w_calls, dw_calls, signs = [], [], set()
    for _ in range(400):
        p = draw(rng, CountingEnergy)
        signs.add(compute_scales(p).Vstarstar > 0.0)
        solve(p)
        w_calls.append(p.energy.calls["w"])
        dw_calls.append(p.energy.calls["dw"])
        assert p.energy.calls["d2w"] == 0
    assert signs == {True, False}
    # The secant/bisection finder this replaced needed 23 w calls at the
    # median and 117 at worst on this draw.  Today's counts are the bounds,
    # so that the number of F evaluations per solve cannot creep up.
    assert np.median(w_calls) <= 3
    assert max(w_calls) <= 9
    assert max(dw_calls) <= 7


def test_energy_calls_per_validate():
    # w, dw and d2w once at each of the 100 points of the CLI's grid, w at
    # two pairs of finite-difference neighbours of each, and d2w(1), w(1) and
    # dw(1) once: 703 calls, where checking each assumption on its own
    # evaluation took 953 (w 651, dw 201, d2w 101)
    e = CountingEnergy(1.0)
    assert validate(e, 0.1, 10.0, 100).ok
    assert e.calls == {"w": 501, "dw": 101, "d2w": 101}


def test_solve_builds_no_scales_or_solvability(monkeypatch):
    """The solves work on plain floats: with Scales and Solvability unable to
    be built, solve and solve_eta still return the same states."""
    rng = np.random.default_rng(11)
    params = [draw(rng, NeoHookean) for _ in range(50)]
    etas = np.geomspace(1e-6, 1e6, 25)
    states = [solve(p) for p in params]
    table = solve_eta(params[0], etas)
    unsolvable = dataclasses.replace(params[0], muR1=-1.0)

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built")

    monkeypatch.setattr(treadmill.Scales, "__init__", refuse)
    monkeypatch.setattr(treadmill.Solvability, "__init__", refuse)
    with pytest.raises(AssertionError, match="Scales built"):
        compute_scales(params[0])
    assert [solve(p) for p in params] == states
    assert [a.tobytes() for a in dataclasses.astuple(solve_eta(params[0], etas))] == [
        a.tobytes() for a in dataclasses.astuple(table)
    ]
    with pytest.raises(NoTreadmillingState):
        solve(unsolvable)


@pytest.mark.parametrize("energy", [SkewedDerivative, WrongSignDerivative])
def test_bad_derivative_costs_iterations_not_the_answer(energy):
    rng = np.random.default_rng(7)
    for _ in range(100):
        state = rng.bit_generator.state
        good = solve(draw(rng, NeoHookean))
        rng.bit_generator.state = state
        bad = solve(draw(rng, energy))
        assert bad.nu == pytest.approx(good.nu, rel=1e-12, abs=0.0)


def thickness_reference(G, mu_inf, eta):
    """d/r0 at 50 digits for b0 = b1 = rhoR = M = 1, muR0 = 0, muR1 = 3.

    muStar = 1.5 and Vstar = 1.5 are exact, so the drive is exact too.  The
    energy is written as (G/2) x**2 (2 lam**2 + 1)/lam**4, x = lam**2 - 1.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        drive = (mpmath.mpf(mu_inf) - mpmath.mpf(1.5)) / mpmath.mpf(1.5)
        eta = mpmath.mpf(eta)

        def F(u):
            lam2 = (1 + u) ** 2
            x = lam2 - 1
            w = mpmath.mpf(G) / 2 * x * x * (2 * lam2 + 1) / (lam2 * lam2)
            return drive - eta * u / (1 + (1 + eta) * u) - w / mpmath.mpf(1.5)

        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        while F(hi) > 0:
            lo, hi = hi, 2 * hi
        for _ in range(200):
            mid = (lo + hi) / 2
            if F(mid) > 0:
                lo = mid
            else:
                hi = mid
        return float(lo)


@pytest.mark.parametrize("drive", [1e-12, 1e-8, 1e-4, 1.0, 4.0])
@pytest.mark.parametrize("eta", [1e-6, 1.0, 1e6])
def test_thickness_matches_high_precision_reference(drive, eta):
    G = 1.0
    mu_inf = 1.5 + drive
    p = ModelParams(
        energy=NeoHookean(G), b0=1.0, b1=1.0, muR0=0.0, muR1=3.0,
        mu_inf=mu_inf, rhoR=1.0, M=1.0, r0=2.0 * eta,
    )
    ref = thickness_reference(G, mu_inf, eta)
    nu = solve(p).nu
    # nu is a float near 1, so d/r0 = nu - 1 carries an absolute error of
    # at least half an ulp of nu; a few ulp of nu are allowed on top.
    assert abs((nu - 1.0) - ref) <= 1e-13 * ref + 4.0 * 2.0**-52 * nu


# ---------------------------------------------------------------------------
# guards

GUARD_CASES = [
    # (lam, raises for lam <= 0, raises for lam < 1)
    (2.0, False, False),
    (1.0, False, False),
    (0.5, False, True),
    (0.0, True, True),
    (-0.0, True, True),
    (-1.0, True, True),
    (float("nan"), False, False),
    (2, False, False),
    (0, True, True),
    (np.float64(2.0), False, False),
    (np.float64(0.5), False, True),
    (np.float64(0.0), True, True),
    (np.float64("nan"), False, False),
    (np.array(2.0), False, False),
    (np.array(0.5), False, True),
    (np.array(0.0), True, True),
    (np.array([2.0, 3.0]), False, False),
    (np.array([2.0, 0.5]), False, True),
    (np.array([2.0, 0.0]), True, True),
    (np.array([np.nan, 2.0]), False, False),
]


@pytest.mark.parametrize("lam, nonpositive, below_one", GUARD_CASES)
def test_guard_table_is_the_numpy_rule(lam, nonpositive, below_one):
    assert nonpositive == bool(np.any(np.asarray(lam) <= 0.0))
    assert below_one == bool(np.any(np.asarray(lam) < 1.0))


@pytest.mark.parametrize("method", ["w", "dw", "d2w"])
@pytest.mark.parametrize("lam, nonpositive, below_one", GUARD_CASES)
def test_energy_guard(method, lam, nonpositive, below_one):
    fn = getattr(NeoHookean(1.0), method)
    if nonpositive:
        with pytest.raises(ValueError, match="stretch must be positive"):
            fn(lam)
    else:
        fn(lam)


@pytest.mark.parametrize(
    "curve",
    [
        lambda lam: g(1.0, lam, 1.0),
        lambda lam: h(lam, 0.5, 1.0, NeoHookean(1.0)),
    ],
    ids=["g", "h"],
)
@pytest.mark.parametrize("lam, nonpositive, below_one", GUARD_CASES)
def test_curve_guard(curve, lam, nonpositive, below_one):
    if below_one:
        with pytest.raises(ValueError, match="lam must be >= 1"):
            curve(lam)
    else:
        curve(lam)


def _numpy_typed_guard(lam, bound, strict, finite):
    """The stretch guards as they were written with numpy at module scope:
    exact float and np.float64 compared directly, all else through numpy.
    With finite, +inf is rejected as well."""
    if type(lam) is float or type(lam) is np.float64:
        return (lam < bound if strict else lam <= bound) or (finite and lam == np.inf)
    below = np.asarray(lam) < bound if strict else np.asarray(lam) <= bound
    return bool(np.any(below)) or (finite and bool(np.any(np.asarray(lam) == np.inf)))


def _equivalence_inputs(bound):
    values = [bound, -0.0 * bound, np.nextafter(bound, -np.inf), np.nextafter(bound, np.inf),
              bound - 0.5, bound + 0.5, -1.0, np.inf, -np.inf, np.nan]
    for v in values:
        yield from (v, np.float64(v), np.array(v), [v], [2.0, v], np.array([2.0, v]))
    yield from ([], np.array([]), int(bound), np.float32(bound - 0.5), np.array([[bound, 2.0]]))


@pytest.mark.parametrize(
    "guard, bound, strict, finite",
    [(_check_positive_stretch, 0.0, False, True), (_check_lam, 1.0, True, False)],
    ids=["positive-stretch", "lam"],
)
def test_guards_decide_as_the_numpy_typed_guards(guard, bound, strict, finite):
    for lam in _equivalence_inputs(bound):
        if _numpy_typed_guard(lam, bound, strict, finite):
            with pytest.raises(ValueError):
                guard(lam)
        else:
            guard(lam)


# ---------------------------------------------------------------------------
# energy bits


@pytest.mark.parametrize("method", ["w", "dw"])
def test_energy_bits_agree_for_floats_and_arrays(method):
    """The batch solve matches solve bit for bit only if w and dw give the
    same bits for a float as for a float64 array element."""
    fn = getattr(NeoHookean(1.7), method)
    rng = np.random.default_rng(20261018)
    lams = np.exp(rng.uniform(0.0, np.log(1e9), 100_000))
    from_floats = np.array([fn(lam) for lam in lams.tolist()])
    np.testing.assert_array_equal(from_floats.view(np.int64), fn(lams).view(np.int64))
    for lam, nonpositive, _ in GUARD_CASES:
        if nonpositive or not np.all(np.isfinite(lam)):
            continue
        as_array = np.array(lam, dtype=float, ndmin=1)
        got = np.array([fn(x) for x in as_array.tolist()])
        assert got.tobytes() == fn(as_array).tobytes()
        assert np.asarray(fn(lam), dtype=float).tobytes() == fn(np.asarray(lam, dtype=float)).tobytes()


# ---------------------------------------------------------------------------
# start-up


def test_sources_parse_as_python_3_10():
    """pyproject.toml promises requires-python >= 3.10."""
    paths = sorted(Path(accrete.__file__).resolve().parent.glob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_cli_import_does_not_load_scipy(child_env):
    code = "import sys, accrete.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_builds_three_dataclasses(child_env):
    # a dataclass decoration execs its generated methods, about 1 ms of a
    # cold start each; the other accrete classes build without exec
    code = """if True:
        import sys, accrete.cli
        print(sorted(cls.__qualname__ for name, module in list(sys.modules.items())
                     if name.split(".")[0] == "accrete"
                     for cls in vars(module).values()
                     if isinstance(cls, type) and cls.__module__ == name
                     and hasattr(cls, "__dataclass_fields__")))
    """
    proc = subprocess.run(
        [sys.executable, "-c", code], env=child_env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['ModelParams', 'Scales', 'TreadmillState']"


COLD_CODE = """
import sys

def loaded():
    return [sorted(m[8:] for m in sys.modules if m.startswith("accrete.")),
            "json" in sys.modules, "numpy" in sys.modules]

import accrete
after_package = loaded()
import accrete.cli
after_cli = loaded()
code = accrete.cli.main(sys.argv[1:])
print(repr([after_package, after_cli, loaded(), code]))
"""


def run_cold(child_env, tmp_path, argv):
    """Of one cold process running cli.main(argv): [numpy loaded after
    import accrete, after import accrete.cli, after the run, exit code],
    and [accrete's modules loaded, json loaded] at the same three points."""
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", COLD_CODE, *argv, "--out", str(out)],
        env=child_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.stat().st_size > 0
    *points, code = ast.literal_eval(proc.stdout)
    return [numpy for _, _, numpy in points] + [code], [[modules, json] for modules, json, _ in points]


@pytest.mark.parametrize(
    "argv, loads_numpy",
    [
        (["solve"], False),
        (["solve", "--format", "json"], False),
        (["sweep"], False),
        (["profiles", "--format", "json"], False),
        (["validate"], False),
        (["validate", "--format", "json"], False),
        # above cli._ARRAY_ROWS rows, sweep and profiles work on arrays
        (["sweep", "--points", "2500"], True),
        (["profiles", "--grid-n", "10000"], True),
    ],
)
def test_only_the_array_commands_load_numpy(child_env, tmp_path, argv, loads_numpy):
    assert run_cold(child_env, tmp_path, argv)[0] == [False, False, loads_numpy, 0]


CLI_MODULES = ["cli", "strain_energy", "treadmill"]


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["solve"], CLI_MODULES),
        (["validate"], CLI_MODULES),
        (["sweep"], CLI_MODULES),
        (["profiles"], sorted([*CLI_MODULES, "diffusion", "mechanics"])),
    ],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_each_command_loads_only_the_modules_it_runs(child_env, tmp_path, argv, modules, fmt):
    """import accrete loads no module of its own, import accrete.cli only
    what every command needs, and only JSON output loads json."""
    table = run_cold(child_env, tmp_path, [*argv, "--format", fmt])[1]
    assert table == [[[], False], [CLI_MODULES, False], [modules, fmt == "json"]]


def test_failing_validate_loads_no_numpy(child_env, tmp_path):
    # muR1 < muR0: the solvability check fails, so validate exits 1
    argv = ["validate", "--set", "chem.muR1=-1"]
    assert run_cold(child_env, tmp_path, argv)[0] == [False, False, False, 1]
