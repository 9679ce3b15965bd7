"""End-to-end tests of the command-line interface.

Most tests drive main() directly and read stdout through capsys; one
subprocess smoke test covers the installed module entry point.
"""

import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from itertools import zip_longest
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from accrete import cli, mechanics
from accrete.strain_energy import NeoHookean, _geomspace
from accrete.treadmill import (
    ModelParams,
    NumericFailure,
    compute_scales,
    large_bead_asymptote,
    small_bead_asymptote,
    solve,
)

SWEEP_HEADER = (
    "eta,nu,d_over_r0,V0,V0_over_Vstar,mu0,f0,f1,d_small_bead_est,d_diffusion_limited_est"
)
PROFILE_HEADER = "r,side,sigma_r_over_G,sigma_theta_over_G,lam_r,lam_theta,v_over_V0,h,mu"


def default_params(**kw):
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


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    lines = text.strip().splitlines()
    header = lines[0]
    rows = [dict(zip(header.split(","), ln.split(","))) for ln in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# solve


def test_solve_csv_matches_library(capsys):
    code, out, _ = run(capsys, ["solve"])
    assert code == 0
    header, rows = read_csv(out)
    assert header == "name,value"
    values = {r["name"]: r["value"] for r in rows}
    st = solve(default_params())
    s = compute_scales(default_params())
    # 17 significant digits round-trip float64 exactly
    assert float(values["nu"]) == st.nu
    assert float(values["V0"]) == st.V0
    assert float(values["mu0"]) == st.mu0
    assert float(values["Vstar"]) == s.Vstar
    assert float(values["eta"]) == s.eta


def test_solve_json_document(capsys):
    code, out, _ = run(capsys, ["solve", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"params", "scales", "state"}
    assert doc["params"]["chem"]["mu_inf"] == 2.5
    assert doc["params"]["energy"]["kind"] == "neo-hookean"
    st = solve(default_params())
    assert doc["state"]["nu"] == st.nu
    assert doc["state"]["V1"] == -st.V0
    assert doc["scales"]["eta"] == 0.5


def test_solve_writes_file(tmp_path, capsys):
    path = tmp_path / "state.csv"
    code, out, _ = run(capsys, ["solve", "--out", str(path)])
    assert code == 0
    assert out == ""
    assert path.read_text().startswith("name,value\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("target", ["missing/state.out", "."])
def test_unwritable_output_file_is_input_error(tmp_path, capsys, target, fmt):
    # a missing directory (FileNotFoundError) or a directory (IsADirectoryError)
    path = tmp_path / target
    code, out, err = run(capsys, ["solve", "--out", str(path), "--format", fmt])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write output file {str(path)!r}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("read", [0, 10])
def test_a_reader_that_stops_early_is_no_failure(child_env, read, fmt):
    # as `accrete sweep | head -c 10`: the text is far more than a pipe holds
    proc = subprocess.Popen(
        [sys.executable, "-m", "accrete.cli", "sweep", "--points", "3000", "--format", fmt],
        env=child_env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


@pytest.mark.parametrize("argv", [["solve"], ["sweep", "--points", "3000"]])
def test_a_full_stdout_is_input_error(child_env, argv):
    # as --out on a full disk: one error line and exit 2, no traceback, and
    # the flush at exit does not fail again (which would exit 120)
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "accrete.cli", *argv],
            env=child_env,
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write output: [Errno 28] No space left on device\n"


def test_config_file_and_set_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# chemistry with a strong bath\n"
        "chem.muR1 = 6.0\n"
        "chem.mu_inf = 4.0   # overridden below\n"
        "\n"
        "geom.r0 = 2e-8\n"
    )
    code, out, _ = run(
        capsys,
        ["solve", "--config", str(cfg), "--set", "chem.mu_inf=5.53125"],
    )
    assert code == 0
    _, rows = read_csv(out)
    values = {r["name"]: r["value"] for r in rows}
    st = solve(default_params(muR1=6.0, mu_inf=5.53125, r0=2e-8))
    assert float(values["nu"]) == st.nu
    assert float(values["eta"]) == 1e-8


@pytest.mark.parametrize(
    "line",
    ["chem.muRx = 1.0", "chem.muR1 1.0", "chem.muR1 = fast"],
)
def test_malformed_config_file(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, _, err = run(capsys, ["solve", "--config", str(cfg)])
    assert code == 2
    assert "error:" in err


def test_config_file_with_byte_order_mark(tmp_path, capsys):
    # editors on some systems start a UTF-8 file with EF BB BF
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_bytes(b"chem.mu_inf = 2.8\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    expected = run(capsys, ["solve", "--config", str(plain)])
    assert expected[0] == 0
    assert run(capsys, ["solve", "--config", str(marked)]) == expected


def test_missing_config_file(capsys):
    code, _, err = run(capsys, ["solve", "--config", "/nonexistent/run.cfg"])
    assert code == 2
    assert "cannot read config file" in err


@pytest.mark.parametrize(
    "text, error",
    [
        # every value of a repeated key is checked, not only the last
        ("energy.G = abc\nenergy.G = 2\n", "value for energy.G is not a number: 'abc'"),
        ("chem.mu_inf = nan\nchem.mu_inf = 2.5\n", "value for chem.mu_inf must be finite: 'nan'"),
        # the first bad line is named, whatever is wrong with a later one
        ("chem.mu_inf = x\ngeom.rr = 1\n", "value for chem.mu_inf is not a number: 'x'"),
    ],
)
def test_config_file_lines_are_checked_in_order(tmp_path, capsys, text, error):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert run(capsys, ["solve", "--config", str(cfg)]) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize(
    "item",
    ["chem.muR1", "chem.nope=1.0", "chem.muR1=abc", "chem.muR1=inf"],
)
def test_malformed_set_option(capsys, item):
    code, _, err = run(capsys, ["solve", "--set", item])
    assert code == 2
    assert "error:" in err


def test_unknown_energy_kind(capsys):
    code, _, err = run(capsys, ["solve", "--set", "energy.kind=gent"])
    assert code == 2
    assert "known kinds: neo-hookean" in err


def test_nonpositive_parameter_is_input_error(capsys):
    code, _, err = run(capsys, ["solve", "--set", "kinetics.b0=-1"])
    assert code == 2
    assert "must be positive" in err


# --set item -> the error it gives.  transport.M_outer is no key: the outer
# mobility multiplies V0 + V1 = 0 in every treadmilling state.
CHECKED_ITEMS = {
    "transport.M_outer=-1": "--set: unknown key 'transport.M_outer'",
    "transport.M_outer=0": "--set: unknown key 'transport.M_outer'",
    "geom.r0=-1": "r0 must be positive",
    "geom.r0=0": "r0 must be positive",
    "kinetics.b0=-1": "b0 must be positive",
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("item", list(CHECKED_ITEMS))
@pytest.mark.parametrize(
    "argv",
    [
        ["solve"],
        ["sweep", "--points", "3"],
        ["profiles", "--r1", "2", "--grid-n", "3"],
        ["validate"],
    ],
)
def test_every_command_checks_every_parameter(capsys, argv, item, fmt):
    # the value is checked when the config is resolved, whether or not the
    # command or the format reads it: sweep never reads r0
    code, out, err = run(capsys, argv + ["--format", fmt, "--set", item])
    assert code == 2
    assert out == ""
    assert err == f"error: {CHECKED_ITEMS[item]}\n"


def test_parser_options_are_the_run_config_options():
    # every command option sets the RunConfig field of its name, with its default
    keyed = {field for field, _ in cli._KEYS.values()}
    options = {
        name: default
        for name, default in cli.RunConfig._field_defaults.items()
        if name not in keyed
    }
    parser, seen = cli._build_parser(), set()
    for command in ("solve", "sweep", "profiles", "validate"):
        args = vars(parser.parse_args([command]))
        for name in ("command", "config", "set"):
            del args[name]
        assert args == {name: options.get(name, "no field") for name in args}
        seen |= args.keys()
    assert seen == options.keys()


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    # a parser and its four subparsers, for the first main call only
    built = []

    def init(self, *args, _f=argparse.ArgumentParser.__init__, **kwargs):
        built.append(kwargs.get("prog"))
        _f(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", init)
    cli._build_parser.cache_clear()
    assert run(capsys, ["solve"])[0] == 0
    assert run(capsys, ["sweep", "--points", "3", "--set", "chem.mu_inf=2.0"])[0] == 0
    assert len(built) == 5
    assert cli._build_parser() is cli._build_parser()


_COMMON_ACTIONS = [
    (("-h", "--help"), "help", "==SUPPRESS==", None, None, "_HelpAction", None,
     "show this help message and exit"),
    (("--config",), "config", None, None, None, "_StoreAction", None,
     "path to a key = value config file"),
    (("--out",), "out", None, None, None, "_StoreAction", None, "output path (default: stdout)"),
    (("--format",), "fmt", "csv", None, ("csv", "json"), "_StoreAction", None,
     "output format (default: %(default)s)"),
    (("--set",), "set", None, None, None, "_AppendAction", "KEY=VALUE",
     "override a config entry, e.g. --set chem.mu_inf=2.0 (repeatable)"),
]


def test_parser_structure_is_pinned():
    # the parser as argparse holds it, not as it renders help (that layout
    # varies between Python versions): per action its option strings, dest,
    # default, type, choices, kind, metavar and help, in order
    parser = cli._build_parser()
    assert (parser.prog, parser.description) == (
        "accrete", "Steady treadmilling of an elastic shell accreting on a rigid sphere.")
    (sub,) = parser._subparsers._group_actions
    assert (sub.dest, sub.required) == ("command", True)
    assert [(a.dest, a.help) for a in sub._choices_actions] == [
        ("solve", "solve a single treadmilling state"),
        ("sweep", "sweep eta and tabulate the states"),
        ("profiles", "radial stress and transport profiles"),
        ("validate", "energy checks and uniqueness oracle"),
    ]
    own = {
        "solve": [],
        "sweep": [
            (("--eta-min",), "eta_min", 1e-6, float, None, "_StoreAction", None, None),
            (("--eta-max",), "eta_max", 1e6, float, None, "_StoreAction", None, None),
            (("--points",), "points", 121, int, None, "_StoreAction", None,
             "number of eta points (default: %(default)s)"),
            (("--linear",), "linear", False, None, None, "_StoreTrueAction", None,
             "space eta linearly instead of logarithmically"),
        ],
        "profiles": [
            (("--grid-n",), "grid_n", 101, int, None, "_StoreAction", None,
             "number of radial samples (default: %(default)s)"),
            (("--r1",), "r1", None, float, None, "_StoreAction", None,
             "outer radius for mechanics-only profiles (skips the solve)"),
        ],
        "validate": [],
    }
    assert list(sub.choices) == list(own)
    for command, subparser in sub.choices.items():
        actions = [
            (tuple(a.option_strings), a.dest, a.default, a.type,
             None if a.choices is None else tuple(a.choices), type(a).__name__, a.metavar, a.help)
            for a in subparser._actions
        ]
        assert actions == _COMMON_ACTIONS + own[command]
        assert subparser.prog == f"accrete {command}"


def test_main_calls_the_command_bound_at_call_time(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_solve", lambda cfg: seen.append(cfg.fmt) or 0)
    assert run(capsys, ["solve", "--format", "json"]) == (0, "", "")
    assert seen == ["json"]


@pytest.mark.parametrize("rhoR", ["1e-200", "1e200"])
def test_scales_out_of_float_range_is_input_error(capsys, rhoR):
    # rhoR**2 underflows to zero or overflows, and ellStar with it
    code, out, err = run(capsys, ["solve", "--set", f"chem.rhoR={rhoR}"])
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_unsolvable_chemistry_exit_code(capsys):
    code, _, err = run(capsys, ["solve", "--set", "chem.muR1=-1"])
    assert code == 3
    assert "no treadmilling state" in err
    assert "muR1 > muR0" in err


@pytest.mark.parametrize("command", ["solve", "validate"])
def test_numeric_failure_exit_code(capsys, monkeypatch, command):
    def boom(params):
        raise NumericFailure("forced for the exit-code contract")

    monkeypatch.setattr(cli.treadmill, "_root", boom)  # solve's root, and validate's
    code, _, err = run(capsys, [command])
    assert code == 4
    assert "numeric failure" in err


def test_root_iteration_limit_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli.treadmill, "_MAX_STEPS", 0)
    code, out, err = run(capsys, ["solve"])
    assert (code, out, err) == (4, "", "numeric failure: root iteration failed to converge\n")


# ---------------------------------------------------------------------------
# sweep


def test_sweep_csv_matches_library(capsys):
    code, out, _ = run(capsys, ["sweep", "--points", "7"])
    assert code == 0
    header, rows = read_csv(out)
    assert header == SWEEP_HEADER
    assert len(rows) == 7

    etas = _geomspace(1e-6, 1e6, 7)
    base = default_params()
    ell = compute_scales(base).ellStar
    for row, eta in zip(rows, etas):
        st = solve(default_params(r0=eta * ell))
        assert float(row["eta"]) == eta
        assert float(row["nu"]) == st.nu
        assert float(row["V0"]) == st.V0
        assert float(row["d_over_r0"]) == st.nu - 1.0
        assert float(row["mu0"]) == st.mu0
        assert float(row["f0"]) == st.f0
        assert float(row["f1"]) == st.f1

    d = [float(r["d_over_r0"]) for r in rows]
    assert np.all(np.diff(d) < 0.0)
    assert len({r["d_small_bead_est"] for r in rows}) == 1
    # Vstarstar > 0 here, so the diffusion-limited estimate is populated
    assert all(r["d_diffusion_limited_est"] != "" for r in rows)


def test_sweep_grid_is_the_float_grid(capsys):
    """Both paths write the eta grid of strain_energy._geomspace, which
    differs from numpy.geomspace in the last bit on 8 of the 121 default
    points (numpy's SIMD pow is not libm's)."""
    _, out, _ = run(capsys, ["sweep"])
    etas = [float(r["eta"]) for r in read_csv(out)[1]]
    assert etas == _geomspace(1e-6, 1e6, 121)
    assert etas[10] == 1e-5 and np.geomspace(1e-6, 1e6, 121)[10] == 9.999999999999999e-06


def test_sweep_linear_spacing(capsys):
    code, out, _ = run(
        capsys,
        ["sweep", "--linear", "--eta-min", "1", "--eta-max", "3", "--points", "5"],
    )
    assert code == 0
    _, rows = read_csv(out)
    etas = [float(r["eta"]) for r in rows]
    assert etas == pytest.approx([1.0, 1.5, 2.0, 2.5, 3.0], rel=1e-15)


def test_sweep_estimate_unavailable_is_empty(capsys):
    # mu_inf > muR1 puts every bead in the ablation-limited branch
    code, out, _ = run(
        capsys, ["sweep", "--points", "5", "--set", "chem.mu_inf=5.53125"],
    )
    assert code == 0
    _, rows = read_csv(out)
    assert all(r["d_diffusion_limited_est"] == "" for r in rows)


def test_sweep_json_round_trip(capsys):
    code, out, _ = run(capsys, ["sweep", "--points", "5", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"params", "scales", "rows"}
    assert len(doc["rows"]) == 5
    assert list(doc["rows"][0]) == list(cli.SWEEP_FIELDS)

    code2, out2, _ = run(capsys, ["sweep", "--points", "5"])
    assert code2 == 0
    _, rows = read_csv(out2)
    for jrow, crow in zip(doc["rows"], rows):
        for name in cli.SWEEP_FIELDS:
            assert jrow[name] == float(crow[name])


def test_sweep_fails_before_writing(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code, _, err = run(
        capsys, ["sweep", "--set", "chem.muR1=-1", "--out", str(path)]
    )
    assert code == 3
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--eta-min", "0", "--eta-max", "1"],
        ["sweep", "--eta-min", "2", "--eta-max", "1"],
        ["sweep", "--points", "1"],
    ],
)
def test_sweep_range_validation(capsys, argv):
    code, _, err = run(capsys, argv)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # ellStar = 2e-6, so r0 = 1e-320 * ellStar underflows to 0
        (["sweep", "--eta-min", "1e-320", "--set", "chem.rhoR=1e3"], "r0 must be positive"),
        # r0 = 1e308 * ellStar overflows to inf, and so does r0 / ellStar
        (["sweep", "--eta-max", "1e308"], "scale eta is not finite"),
    ],
)
def test_sweep_rows_out_of_float_range(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--eta-max", "inf"],
        ["sweep", "--eta-max", "nan"],
        ["sweep", "--eta-min", "nan"],
        ["profiles", "--r1", "inf"],
        ["profiles", "--r1", "nan"],
    ],
)
def test_nonfinite_options_are_input_errors(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        # eta = 1e-320 overflows the diffusion-limited estimate to inf
        ["sweep", "--eta-min", "1e-320", "--format", "json"],
        ["sweep", "--eta-min", "1e-320"],
        # r1 = nu r0 overflows to inf
        ["profiles", "--set", "geom.r0=1.7e308", "--set", "chem.mu_inf=30"],
    ],
)
def test_nonfinite_output_is_numeric_failure(argv, child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "accrete.cli", *argv],
        env=child_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("numeric failure: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        # b1 (muR1 - muR0) = 1e-500 underflows in the drive of the solve
        ["solve", "--set", "kinetics.b1=1e-300", "--set", "chem.muR1=1e-200",
         "--set", "chem.mu_inf=3.0"],
        # b1 (Vstar - Vstarstar) = 1e-300 * 2.5e-300 underflows in the
        # small-bead estimate of the sweep
        ["sweep", "--set", "kinetics.b0=1e300", "--set", "kinetics.b1=1e-300",
         "--set", "chem.muR0=5e-324", "--set", "chem.muR1=2.5", "--set", "chem.mu_inf=2.5",
         "--points", "3"],
        # r1/r0 = 1/5e-324 overflows in the shell geometry
        ["profiles", "--r1", "1", "--set", "geom.r0=5e-324"],
        # w(nu) overflows at nu = 1e160, where sigma_r = w - w(nu) would be NaN
        ["profiles", "--r1", "1e160", "--format", "json"],
    ],
)
def test_underflowing_kinetic_scale_is_input_error(argv, child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "accrete.cli", *argv],
        env=child_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.endswith(" is out of the float range\n")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("r0", ["1e160", "1e200", "1e308", "1.7e308"])
def test_profiles_of_a_huge_bead_end_without_traceback(child_env, r0, fmt):
    """r0**2 overflows a float above r0 = 1.3e154; no field may square r0."""
    proc = subprocess.run(
        [sys.executable, "-m", "accrete.cli", "profiles", "--set", f"geom.r0={r0}",
         "--format", fmt],
        env=child_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode in (0, 4), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "command, fmt",
    [("solve", "csv"), ("solve", "json"), ("profiles", "csv"), ("profiles", "json")],
    ids=["csv", "json", "profiles-csv", "profiles-json"],
)
def test_solve_nonfinite_value_is_numeric_failure(capsys, command, fmt):
    # nu is about 2.28, so r1 = nu r0 and d overflow to inf
    argv = [command, "--format", fmt, "--set", "geom.r0=1.7e308", "--set", "chem.mu_inf=5.53125"]
    code, out, err = run(capsys, argv)
    assert code == 4
    assert out == ""
    assert err.startswith("numeric failure: non-finite value in the output")


def test_nonfinite_output_writes_no_file(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    code, out, err = run(
        capsys, ["sweep", "--eta-min", "1e-320", "--format", "json", "--out", str(path)]
    )
    assert code == 4
    assert out == ""
    assert "non-finite d_diffusion_limited_est" in err
    assert not path.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_nonfinite_output_leaves_an_existing_file_as_it_was(tmp_path, capsys, fmt):
    # every check runs before --out is opened, so the file is not truncated
    path = tmp_path / "sweep.out"
    path.write_bytes(b"an earlier run\n")
    argv = ["sweep", "--eta-min", "1e-320", "--format", fmt, "--out", str(path)]
    code, out, err = run(capsys, argv)
    assert code == 4
    assert out == ""
    assert err == "numeric failure: non-finite d_diffusion_limited_est in the output\n"
    assert path.read_bytes() == b"an earlier run\n"


@pytest.mark.parametrize("grid_n", ["101", "1000"], ids=["floats", "arrays"])
def test_profiles_whose_potential_overflows_is_a_numeric_failure(capsys, grid_n):
    """V0 = 1e299 solves, but rhoR r0 V0 / M_inner = 1e309 overflows, so the
    potential inside the shell has no float value: exit 4, not a bad input."""
    argv = ["profiles", "--set", "chem.muR1=1e300", "--set", "chem.mu_inf=9e299",
            "--set", "geom.r0=1e10", "--grid-n", grid_n]
    code, out, err = run(capsys, argv)
    assert (code, out) == (4, "")
    assert err.startswith("numeric failure: ") and err.count("\n") == 1


@pytest.mark.parametrize("grid_n", ["101", "1000"], ids=["floats", "arrays"])
def test_profiles_where_the_solved_speed_rounds_to_zero(capsys, grid_n):
    """Here V0 = Vstarstar + w(nu)/b1 rounds to exactly 0.0; v_over_V0 is
    (r0/r)**2 in closed form, so it stays defined."""
    argv = ["profiles", "--set", "chem.mu_inf=54.43065135504882",
            "--set", "geom.r0=5.2257083107433845e+23", "--grid-n", grid_n]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    _, rows = read_csv(out)
    assert solve(default_params(mu_inf=54.43065135504882, r0=5.2257083107433845e23)).V0 == 0.0
    assert all(row["v_over_V0"] == row["lam_r"] for row in rows[:-1])
    assert rows[0]["v_over_V0"] == "1"


def test_sweep_estimates_match_library(capsys):
    for mu_inf in ("2.5", "5.53125"):
        code, out, _ = run(capsys, ["sweep", "--points", "9", "--set", f"chem.mu_inf={mu_inf}"])
        assert code == 0
        _, rows = read_csv(out)
        base = default_params(mu_inf=float(mu_inf))
        ell = compute_scales(base).ellStar
        nu_star = small_bead_asymptote(base)[0]
        diffusion_limited = compute_scales(base).Vstarstar > 0.0
        for row in rows:
            eta = float(row["eta"])
            p = default_params(mu_inf=float(mu_inf), r0=eta * ell)
            d_diff = format(large_bead_asymptote(p, eta)[0], ".17g") if diffusion_limited else ""
            assert row["d_small_bead_est"] == format(nu_star - 1.0, ".17g")
            assert row["d_diffusion_limited_est"] == d_diff


# ---------------------------------------------------------------------------
# float and array paths


def run_on(capsys, monkeypatch, path, argv):
    """run(argv) with sweep and profiles forced onto floats or onto arrays."""
    monkeypatch.setattr(cli, "_ARRAY_ROWS", {"floats": 10**9, "arrays": 0}[path])
    return run(capsys, argv)


@pytest.mark.parametrize("size", ["2", "121", "256", "257", "600"])
@pytest.mark.parametrize(
    "argv",
    [
        ["sweep"],
        ["sweep", "--format", "json"],
        ["sweep", "--linear", "--eta-min", "0.5", "--eta-max", "3e4"],
        ["sweep", "--linear", "--format", "json"],
        ["sweep", "--set", "chem.mu_inf=5.53125"],  # Vstarstar < 0: no diffusion-limited estimate
        ["profiles"],
        ["profiles", "--format", "json"],
        ["profiles", "--set", "chem.mu_inf=1.500000000001", "--set", "geom.r0=1e6"],  # thin shell
        ["profiles", "--r1", "2.5"],
        ["profiles", "--r1", "2.5", "--format", "json"],
    ],
)
def test_float_and_array_paths_write_the_same_bytes(capsys, monkeypatch, argv, size):
    argv = argv + ["--points" if argv[0] == "sweep" else "--grid-n", size]
    floats = run_on(capsys, monkeypatch, "floats", argv)
    assert floats[0] == 0 and floats[1]
    assert run_on(capsys, monkeypatch, "arrays", argv) == floats


# Runs at the edges of the float range and of the input checks; most fail.
# The --set form of test_treadmill.NONFINITE_STATES: each has a root, but
# r1 = nu r0, or mu0 and f0, of its state leave the float range.
NONFINITE_STATE_ARGV = {
    "r1-overflows": [
        "--set", "energy.G=3.0", "--set", "kinetics.b0=1e12", "--set", "kinetics.b1=1e-12",
        "--set", "chem.muR0=-2.9999999999999996", "--set", "chem.muR1=-0.5",
        "--set", "chem.mu_inf=1e-12", "--set", "chem.rhoR=1e-12", "--set", "transport.M_inner=2.5",
        "--set", "geom.r0=1.7976931348623157e308"],
    "mu0-overflows": [
        "--set", "energy.G=2.5", "--set", "kinetics.b0=1e200", "--set", "kinetics.b1=1e-300",
        "--set", "chem.muR0=-1e200", "--set", "chem.muR1=-1e-12", "--set", "chem.mu_inf=0.0",
        "--set", "chem.rhoR=1e-6", "--set", "transport.M_inner=5e-324", "--set", "geom.r0=7.0"],
}

EDGE_ARGV = [
    ["sweep", "--eta-min", "1e-300", "--eta-max", "1e300"],
    ["sweep", "--set", "energy.G=1e308"],
    ["profiles", "--set", "energy.G=1e308"],
    ["sweep", "--set", "kinetics.b1=1e-300"],
    ["profiles", "--set", "kinetics.b1=1e-300", "--format", "json"],
    ["sweep", "--set", "chem.muR1=-1"],  # no treadmilling state
    ["profiles", "--set", "chem.muR1=-1"],
    ["profiles", "--grid-n", "1"],
    ["sweep", "--points", "1"],
    ["sweep", "--eta-min", "1e-320", "--set", "chem.rhoR=1e3"],  # r0 underflows to 0
    ["sweep", "--eta-min", "1e-320"],  # the diffusion-limited estimate overflows
    # r0 = 1e308 ellStar overflows in the last row, and the drive
    # underflows: both paths check every row before the drive
    ["sweep", "--eta-max", "1e308", "--set", "kinetics.b1=1e-300",
     "--set", "chem.muR1=1e-200", "--set", "chem.mu_inf=3.0", "--set", "transport.M_inner=2"],
    ["profiles", "--r1", "1e160"],
    ["profiles", "--set", "geom.r0=1.7e308", "--set", "chem.mu_inf=30"],  # r1 overflows
    # V0 rounds to 0.0; v_over_V0 is (r0/r)**2, so the run succeeds
    ["profiles", "--set", "chem.mu_inf=54.43065135504882", "--set", "geom.r0=5.2257083107433845e+23"],
    # r1 = nu r0 of the last rows leaves the float range; r1 is no sweep
    # column, but the state of the row is refused, so the sweep exits 4
    ["sweep", "--set", "chem.mu_inf=30", "--eta-max", "5e307"],
    # The mobility makes ellStar 1.0: mu0 = -inf on every row and r1 = inf
    # on the last, and both paths name mu0, the first field of the first row
    ["sweep", *NONFINITE_STATE_ARGV["mu0-overflows"], "--set", "transport.M_inner=1e-212",
     "--eta-max", "1.7976931348623157e308"],
    # validate reads only the root, so these pass as they always did
    *(["validate", *argv] for argv in NONFINITE_STATE_ARGV.values()),
]


@pytest.mark.parametrize("argv", EDGE_ARGV)
def test_float_and_array_paths_give_the_same_exit_and_stderr(capsys, monkeypatch, argv):
    floats = run_on(capsys, monkeypatch, "floats", argv)
    assert run_on(capsys, monkeypatch, "arrays", argv) == floats


@pytest.mark.parametrize("argv", EDGE_ARGV)
def test_array_path_raises_no_numpy_warning(capsys, monkeypatch, argv):
    # pytest records warnings apart from capsys, so the test above cannot
    # see one: a NaN or an overflow is reported once, by the writer
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_on(capsys, monkeypatch, "arrays", argv)
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize(
    "argv, traced",
    [
        (["sweep", "--points", "256"], None),
        (["sweep", "--points", "257"], "solve_eta"),
        (["profiles", "--grid-n", "256"], None),
        (["profiles", "--grid-n", "257"], "stress_profile"),
        (["profiles", "--r1", "2", "--grid-n", "257"], "stress_profile"),
    ],
)
def test_row_count_picks_the_path(capsys, monkeypatch, argv, traced):
    calls = []
    for owner, name, label in ((cli.treadmill, "_solve_eta", "solve_eta"),
                               (mechanics, "stress_profile", "stress_profile")):
        def spy(*args, _f=getattr(owner, name), _label=label, **kw):
            calls.append(_label)
            return _f(*args, **kw)
        monkeypatch.setattr(owner, name, spy)
    assert run(capsys, argv)[0] == 0
    assert calls == ([] if traced is None else [traced])


def test_array_path_sweep_hands_the_writer_arrays(capsys, monkeypatch):
    # eta and the diffusion-limited estimate too, so the writer converts
    # them by tolist(), not cell by cell
    tables = []
    monkeypatch.setattr(cli, "_write", lambda cfg, doc, table: tables.append(table))
    assert run(capsys, ["sweep", "--points", "257"])[0] == 0
    (table,) = tables
    columns = dict(zip(table.names, table.columns))
    assert {name for name, column in columns.items() if isinstance(column, np.ndarray)} == (
        set(cli.SWEEP_FIELDS) - {"d_small_bead_est"})


def test_huge_eta_with_a_large_drive_solves(capsys):
    """eta = 5e307 and the drive 19: (1 + eta) drive overflows, yet the state
    exists and is the large-bead limit nu2."""
    argv = ["solve", "--format", "json", "--set", "transport.M_inner=1e-307",
            "--set", "geom.r0=10", "--set", "chem.mu_inf=30"]
    code, out, err = run(capsys, argv)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["scales"]["eta"] == 5e307
    nu2 = 1.0 + large_bead_asymptote(default_params(mu_inf=30.0), 1.0)[0]
    assert doc["state"]["nu"] == pytest.approx(nu2, rel=1e-14)
    # At r0 = 1.7e308 the same root solves too; only r1 = nu r0 overflows,
    # and solve raises for it.
    huge = default_params(r0=1.7e308, mu_inf=30.0)
    assert cli.treadmill._root(huge)[2] == pytest.approx(nu2, rel=1e-14)
    with pytest.raises(NumericFailure, match="^non-finite value in the output: r1 = inf$"):
        solve(huge)
    code, out, err = run(capsys, ["solve", "--set", "geom.r0=1.7e308", "--set", "chem.mu_inf=30"])
    assert (code, out, err) == (4, "", "numeric failure: non-finite value in the output: r1 = inf\n")


@pytest.mark.parametrize("name", NONFINITE_STATE_ARGV)
def test_validate_passes_where_the_state_leaves_the_float_range(capsys, name):
    """validate builds no state, so it passes every check on an input whose
    state solve refuses; the corpus pins its bytes."""
    from test_treadmill import NONFINITE_STATES

    argv = NONFINITE_STATE_ARGV[name]
    cfg = cli._config_from_args(cli._build_parser().parse_args(["validate", *argv]))
    want = NONFINITE_STATES[name]
    assert (cfg.params.energy.G, *tuple(cfg.params)[1:]) == (
        want.energy.G, *dataclasses.astuple(want)[1:])
    code, out, err = run(capsys, ["validate", *argv])
    assert (code, err) == (0, "")
    assert [row.split(",")[1] for row in out.splitlines()[1:]] == ["pass"] * 9
    field = name.split("-")[0]
    code, out, err = run(capsys, ["solve", *argv])
    assert (code, out) == (4, "")
    assert err.startswith(f"numeric failure: non-finite value in the output: {field} = ")


# ---------------------------------------------------------------------------
# profiles


def test_profiles_solved_mode(capsys):
    code, out, _ = run(capsys, ["profiles", "--grid-n", "11"])
    assert code == 0
    header, rows = read_csv(out)
    assert header == PROFILE_HEADER
    assert len(rows) == 12  # 11 samples plus the outside limit at r1

    st = solve(default_params())
    assert float(rows[0]["r"]) == 1.0
    assert float(rows[-1]["r"]) == st.r1
    assert rows[-2]["side"] == "below"
    assert rows[-1]["side"] == "above"
    assert all(r["side"] == "" for r in rows[:-2])

    # mechanical columns stop at the solid; transport continues outside
    assert rows[-2]["sigma_r_over_G"] == "0"
    assert rows[-1]["sigma_r_over_G"] == ""
    assert float(rows[-1]["h"]) == 0.0
    assert "-" not in rows[-1]["h"]
    assert float(rows[-2]["mu"]) == float(rows[-1]["mu"]) == 2.5

    for row in rows[:-1]:
        assert row["v_over_V0"] == row["lam_r"]
    mus = [float(r["mu"]) for r in rows]
    assert all(b >= a for a, b in zip(mus, mus[1:]))


def test_profiles_scale_invariance(capsys):
    # sigma/G must not depend on G; pin the geometry and use a power-of-two
    # modulus so the normalized columns are bitwise reproducible
    _, out1, _ = run(capsys, ["profiles", "--r1", "2.0", "--grid-n", "7"])
    _, out2, _ = run(
        capsys, ["profiles", "--r1", "2.0", "--grid-n", "7", "--set", "energy.G=4.0"]
    )
    assert out1 == out2


def test_profiles_override_mode(capsys):
    code, out, _ = run(capsys, ["profiles", "--r1", "2.0", "--grid-n", "5"])
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 5  # no extra outside row without a solved state
    assert all(r["side"] == "" and r["h"] == "" and r["mu"] == "" for r in rows)
    assert all(r["v_over_V0"] == r["lam_r"] for r in rows)
    assert float(rows[0]["sigma_r_over_G"]) == -2.53125
    assert rows[-1]["sigma_r_over_G"] == "0"


def test_profiles_json_state(capsys):
    code, out, _ = run(capsys, ["profiles", "--grid-n", "5", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["state"]["nu"] == solve(default_params()).nu
    assert doc["rows"][-1]["side"] == "above"
    assert doc["rows"][-1]["lam_r"] is None

    code, out, _ = run(
        capsys, ["profiles", "--grid-n", "5", "--r1", "2.0", "--format", "json"]
    )
    doc = json.loads(out)
    assert doc["state"] is None


def test_speed_is_no_profiles_option(capsys):
    # v_over_V0 = lam_r whatever the accretion speed, so none is taken
    with pytest.raises(SystemExit) as exc:
        cli.main(["profiles", "--r1", "2", "--v0", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --v0 1" in capsys.readouterr().err


def test_profiles_bad_geometry(capsys):
    code, _, err = run(capsys, ["profiles", "--r1", "0.5"])
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# validate


def test_validate_default_passes(capsys):
    # mu_inf = 5.53125 gives nu of about 2.28, so the scan runs to 2 nu - 1
    for extra in ([], ["--set", "chem.mu_inf=5.53125"]):
        code, out, _ = run(capsys, ["validate", *extra])
        assert code == 0
        header, rows = read_csv(out)
        assert header == "check,passed,detail"
        names = [r["check"] for r in rows]
        assert "zero-at-identity" in names
        assert "treadmilling-solvable" in names
        assert "uniqueness-oracle" in names
        assert all(r["passed"] == "pass" for r in rows)
        by_name = {r["check"]: r for r in rows}
        assert by_name["uniqueness-oracle"]["detail"] == "1 sign-change bracket(s) found"


def test_validate_unsolvable_fails(capsys):
    code, out, _ = run(capsys, ["validate", "--set", "chem.mu_inf=0.0"])
    assert code == 1
    _, rows = read_csv(out)
    by_name = {r["check"]: r for r in rows}
    assert by_name["treadmilling-solvable"]["passed"] == "fail"
    assert "mu_inf > muStar" in by_name["treadmilling-solvable"]["detail"]
    assert "uniqueness-oracle" not in by_name


def test_validate_derivative_checks_fail_on_overflow(capsys):
    # every w on the grid overflows, so the deviations are NaN
    code, out, _ = run(capsys, ["validate", "--set", "energy.G=1e308"])
    assert code == 1
    _, rows = read_csv(out)
    by_name = {r["check"]: r for r in rows}
    for name in ("first-derivative-consistency", "second-derivative-consistency"):
        assert by_name[name]["passed"] == "fail"
        assert by_name[name]["detail"] == "max relative deviation nan"


def test_validate_stationary_at_identity_survives_huge_modulus(capsys):
    # dw(1) = 2 (G * 0) = 0 even where 2 G overflows
    code, out, _ = run(capsys, ["validate", "--set", "energy.G=1e308"])
    assert code == 1
    _, rows = read_csv(out)
    by_name = {r["check"]: r for r in rows}
    assert by_name["stationary-at-identity"]["passed"] == "pass"
    assert by_name["stationary-at-identity"]["detail"] == "dw(1) = 0.000e+00"


def test_validate_past_the_stretch_cap_names_both_causes(capsys):
    # the energy checks pass; the shell is only thicker than lam = 1e9
    code, out, err = run(capsys, ["validate", "--set", "energy.G=1e-300"])
    assert (code, out) == (4, "")
    assert err == ("numeric failure: no sign change below lam = 1e+09: the shell is thicker "
                   "than that, or the energy does not grow without bound\n")


def test_validate_thin_shell_passes(capsys):
    # d/r0 is about 1.3e-18, below the first log-spaced point of the scan
    code, out, _ = run(
        capsys,
        ["validate", "--set", "chem.mu_inf=1.500000000001", "--set", "geom.r0=1e6"],
    )
    assert code == 0
    _, rows = read_csv(out)
    by_name = {r["check"]: r for r in rows}
    assert by_name["uniqueness-oracle"]["passed"] == "pass"
    assert by_name["uniqueness-oracle"]["detail"].startswith("1 sign-change")


def test_validate_fails_when_the_bracket_misses_the_solved_root(capsys, monkeypatch):
    Vstar, Vstarstar, nu, w_nu = cli.treadmill._root(default_params())
    monkeypatch.setattr(cli.treadmill, "_root", lambda params: (Vstar, Vstarstar, 2.0 * nu, w_nu))
    code, out, _ = run(capsys, ["validate"])
    assert code == 1
    assert "uniqueness-oracle,fail,1 sign-change bracket(s) found\n" in out


def test_validate_json(capsys):
    code, out, _ = run(capsys, ["validate", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert all(c["passed"] for c in doc["checks"])


# ---------------------------------------------------------------------------
# output plumbing


@pytest.mark.parametrize(
    "argv",
    [
        ["profiles", "--grid-n", "7"],
        ["profiles", "--grid-n", "7", "--r1", "2.0"],
        ["profiles", "--grid-n", "7", "--r1", "1.0"],  # r1 = r0: a shell of no thickness
        ["sweep", "--points", "5"],
        ["sweep", "--points", "5", "--set", "chem.mu_inf=5.53125"],
        ["solve"],
        ["validate"],
    ],
)
def test_json_layout_is_json_dumps(capsys, argv):
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_csv_none_cells_are_empty(capsys):
    code, out, _ = run(capsys, ["profiles", "--grid-n", "3"])
    assert code == 0
    header, *lines, end = out.split("\n")
    assert end == ""
    # the outside row at r1 carries transport values only
    cells = dict(zip(header.split(","), lines[-1].split(",")))
    assert cells["side"] == "above"
    for name in ("sigma_r_over_G", "sigma_theta_over_G", "lam_r", "lam_theta", "v_over_V0"):
        assert cells[name] == ""
    assert all(line.split(",")[1] == "" for line in lines[:-2])


# ---------------------------------------------------------------------------
# the table writer, against the per-cell writer it replaced


def reference_columns(table):
    """The columns as lists, arrays through tolist(); a non-finite number
    raises, as the writer does, naming the first such column."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in table.columns]
    for name, column in zip(table.names, columns):
        if any(isinstance(x, float) and not math.isfinite(x) for x in column):
            raise NumericFailure(f"non-finite {name} in the output")
    return columns


def reference_csv(table):
    """One format(x, ".17g") call per number; short columns padded by zip_longest."""
    cells = [
        ["" if x is None else x if isinstance(x, str) else format(x, ".17g") for x in column]
        for column in reference_columns(table)
    ]
    rows = map(",".join, zip_longest(*cells, fillvalue=""))
    return "\n".join([",".join(table.names), *rows]) + "\n"


def reference_json(doc):
    """json.dumps(doc, indent=2), with a table as the last value of doc
    turned into real row dicts, None past the end of a short column."""
    key, table = list(doc.items())[-1]
    if isinstance(table, cli._Table):
        rows = zip_longest(*reference_columns(table))
        doc = {**doc, key: [dict(zip(table.names, row)) for row in rows]}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e-5, 0.1,
]
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)


@st.composite
def tables(draw):
    """A _Table of ragged columns: float64 arrays, lists of floats and
    np.float64, lists of str and None, and empty lists and arrays.  A
    numeric column may hold one value throughout, a zero as any mix of 0.0
    and -0.0, and a column object may come again later in the table."""
    n_rows = draw(st.integers(0, 12))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        size = draw(st.integers(0, n_rows))
        kind = draw(st.sampled_from(["array", "floats", "text"] + ["again"] * bool(columns)))
        if kind == "again":  # the same object: _columns converts it once
            columns.append(draw(st.sampled_from(columns)))
            continue
        if kind == "text" or size == 0 and kind == "floats":
            cells = st.none() | st.text(max_size=6)
            columns.append(draw(st.lists(cells, min_size=size, max_size=size)))
            continue
        cell = FINITE
        if draw(st.booleans()):  # one value, converted once unless it is a zero
            value = draw(FINITE)
            cell = st.sampled_from([0.0, -0.0]) if value == 0.0 else st.just(value)
        values = draw(st.lists(cell, min_size=size, max_size=size))
        if kind == "array":
            columns.append(np.array(values))
        else:
            types = st.sampled_from([float, np.float64])
            columns.append([draw(types)(x) for x in values])
    return cli._Table(tuple(f"c{i}" for i in range(len(columns))), columns)


# Blocks of 1, 2 and 3 rows put the block edges of a drawn table of up to
# 12 rows at every place, next to the ends of its short columns.
BLOCKS = [1, 2, 3, cli._BLOCK]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tables())
def test_writer_matches_the_per_cell_writer(table):
    doc = {"params": {"G": 1.0}, "rows": table}
    for block in BLOCKS:
        with mock.patch.object(cli, "_BLOCK", block):
            assert "".join(cli._csv_text(table)) == reference_csv(table)
            assert "".join(cli._json_text(doc)) == reference_json(doc)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tables(), st.data())
def test_writer_raises_on_a_nonfinite_cell_in_any_column(table, data):
    numeric = [i for i, c in enumerate(table.columns) if len(c) and isinstance(c[0], float)]
    assume(numeric)
    old = table.columns[data.draw(st.sampled_from(numeric))]
    column = old.copy()
    column[data.draw(st.integers(0, len(column) - 1))] = data.draw(
        st.sampled_from([math.nan, math.inf, -math.inf])
    )
    # every place that held the drawn column object holds the bad one
    table = cli._Table(table.names, [column if c is old else c for c in table.columns])
    first = next(i for i, c in enumerate(table.columns) if c is column)
    for block in BLOCKS:
        # the call raises, before any piece of the text is taken
        for text in (cli._csv_text, reference_csv, lambda t: cli._json_text({"rows": t})):
            with mock.patch.object(cli, "_BLOCK", block), pytest.raises(
                NumericFailure, match=f"non-finite c{first} in the output"
            ):
                text(table)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--points", "40"],  # Vstarstar > 0: every column is full
        ["sweep", "--points", "40", "--set", "chem.mu_inf=10"],  # no diffusion-limited estimate
        ["profiles", "--grid-n", "40"],  # one more row at r1, of transport only
        ["profiles", "--grid-n", "40", "--r1", "2.0"],
        ["profiles", "--grid-n", "40", "--r1", "1.0"],  # r1 = r0: a shell of no thickness
        ["solve"],
        ["validate"],
    ],
)
def test_every_command_writes_the_per_cell_writers_bytes(capsys, monkeypatch, argv, fmt):
    written = []
    write = cli._write

    def record(cfg, doc, table):
        written.append((doc, table))
        write(cfg, doc, table)

    monkeypatch.setattr(cli, "_write", record)
    code, out, _ = run(capsys, [*argv, "--format", fmt])
    assert code == 0
    [(doc, table)] = written
    assert out == (reference_json(doc) if fmt == "json" else reference_csv(table))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_memory_does_not_grow_with_the_table(tmp_path, monkeypatch, fmt):
    """The tracemalloc peak of _write, which does not depend on the host's
    timing, for a profiles table of 10 000 and of 40 000 points: the writer
    holds one block of cli._BLOCK rows, so four times the rows take at most
    1.5 times the memory (a writer of the whole text takes four times)."""
    peaks, write = [], cli._write

    def traced(cfg, doc, table):
        tracemalloc.start()
        try:
            write(cfg, doc, table)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(cli, "_write", traced)
    path = tmp_path / "profiles.out"
    for n in ("10000", "40000"):
        assert cli.main(["profiles", "--grid-n", n, "--format", fmt, "--out", str(path)]) == 0
    small, large = peaks
    assert large <= 1.5 * small, (small, large)


def conversions(monkeypatch):
    """A list that ends up holding, for each table written, its float-to-text
    conversions: one per float cell that the cells of a numeric column hand
    to the % of _fill, in every place that holds the column, and one per
    distinct str object they hand it.  Every block's cells are kept, so no
    str id is reused, and a str repeated across blocks counts once."""
    counts, columns = [], cli._columns

    def count(table, *args):
        numeric = [len(c) > 0 and isinstance(c[0], float) for c in table.columns]
        out = columns(table, *args)
        places = Counter(cells for (_, cells, _, _), n in zip(out, numeric) if n)
        blocks = []

        def kept(cells):
            def take(lo, hi):
                blocks.append((places[cells], cells(lo, hi)))
                return blocks[-1][1]
            return take

        def total():
            floats = sum(k * sum(isinstance(x, float) for x in b) for k, b in blocks)
            return floats + len({id(x) for _, b in blocks for x in b if isinstance(x, str)})

        counts.append(total)
        wrapped = {cells: kept(cells) for cells in places}
        return [(n, wrapped.get(cells, cells), f, e) for n, cells, f, e in out]

    monkeypatch.setattr(cli, "_columns", count)
    return counts


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv, per_row, extra",
    [
        # 9 per row, not 10: the small-bead estimate is one value, made once
        (["sweep", "--points", "256"], 9, 1),
        (["sweep", "--points", "257"], 9, 1),
        # 7 per row, not 8: v_over_V0 is lam_r; plus r, h and mu outside r1
        (["profiles", "--grid-n", "256"], 7, 3),
        (["profiles", "--grid-n", "257"], 7, 3),
        (["profiles", "--r1", "2.5", "--grid-n", "256"], 5, 0),
        (["profiles", "--r1", "2.5", "--grid-n", "257"], 5, 0),
        # in blocks of cli._BLOCK rows
        (["sweep", "--points", "2500"], 9, 1),
        (["profiles", "--grid-n", "2500"], 7, 3),
    ],
)
def test_each_distinct_column_is_converted_once(capsys, monkeypatch, argv, per_row, extra, fmt):
    """A count of float-to-text conversions, which does not depend on the
    host, on both sides of cli._ARRAY_ROWS and over several blocks."""
    counts = conversions(monkeypatch)
    assert run(capsys, [*argv, "--format", fmt])[0] == 0
    assert [total() for total in counts] == [per_row * int(argv[-1]) + extra]


def test_stdout_and_file_output_agree(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, ["sweep", "--points", "5"])
    code2, _, _ = run(capsys, ["sweep", "--points", "5", "--out", str(path)])
    assert code == code2 == 0
    assert path.read_text() == out


def test_repeated_runs_are_byte_identical(capsys):
    _, out1, _ = run(capsys, ["sweep", "--points", "9"])
    _, out2, _ = run(capsys, ["sweep", "--points", "9"])
    assert out1 == out2
    _, j1, _ = run(capsys, ["solve", "--format", "json"])
    _, j2, _ = run(capsys, ["solve", "--format", "json"])
    assert j1 == j2


def test_module_entry_point(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "accrete.cli", "solve"],
        env=child_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("name,value\n")


def test_entry_function_raises_system_exit(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["accrete", "validate"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 0
    capsys.readouterr()
