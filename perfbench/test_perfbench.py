"""Tests for the benchmark itself.  Run: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from accrete import treadmill  # noqa: E402
from accrete.strain_energy import NeoHookean  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
from tracing import CountingEnergy, fixed_point_evals  # noqa: E402
from workloads import WORKLOADS, Chemistry, Verdict  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_workload(name, tmp_path):
    make = WORKLOADS[name]
    a = make(7, False, str(tmp_path), ROOT).inputs()
    b = make(7, False, str(tmp_path), ROOT).inputs()
    c = make(8, False, str(tmp_path), ROOT).inputs()
    assert a == b
    assert a != c


def test_counting_energy_is_bit_identical_to_neo_hookean():
    plain, counted = NeoHookean(2.7), CountingEnergy(2.7)
    lams = np.geomspace(1e-3, 1e3, 257)
    for kind in ("w", "dw", "d2w"):
        for lam in list(lams) + [1.0, 1.0 + 2.0**-52]:
            x, y = getattr(plain, kind)(float(lam)), getattr(counted, kind)(float(lam))
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes()
        assert getattr(plain, kind)(lams).tobytes() == getattr(counted, kind)(lams).tobytes()
    assert counted.calls == {"w": 260, "dw": 260, "d2w": 260}  # 259 scalars, 1 array


def test_counting_energy_leaves_solve_unchanged():
    chem = Chemistry(G=1.0, b0=1.0, b1=1.0, mu_inf=2.5, r0=1.0)
    assert treadmill.solve(chem.params()) == treadmill.solve(chem.params(CountingEnergy(1.0)))
    assert fixed_point_evals()["treadmill.F_evals.default"][0] > 0


def test_reference_agrees_with_solve_at_default_point():
    chem = Chemistry(G=1.0, b0=1.0, b1=1.0, mu_inf=2.5, r0=1.0)
    state = treadmill.solve(chem.params())
    assert reference.relative_error(state.nu - 1.0, chem.thickness()) < 1e-12


def test_reference_restates_the_equation_independently():
    # Zero drive has no state; a larger drive gives a thicker shell.
    with pytest.raises(ValueError):
        reference.thickness(1.0, 1.0, 1.0, 0.0, 3.0, 1.5, 1.0, 0.5)
    thin = reference.thickness(1.0, 1.0, 1.0, 0.0, 3.0, 1.5 + 1e-12, 1.0, 1e6)
    thick = reference.thickness(1.0, 1.0, 1.0, 0.0, 3.0, 2.5, 1.0, 1e6)
    assert 0.0 < thin < thick
    assert reference.digits(thin, thin) == 17.0
    assert reference.digits(math.nan, thin) == 0.0


def test_inexact_result_is_reported_apart_from_failures():
    v = Verdict()
    v.accuracy(1.0 + 1e-12, 1.0)
    assert not v.inexact
    v.accuracy(1.0 + 1e-6, 1.0)
    assert v.inexact and not v.failed
    assert 5.9 < v.digits < 6.1


def test_failed_validate_check_is_a_wrong_verdict(tmp_path):
    wl = WORKLOADS["cli-oneshot"](1, False, str(tmp_path), ROOT)
    k = wl.commands.index(("validate", "csv"))
    failing = b"check,passed,detail\nzero-at-identity,pass,\nuniqueness-oracle,fail,\n"
    v = wl.judge(k, (1, failing))
    assert v.inexact and not v.failed and not v.problems
    assert wl.judge(k, (0, failing)).problems
    assert wl.judge(k, (2, failing)).failed


def test_checks_reject_bad_output():
    with pytest.raises(checks.OutputError):
        checks.strict_json('{"a": NaN}')
    with pytest.raises(checks.OutputError):
        checks.strict_json('[Infinity]')
    header = checks.SWEEP_HEADER
    good = "1,1.5,0.5,0.75,0.75,1,1,-1,0.1,\n"
    assert checks.sweep_csv(header + "\n" + good, 1, 0.5)[1] == []
    assert checks.sweep_csv(header + "\n" + good.replace(",0.5,", ",0.25,"), 1, 0.5)[1]
    assert checks.sweep_csv(header + "\n" + good.replace("0.75,0.75", "0.75,1.5"), 1, 0.5)[1]
    assert checks.sweep_csv(header + "\n" + good, 2, 0.5)[1]
    assert checks.sweep_csv(header + "\n" + good.replace("1.5", "nan"), 1, 0.5)[1]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().split("\n")[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric(name, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    assert not os.path.exists(os.path.join(ROOT, ".perfbench_tmp"))


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        BENCHMARK["command"] + ["--workload", "solve-scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
