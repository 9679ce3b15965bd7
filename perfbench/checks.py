"""Checks on the bytes the accrete CLI writes.

Every parser here is strict: a CSV cell must be empty or a finite number
where a number is expected, and JSON that carries NaN or Infinity is
rejected, since RFC 8259 has no such values.  Each check returns a list of
problems; an empty list means the output is well formed and every stated
invariant holds.  Accuracy against the reference is judged by the caller.
"""

from __future__ import annotations

import json
import math

EPS = 2.0**-52

SWEEP_HEADER = (
    "eta,nu,d_over_r0,V0,V0_over_Vstar,mu0,f0,f1,d_small_bead_est,d_diffusion_limited_est"
)
SOLVE_NAMES = (
    "Vstar", "Vstarstar", "ellStar", "muStar", "eta",
    "nu", "r1", "d", "V0", "V1", "mu0", "mu1", "f0", "f1",
)


class OutputError(Exception):
    """Output that cannot be parsed at all."""


def _reject_constant(name: str):
    raise OutputError(f"non-finite JSON constant {name}")


def strict_json(text: str):
    """Parse RFC 8259 JSON, rejecting NaN, Infinity and -Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise OutputError(f"invalid JSON: {exc}") from None


def _number(cell: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise OutputError(f"not a number: {cell!r}") from None
    if not math.isfinite(value):
        raise OutputError(f"non-finite number: {cell!r}")
    return value


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _thickness_consistent(nu: float, d_over_r0: float) -> bool:
    """d/r0 equals nu - 1 to within a few rounding steps of nu."""
    return abs(d_over_r0 - (nu - 1.0)) <= 4.0 * EPS * nu


def _speed_between(v0_over_vstar: float, vss_over_vstar: float) -> bool:
    """Vstarstar/Vstar <= V0/Vstar <= 1, allowing a few rounding steps."""
    slack = 4.0 * EPS
    return vss_over_vstar - slack * max(1.0, abs(vss_over_vstar)) <= v0_over_vstar <= 1.0 + slack


def sweep_csv(text: str, points: int, vss_over_vstar: float) -> tuple[list[dict], list[str]]:
    """Parse a sweep CSV; returns (rows, problems)."""
    lines = text.split("\n")
    if lines[-1] != "":
        return [], ["output does not end with a newline"]
    lines = lines[:-1]
    if not lines or lines[0] != SWEEP_HEADER:
        return [], ["unexpected sweep header"]
    names = SWEEP_HEADER.split(",")
    if len(lines) - 1 != points:
        return [], [f"expected {points} sweep rows, got {len(lines) - 1}"]
    rows, problems = [], []
    for n, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(names):
            problems.append(f"row {n}: {len(cells)} cells")
            continue
        try:
            row = {k: _number(c) for k, c in zip(names[:8], cells[:8])}
            for k, c in zip(names[8:], cells[8:]):
                row[k] = None if c == "" else _number(c)
        except OutputError as exc:
            problems.append(f"row {n}: {exc}")
            continue
        problems += _sweep_row_problems(n, row, vss_over_vstar)
        rows.append(row)
    return rows, problems


def sweep_json(doc, points: int) -> tuple[list[dict], list[str]]:
    """Check a parsed sweep JSON document; returns (rows, problems)."""
    rows = doc.get("rows") if isinstance(doc, dict) else None
    scales = doc.get("scales") if isinstance(doc, dict) else None
    if not isinstance(rows, list) or not isinstance(scales, dict):
        return [], ["sweep JSON lacks rows or scales"]
    if len(rows) != points:
        return [], [f"expected {points} sweep rows, got {len(rows)}"]
    vss = scales["Vstarstar"] / scales["Vstar"]
    problems = []
    for n, row in enumerate(rows, start=1):
        if not all(_finite(row[k]) for k in SWEEP_HEADER.split(",")[:8]):
            problems.append(f"row {n}: non-finite value")
            continue
        problems += _sweep_row_problems(n, row, vss)
    return rows, problems


def _sweep_row_problems(n: int, row: dict, vss_over_vstar: float) -> list[str]:
    problems = []
    if not _thickness_consistent(row["nu"], row["d_over_r0"]):
        problems.append(f"row {n}: d_over_r0 != nu - 1")
    if not _speed_between(row["V0_over_Vstar"], vss_over_vstar):
        problems.append(f"row {n}: V0/Vstar outside [Vstarstar/Vstar, 1]")
    return problems


def solve_output(text: str, fmt: str, r0: float) -> tuple[dict, list[str]]:
    """Parse `accrete solve` output into {name: value}; returns (state, problems)."""
    if fmt == "json":
        doc = strict_json(text)
        values = {**doc["scales"], **doc["state"]}
    else:
        lines = text.split("\n")
        if lines[0] != "name,value" or lines[-1] != "":
            return {}, ["unexpected solve CSV layout"]
        values = {}
        for line in lines[1:-1]:
            name, cell = line.split(",")
            values[name] = _number(cell)
    if set(values) != set(SOLVE_NAMES):
        return values, [f"solve output names {sorted(values)}"]
    return values, state_problems(values, r0)


def state_problems(v: dict, r0: float) -> list[str]:
    """Invariants of one solved state with its scales."""
    if not all(_finite(x) for x in v.values()):
        return ["non-finite value in state"]
    problems = []
    if not v["Vstarstar"] <= v["V0"] <= v["Vstar"]:
        problems.append("V0 outside [Vstarstar, Vstar]")
    if not _thickness_consistent(v["nu"], v["d"] / r0):
        problems.append("d/r0 != nu - 1")
    return problems


def profiles_json(doc, grid_n: int, r0: float) -> tuple[dict, list[str]]:
    """Check a parsed solved-mode profiles document; returns (state+scales, problems)."""
    if not isinstance(doc, dict) or not all(k in doc for k in ("scales", "state", "rows")):
        return {}, ["profiles JSON lacks scales, state or rows"]
    values = {**doc["scales"], **doc["state"]}
    problems = state_problems(values, r0)
    rows = doc["rows"]
    if len(rows) != grid_n + 1:
        return values, problems + [f"expected {grid_n + 1} profile rows, got {len(rows)}"]
    if rows[-2]["side"] != "below" or rows[-1]["side"] != "above":
        problems.append("outer surface rows lack side=below/above")
    sig = [row["sigma_r_over_G"] for row in rows[:-1]]
    if not all(_finite(s) for s in sig):
        return values, problems + ["non-finite sigma_r"]
    scale = max(1.0, max(abs(s) for s in sig))
    if abs(sig[-1]) > 16.0 * EPS * scale:
        problems.append(f"sigma_r(r1) = {sig[-1]!r}, not 0")
    if max(sig) > 16.0 * EPS * scale:
        problems.append("sigma_r > 0 inside the shell")
    for row in rows:
        for key in ("r", "h", "mu"):
            if not _finite(row[key]):
                problems.append(f"non-finite {key} at r = {row['r']!r}")
                return values, problems
    return values, problems


def validate_output(text: str, fmt: str) -> tuple[bool, list[str]]:
    """Parse `accrete validate` output; returns (all checks passed, problems)."""
    if fmt == "json":
        doc = strict_json(text)
        checks = doc.get("checks", [])
        if not checks:
            return False, ["validate JSON has no checks"]
        passed = [bool(c["passed"]) for c in checks]
        if doc.get("ok") != all(passed):
            return False, ["validate ok flag disagrees with its checks"]
        return all(passed), []
    lines = text.split("\n")
    if lines[0] != "check,passed,detail" or lines[-1] != "" or len(lines) < 3:
        return False, ["unexpected validate CSV layout"]
    status = [line.split(",")[1] for line in lines[1:-1]]
    if not set(status) <= {"pass", "fail"}:
        return False, ["validate status is not pass/fail"]
    return all(s == "pass" for s in status), []
