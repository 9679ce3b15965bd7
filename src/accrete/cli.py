"""Command-line front end.

Four subcommands cover the workflows: ``solve`` for a single steady state,
``sweep`` for the thickness-versus-bead-radius table across a range of
eta, ``profiles`` for radial stress/transport profiles, and ``validate``
for the energy-assumption checks plus the uniqueness oracle.

Parameters come from a flat key-value config file (``--config``), with
``--set section.key=value`` overriding individual entries.  Output is CSV
or JSON, written with enough digits to round-trip exactly, so identical
inputs give byte-identical files.

Exit codes: 0 success, 1 failed validation check, 2 malformed input,
3 no treadmilling state, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from . import diffusion, mechanics, strain_energy, treadmill
from .strain_energy import NeoHookean
from .treadmill import NoTreadmillingState, NumericFailure

__all__ = [
    "RunConfig",
    "ConfigError",
    "cmd_solve",
    "cmd_sweep",
    "cmd_profiles",
    "cmd_validate",
    "main",
    "entry",
]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_NO_STATE = 3
EXIT_NUMERIC = 4

ENERGY_KINDS = {
    "neo-hookean": NeoHookean,
}

CONFIG_DEFAULTS = {
    "energy.kind": "neo-hookean",
    "energy.G": 1.0,
    "kinetics.b0": 1.0,
    "kinetics.b1": 1.0,
    "chem.muR0": 0.0,
    "chem.muR1": 3.0,
    "chem.mu_inf": 2.5,
    "chem.rhoR": 1.0,
    "transport.M_inner": 1.0,
    "transport.M_outer": 1.0,
    "geom.r0": 1.0,
}

SWEEP_FIELDS = (
    "eta",
    "nu",
    "d_over_r0",
    "V0",
    "V0_over_Vstar",
    "mu0",
    "f0",
    "f1",
    "d_small_bead_est",
    "d_diffusion_limited_est",
)

PROFILE_FIELDS = (
    "r",
    "side",
    "sigma_r_over_G",
    "sigma_theta_over_G",
    "lam_r",
    "lam_theta",
    "v_over_V0",
    "h",
    "mu",
)


class ConfigError(Exception):
    """Malformed config file, key, or value."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration: physical parameters plus command options."""

    energy_kind: str = "neo-hookean"
    G: float = 1.0
    b0: float = 1.0
    b1: float = 1.0
    muR0: float = 0.0
    muR1: float = 3.0
    mu_inf: float = 2.5
    rhoR: float = 1.0
    M_inner: float = 1.0
    M_outer: float = 1.0
    r0: float = 1.0
    out: str | None = None
    fmt: str = "csv"
    eta_min: float = 1e-6
    eta_max: float = 1e6
    points: int = 121
    linear: bool = False
    grid_n: int = 101
    r1: float | None = None
    v0: float | None = None

    def energy(self) -> strain_energy.ReducedEnergy:
        try:
            builder = ENERGY_KINDS[self.energy_kind]
        except KeyError:
            known = ", ".join(sorted(ENERGY_KINDS))
            raise ConfigError(
                f"unknown energy.kind {self.energy_kind!r}; known kinds: {known}"
            ) from None
        return builder(self.G)

    def model_params(self) -> treadmill.ModelParams:
        return treadmill.ModelParams(
            energy=self.energy(),
            b0=self.b0,
            b1=self.b1,
            muR0=self.muR0,
            muR1=self.muR1,
            mu_inf=self.mu_inf,
            rhoR=self.rhoR,
            M=self.M_inner,
            r0=self.r0,
        )

    def transport_params(self) -> diffusion.TransportParams:
        return diffusion.TransportParams(
            M_inner=self.M_inner,
            M_outer=self.M_outer,
            rhoR=self.rhoR,
            mu_inf=self.mu_inf,
        )


@dataclass(frozen=True)
class _Table:
    """Named columns of an output table.

    A column is a float64 array, or a list whose cells are str or None
    (empty).  A column shorter than the table ends in empty cells.
    """

    names: tuple[str, ...]
    columns: list


def _parse_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _coerce(key: str, raw: str):
    if key == "energy.kind":
        return raw
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"value for {key} is not a number: {raw!r}") from None
    if not np.isfinite(value):
        raise ConfigError(f"value for {key} must be finite: {raw!r}")
    return value


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    resolved = dict(CONFIG_DEFAULTS)
    if args.config is not None:
        for key, raw in _parse_config_file(args.config).items():
            resolved[key] = _coerce(key, raw)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = (part.strip() for part in item.split("=", 1))
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(f"--set: unknown key {key!r}")
        resolved[key] = _coerce(key, raw)

    kwargs = dict(
        energy_kind=resolved["energy.kind"],
        G=resolved["energy.G"],
        b0=resolved["kinetics.b0"],
        b1=resolved["kinetics.b1"],
        muR0=resolved["chem.muR0"],
        muR1=resolved["chem.muR1"],
        mu_inf=resolved["chem.mu_inf"],
        rhoR=resolved["chem.rhoR"],
        M_inner=resolved["transport.M_inner"],
        M_outer=resolved["transport.M_outer"],
        r0=resolved["geom.r0"],
        out=args.out,
        fmt=args.format,
    )
    for name in ("eta_min", "eta_max", "points", "linear", "grid_n", "r1", "v0"):
        if hasattr(args, name):
            kwargs[name] = getattr(args, name)
    return RunConfig(**kwargs)


def _cells(name: str, column, number, text, empty: str):
    """Iterator over the formatted cells of one column: numbers with
    number, strings with text.  A non-finite number raises at once."""
    if isinstance(column, np.ndarray):
        if not np.isfinite(column).all():
            raise NumericFailure(f"non-finite {name} in the output")
        return map(number, column.tolist())
    return (empty if x is None else text(x) for x in column)


def _csv_number(x: float) -> str:
    return format(x, ".17g")


def _csv_text(table: _Table) -> str:
    cells = [
        _cells(name, col, _csv_number, str, "")
        for name, col in zip(table.names, table.columns)
    ]
    rows = map(",".join, zip_longest(*cells, fillvalue=""))
    return "\n".join([",".join(table.names), *rows]) + "\n"


def _dumps(doc) -> str:
    try:
        return json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericFailure(f"non-finite value in the output: {exc}") from None


def _json_text(doc: dict) -> str:
    """json.dumps(doc, indent=2) text, with a _Table as the last value of
    doc written as its list of row objects.

    The rows are filled into one template with the strings json.dumps
    gives for each cell (float repr, null, quoted strings), so no row
    object is ever built.
    """
    key, table = list(doc.items())[-1]
    if not isinstance(table, _Table):
        return _dumps(doc) + "\n"
    text = _dumps({**doc, key: []})  # ends in '"rows": []\n}'
    cells = [
        _cells(name, col, float.__repr__, json.dumps, "null")
        for name, col in zip(table.names, table.columns)
    ]
    if not any(len(col) for col in table.columns):
        return text + "\n"
    template = (
        "    {\n"
        + ",\n".join(f"      {json.dumps(name)}: %s" for name in table.names)
        + "\n    }"
    )
    body = ",\n".join(template % row for row in zip_longest(*cells, fillvalue="null"))
    return text[:-4] + "[\n" + body + "\n  ]\n}\n"


def _write(cfg: RunConfig, doc: dict | None, table: _Table) -> None:
    """Write table as CSV, or doc as JSON, exactly as json.dumps(doc,
    indent=2) lays it out; doc is only read for JSON.

    The whole text is formatted before anything is written, and a number
    that is not finite raises NumericFailure: NaN and infinities are not
    valid JSON, and an inf in a CSV cell is no result either.
    """
    text = _json_text(doc) if cfg.fmt == "json" else _csv_text(table)
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _params_doc(cfg: RunConfig) -> dict:
    return {
        "energy": {"kind": cfg.energy_kind, "G": cfg.G},
        "kinetics": {"b0": cfg.b0, "b1": cfg.b1},
        "chem": {
            "muR0": cfg.muR0,
            "muR1": cfg.muR1,
            "mu_inf": cfg.mu_inf,
            "rhoR": cfg.rhoR,
        },
        "transport": {"M_inner": cfg.M_inner, "M_outer": cfg.M_outer},
        "geom": {"r0": cfg.r0},
    }


def _scales_doc(s: treadmill.Scales) -> dict:
    return dataclasses.asdict(s)


def _state_doc(state: treadmill.TreadmillState) -> dict:
    return dataclasses.asdict(state)


def cmd_solve(cfg: RunConfig) -> int:
    """Solve one treadmilling state and emit it with the derived scales."""
    params = cfg.model_params()
    state = treadmill.solve(params)
    scales = treadmill.compute_scales(params)
    doc = {
        "params": _params_doc(cfg),
        "scales": _scales_doc(scales),
        "state": _state_doc(state),
    }
    names = [*doc["scales"], *doc["state"]]
    values = np.array([*doc["scales"].values(), *doc["state"].values()])
    _write(cfg, doc, _Table(("name", "value"), [names, values]))
    return EXIT_OK


def _sweep_rows(cfg: RunConfig) -> tuple[treadmill.Scales, list]:
    """Scales of the base configuration and the sweep columns, in SWEEP_FIELDS order."""
    if not (np.isfinite(cfg.eta_min) and np.isfinite(cfg.eta_max)):
        raise ConfigError("eta range must be finite")
    if not (cfg.eta_min > 0.0 and cfg.eta_max > cfg.eta_min):
        raise ConfigError("eta range must satisfy 0 < eta-min < eta-max")
    if cfg.points < 2:
        raise ConfigError("need at least 2 sweep points")
    base = cfg.model_params()
    dec = treadmill.solvable(base)
    if not dec.ok:
        raise NoTreadmillingState(dec.reason)
    scales = treadmill.compute_scales(base)
    nu_star, _, _ = treadmill.small_bead_asymptote(base)
    if cfg.linear:
        etas = np.linspace(cfg.eta_min, cfg.eta_max, cfg.points)
    else:
        etas = np.geomspace(cfg.eta_min, cfg.eta_max, cfg.points)
    solved = np.empty((len(etas), 5))
    for i, eta in enumerate(etas.tolist()):
        st = treadmill.solve(dataclasses.replace(base, r0=eta * scales.ellStar))
        solved[i] = st.nu, st.V0, st.mu0, st.f0, st.f1
    nu, V0, mu0, f0, f1 = solved.T
    # Vstar and Vstarstar do not depend on r0, so the diffusion-limited
    # estimate (Vstar/Vstarstar - 1)/eta of large_bead_asymptote needs only
    # the base scales; it does not apply when Vstarstar <= 0.
    d_diffusion_limited = (
        (scales.Vstar / scales.Vstarstar - 1.0) / etas if scales.Vstarstar > 0.0 else []
    )
    columns = [
        etas,
        nu,
        nu - 1.0,
        V0,
        V0 / scales.Vstar,
        mu0,
        f0,
        f1,
        np.full(len(etas), nu_star - 1.0),
        d_diffusion_limited,
    ]
    return scales, columns


def cmd_sweep(cfg: RunConfig) -> int:
    """Sweep eta and emit one row per point.

    All rows are computed before anything is written, so an unsolvable
    configuration fails before producing output.
    """
    scales, columns = _sweep_rows(cfg)
    table = _Table(SWEEP_FIELDS, columns)
    _write(cfg, {"params": _params_doc(cfg), "scales": _scales_doc(scales), "rows": table}, table)
    return EXIT_OK


def _profile_rows(cfg: RunConfig) -> tuple[treadmill.TreadmillState | None, list]:
    """Solved state (None with --r1) and the profile columns, in PROFILE_FIELDS order."""
    if cfg.grid_n < 2:
        raise ConfigError("need at least 2 profile points")
    for name in ("r1", "v0"):
        value = getattr(cfg, name)
        if value is not None and not np.isfinite(value):
            raise ConfigError(f"--{name} must be finite")
    if cfg.v0 == 0.0:
        raise ConfigError("--v0 must be nonzero; v_over_V0 divides by it")
    energy = cfg.energy()
    gscale = strain_energy.modulus_scale(energy)

    if cfg.r1 is not None:
        # Mechanics-only mode: geometry given directly, no chemistry attached,
        # so side, h and mu are empty.
        geom = mechanics.ShellGeometry(cfg.r0, cfg.r1)
        f = mechanics.stress_profile(geom, energy, cfg.grid_n, V0=cfg.v0)
        v_over_V0 = [] if cfg.v0 is None else f.v / cfg.v0
        columns = [
            f.r, [], f.sigma_r / gscale, f.sigma_theta / gscale,
            f.lam_r, f.lam_theta, v_over_V0, [], [],
        ]
        return None, columns

    params = cfg.model_params()
    state = treadmill.solve(params)
    transport = cfg.transport_params()
    profiles = diffusion.SteadyProfiles(
        V0=state.V0,
        V1=state.V1,
        mu0=state.mu0,
        r0=cfg.r0,
        r1=state.r1,
        transport=transport,
    )
    geom = mechanics.ShellGeometry(cfg.r0, state.r1)
    f = mechanics.stress_profile(geom, energy, cfg.grid_n, V0=state.V0)
    # The flux jumps at the outer surface: the samples at r1 take the inside
    # limit, and one more row at r1 the outside limit, where the mechanical
    # columns end.
    r = np.append(f.r, state.r1)
    side = ["below" if at else None for at in (f.r == state.r1).tolist()] + ["above"]
    h = np.append(profiles.h(f.r, side="below"), profiles.h(state.r1, side="above"))
    columns = [
        r, side, f.sigma_r / gscale, f.sigma_theta / gscale,
        f.lam_r, f.lam_theta, f.v / state.V0, h, profiles.mu(r),
    ]
    return state, columns


def cmd_profiles(cfg: RunConfig) -> int:
    """Emit radial profiles, solved from config or for an explicit geometry."""
    state, columns = _profile_rows(cfg)
    table = _Table(PROFILE_FIELDS, columns)
    doc = None
    if cfg.fmt == "json":
        params = cfg.model_params()
        doc = {
            "params": _params_doc(cfg),
            "scales": _scales_doc(treadmill.compute_scales(params)),
            "state": None if state is None else _state_doc(state),
            "rows": table,
        }
    _write(cfg, doc, table)
    return EXIT_OK


def _adaptive_lam_max(params: treadmill.ModelParams) -> float:
    """Smallest doubling of (lam - 1) from 1 whose g - h is negative."""
    s = treadmill.compute_scales(params)
    lam = 2.0
    while (
        treadmill.g(s.eta, lam, s.Vstar)
        - treadmill.h(lam, s.Vstarstar, params.b1, params.energy)
        > 0.0
    ):
        lam = 1.0 + 2.0 * (lam - 1.0)
        if lam > 1e9:
            raise NumericFailure("scan bound expansion exceeded lam = 1e9")
    return lam


def cmd_validate(cfg: RunConfig) -> int:
    """Run the energy checks and the uniqueness oracle; nonzero on failure."""
    energy = cfg.energy()
    report = strain_energy.validate(energy, 0.1, 10.0, 100)
    checks = list(report.checks)

    params = cfg.model_params()
    dec = treadmill.solvable(params)
    checks.append(
        strain_energy.CheckResult(
            "treadmilling-solvable",
            dec.ok,
            dec.reason or "Vstar > 0 and Vstar > Vstarstar",
        )
    )
    if dec.ok:
        brackets = treadmill.grid_scan_oracle(params, _adaptive_lam_max(params), 10000)
        checks.append(
            strain_energy.CheckResult(
                "uniqueness-oracle",
                len(brackets) == 1,
                f"{len(brackets)} sign-change bracket(s) found",
            )
        )

    ok = all(c.passed for c in checks)
    doc = {
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks],
        "ok": ok,
    }
    table = _Table(
        ("check", "passed", "detail"),
        [
            [c.name for c in checks],
            ["pass" if c.passed else "fail" for c in checks],
            [c.detail.replace(",", ";") for c in checks],
        ],
    )
    _write(cfg, doc, table)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accrete",
        description="Steady treadmilling of an elastic shell accreting on a rigid sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument(
            "--format",
            choices=("csv", "json"),
            default="csv",
            help="output format (default: csv)",
        )
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config entry, e.g. --set chem.mu_inf=2.0 (repeatable)",
        )

    p_solve = sub.add_parser("solve", help="solve a single treadmilling state")
    add_common(p_solve)

    p_sweep = sub.add_parser("sweep", help="sweep eta and tabulate the states")
    add_common(p_sweep)
    p_sweep.add_argument("--eta-min", type=float, default=1e-6, dest="eta_min")
    p_sweep.add_argument("--eta-max", type=float, default=1e6, dest="eta_max")
    p_sweep.add_argument(
        "--points", type=int, default=121, help="number of eta points (default: 121)"
    )
    p_sweep.add_argument(
        "--linear",
        action="store_true",
        help="space eta linearly instead of logarithmically",
    )

    p_prof = sub.add_parser("profiles", help="radial stress and transport profiles")
    add_common(p_prof)
    p_prof.add_argument(
        "--grid-n",
        type=int,
        default=101,
        dest="grid_n",
        help="number of radial samples (default: 101)",
    )
    p_prof.add_argument(
        "--r1",
        type=float,
        help="outer radius for mechanics-only profiles (skips the solve)",
    )
    p_prof.add_argument(
        "--v0",
        type=float,
        help="accretion speed for the velocity column in mechanics-only mode",
    )

    p_val = sub.add_parser("validate", help="energy checks and uniqueness oracle")
    add_common(p_val)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # Overflow and NaN in array arithmetic are caught where they would
        # be written (the writer raises NumericFailure), so numpy's warnings
        # would only repeat them on stderr.
        with np.errstate(over="ignore", invalid="ignore"):
            cfg = _config_from_args(args)
            if args.command == "solve":
                return cmd_solve(cfg)
            if args.command == "sweep":
                return cmd_sweep(cfg)
            if args.command == "profiles":
                return cmd_profiles(cfg)
            return cmd_validate(cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NoTreadmillingState as exc:
        print(f"no treadmilling state: {exc}", file=sys.stderr)
        return EXIT_NO_STATE
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
