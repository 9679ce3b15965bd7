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

Each command loads only the modules it runs.  ``import accrete`` loads none
of accrete's modules until a name is used; ``import accrete.cli`` loads
strain_energy and treadmill, which every command needs.  Only ``profiles``
also loads mechanics and diffusion, only JSON output loads json, and only
a sweep or profile of more than _ARRAY_ROWS (256) rows loads numpy; every
other run computes on floats, with the same bits.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from collections import namedtuple
from itertools import chain
from typing import NamedTuple

from . import strain_energy, treadmill
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


# Up to this many rows, a sweep or profile runs on floats, row by row, and
# never imports numpy (about 55 ms of a cold run); a longer one runs on
# float64 arrays.  Both evaluate the same formulas and give the same bits.
# The array branches ignore numpy's overflow and invalid warnings: an inf
# or a NaN is caught where it would be written (the writer raises
# NumericFailure), so a warning would only repeat it.
_ARRAY_ROWS = 256


class ConfigError(Exception):
    """Malformed config file, key, or value."""


# Config key -> (its RunConfig field, default), in the order of the JSON
# params block.
_KEYS = {
    "energy.kind": ("energy_kind", "neo-hookean"),
    "energy.G": ("G", 1.0),
    "kinetics.b0": ("b0", 1.0),
    "kinetics.b1": ("b1", 1.0),
    "chem.muR0": ("muR0", 0.0),
    "chem.muR1": ("muR1", 3.0),
    "chem.mu_inf": ("mu_inf", 2.5),
    "chem.rhoR": ("rhoR", 1.0),
    "transport.M_inner": ("M_inner", 1.0),
    "geom.r0": ("r0", 1.0),
}
# Command -> (its help, its options): RunConfig field -> argparse spec, the
# default included.  An option's flag is its field with - for _.
_COMMANDS = {
    "solve": ("solve a single treadmilling state", {}),
    "sweep": ("sweep eta and tabulate the states", {
        "eta_min": dict(type=float, default=1e-6),
        "eta_max": dict(type=float, default=1e6),
        "points": dict(type=int, default=121, help="number of eta points (default: %(default)s)"),
        "linear": dict(action="store_true", default=False,
                       help="space eta linearly instead of logarithmically"),
    }),
    "profiles": ("radial stress and transport profiles", {
        "grid_n": dict(type=int, default=101,
                       help="number of radial samples (default: %(default)s)"),
        "r1": dict(type=float, default=None,
                   help="outer radius for mechanics-only profiles (skips the solve)"),
    }),
    "validate": ("energy checks and uniqueness oracle", {}),
}
# The options of every command, RunConfig field -> default.
_OPTIONS = {"out": None, "fmt": "csv", **{
    name: spec["default"] for _, options in _COMMANDS.values() for name, spec in options.items()}}
_DEFAULTS = {**dict(_KEYS.values()), **_OPTIONS}


class RunConfig(namedtuple("RunConfig", _DEFAULTS, defaults=_DEFAULTS.values())):
    """Resolved run configuration: physical parameters plus command options.

    A named tuple of the fields of _KEYS and then of _OPTIONS, with their
    defaults.  Building one, by the constructor, _make or _replace, builds
    the energy, the ModelParams and the Scales, so every command rejects a
    bad value in the same way.  The last two are its attributes params and
    scales, held in the instance dict (a tuple subclass cannot slot them)
    and read-only like the fields.
    """

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        try:
            make_energy = ENERGY_KINDS[self.energy_kind]
        except KeyError:
            known = ", ".join(sorted(ENERGY_KINDS))
            raise ConfigError(
                f"unknown energy.kind {self.energy_kind!r}; known kinds: {known}"
            ) from None
        params = treadmill.ModelParams(make_energy(self.G), self.b0, self.b1, self.muR0,
                                       self.muR1, self.mu_inf, self.rhoR, self.M_inner, self.r0)
        vars(self).update(params=params, scales=treadmill.compute_scales(params))
        return self

    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace checks too

    def __setattr__(self, name, *value):
        raise AttributeError(f"RunConfig is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class _Table(NamedTuple):
    """Named columns of an output table.

    A column is a float64 array, a list of floats, or a list whose cells
    are str or None (empty); a short column ends in empty cells.
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
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _coerce(key: str, raw: str):
    if isinstance(_KEYS[key][1], str):
        return raw
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"value for {key} is not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"value for {key} must be finite: {raw!r}")
    return value


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """RunConfig from the defaults, then the config file, then --set, and
    the options of the command."""
    kwargs = {}
    if args.config is not None:
        for key, raw in _parse_config_file(args.config).items():
            kwargs[_KEYS[key][0]] = _coerce(key, raw)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = (part.strip() for part in item.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"--set: unknown key {key!r}")
        kwargs[_KEYS[key][0]] = _coerce(key, raw)
    kwargs.update((name, getattr(args, name)) for name in _OPTIONS if hasattr(args, name))
    return RunConfig(**kwargs)


def _columns(table: _Table, number: str, text, empty: str) -> list:
    """(cells, format, literal) of each column for %: floats under number,
    text(x) for str and empty for None under %s, and the literal for a row
    past the column's end.  A non-finite number raises before any format.

    Each distinct column is converted once, to str cells under %s: a column
    object held twice cell by cell, and a column of one nonzero value by one
    % of it (equal nonzero floats have equal bits; 0.0 and -0.0 are equal
    floats with different text)."""
    order, distinct, numbers = [id(column) for column in table.columns], {}, {}
    for name, column, key in zip(table.names, table.columns, order):
        if key in distinct:
            continue
        if isinstance(column, list) and not (column and isinstance(column[0], float)):
            distinct[key] = ([empty if x is None else text(x) for x in column], "%s", empty)
            continue
        if isinstance(column, list):  # %s of an np.float64 is numpy's str, not float repr
            finite, column = all(map(math.isfinite, column)), [*map(float, column)]
        else:  # a float64 array, so numpy is loaded already
            import numpy as np
            finite, column = np.isfinite(column).all(), column.tolist()
        if not finite:
            raise NumericFailure(f"non-finite {name} in the output")
        distinct[key] = numbers[key] = (column, number, empty)
    for key, (c, f, e) in numbers.items():
        if order.count(key) > 1:
            distinct[key] = ([f % x for x in c], "%s", e)
        elif c and c[0] and c[-1] == c[0] and c.count(c[0]) == len(c):
            distinct[key] = ([f % c[0]] * len(c), "%s", e)
    return [distinct[key] for key in order]


def _fill(columns: list, keys, head: str, sep: str, tail: str) -> list[str]:
    """The text of each run of rows that have the same columns, by one %:
    head + sep.join(key + cell) + tail per row, and past the end of a
    column its literal.  Cells _columns converted once go in under %s."""
    text, lo = [], 0
    for hi in sorted({len(c) for c, _, _ in columns} - {0}):
        row = sep.join(k + (f if len(c) >= hi else e) for k, (c, f, e) in zip(keys, columns))
        cells = zip(*(c[lo:hi] for c, _, _ in columns if len(c) >= hi))
        text.append((head + row + tail) * (hi - lo) % tuple(chain.from_iterable(cells)))
        lo = hi
    return text


def _csv_text(table: _Table) -> str:
    rows = _fill(_columns(table, "%.17g", str, ""), [""] * len(table.names), "", ",", "\n")
    return "".join([",".join(table.names) + "\n", *rows])


def _json_text(doc: dict) -> str:
    """json.dumps(doc, indent=2) text, with a _Table as the last value of
    doc written as its list of row objects.

    No row object is built.  Each row format holds a key and a %s per cell,
    filled with the text json.dumps gives the cell (float repr, a quoted
    string, null), or a literal null past the end of a short column.
    """
    import json
    key, table = list(doc.items())[-1]
    is_table, rows = isinstance(table, _Table), []
    try:
        text = json.dumps({**doc, key: []} if is_table else doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericFailure(f"non-finite value in the output: {exc}") from None
    if is_table:  # text ends in '"rows": []\n}'
        keys = [f"      {json.dumps(name)}: " for name in table.names]
        rows = _fill(_columns(table, "%s", json.dumps, "null"), keys,
                     "    {\n", ",\n", "\n    },\n")  # cells freed before the join
        rows[-1:] = [run[:-2] for run in rows[-1:]]  # no ",\n" after the last row
    return "".join([text[:-4], "[\n", *rows, "\n  ]\n}\n"]) if rows else text + "\n"


def _write(cfg: RunConfig, doc: dict, table: _Table) -> None:
    """Write table as CSV, or doc as JSON, exactly as json.dumps(doc,
    indent=2) lays it out; doc is only read for JSON.

    Every column is checked before any cell is formatted, and the whole
    text is formatted before anything is written.  A number that is not
    finite raises NumericFailure: NaN and infinities are not valid JSON,
    and an inf in a CSV cell is no result either.  Each distinct column is
    converted to text once, and each run of rows is filled by a single %.
    """
    text = _json_text(doc) if cfg.fmt == "json" else _csv_text(table)
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {cfg.out!r}: {exc}") from exc


def _params_doc(cfg: RunConfig) -> dict:
    """The config keys and their values, nested by section."""
    doc: dict = {}
    for key, (field, _) in _KEYS.items():
        section, name = key.split(".")
        doc.setdefault(section, {})[name] = getattr(cfg, field)
    return doc


def cmd_solve(cfg: RunConfig) -> int:
    """Solve one treadmilling state and emit it with the derived scales."""
    state = treadmill.solve(cfg.params)
    doc = {
        "params": _params_doc(cfg),
        "scales": dataclasses.asdict(cfg.scales),
        "state": dataclasses.asdict(state),
    }
    names = [*doc["scales"], *doc["state"]]
    values = [*doc["scales"].values(), *doc["state"].values()]
    _write(cfg, doc, _Table(("name", "value"), [names, values]))
    return EXIT_OK


def _sweep_rows(cfg: RunConfig) -> list:
    """The sweep columns, in SWEEP_FIELDS order."""
    if not (math.isfinite(cfg.eta_min) and math.isfinite(cfg.eta_max)):
        raise ConfigError("eta range must be finite")
    if not (cfg.eta_min > 0.0 and cfg.eta_max > cfg.eta_min):
        raise ConfigError("eta range must satisfy 0 < eta-min < eta-max")
    if cfg.points < 2:
        raise ConfigError("need at least 2 sweep points")
    scales = cfg.scales
    nu_star, _, _ = treadmill.small_bead_asymptote(cfg.params)
    space = strain_energy._linspace if cfg.linear else strain_energy._geomspace
    etas = space(cfg.eta_min, cfg.eta_max, cfg.points)

    def cells(st):  # of one row's state (floats) or of every row's (arrays)
        return st.nu, st.nu - 1.0, st.V0, st.V0 / scales.Vstar, st.mu0, st.f0, st.f1

    # Each row is bit for bit solve at r0 = eta * ellStar: in one array pass,
    # or row by row with the same checks and errors.
    if cfg.points > _ARRAY_ROWS:
        import numpy as np
        with np.errstate(over="ignore", invalid="ignore"):
            columns = cells(treadmill.solve_eta(cfg.params, np.array(etas)))
    else:
        columns = [[*c] for c in zip(*map(cells, treadmill._solve_rows(cfg.params, etas)))]
    # Vstar and Vstarstar do not depend on r0, so the diffusion-limited
    # estimate (Vstar/Vstarstar - 1)/eta of large_bead_asymptote needs only
    # the base scales; it does not apply when Vstarstar <= 0.
    c = scales.Vstar / scales.Vstarstar - 1.0 if scales.Vstarstar > 0.0 else None
    d_diffusion_limited = [] if c is None else [c / eta for eta in etas]
    return [etas, *columns, [nu_star - 1.0] * len(etas), d_diffusion_limited]


def cmd_sweep(cfg: RunConfig) -> int:
    """Sweep eta and emit one row per point.

    All rows are computed before anything is written, so an unsolvable
    configuration fails before producing output.
    """
    table = _Table(SWEEP_FIELDS, _sweep_rows(cfg))
    doc = {"params": _params_doc(cfg), "scales": dataclasses.asdict(cfg.scales), "rows": table}
    _write(cfg, doc, table)
    return EXIT_OK


def _profile_rows(cfg: RunConfig) -> tuple[treadmill.TreadmillState | None, list]:
    """Solved state (None with --r1) and the profile columns, in PROFILE_FIELDS order."""
    from . import diffusion, mechanics
    if cfg.grid_n < 2:
        raise ConfigError("need at least 2 profile points")
    if cfg.r1 is not None and not math.isfinite(cfg.r1):
        raise ConfigError("--r1 must be finite")
    energy = cfg.params.energy
    gscale = strain_energy.modulus_scale(energy)
    state = None
    if cfg.r1 is None:
        state = treadmill.solve(cfg.params)
        if not math.isfinite(state.r1):  # r1 = nu r0 overflows for a bead near the float range
            raise NumericFailure(f"non-finite value in the output: r1 = {state.r1!r}")
    geom = mechanics.ShellGeometry(cfg.r0, cfg.r1 if state is None else state.r1)
    try:  # a solved state whose h or mu overflows is no bad input
        profiles = None if state is None else diffusion.SteadyProfiles(
            state.V0, state.mu0, geom, cfg.M_inner, cfg.rhoR, cfg.mu_inf)
    except ValueError as exc:
        raise NumericFailure(str(exc)) from None

    def cells(f):  # at one radius (floats) or at every radius (arrays)
        cols = [f.r, f.sigma_r / gscale, f.sigma_theta / gscale, f.lam_r, f.lam_theta]
        if state is not None:
            cols += [f.r == state.r1, profiles.h(f.r, side="below"), profiles.mu(f.r)]
        return cols

    if cfg.grid_n > _ARRAY_ROWS:
        import numpy as np
        with np.errstate(over="ignore", invalid="ignore"):
            cols = cells(mechanics.stress_profile(geom, energy, cfg.grid_n))
        append = np.append
    else:  # the same cells, one radius at a time
        radii = strain_energy._linspace(geom.r0, geom.r1, cfg.grid_n)
        cols = [[*x] for x in zip(*(cells(mechanics.fields_at(r, geom, energy)) for r in radii))]
        append = list.__add__
    # v/V0 = (r0/r)**2 = lam_r, defined also where the solved V0 rounds to 0
    if state is None:
        # Mechanics-only mode: geometry given directly, no chemistry attached,
        # so side, h and mu are empty.
        return None, [cols[0], [], *cols[1:5], cols[3], [], []]
    # The flux jumps at the outer surface: the samples at r1 take the inside
    # limit, and one more row at r1 the outside limit, where the mechanical
    # columns end.
    at_r1, h, mu = cols[-3:]
    side = ["below" if at else None for at in at_r1] + ["above"]
    h = append(h, [profiles.h(state.r1, side="above")])
    mu = append(mu, [profiles.mu(state.r1)])
    return state, [append(cols[0], [state.r1]), side, *cols[1:5], cols[3], h, mu]


def cmd_profiles(cfg: RunConfig) -> int:
    """Emit radial profiles, solved from config or for an explicit geometry."""
    state, columns = _profile_rows(cfg)
    table = _Table(PROFILE_FIELDS, columns)
    doc = {
        "params": _params_doc(cfg),
        "scales": dataclasses.asdict(cfg.scales),
        "state": None if state is None else dataclasses.asdict(state),
        "rows": table,
    }
    _write(cfg, doc, table)
    return EXIT_OK


def cmd_validate(cfg: RunConfig) -> int:
    """Run the energy checks and the uniqueness oracle; nonzero on failure."""
    checks = strain_energy.validate(cfg.params.energy, 0.1, 10.0, 100).checks
    dec = treadmill.solvable(cfg.params)
    checks += (
        strain_energy.CheckResult(
            "treadmilling-solvable",
            dec.ok,
            dec.reason or "Vstar > 0 and Vstar > Vstarstar",
        ),
    )
    if dec.ok:
        # Scan to past the solved root; the oracle counts sign changes on
        # its own.  A thin shell can solve to nu == 1.0, hence the floor.
        lam_max = max(2.0, 2.0 * treadmill.solve(cfg.params).nu - 1.0)
        brackets = treadmill.grid_scan_oracle(cfg.params, lam_max, 10000)
        checks += (
            strain_energy.CheckResult(
                "uniqueness-oracle",
                len(brackets) == 1,
                f"{len(brackets)} sign-change bracket(s) found",
            ),
        )

    report = strain_energy.ValidationReport(checks)
    doc = {"checks": [c._asdict() for c in checks], "ok": report.ok}
    table = _Table(
        ("check", "passed", "detail"),
        [
            [c.name for c in checks],
            ["pass" if c.passed else "fail" for c in checks],
            [c.detail.replace(",", ";") for c in checks],
        ],
    )
    _write(cfg, doc, table)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accrete",
        description="Steady treadmilling of an elastic shell accreting on a rigid sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=_OPTIONS["fmt"], dest="fmt",
                       help="output format (default: %(default)s)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry, e.g. --set chem.mu_inf=2.0 (repeatable)")
        for name, spec in options.items():
            p.add_argument("--" + name.replace("_", "-"), **spec)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return globals()[f"cmd_{args.command}"](cfg)  # at call time, so a patched cmd_* runs
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
