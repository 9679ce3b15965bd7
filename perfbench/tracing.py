"""Traced run: spans and counts at accrete's module boundaries.

Spans are recorded by wrappers installed, for the traced pass only, around
the public functions of accrete.treadmill, accrete.strain_energy.validate,
accrete.mechanics.stress_profile and the accrete.cli command functions.  A
span holds its name, parent, operation number, start and end.  Calls that
happen once per point or per root-finder step are counted on the innermost
open span instead of getting spans of their own: the energy through
CountingEnergy, a ReducedEnergy that delegates to NeoHookean, and the
transport fields through wrappers on SteadyProfiles.h and .mu.  A layer's
self time is its span's duration minus its child spans and counted calls.

Layers a workload does not drive are measured on a probe: one in-process
solve, validate, 121-row sweep and 101-point profile at a seeded chemistry,
traced after the workload's operations.  Metrics come from the workload's
own spans where it has them and from the probe's otherwise.
"""

from __future__ import annotations

import contextlib
import os
import random
import statistics
import subprocess
import sys
import time

import numpy as np

from accrete import cli, diffusion, mechanics, strain_energy, treadmill
from accrete.strain_energy import NeoHookean, ReducedEnergy

from workloads import Chemistry, child_env, loguniform

clock = time.perf_counter_ns

TREADMILL_API = (
    "compute_scales", "solvable", "g", "h", "solve", "grid_scan_oracle",
    "small_bead_asymptote", "small_bead_quadratic", "large_bead_asymptote",
)
CLI_COMMANDS = ("cmd_solve", "cmd_sweep", "cmd_profiles", "cmd_validate")

# Which end-to-end metric, on which workload, each per-layer metric should
# move.  The names in brackets are the workload's own names for it.
LAYER_MAP = {
    "treadmill.F_evals_per_solve.p50": ["op.p50_ms@solve-scan [solve.p50_us]", "op.p99_ms@solve-scan [solve.p99_us]", "items_per_s@cli-sweep [sweep.rows_per_s]"],
    "treadmill.F_evals_per_solve.max": ["op.p99_ms@solve-scan [solve.p99_us]", "items_per_s@cli-sweep [sweep.rows_per_s]"],
    "treadmill.self_us.p50": ["op.p50_ms@solve-scan [solve.p50_us]", "op.p99_ms@solve-scan [solve.p99_us]", "items_per_s@cli-sweep [sweep.rows_per_s]"],
    "strain_energy.time_share_in_solve": ["op.p50_ms@solve-scan [solve.p50_us]"],
    "strain_energy.w_scalar_ns": ["op.p50_ms@solve-scan [solve.p50_us]", "items_per_s@cli-profiles [profiles.points_per_s]"],
    "strain_energy.w_array_ns_per_elem": ["items_per_s@cli-sweep [sweep.rows_per_s]"],
    "treadmill.calls_per_sweep_row": ["items_per_s@cli-sweep [sweep.rows_per_s]"],
    "treadmill.sweep_share": ["items_per_s@cli-sweep [sweep.rows_per_s]"],
    "mechanics.ns_per_point": ["items_per_s@cli-profiles [profiles.points_per_s]"],
    "diffusion.ns_per_point": ["items_per_s@cli-profiles [profiles.points_per_s]"],
    "diffusion.calls_per_point": ["items_per_s@cli-profiles [profiles.points_per_s]"],
    "cli.self_ms": ["items_per_s@cli-sweep [sweep.rows_per_s]", "items_per_s@cli-profiles [profiles.points_per_s]"],
    "cli.bytes_out": ["items_per_s@cli-sweep [sweep.rows_per_s]", "items_per_s@cli-profiles [profiles.points_per_s]"],
    "cli.format_ns_per_byte": ["items_per_s@cli-sweep [sweep.rows_per_s]", "items_per_s@cli-profiles [profiles.points_per_s]"],
    "strain_energy.validate_ms": ["op.p50_ms@cli-oneshot [oneshot.p50_ms]"],
    "treadmill.oracle_ms": ["op.p50_ms@cli-oneshot [oneshot.p50_ms]"],
    "import.numpy_ms": ["setup_s@all", "op.p50_ms@cli-oneshot [oneshot.p50_ms]"],
    "import.accrete_ms": ["setup_s@all", "op.p50_ms@cli-oneshot [oneshot.p50_ms]"],
    "treadmill.F_evals.default": ["op.p50_ms@solve-scan [solve.p50_us]"],
    "treadmill.F_evals.eta_1e-6": ["op.p50_ms@solve-scan [solve.p50_us]"],
    "treadmill.F_evals.eta_1e2": ["op.p50_ms@solve-scan [solve.p50_us]"],
    "treadmill.F_evals.eta_1e6": ["op.p50_ms@solve-scan [solve.p50_us]"],
    "accuracy.min_digits": ["report accuracy.min_digits@solve-scan", "report accuracy.min_digits@cli-sweep"],
    "accuracy.inexact_share": ["report accuracy.inexact_share@solve-scan", "report accuracy.inexact_share@cli-oneshot"],
    "trace.overhead_frac": [],
}


class Span:
    __slots__ = ("name", "parent", "op", "phase", "start", "end", "size", "bytes_out",
                 "w_calls", "energy_ns", "diffusion_calls", "diffusion_ns", "child_ns")

    def __init__(self, name, parent, op, phase):
        self.name, self.parent, self.op, self.phase = name, parent, op, phase
        self.size = self.bytes_out = 0
        self.w_calls = self.energy_ns = self.diffusion_calls = self.diffusion_ns = self.child_ns = 0

    @property
    def ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.ns - self.child_ns - self.energy_ns - self.diffusion_ns


class Tracer:
    """Spans kept in memory, in start order, plus counts on the open span."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = 0
        self.phase = "workload"

    def wrap(self, name, fn, size=None, after=None):
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span = Span(name, parent, self.op, self.phase)
            self.spans.append(span)
            self.stack.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                self.stack.pop()
                if parent is not None:
                    parent.child_ns += span.ns
                if size is not None:
                    span.size = size(args)
                if after is not None:
                    span.bytes_out = after(args)

        return traced

    def count_energy(self, kind: str, ns: int) -> None:
        if self.stack:
            span = self.stack[-1]
            span.energy_ns += ns
            span.w_calls += kind == "w"

    def count_diffusion(self, fn):
        def counted(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                if self.stack:
                    span = self.stack[-1]
                    span.diffusion_ns += clock() - t0
                    span.diffusion_calls += 1

        return counted


class CountingEnergy(ReducedEnergy):
    """NeoHookean that counts its calls, and times them for a tracer."""

    def __init__(self, G: float, tracer: Tracer | None = None):
        self.inner = NeoHookean(G)
        self.G = self.inner.G
        self.tracer = tracer
        self.calls = {"w": 0, "dw": 0, "d2w": 0}

    def __repr__(self) -> str:
        return f"CountingEnergy(G={self.G!r})"

    def _call(self, kind, lam):
        self.calls[kind] += 1
        t0 = clock()
        try:
            return getattr(self.inner, kind)(lam)
        finally:
            if self.tracer is not None:
                self.tracer.count_energy(kind, clock() - t0)

    def w(self, lam):
        return self._call("w", lam)

    def dw(self, lam):
        return self._call("dw", lam)

    def d2w(self, lam):
        return self._call("d2w", lam)


def _output_bytes(args) -> int:
    out = args[0].out
    return os.path.getsize(out) if out and os.path.exists(out) else 0


@contextlib.contextmanager
def instrument(tracer: Tracer, wl):
    """Install the span wrappers and the counting energy; undo on exit."""
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    for name in TREADMILL_API:
        patch(treadmill, name, tracer.wrap(f"treadmill.{name}", getattr(treadmill, name)))
    patch(strain_energy, "validate", tracer.wrap("strain_energy.validate", strain_energy.validate))
    patch(mechanics, "stress_profile",
          tracer.wrap("mechanics.stress_profile", mechanics.stress_profile, size=lambda a: a[2]))
    for name in ("h", "mu"):
        patch(diffusion.SteadyProfiles, name, tracer.count_diffusion(getattr(diffusion.SteadyProfiles, name)))
    for name in CLI_COMMANDS:
        patch(cli, name, tracer.wrap(f"cli.{name}", getattr(cli, name), after=_output_bytes))
    kinds = cli.ENERGY_KINDS
    original_kind = kinds["neo-hookean"]
    kinds["neo-hookean"] = lambda G: CountingEnergy(G, tracer)
    wl.use_energy(lambda G: CountingEnergy(G, tracer))
    try:
        yield
    finally:
        wl.use_energy(NeoHookean)
        kinds["neo-hookean"] = original_kind
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def run_probe(tracer: Tracer, chem: Chemistry, tmpdir: str) -> None:
    """Drive every layer once, in process, for layers the workload skips."""
    tracer.phase = "probe"
    out = os.path.join(tmpdir, "probe")
    for argv in (["solve", "--format", "json"], ["validate"], ["sweep"], ["profiles", "--format", "json"]):
        tracer.op += 1
        cli.main(argv + ["--out", out] + chem.set_args())


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def _ratio(num, den):
    return num / den if den else 0.0


def _command_of(span):
    """The cli command span that span runs under, or None."""
    p = span.parent
    while p is not None and not p.name.startswith("cli.cmd_"):
        p = p.parent
    return p


def span_metrics(tracer: Tracer) -> dict:
    spans = tracer.spans

    def pick(pred):
        own = [s for s in spans if s.phase == "workload" and pred(s)]
        return own or [s for s in spans if s.phase == "probe" and pred(s)]

    def named(name):
        return pick(lambda s: s.name == name)

    solves = named("treadmill.solve")
    evals = [s.w_calls for s in solves]
    sweeps = set(named("cli.cmd_sweep"))
    in_sweep = [s for s in spans if s.name.startswith("treadmill.") and _command_of(s) in sweeps]
    rows = sum(1 for s in in_sweep if s.name == "treadmill.solve" and s.parent in sweeps)
    profiles = set(named("cli.cmd_profiles"))
    stress = named("mechanics.stress_profile")
    # A solved profile has one row per radial sample plus one just outside r1.
    points = sum(s.size + 1 for s in stress if s.parent in profiles)
    cmds = pick(lambda s: s.name.startswith("cli.cmd_"))
    cli_self = [s.self_ns for s in cmds]
    cli_bytes = sum(s.bytes_out for s in cmds)
    return {
        "treadmill.F_evals_per_solve.p50": (_median(evals), "count"),
        "treadmill.F_evals_per_solve.max": (max(evals, default=0), "count"),
        "treadmill.self_us.p50": (_median((s.ns - s.energy_ns) / 1e3 for s in solves), "us"),
        "strain_energy.time_share_in_solve": (
            _ratio(sum(s.energy_ns for s in solves), sum(s.ns for s in solves)), "frac"),
        "treadmill.calls_per_sweep_row": (_ratio(len(in_sweep), rows), "count"),
        "treadmill.sweep_share": (
            _ratio(sum(s.ns for s in in_sweep if s.parent in sweeps), sum(s.ns for s in sweeps)), "frac"),
        "mechanics.ns_per_point": (_ratio(sum(s.ns for s in stress), sum(s.size for s in stress)), "ns"),
        "diffusion.ns_per_point": (_ratio(sum(s.diffusion_ns for s in profiles), points), "ns"),
        "diffusion.calls_per_point": (_ratio(sum(s.diffusion_calls for s in profiles), points), "count"),
        "cli.self_ms": (_median(cli_self) / 1e6, "ms"),
        "cli.bytes_out": (_ratio(cli_bytes, len(cmds)), "bytes"),
        "cli.format_ns_per_byte": (_ratio(sum(cli_self), cli_bytes), "ns"),
        "strain_energy.validate_ms": (_median(s.ns for s in named("strain_energy.validate")) / 1e6, "ms"),
        "treadmill.oracle_ms": (_median(s.ns for s in named("treadmill.grid_scan_oracle")) / 1e6, "ms"),
    }


def energy_timings(seed: int, repeats: int = 5) -> dict:
    """Per-call cost of NeoHookean.w on one float and on 10 000 elements."""
    rng = random.Random(f"energy:{seed}")
    energy = NeoHookean(loguniform(rng, 0.1, 10.0))
    lams = [1.0 + loguniform(rng, 1e-6, 10.0) for _ in range(1000)]
    array = np.array([1.0 + loguniform(rng, 1e-6, 10.0) for _ in range(10000)])
    w = energy.w
    scalar, vector = [], []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(20):
            for lam in lams:
                w(lam)
        scalar.append((clock() - t0) / (20 * len(lams)))
        t0 = clock()
        for _ in range(50):
            w(array)
        vector.append((clock() - t0) / (50 * array.size))
    return {
        "strain_energy.w_scalar_ns": (statistics.median(scalar), "ns"),
        "strain_energy.w_array_ns_per_elem": (statistics.median(vector), "ns"),
    }


# (name, eta): the default configuration has eta = r0/ellStar = 1/2.
FIXED_POINTS = (("default", None), ("eta_1e-6", 1e-6), ("eta_1e2", 1e2), ("eta_1e6", 1e6))


def fixed_point_evals() -> dict:
    """Energy w calls of one solve at the default point and three eta values."""
    out = {}
    for name, eta in FIXED_POINTS:
        energy = CountingEnergy(1.0)
        # CLI defaults: ellStar = (b0 + b1) M / rhoR**2 = 2.
        r0 = 1.0 if eta is None else 2.0 * eta
        treadmill.solve(Chemistry(G=1.0, b0=1.0, b1=1.0, mu_inf=2.5, r0=r0).params(energy))
        out[f"treadmill.F_evals.{name}"] = (energy.calls["w"], "count")
    return out


def import_times(root: str, repeats: int = 3) -> dict:
    """Cumulative import time of numpy and of the rest of accrete.cli."""
    env = child_env(root)
    numpy_us, cli_us = [], []
    for _ in range(repeats + 1):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import accrete.cli"],
            cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line[len("import time:"):].split("|")
                if cum.strip().isdigit():
                    cumulative[name.strip()] = int(cum)
        numpy_us.append(cumulative.get("numpy", 0))
        cli_us.append(cumulative["accrete.cli"])
    # The first run may compile bytecode; it is not counted.
    numpy_ms = statistics.median(numpy_us[1:]) / 1e3
    return {
        "import.numpy_ms": (numpy_ms, "ms"),
        "import.accrete_ms": (statistics.median(cli_us[1:]) / 1e3 - numpy_ms, "ms"),
    }


def _at_reference(metrics: dict, factor: float) -> dict:
    return {k: (v * factor if u in ("ns", "us", "ms") else v, u) for k, (v, u) in metrics.items()}


def traced_run(run, seconds: float, root: str):
    """Untraced then traced pass over the same operations, plus the probes.

    cli-oneshot runs its commands through cli.main in both passes: a cold
    process cannot be traced from here, and like must be compared with like.
    Times are taken to the reference speed as in the untraced run, except
    import times, which are process start-up and are reported as measured.
    """
    wl = run.wl
    wl.in_process = True
    try:
        untraced = run.measure(seconds=seconds / 3)
        tracer = Tracer()
        with instrument(tracer, wl):
            traced = run.measure(ops=untraced["attempted"], before=lambda k: setattr(tracer, "op", k))
            run_probe(tracer, Chemistry.draw(random.Random(f"probe:{wl.seed}")), wl.tmpdir)
        t0 = clock()
        energy = energy_timings(wl.seed)
        run.calibrate()
        energy_factor = float(run.speed_factors([t0], cold=False)[0])
    finally:
        wl.in_process = False
    metrics = _at_reference(span_metrics(tracer), float(np.median(traced["factors"])))
    metrics.update(_at_reference(energy, energy_factor))
    metrics.update(fixed_point_evals())
    metrics.update(import_times(root))
    metrics["accuracy.min_digits"] = (run.min_digits(), "digits")
    metrics["accuracy.inexact_share"] = (run.inexact_share(), "frac")
    metrics["trace.overhead_frac"] = (float(traced["ref_ns"].sum() / untraced["ref_ns"].sum()) - 1.0, "frac")
    return metrics, traced
