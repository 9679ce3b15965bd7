"""accrete benchmark: one seeded workload, measured, checked, reported.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (see workloads.py for the inputs):

  solve-scan    closed loop, one library caller, treadmill.solve on a pool of
                seeded ModelParams.  Root finder and energy do all the work.
  cli-sweep     cli.main sweep --points 2500 to CSV, in process.  2500
                scalar solves at fixed chemistry plus row formatting.
  cli-profiles  cli.main profiles --grid-n 10000 to JSON, in process.  One
                solve, then per-point mechanics and diffusion.
  cli-oneshot   closed loop of cold `python -m accrete.cli` processes cycling
                solve, validate, sweep and profiles.  Start-up dominates.

With --trace 0 the run measures the workload untraced for S seconds and
prints the end-to-end metrics.  Every workload reports the same names.  An
operation is one solve, one cli.main call or one cold process, and a run
repeats a fixed cycle of distinct operations:

  setup_s        time for a fresh interpreter to run `import accrete.cli`
                 (median of seven in a run)
  peak_rss_mb    peak resident memory of the workload process (for
                 cli-oneshot, of the largest child process) once every
                 distinct operation has run
  op.p50_ms      median over the distinct operations of their time
  op.p90_ms      90th percentile of the same
  op.p99_ms      99th percentile of the same
  items_per_s    solves, sweep rows, profile points or processes per second
                 over one pass of the cycle

Operation times are given at a reference machine speed.  A shared host
drifts in speed by up to 1.6x over tens of seconds, more than the changes
the benchmark must resolve, so a fixed calibration kernel that does not use
accrete runs in bursts between operations, and each operation's time is
scaled by REFERENCE_KERNEL_NS over the kernel's time around it.  Cold
processes, setup_s included, are scaled the same way by a reference
process, `python -c "import numpy"`, run before every other one.  An operation's time is then
the median over its repeats.  Percentiles of the raw times of every
operation are in the report line.

With --trace 1 the run executes a share of the same operations untraced and
then traced, and prints the per-layer metrics (tracing.py).  Both modes check
every output (checks.py) and compare d/r0 with a 60-digit reference
(reference.py).  An operation fails if it raises, exits with an error or returns
a non-finite value; the last line reports attempted and failed operations.
A distinct operation that misses the reference by more than 1e-9 relative,
or a validate that fails a chemistry the reference solves (exit code 1), is
inexact, and the share of those is reported as accuracy.inexact_share.
`correct` is false if any output breaks a stated invariant, is not
byte-identical on a rerun, or cannot be parsed.

The line before the result is a JSON report: machine, versions, commit,
seed, the workload's own named metrics (solve.p50_us, sweep.rows_per_s,
accuracy.min_digits, ...) and the map from per-layer to end-to-end metrics.
--smoke shrinks every size so a run takes a few seconds.
"""

from __future__ import annotations

import argparse
import array
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 7
CALIBRATE_EVERY_S = 0.1
CALIBRATION_BURST = 3
# Speed at which the gated times are reported: the calibration kernel, or
# for cold processes the reference process, takes this long (about their
# fastest on a 2-core Xeon VM at 2 GHz).
REFERENCE_KERNEL_NS = 3_000_000
REFERENCE_PROCESS_NS = 100_000_000
REFERENCE_PROCESS = [sys.executable, "-c", "import numpy"]


def _import_accrete():
    """Import accrete from this checkout's src/, or exit without a result."""
    sys.path.insert(0, SRC)
    try:
        import accrete
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import accrete from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(accrete.__file__))) != SRC:
        sys.exit(f"perfbench: accrete was imported from {accrete.__file__}, not {SRC}")


def calibration_kernel() -> int:
    """Fixed interpreter work, independent of accrete, as a speed reference.

    Float arithmetic, numpy scalar calls, small allocations and 17-digit
    formatting: the same kinds of work the workloads do.
    """
    acc = 0.0
    rows = []
    for i in range(500):
        x = 1.0 + i * 1e-3
        acc += 0.5 * (x**-4 + 2.0 * x * x - 3.0)
        if np.any(np.asarray(x) <= 0.0):
            acc -= 1.0
        rows.append({"x": x, "s": format(acc, ".17g")})
    return len(json.dumps(rows))


def setup_seconds(repeats: int = SETUP_REPEATS) -> float:
    """Time for a fresh interpreter to import accrete.cli, at the reference speed.

    Each import is timed right after the reference process, and the median
    of their ratios is scaled by REFERENCE_PROCESS_NS.
    """
    from workloads import child_env

    cmd = [sys.executable, "-c", "import accrete.cli"]
    env = child_env(ROOT)
    ratios = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(REFERENCE_PROCESS, cwd=ROOT, check=True)
        t1 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True)
        ratios.append((time.perf_counter() - t1) / (t1 - t0))
    return statistics.median(ratios) * REFERENCE_PROCESS_NS / 1e9


class Run:
    """A workload's measuring loop, with the checks of each distinct operation.

    The first time an operation runs, its output is checked in full and
    compared with the reference, outside the timing; later runs of it must
    give the same result, byte for byte for the CLI.
    """

    def __init__(self, wl):
        self.wl = wl
        self.first = {}
        self.verdicts = {}
        self.problems = []
        self.reruns = 0
        self.kernels = []  # (start ns, duration ns) of each calibration kernel
        self.last_calibration = 0.0
        self.rss_mb = None

    def calibrate(self) -> None:
        """A burst of calibration kernels, or for cold processes one reference process."""
        for _ in range(1 if self.wl.cold else CALIBRATION_BURST):
            t0 = time.perf_counter_ns()
            if self.wl.cold:
                subprocess.run(REFERENCE_PROCESS, cwd=ROOT, check=True)
            else:
                calibration_kernel()
            self.kernels.append((t0, time.perf_counter_ns() - t0))
        self.last_calibration = time.perf_counter()

    def speed_factors(self, starts, cold: bool) -> np.ndarray:
        """Factor that takes each operation's time to the reference speed.

        A shared host drifts in speed by up to 1.6x over tens of seconds.
        Calibration runs between operations, at least every
        CALIBRATE_EVERY_S and around every long operation, so the few
        calibrations just before and just after an operation measure the
        speed it ran at.  A cold process is timed against a reference
        process, whose start-up tracks it where the in-process kernel does
        not.
        """
        reference = REFERENCE_PROCESS_NS if cold else REFERENCE_KERNEL_NS
        t = np.array([s for s, _ in self.kernels])
        cum = np.concatenate(([0.0], np.cumsum([d for _, d in self.kernels], dtype=float)))
        j = np.searchsorted(t, np.asarray(starts))
        lo, hi = np.maximum(j - CALIBRATION_BURST, 0), np.minimum(j + CALIBRATION_BURST, t.size)
        return reference * (hi - lo) / (cum[hi] - cum[lo])

    def _judge(self, k, res):
        from workloads import Verdict
        import checks

        try:
            verdict = self.wl.judge(k, res)
        except (checks.OutputError, KeyError, TypeError, ValueError, IndexError) as exc:
            verdict = Verdict(failed=True, problems=[f"{type(exc).__name__}: {exc}"])
        self.first[k] = res
        self.verdicts[k] = verdict
        self.problems += [f"operation {k}: {p}" for p in verdict.problems]

    def _check(self, k, res) -> bool:
        """Check operation k's result; returns True if the operation failed."""
        if k not in self.first:
            self._judge(k, res)
        else:
            self.reruns += 1
            if not self.wl.same(res, self.first[k]):
                self.problems.append(f"operation {k} changed on a rerun")
                return True
        return self.verdicts[k].failed

    def measure(self, seconds: float | None = None, ops: int | None = None, before=None) -> dict:
        """Run operations in cycle order for `seconds`, or exactly `ops` of them.

        before(k), if given, is called ahead of operation k, outside the timing.
        """
        wl = self.wl
        n = wl.cycle()
        # Compact arrays, so that the harness adds little to peak_rss_mb.
        lat, which, starts = array.array("q"), array.array("l"), array.array("q")
        failed, k = 0, 0
        clock = time.perf_counter_ns
        self.calibrate()
        start = time.perf_counter()
        while True:
            i = k % n
            if wl.cold:
                due = k % 2 == 0
            else:
                due = time.perf_counter() - self.last_calibration >= CALIBRATE_EVERY_S
            if due:
                self.calibrate()
            if wl.collect_between:
                gc.collect()
            if before is not None:
                before(k)
            t0 = clock()
            raw = wl.call(i)
            t1 = clock()
            lat.append(t1 - t0)
            which.append(i)
            starts.append(t0)
            if not wl.cold and t1 - t0 >= CALIBRATE_EVERY_S * 1e9:
                self.calibrate()
            failed += self._check(i, wl.result(i, raw))
            k += 1
            if k == n and self.rss_mb is None:
                # Every distinct operation has run once; later repeats add
                # only the harness's own timing records, which grow with the
                # machine's speed.
                self.rss_mb = peak_rss_mb(children=wl.cold)
            if ops is not None and k >= ops:
                break
            if ops is None and time.perf_counter() - start >= seconds:
                break
        if self.rss_mb is None:
            self.rss_mb = peak_rss_mb(children=wl.cold)
        self.calibrate()
        if not self.reruns:
            # Too few operations to repeat one: rerun the first, untimed.
            self._check(0, wl.result(0, wl.call(0)))
        factors = self.speed_factors(starts, wl.cold)
        return {"lat_ns": lat, "op": which, "attempted": k, "failed": failed,
                "ref_ns": np.asarray(lat) * factors, "factors": factors}

    def min_digits(self) -> float:
        known = [v.digits for v in self.verdicts.values() if v.digits is not None]
        return min(known) if known else 17.0

    def inexact_share(self) -> float:
        """Share of the distinct operations whose result the reference contradicts."""
        return sum(v.inexact for v in self.verdicts.values()) / len(self.verdicts)


def percentile_ms(lat_ns: list[int], q: float) -> float:
    return float(np.percentile(np.asarray(lat_ns, dtype=float), q)) / 1e6


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def per_operation(m: dict) -> dict:
    """Median time at the reference speed of each distinct operation."""
    times = {}
    for k, ns in zip(m["op"], m["ref_ns"]):
        times.setdefault(k, []).append(float(ns))
    return {k: statistics.median(v) for k, v in times.items()}


def end_to_end(run: Run, m: dict, setup: float) -> dict:
    """The gated metrics, with operation times at the reference speed.

    Percentiles are over the distinct operations of the run, and
    items_per_s is the work of one pass over them divided by its time.
    """
    wl = run.wl
    per_op = per_operation(m)
    lat = list(per_op.values())
    return {
        "setup_s": (setup, "s"),
        "peak_rss_mb": (run.rss_mb, "MB"),
        "op.p50_ms": (percentile_ms(lat, 50), "ms"),
        "op.p90_ms": (percentile_ms(lat, 90), "ms"),
        "op.p99_ms": (percentile_ms(lat, 99), "ms"),
        "items_per_s": (sum(wl.items(k) for k in per_op) / (sum(lat) / 1e9), "1/s"),
    }


def named_metrics(run: Run, m: dict) -> dict:
    """The workload's metrics under the names a user of accrete would use.

    Percentiles here are over every timed operation, slow phases included.
    """
    name = run.wl.name
    p50, p90, p99 = (percentile_ms(m["lat_ns"], q) for q in (50, 90, 99))
    rate = sum(run.wl.items(k) for k in m["op"]) / (sum(m["lat_ns"]) / 1e9)
    named = {"accuracy.min_digits": (run.min_digits(), "digits"),
             "accuracy.inexact_share": (run.inexact_share(), "frac"),
             "failed_share": (m["failed"] / m["attempted"], "frac")}
    if name == "solve-scan":
        named.update({"solve.p50_us": (p50 * 1e3, "us"), "solve.p99_us": (p99 * 1e3, "us")})
    elif name == "cli-sweep":
        named["sweep.rows_per_s"] = (rate, "1/s")
    elif name == "cli-profiles":
        named["profiles.points_per_s"] = (rate, "1/s")
    else:
        named.update({"oneshot.p50_ms": (p50, "ms"), "oneshot.p90_ms": (p90, "ms")})
    return named


def _git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git work tree)"


def machine() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            with open(os.path.join(base, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, index, "size")) as fh:
                caches.setdefault(f"l{level}", fh.read().strip())
    except OSError:
        pass

    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "l2": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
    }


def _metric_doc(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for testing the benchmark")
    args = ap.parse_args(argv)

    # Turn a termination request into an exit, so that temporary files are
    # removed and a running child process is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _import_accrete()
    from workloads import WORKLOADS
    import tracing

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    tmp_parent = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=tmp_parent)
    try:
        wl = WORKLOADS[args.workload](args.seed, args.smoke, tmpdir, ROOT)
        run = Run(wl)
        if args.trace:
            metrics, m = tracing.traced_run(run, args.seconds, ROOT)
            named = {k: metrics[k] for k in ("accuracy.min_digits", "accuracy.inexact_share")}
        else:
            setup = setup_seconds(2 if args.smoke else SETUP_REPEATS)
            m = run.measure(seconds=args.seconds)
            metrics = end_to_end(run, m, setup)
            named = named_metrics(run, m)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(tmp_parent)
        except OSError:
            pass

    report = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine(),
        "named_metrics": _metric_doc(named),
        "operation_time_s": sum(m["lat_ns"]) / 1e9,
        "speed_factor_median": float(np.median(m["factors"])),
        "op_ms": {f"p{q}": percentile_ms(m["lat_ns"], q) for q in (0, 10, 25, 50, 75, 90, 99, 100)},
        "problems": run.problems[:20],
        "layer_map": tracing.LAYER_MAP,
    }
    print(json.dumps(report))
    result = {
        "correct": not run.problems,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": _metric_doc(metrics),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
