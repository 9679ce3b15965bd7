"""Record a BENCH_<short sha>.json file by running the benchmark as it is.

Usage, from the root of a checkout:

    python3 tools/bench_record.py [--workload NAME ...] [--seed N ...]
        [--repeats K] [--seconds S] [--smoke] [--rev REV] [--parent REV]
        [--out-dir DIR]

For each workload and seed, K times, the recorder runs the unchanged
``perfbench/run.py --trace 0`` as a child process and parses the two lines
it ends with: the JSON report and the JSON result.  The defaults are every
workload of BENCHMARK.json, seed 1, one repeat and its run_seconds.

The measured side is this checkout's files as they are, or with --rev the
committed files of REV.  With --parent REV the committed files of REV are
measured too, in pairs with the same workload and seed, and the side that
runs first alternates from pair to pair, so that a drift of the host's speed
does not favour one side.  Both sides start from fresh files: a revision in
a directory made by `git archive`, as a clean checkout of it would be, and
this checkout as a copy of its tracked and untracked-unignored files, so
that no __pycache__ or other build output comes along.  A cached bytecode
file makes a cold import faster when PYTHONDONTWRITEBYTECODE is set, so the
file records that variable too.

The file holds the machine block of the first measured-side report and, per
workload and metric, each side's median and quartiles over its runs.  For each
end-to-end metric of BENCHMARK.json it also holds the number of pairs in
which the measured side was better than the parent, by that metric's
direction.  Every run's values are kept under "runs".
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def _extract(rev: str, into: str) -> str:
    """The committed files of rev, in a new directory under into."""
    path = tempfile.mkdtemp(prefix="rev-", dir=into)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(path)
    return path


def _copy_worktree(root: str, into: str) -> str:
    """The tracked and untracked-unignored files of the checkout at root, as
    they are, in a new directory under into; outside a git checkout, every
    file but .git and __pycache__."""
    path = tempfile.mkdtemp(prefix="worktree-", dir=into)
    try:
        listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                                 "--exclude-standard"], cwd=root, capture_output=True,
                                check=True).stdout.decode()
    except (OSError, subprocess.CalledProcessError):
        ignore = shutil.ignore_patterns(".git", "__pycache__")
        shutil.copytree(root, path, ignore=ignore, dirs_exist_ok=True)
        return path
    for name in filter(None, listed.split("\0")):
        if os.path.isfile(os.path.join(root, name)):  # not a tracked file deleted from the tree
            os.makedirs(os.path.dirname(os.path.join(path, name)), exist_ok=True)
            shutil.copy2(os.path.join(root, name), os.path.join(path, name))
    return path


def _run(root: str, workload: str, seed: int, seconds: float, smoke: bool) -> tuple[dict, dict]:
    """One perfbench run in root: the machine block, and the run's values."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0", *(["--smoke"] if smoke else [])]
    # run.py imports accrete from its own checkout; a PYTHONPATH could point
    # a cold child of cli-oneshot elsewhere
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                          timeout=10 * seconds + 600)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"bench_record: {' '.join(argv[1:])} in {root} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    values = {k: m["value"] for k, m in result["metrics"].items()}
    values.update((k, m["value"]) for k, m in report["named_metrics"].items())
    values["speed_factor_median"] = report["speed_factor_median"]
    return report["machine"], {"correct": result["correct"], "attempted": result["attempted"],
                               "failed": result["failed"], "values": values}


def _summary(values: list[float]) -> dict:
    """Median and quartiles, by numpy's default (linear) rule."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _metrics(runs: list[dict], better: dict) -> dict:
    sides = ["change"] + (["parent"] if "parent" in runs[0] else [])
    doc = {}
    for name in runs[0]["change"]["values"]:
        entry = {side: _summary([r[side]["values"][name] for r in runs]) for side in sides}
        if "parent" in entry and name in better:
            sign = 1.0 if better[name] == "higher" else -1.0
            entry["pairs"] = len(runs)
            entry["change_won"] = sum(
                sign * (r["change"]["values"][name] - r["parent"]["values"][name]) > 0.0
                for r in runs)
        doc[name] = entry
    return doc


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", action="append", type=int)
    ap.add_argument("--repeats", type=int, default=1, help="runs per workload and seed (default 1)")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--smoke", action="store_true", help="run.py's tiny sizes")
    ap.add_argument("--rev", help="measure the committed files of REV, not this checkout")
    ap.add_argument("--parent", metavar="REV", help="measure REV too, in alternating pairs")
    ap.add_argument("--out-dir", default=ROOT)
    args = ap.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = args.seed or [1]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    try:
        commit = _git("rev-parse", args.rev or "HEAD")
        dirty = None if args.rev else bool(_git("status", "--porcelain"))
    except (OSError, subprocess.CalledProcessError):
        if args.rev or args.parent:
            raise SystemExit("bench_record: --rev and --parent need a git checkout")
        commit, dirty = None, None
    doc = {"commit": commit, "dirty": dirty, "parent": None, "seconds": args.seconds,
           "smoke": args.smoke, "seeds": seeds, "repeats": args.repeats,
           "environment": {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
           "machine": None, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_record-") as tmp:
        roots = {"change": _extract(args.rev, tmp) if args.rev else _copy_worktree(ROOT, tmp)}
        if args.parent:
            doc["parent"] = _git("rev-parse", args.parent)
            roots["parent"] = _extract(args.parent, tmp)
        for workload in workloads:
            runs = []
            for seed in seeds:
                for _ in range(args.repeats):
                    order = list(roots)[::-1] if len(runs) % 2 else list(roots)
                    run = {"seed": seed, "first": order[0]}
                    for side in order:
                        machine, run[side] = _run(roots[side], workload, seed, args.seconds,
                                                  args.smoke)
                        if side == "change":
                            doc["machine"] = doc["machine"] or machine
                    runs.append(run)
                    print(f"{workload} seed {seed}: " + ", ".join(
                        f"{side} {run[side]['values'].get('items_per_s', float('nan')):.6g}"
                        for side in roots) + " items/s", file=sys.stderr)
            doc["workloads"][workload] = {"metrics": _metrics(runs, better), "runs": runs}

    name = f"BENCH_{commit[:7] if commit else 'worktree'}.json"
    with open(os.path.join(args.out_dir, name), "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(os.path.join(args.out_dir, name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
