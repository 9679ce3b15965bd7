"""Tests of tools/bench_record.py, the recorder of BENCH files."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_record)


def test_smoke_record_has_the_schema(tmp_path):
    proc = subprocess.run(
        [sys.executable, "tools/bench_record.py", "--workload", "solve-scan", "--seed", "3",
         "--seconds", "0.3", "--smoke", "--out-dir", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    (path,) = tmp_path.iterdir()
    assert proc.stdout == f"{path}\n"
    assert path.name.startswith("BENCH_") and path.suffix == ".json"
    doc = json.loads(path.read_text())
    assert set(doc) == {"commit", "dirty", "parent", "seconds", "smoke", "seeds", "repeats",
                        "environment", "machine", "workloads"}
    assert (doc["parent"], doc["seconds"], doc["smoke"], doc["seeds"], doc["repeats"]) == (
        None, 0.3, True, [3], 1)
    assert doc["environment"] == {
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}
    # run.py ran in a copy of the working tree, which has no .git
    assert doc["machine"]["commit"] == "unknown (not a git work tree)"
    assert {"cpu", "nproc", "python", "numpy", "commit"} <= set(doc["machine"])
    (workload,) = doc["workloads"].values()
    (run,) = workload["runs"]
    assert (run["seed"], run["first"]) == (3, "change")
    assert (run["change"]["correct"], run["change"]["failed"]) == (True, 0)
    assert {m["name"] for m in BENCHMARK["end_to_end"]} <= set(workload["metrics"])
    assert "accuracy.inexact_share" in workload["metrics"]
    for name, entry in workload["metrics"].items():
        assert set(entry) == {"change"}, name
        stats = entry["change"]
        assert stats["q1"] == stats["median"] == stats["q3"] == run["change"]["values"][name]
        assert math.isfinite(stats["median"])


def test_pairs_are_won_by_each_metric_direction():
    def run(change, parent):
        return {"change": {"values": change}, "parent": {"values": parent}}

    runs = [
        run({"items_per_s": 110.0, "op.p50_ms": 1.0, "sweep.rows_per_s": 5.0},
            {"items_per_s": 100.0, "op.p50_ms": 2.0, "sweep.rows_per_s": 4.0}),
        run({"items_per_s": 90.0, "op.p50_ms": 2.0, "sweep.rows_per_s": 5.0},
            {"items_per_s": 100.0, "op.p50_ms": 2.0, "sweep.rows_per_s": 4.0}),
        run({"items_per_s": 130.0, "op.p50_ms": 0.5, "sweep.rows_per_s": 5.0},
            {"items_per_s": 120.0, "op.p50_ms": 3.0, "sweep.rows_per_s": 4.0}),
    ]
    doc = bench_record._metrics(runs, {"items_per_s": "higher", "op.p50_ms": "lower"})
    assert (doc["items_per_s"]["pairs"], doc["items_per_s"]["change_won"]) == (3, 2)
    assert doc["items_per_s"]["change"] == {"median": 110.0, "q1": 100.0, "q3": 120.0}
    assert doc["items_per_s"]["parent"] == {"median": 100.0, "q1": 100.0, "q3": 110.0}
    assert (doc["op.p50_ms"]["pairs"], doc["op.p50_ms"]["change_won"]) == (3, 2)  # a tie is no win
    assert set(doc["sweep.rows_per_s"]) == {"change", "parent"}  # no declared direction


def test_the_working_tree_is_copied_without_build_output(tmp_path):
    root, into = tmp_path / "checkout", tmp_path / "copies"
    into.mkdir()
    files = {"kept.py": "tracked", "gone.py": "tracked, then deleted", "new.py": "untracked",
             "pkg/mod.py": "tracked", "pkg/__pycache__/mod.cpython-311.pyc": "build output",
             "run.log": "ignored", ".gitignore": "__pycache__/\n*.log\n"}
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    git = ["git", "-c", "init.defaultBranch=main"]
    subprocess.run([*git, "init", "-q", str(root)], check=True)
    subprocess.run([*git, "add", "kept.py", "gone.py", "pkg/mod.py", ".gitignore"], cwd=root,
                   check=True)
    (root / "kept.py").write_text("tracked, edited")
    (root / "gone.py").unlink()
    copy = Path(bench_record._copy_worktree(str(root), str(into)))
    assert copy.parent == into
    got = {str(p.relative_to(copy)): p.read_text() for p in copy.rglob("*") if p.is_file()}
    assert got == {"kept.py": "tracked, edited", "new.py": "untracked", "pkg/mod.py": "tracked",
                   ".gitignore": "__pycache__/\n*.log\n"}
