"""A fixed corpus of CLI runs, each pinned by the sha256 of what it gives.

Each run calls cli.main in process, and its digest covers the exit code,
stdout and stderr.  The digests are kept in cli_corpus.json, so a change to
any byte the CLI writes fails here and names every argv that changed.
After a deliberate change of output, regenerate the file with

    PYTHONPATH=src python tests/test_cli_corpus.py

and list the argv that changed with the change.  The chemistries are drawn
here from a seeded random.Random, apart from the benchmark's draws, so that
no edit of the benchmark can move the corpus.

The rows above cli._ARRAY_ROWS are computed on float64 arrays by numpy and
libm.  Their digests were taken with one numpy and one libm; the bytes of
the array rows were not checked on another libm or numpy.
"""

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

from accrete import cli
from test_cli import EDGE_ARGV

CORPUS = Path(__file__).with_name("cli_corpus.json")


def chemistries(n, seed=20261019):
    """n --set argument lists, log-uniform over several decades; about one
    in eight has no treadmilling state."""
    rng = random.Random(seed)

    def loguniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    out = []
    for _ in range(n):
        b0, b1, muR1 = loguniform(1e-2, 1e2), loguniform(1e-2, 1e2), rng.uniform(0.5, 5.0)
        drive = loguniform(1e-3, 10.0) * (-1.0 if rng.random() < 0.125 else 1.0)
        values = {
            "energy.G": loguniform(1e-2, 1e2),
            "kinetics.b0": b0,
            "kinetics.b1": b1,
            "chem.muR1": muR1,
            "chem.mu_inf": b0 * muR1 / (b0 + b1) + drive,  # muR0 = 0
            "chem.rhoR": loguniform(0.1, 10.0),
            "transport.M_inner": loguniform(0.1, 10.0),
            "transport.M_outer": loguniform(0.1, 10.0),
            "geom.r0": loguniform(1e-3, 1e3),
        }
        # the outer mobility is no key; its spare draw keeps every later draw
        del values["transport.M_outer"]
        out.append([arg for key, value in values.items() for arg in ("--set", f"{key}={value!r}")])
    return out


def corpus_argv():
    """Every command in CSV and JSON, profiles with --r1 (one of them a
    thin shell, one on arrays), each side of cli._ARRAY_ROWS, and the edge
    runs of test_cli."""
    rng = random.Random(7)
    argv = []
    for i, chem in enumerate(chemistries(18)):
        fmt = ["--format", ("csv", "json")[i % 2]]
        for command in ("solve", "validate", "sweep", "profiles"):
            argv += [[command, *chem], [command, *chem, "--format", "json"]]
        r0 = float(chem[-1].split("=")[1])
        r1 = ["--r1", repr(r0 * rng.uniform(1.0, 4.0))]
        thin = ["--r1", repr(r0 * rng.uniform(1.0, 1.001))]
        argv += [["profiles", *chem, *r1], ["profiles", *chem, *r1, "--format", "json"],
                 ["profiles", *chem, *thin, *fmt]]
        for rows in (cli._ARRAY_ROWS, cli._ARRAY_ROWS + 1):
            argv += [["sweep", *chem, "--points", str(rows), *fmt],
                     ["profiles", *chem, "--grid-n", str(rows), *fmt]]
        argv.append(["profiles", *chem, *r1, "--grid-n", str(cli._ARRAY_ROWS + 1), *fmt])
    return argv + EDGE_ARGV


def digest(argv):
    """sha256 of the exit code, stdout and stderr of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


def run_corpus():
    argv = corpus_argv()
    runs = {" ".join(a): digest(a) for a in argv}
    assert len(runs) == len(argv), "an argv repeats"
    return runs


def test_cli_bytes_match_the_corpus():
    expected = json.loads(CORPUS.read_text(encoding="utf-8"))
    got = run_corpus()
    changed = sorted(k for k in got.keys() | expected.keys() if got.get(k) != expected.get(k))
    assert not changed, f"{len(changed)} of {len(got)} runs changed:\n" + "\n".join(changed)


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(run_corpus(), indent=1) + "\n", encoding="utf-8")
