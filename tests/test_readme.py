"""The python examples of README.md run as written, and its config table
is the CLI's."""

import re
from pathlib import Path

import numpy as np

from accrete import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run_in_order():
    # each block reads what the blocks before it defined, as in one session
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 3
    ns = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), ns)
    # the claims of the comments in the examples
    energy, geom = ns["params"].energy, ns["geom"]
    assert ns["bead"].sigma_r == -energy.w(geom.nu)
    assert isinstance(ns["h"], np.ndarray) and ns["h"].shape == ns["fields"].sigma_r.shape
    assert np.all(np.diff(ns["thickness"]) <= 0.0)


def test_readme_config_table_is_the_run_config_table():
    # each row's key and default, in the order of cli._KEYS
    section = README.read_text(encoding="utf-8").split("### Configuration\n", 1)[1]
    rows = [line.split("|")[1:3] for line in section.split("\n### ", 1)[0].splitlines()
            if line.startswith("| `")]
    table = [tuple(cell.strip().strip("`") for cell in row) for row in rows]
    assert len(table) == 10
    assert table == [(key, str(default)) for key, (_, default) in cli._KEYS.items()]
