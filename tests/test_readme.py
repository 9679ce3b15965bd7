"""The python examples of README.md run as written."""

import re
from pathlib import Path

import numpy as np

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
