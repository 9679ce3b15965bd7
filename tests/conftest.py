"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

import accrete


@pytest.fixture
def child_env():
    """Environment for a child Python that imports accrete from where the
    tests do, installed or from the source tree."""
    paths = [str(Path(accrete.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
