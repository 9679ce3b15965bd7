"""The package imports each exported name, and each module, on first use."""

import ast
import subprocess
import sys

import pytest

import accrete
from accrete import diffusion, mechanics, strain_energy, treadmill


def test_star_import_binds_the_modules_own_objects():
    namespace = {}
    exec("from accrete import *", namespace)
    del namespace["__builtins__"]
    owners = {name: m for m in (strain_energy, mechanics, diffusion, treadmill) for name in m.__all__}
    assert list(namespace) == accrete.__all__
    for name, value in namespace.items():
        assert value is getattr(owners[name], name), name


def test_dir_lists_every_export_and_module():
    names = dir(accrete)
    assert set(accrete.__all__) <= set(names)
    assert {"cli", "diffusion", "mechanics", "strain_energy", "treadmill"} <= set(names)
    assert names == sorted(names)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'accrete' has no attribute 'nope'"):
        accrete.nope
    assert not hasattr(accrete, "nope")
    with pytest.raises(ImportError, match="cannot import name 'nope'"):
        exec("from accrete import nope", {})


def test_a_name_loads_only_its_module_and_stays_bound(child_env):
    code = """if True:
        import sys, accrete
        def loaded():
            return sorted(m for m in sys.modules if m.startswith("accrete."))
        before = loaded()
        solve = accrete.solve
        bound = vars(accrete)["solve"] is solve is accrete.treadmill.solve
        after_name = loaded()
        module = accrete.mechanics
        print(repr([before, bound, after_name, module is sys.modules["accrete.mechanics"], loaded()]))
    """
    proc = subprocess.run(
        [sys.executable, "-c", code], env=child_env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout) == [
        [],
        True,
        ["accrete.records", "accrete.strain_energy", "accrete.treadmill"],
        True,
        ["accrete.mechanics", "accrete.records", "accrete.strain_energy", "accrete.treadmill"],
    ]
