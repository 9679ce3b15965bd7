"""The export lists of the package and of each of its modules."""

import importlib
import pkgutil
from pathlib import Path

import accrete

MODULES = [importlib.import_module(f"accrete.{m.name}") for m in pkgutil.iter_modules(accrete.__path__)]


def test_every_exported_name_resolves():
    for module in [accrete, *MODULES]:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_package_exports_only_what_its_modules_export():
    exported = {name: getattr(m, name) for m in MODULES for name in m.__all__}
    for name in accrete.__all__:
        assert name in exported, name
        assert getattr(accrete, name) is exported[name], name


def test_source_stays_within_its_line_budget():
    sources = Path(accrete.__file__).parent.glob("*.py")
    lines = sum(len(path.read_text().splitlines()) for path in sources)
    assert lines <= 1920, f"src/accrete/*.py has {lines} lines, over the 1 920 that ROADMAP item 7 allows"
