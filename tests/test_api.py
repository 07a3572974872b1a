"""The public names of the package resolve.

Layer tracing picks the functions it wraps from each module's ``__all__`` and
skips a name it cannot resolve, so a stale entry would drop out of the traces
without an error.  Every ``mahler/__init__`` re-export must be the object of
its module and listed in that module's ``__all__`` where the module has one.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mahler

MODULES = sorted(m.name for m in pkgutil.iter_modules(mahler.__path__))


def _reexports():
    tree = ast.parse(Path(mahler.__file__).read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"mahler.{name}")
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert not missing, f"mahler.{name}.__all__ names {missing}, which do not exist"


def test_every_package_reexport_resolves():
    wrong = []
    for module_name, name in _reexports():
        module = importlib.import_module(f"mahler.{module_name}")
        if getattr(mahler, name) is not getattr(module, name, None):
            wrong.append(f"{name} is not mahler.{module_name}.{name}")
        elif name not in getattr(module, "__all__", [name]):
            wrong.append(f"{name} is missing from mahler.{module_name}.__all__")
    assert not wrong, wrong
