"""Every name in a qfields module's ``__all__`` exists in that module, and every
name the package re-exports is in its submodule's ``__all__``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import qfields

MODULES = sorted(m.name for m in pkgutil.iter_modules(qfields.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    mod = importlib.import_module(f"qfields.{name}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_reexports_are_in_submodule_all():
    tree = ast.parse(Path(qfields.__file__).read_text())
    missing = [f"{node.module}.{a.name}" for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for a in node.names
               if a.name not in getattr(importlib.import_module(f"qfields.{node.module}"),
                                        "__all__", ())]
    assert missing == []
