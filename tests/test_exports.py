"""Every name in a qfields module's ``__all__`` exists in that module."""

import importlib
import pkgutil

import pytest

import qfields

MODULES = sorted(m.name for m in pkgutil.iter_modules(qfields.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    mod = importlib.import_module(f"qfields.{name}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []
