"""Public names: every entry of a module's ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import batchfrag

MODULES = ["batchfrag"] + [f"batchfrag.{m.name}"
                           for m in pkgutil.iter_modules(batchfrag.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """A module without ``__all__`` (``seeding``) exports nothing to check."""
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []
