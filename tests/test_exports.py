"""Every name a module lists in ``__all__`` exists, so a star import works."""

import importlib
import pkgutil

import pytest

import predfuse

# importing predfuse.__main__ would run the CLI
MODULES = ["predfuse"] + [f"predfuse.{m.name}"
                          for m in pkgutil.iter_modules(predfuse.__path__)
                          if m.name != "__main__"]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves_every_exported_name(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    exported = getattr(importlib.import_module(module), "__all__", ())
    assert set(exported) <= namespace.keys()
