"""Every name a module lists in ``__all__`` exists, so a star import works,
and every private module-level name is used somewhere in the package."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def _private_definitions(tree):
    """Module-level ``_name`` functions, classes and constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def _loads(tree):
    """Every name a ``Name``, an ``Attribute`` or a ``from ... import`` loads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_no_private_helper_is_left_behind():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(predfuse.__file__).parent.glob("*.py"))}
    loaded = {name for tree in trees.values() for name in _loads(tree)}
    unused = [f"{module}: {name}" for module, tree in trees.items()
              for name in _private_definitions(tree) if name not in loaded]
    assert unused == []


def _enclosing_functions(tree):
    """Map each node to the name of the innermost function holding it."""
    owner = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else name
            owner[child] = inner
            visit(child, inner)

    visit(tree, None)
    return owner


def test_sigmoid_kernel_is_the_one_finiteness_check():
    """The sigmoid's finiteness error is raised in one place, the kernel
    every caller goes through, never by a caller of it."""
    message = "sigmoid input must be finite"
    sites = []
    for path in sorted(Path(predfuse.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = _enclosing_functions(tree)
        raises = {node for r in ast.walk(tree) if isinstance(r, ast.Raise)
                  for node in ast.walk(r)}
        sites += [(path.stem, owner[node], node in raises)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and node.value == message]
    assert sites == [("core", "_sigmoid", True)]
