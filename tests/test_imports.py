"""Every module of the package uses each name it imports, and every private
function and class is read somewhere in the package.

The package's ``__init__`` imports only to re-export, and ``from
__future__`` imports change how a module compiles, so both are exempt from
the import check.  A private definition is a function or class whose name
starts with one underscore (dunders are not private), at module level or in
a module-level class; it counts as read when any module of the package,
``__init__`` included, loads its name or an attribute of that name.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "knothom"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_imports(source: str) -> list:
    """Names that ``source`` imports at any depth but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


def test_finder_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as js\n"
              "from math import gcd, factorial\n"
              "def f(x):\n    import sys\n    return os.path.join(x, js.dumps(gcd(1, 2)))\n")
    assert unused_imports(source) == ["factorial (line 4)", "sys (line 6)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_definitions(tree):
    """Private functions and classes at module level and in module-level classes."""
    for node in tree.body:
        inner = node.body if isinstance(node, ast.ClassDef) else []
        for item in (node, *inner):
            if isinstance(item, DEFINITIONS) and is_private(item.name):
                yield item


def unread_private_definitions(sources: dict) -> list:
    """``module:name (line n)`` of each private definition that no source in
    ``sources`` (module name -> text) reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(f"{module}:{node.name} (line {node.lineno})"
                  for module, tree in trees.items()
                  for node in private_definitions(tree) if node.name not in read)


def test_definition_finder_flags_only_unread_names():
    sources = {
        "a": ("class _Kept:\n    def _used(self):\n        return self._helper()\n"
              "    def _helper(self):\n        return 1\n    def _dead(self):\n        pass\n"
              "    def __repr__(self):\n        return ''\n"
              "def _orphan():\n    def _nested():\n        pass\n"
              "_orphan_value = 1\n"),
        "b": "from a import _Kept\nx = _Kept()._used()\n_Unread = None\nclass _Gone:\n    pass\n",
    }
    assert unread_private_definitions(sources) == [
        "a:_dead (line 6)", "a:_orphan (line 10)", "b:_Gone (line 4)"]


def test_no_unread_private_definitions():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_private_definitions(sources) == []
