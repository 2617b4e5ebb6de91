"""Every module of the package uses each name it imports, every private
function and class is read somewhere in the package, every name the
package re-exports is reached by the package itself, no module but
``laurent`` reads an exponent as ``Fraction``, and the package, the demos
and the replay tool import nothing outside the standard library.

The package's ``__init__`` imports only to re-export, and ``from
__future__`` imports change how a module compiles, so both are exempt from
the import check.  A private definition is a function or class whose name
starts with one underscore (dunders are not private), at module level or in
a module-level class; it counts as read when any module of the package,
``__init__`` included, loads its name or an attribute of that name.  An
export is reached when a module other than ``__init__`` loads its name in
the same way.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "knothom"
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


def foreign_imports(source: str) -> list:
    """``module (line n)`` of each absolute import in ``source``, at any
    depth, whose top-level package is neither in the standard library nor
    ``knothom``."""
    allowed = sys.stdlib_module_names | {"knothom"}
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append((node.module, node.lineno))
    return sorted(f"{name} (line {line})" for name, line in names
                  if name.partition(".")[0] not in allowed)


def test_foreign_import_finder_flags_only_foreign_modules():
    source = ("from __future__ import annotations\n"
              "import os.path, sympy\nfrom . import laurent\nfrom .models import x\n"
              "from knothom.models import y\nfrom hypothesis import strategies\n"
              "def f():\n    import numpy.linalg as la\n    from collections import abc\n")
    assert foreign_imports(source) == [
        "hypothesis (line 6)", "numpy.linalg (line 8)", "sympy (line 2)"]


#: what runs without pytest, hypothesis or sympy installed
STDLIB_ONLY = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "demos").glob("*.py")),
               ROOT / "tools" / "replay_reference.py"]


@pytest.mark.parametrize("path", STDLIB_ONLY, ids=lambda p: str(p.relative_to(ROOT)))
def test_imports_only_the_standard_library(path):
    """The package, every demo and the replay tool run on the standard
    library alone, on every version that ``requires-python`` admits."""
    assert foreign_imports(path.read_text()) == []


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


#: the ``Fraction`` readers of exponents (``Multidegree.e`` and ``total``,
#: and the degree queries of ``LaurentPoly``); ``degrees`` counts only with an
#: argument, since ``MacaulayBasis.degrees()`` takes none
FRACTION_READERS = {"e", "total", "min_degree", "max_degree"}


def fraction_reader_calls(source: str) -> list:
    """``name (line n)`` of each call in ``source`` to an exponent reader
    that returns ``Fraction``."""
    calls = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)]
    return sorted(f"{node.func.attr} (line {node.lineno})" for node in calls
                  if node.func.attr in FRACTION_READERS
                  or node.func.attr == "degrees" and (node.args or node.keywords))


def test_reader_finder_flags_only_fraction_readers():
    source = ("x = md.e('a') + md._e('q') + md.total()\n"
              "y = p.min_degree('q'), p.max_degree(var='a'), p._exponents('q')\n"
              "z = p.degrees('q'), basis.degrees(), e(1)\n")
    assert fraction_reader_calls(source) == [
        "degrees (line 3)", "e (line 1)", "max_degree (line 2)",
        "min_degree (line 2)", "total (line 1)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "laurent.py"],
                         ids=lambda p: p.name)
def test_exponents_are_read_as_int_outside_laurent(path):
    """Exponents are stored as ``int``; only ``laurent`` hands them out as
    ``Fraction``, so every other module reads them through ``Multidegree._e``
    and ``LaurentPoly._exponents``."""
    assert fraction_reader_calls(path.read_text()) == []


#: re-exports that no module reads yet, each with the reason it stays; a
#: name that becomes reached must leave this list, so it only shrinks
UNREACHED_EXPORTS = {
    "StableTorusModel": "paper model of the stable torus limit; awaits the "
                        "stable-model check group of ROADMAP item 13",
    "koszul_homology": "exact sl(N) unknot homology; awaits the koszul check "
                       "group of ROADMAP item 4",
    "sl_differential_images": "d_N images for the koszul check group of "
                              "ROADMAP item 4",
    "universal_pair_homology": "column-removing differential; ROADMAP item 4",
    "extend_differential": "colored differentials; ROADMAP item 4",
}


def unreached_exports(init: str, sources: dict) -> list:
    """Names that the ``init`` source re-exports and that no source in
    ``sources`` (module name -> text) loads, by name or as an attribute."""
    exported = [alias.asname or alias.name for node in ast.parse(init).body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    read = set()
    for text in sources.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(name for name in exported if name not in read)


def test_export_finder_flags_only_unread_names():
    init = "from .a import used, attr_used, self_used, planted\nfrom .b import Kept\n"
    sources = {
        "a": ("def used():\n    pass\ndef attr_used():\n    pass\n"
              "def self_used():\n    return self_used\ndef planted():\n    pass\n"),
        "b": "from a import used\nimport a\nclass Kept:\n    pass\nused()\na.attr_used()\n"
             "Kept = None\n",
    }
    assert unreached_exports(init, sources) == ["Kept", "planted"]


def test_every_export_is_reached():
    sources = {p.stem: p.read_text() for p in MODULES}
    unreached = unreached_exports((PACKAGE / "__init__.py").read_text(), sources)
    assert [n for n in unreached if n not in UNREACHED_EXPORTS] == []
    assert sorted(set(UNREACHED_EXPORTS) - set(unreached)) == []


#: standard-library modules that start-up must not pay for: ``dataclasses``
#: imports ``inspect``, which imports ``ast`` and ``dis``; ``traceback``,
#: which only an internal error needs, imports ``linecache`` and ``tokenize``;
#: ``pathlib`` imports ``fnmatch``, ``ntpath`` and, before 3.13, ``urllib.parse``;
#: ``argparse`` imports ``gettext``, whose first translation imports ``locale``
HEAVY_MODULES = {"dataclasses", "inspect", "ast", "dis", "typing",
                 "traceback", "linecache", "tokenize", "pathlib",
                 "argparse", "gettext"}


def modules_added(code: str) -> set:
    """The modules that ``code``, run in a ``-S`` child (so that no site hook
    loads one first), adds to ``sys.modules``; its stdout must end with
    them, on one line, as ``print(*sorted(set(sys.modules) - before))``
    prints them."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def test_cli_import_pulls_in_no_heavy_module():
    """``import knothom.cli`` adds none of :data:`HEAVY_MODULES` to
    ``sys.modules``."""
    added = modules_added("import sys\n"
                          "before = set(sys.modules)\n"
                          "import knothom.cli\n"
                          "print(*sorted(set(sys.modules) - before))\n")
    assert "knothom.cli" in added
    assert sorted(added & HEAVY_MODULES) == []


def test_cli_request_pulls_in_no_heavy_module():
    """Nor does a request: one ``main()`` call, parsed and run, loads none of
    :data:`HEAVY_MODULES`, nor ``locale``, which argparse's messages load."""
    added = modules_added("import sys\n"
                          "before = set(sys.modules)\n"
                          "from knothom.cli import main\n"
                          "assert main(['bottom', '--p', '2', '--q', '3', '--count']) == 0\n"
                          "print(*sorted(set(sys.modules) - before))\n")
    assert "knothom.cli" in added
    assert sorted(added & (HEAVY_MODULES | {"locale"})) == []
