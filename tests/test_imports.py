"""Every imported name in the package and its tests is used, every private
helper of the package is referenced, and the package imports no scipy.

A stdlib-``ast`` stand-in for a linter's unused-import rule: a name bound by
an import statement must be read somewhere in the same module, or be listed
in its ``__all__``.  And a dead-code rule: a module-level private function,
class or constant of ``src/anosov`` (``_name``, dunders aside) must be
referenced somewhere in ``src/`` outside its own definition; a helper only
the tests use belongs in the tests.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "anosov").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def _bound_names(tree):
    """(name, line) for every name an import binds, __future__ excluded."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree)
    return [(name, line) for name, line in _bound_names(tree) if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def scipy_imports(source: str) -> list:
    """(module, line) for every import of scipy or a scipy submodule."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(a.name, node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append((node.module, node.lineno))
    return [(name, line) for name, line in found if name.split(".")[0] == "scipy"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_imports_no_scipy(path):
    """numpy is the package's one numerical library; scipy serves the tests
    as an oracle only."""
    assert scipy_imports(path.read_text()) == []


def test_scipy_import_is_reported():
    source = "import scipy\nfrom scipy.sparse import linalg\nimport numpy.fft, scipy.fft as f\nfrom . import scipy\n"
    assert scipy_imports(source) == [("scipy", 1), ("scipy.sparse", 2), ("scipy.fft", 3)]


def test_unused_import_is_reported():
    source = "import os\nimport numpy as np\nfrom a import b, c\n__all__ = ['c']\nnp.x\n"
    assert unused_imports(source) == [("os", 1), ("b", 3)]


def _private_definitions(stmt):
    """Private names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _references(node):
    """Names a subtree reads: loaded names, attributes and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def unreferenced_helpers(modules: dict) -> list:
    """(module, name) for each private module-level definition that no other
    top-level statement of any module references.  ``modules`` maps a
    module name to its source."""
    statements = [
        (name, stmt) for name, src in modules.items() for stmt in ast.parse(src).body
    ]
    dead = []
    for module, stmt in statements:
        for helper in _private_definitions(stmt):
            if not any(
                helper in _references(other)
                for _, other in statements
                if other is not stmt
            ):
                dead.append((module, helper))
    return dead


def test_no_unreferenced_private_helpers():
    modules = {path.name: path.read_text() for path in PACKAGE}
    assert unreferenced_helpers(modules) == []


def test_unreferenced_helper_is_reported():
    modules = {
        "a.py": "_K = 1\n_UNUSED = 2\n\ndef _rec():\n    return _rec()\n"
        "\ndef f():\n    return _K + b._shared()\n",
        "b.py": "from .a import _K\n\ndef _shared():\n    return 0\n\n__all__ = []\n",
    }
    assert unreferenced_helpers(modules) == [("a.py", "_UNUSED"), ("a.py", "_rec")]
