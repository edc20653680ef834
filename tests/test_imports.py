"""Every imported name in the package and its tests is used.

A stdlib-``ast`` stand-in for a linter's unused-import rule: a name bound by
an import statement must be read somewhere in the same module, or be listed
in its ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "anosov").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


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


def test_unused_import_is_reported():
    source = "import os\nimport numpy as np\nfrom a import b, c\n__all__ = ['c']\nnp.x\n"
    assert unused_imports(source) == [("os", 1), ("b", 3)]
