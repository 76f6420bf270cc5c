"""No module of the package or of tools/ imports a name that it never reads.

Each file is parsed with ``ast``.  Every name that a module-level ``import``
or ``from ... import`` binds must occur as a name somewhere in the module,
inside a quoted annotation, or in ``__all__``.  ``from __future__`` imports
are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "twistaff").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))


def _bound_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def _read_names(tree: ast.Module) -> set[str]:
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            quoted = ast.parse(annotation.value, mode="eval")
            read |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return read


def unused_imports(source: str) -> list[str]:
    """The module-level imported names that the source never reads, in import order."""
    tree = ast.parse(source)
    read = _read_names(tree)
    return [name for name in _bound_names(tree) if name not in read]


def test_the_scan_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import gcd, lcm as l\n"
        'def f(x: "Span") -> int:\n'
        "    return gcd(x, 1)\n"
    )
    assert unused_imports(source) == ["os", "l"]
    assert unused_imports("from typing import Any\ndef f(x: 'Any'):\n    pass\n") == []
    assert unused_imports("from .a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []
