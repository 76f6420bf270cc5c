"""No module of the package or of tools/ imports a name that it never reads,
and the package defines no private helper that nothing reads.

Each file is parsed with ``ast``.  Every name that a module-level ``import``
or ``from ... import`` binds must occur as a name somewhere in the module,
inside a quoted annotation, or in ``__all__``.  ``from __future__`` imports
are exempt.  Every module-level ``_private`` function, class or constant of
the package must be read, as a name or an attribute, outside its own
definition: in another statement of its module, or in a file of src/,
tools/, tests/ or perfbench/.
"""

import ast
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "twistaff").glob("*.py"))
FILES = PACKAGE + sorted((ROOT / "tools").glob("*.py"))
READERS = sorted(p for d in ("src", "tools", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


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


def _reads(node: ast.AST) -> set[str]:
    """The names that the node reads, as a name or as an attribute."""
    read = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            read.add(n.id)
        elif isinstance(n, ast.Attribute):
            read.add(n.attr)
    return read


def _private_definitions(tree: ast.Module):
    """(name, statement) for each module-level _private function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names if name.startswith("_") and not name.startswith("__"))


def orphaned_private_names(source: str, read_elsewhere: set[str]) -> list[str]:
    """The private module-level names of the source, in definition order, that neither
    another of its statements nor read_elsewhere reads."""
    tree = ast.parse(source)
    return [
        name
        for name, node in _private_definitions(tree)
        if name not in read_elsewhere and not any(name in _reads(other) for other in tree.body if other is not node)
    ]


@lru_cache(maxsize=None)
def _reads_by_file() -> dict:
    return {path: _reads(ast.parse(path.read_text())) for path in READERS}


def test_the_scan_sees_an_orphaned_private_helper():
    source = (
        "_LIMIT = 3\n"
        "_SEEN: set = set()\n"
        "def _walk(n):\n"
        "    return _walk(n - 1) if n else 0\n"  # a recursive call alone is no reader
        "def _kept():\n"
        "    return 1\n"
        "class _Form:\n"
        "    pass\n"
        "def public(x=_LIMIT):\n"
        "    return _kept() + x\n"
    )
    assert orphaned_private_names(source, set()) == ["_SEEN", "_walk", "_Form"]
    assert orphaned_private_names(source, {"_Form", "_walk", "_SEEN"}) == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_orphaned_private_helpers(path):
    read_elsewhere = set().union(*(r for p, r in _reads_by_file().items() if p != path))
    assert orphaned_private_names(path.read_text(), read_elsewhere) == []
