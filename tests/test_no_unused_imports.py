"""Every name a package module imports is used in that module, so a
deletion cannot leave an import behind. __init__.py is skipped, as it
imports only to re-export, and so is ``from __future__``, a directive."""

import ast
from pathlib import Path

import coversat


def _unused_imports(tree: ast.AST) -> list[int]:
    """Line numbers of imported names that no Name node of the module reads.
    ``import a.b`` binds ``a``; an attribute chain such as ``a.b.c`` starts
    with the Name ``a``."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(alias.asname or alias.name, node.lineno) for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(line for name, line in bound if name not in used)


def test_package_has_no_unused_imports():
    package = Path(coversat.__file__).parent
    found = [
        f"{path.relative_to(package)}:{line}"
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
        for line in _unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, found


def test_lint_flags_unused_imports():
    source = """
from __future__ import annotations
import os.path
import sys
from functools import partial, reduce
from .solver import _chunks as chunks

def f(x: partial) -> int:
    return os.path.join(chunks(x))
"""
    assert _unused_imports(ast.parse(source)) == [4, 5]
