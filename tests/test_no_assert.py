"""Checks in the package must hold under python -O, which strips assert
statements, so the package raises instead of asserting."""

import ast
from pathlib import Path

import coversat


def test_package_has_no_assert_statements():
    package = Path(coversat.__file__).parent
    found = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
