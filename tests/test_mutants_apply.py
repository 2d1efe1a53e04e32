"""Every mutant of tools/mutants.py still applies to the source and names
tests that exist. The mutation check itself runs pytest twice per mutant
and stays out of the tier-1 suite; this keeps its list from going stale."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_mutants():
    spec = importlib.util.spec_from_file_location("coversat_mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    # the frozen dataclass looks its module up in sys.modules while it is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.MUTANTS


MUTANTS = _load_mutants()


def _test_names(path: Path) -> set[str]:
    """'name' and 'Class::name' for each test function and class in path."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(
                f"{node.name}::{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            )
    return names


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_applies(name):
    mutant = MUTANTS[name]
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.tests
    for node_id in mutant.tests:
        path, _, rest = node_id.partition("::")
        assert (ROOT / path).is_file(), node_id
        if rest:
            # a parametrized case names its function before the "[...]" id
            assert rest.partition("[")[0] in _test_names(ROOT / path), node_id
