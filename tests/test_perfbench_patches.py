"""The benchmark tracer (perfbench/tracing.py) wraps package functions by
module and attribute name. A rename or deletion in the package, or a caller
that stops looking a name up through its module, would break only the
slower perfbench suite, so both are checked here."""

import importlib
import importlib.util
import random
from pathlib import Path

import pytest

from coversat.csp import solve_csp
from coversat.solver import SolverConfig

from helpers import rand_csp

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


def test_traced_names_resolve():
    patches = _patches()
    assert patches
    missing = [
        f"{modname}.{attr}"
        for modname, attr, *_ in patches
        if not callable(getattr(importlib.import_module(modname), attr, None))
    ]
    assert not missing, missing


@pytest.mark.parametrize(
    "name",
    [
        "coversat.search.searchball",
        "coversat.solver.searchball_fast",
        "coversat.csp.solve_deterministic",
        "coversat.csp.restrict_to_box",
    ],
)
def test_searchball_called_through_module_attribute(monkeypatch, name):
    # the tracer counts each layer's calls by patching these attributes; a
    # caller that reached the function another way would read as zero
    modname, attr = name.rsplit(".", 1)
    module = importlib.import_module(modname)
    calls = []
    orig = getattr(module, attr)

    def counting(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, attr, counting)
    # the d=3 CSP case of tests/test_golden.py
    g = rand_csp(random.Random("golden-csp:6:30:3"), 3, 6, 30)
    assert solve_csp(g, SolverConfig(t=6)).status == "sat"
    assert calls
