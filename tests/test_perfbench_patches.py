"""The benchmark tracer (perfbench/tracing.py) wraps package functions by
module and attribute name. A rename or deletion in the package, or a caller
that stops looking a name up through its module, would break only the
slower perfbench suite, so both are checked here."""

import importlib
import importlib.util
import random
from pathlib import Path

import pytest

import coversat.search
from coversat.cli import main
from coversat.cnf import formula, override
from coversat.csp import solve_csp
from coversat.solver import SolverConfig, solve_deterministic

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


def _count_calls(monkeypatch, name):
    modname, attr = name.rsplit(".", 1)
    module = importlib.import_module(modname)
    calls = []
    orig = getattr(module, attr)

    def counting(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, attr, counting)
    return calls


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
    calls = _count_calls(monkeypatch, name)
    # the d=3 CSP case of tests/test_golden.py
    g = rand_csp(random.Random("golden-csp:6:30:3"), 3, 6, 30)
    assert solve_csp(g, SolverConfig(t=6)).status == "sat"
    assert calls


def test_subsearches_pass_stats_and_root_mask_by_keyword(monkeypatch):
    # the tracer reads kwargs["stats"] of every searchball call; the beta
    # enumeration also hands over the root's unsat mask, which must be the
    # one searchball would compute itself
    real = coversat.search.searchball
    calls = []

    def recording(f, alpha, r, **kwargs):
        calls.append(kwargs)
        assert {"stats", "unsat"} <= kwargs.keys()
        assert kwargs["unsat"] == f.unsat_mask(override(alpha, kwargs.get("forced") or {}))
        return real(f, alpha, r, **kwargs)

    monkeypatch.setattr(coversat.search, "searchball", recording)
    g = rand_csp(random.Random("golden-csp:6:30:3"), 3, 6, 30)
    assert solve_csp(g, SolverConfig(t=6)).status == "sat"
    # one call per beta the enumeration cannot settle in place: not a witness,
    # budget left, a free variable in its lowest unsatisfied clause, and at
    # radius 1 some free literal in every unsatisfied clause
    assert len(calls) == 26


def test_disjoint_sets_get_the_node_mask_through_module_attribute(monkeypatch):
    # the codeword recursion computes each node's unsat mask once and hands
    # it to maximal_disjoint_unsat, which it must still reach through the
    # attribute the tracer patches
    real = coversat.search.maximal_disjoint_unsat
    calls = []

    def recording(f, alpha, k, **kwargs):
        calls.append(kwargs)
        assert kwargs.keys() == {"unsat"}
        assert kwargs["unsat"] == f.unsat_mask(alpha)
        return real(f, alpha, k, **kwargs)

    monkeypatch.setattr(coversat.search, "maximal_disjoint_unsat", recording)
    g = rand_csp(random.Random("golden-csp:6:30:3"), 3, 6, 30)
    assert solve_csp(g, SolverConfig(t=6)).status == "sat"
    assert calls


# (mode, input) of a solve that the CLI hands to each traced solver
CLI_SOLVES = {
    "coversat.cli.brute_force": ("brute", "p cnf 3 2\n1 2 3 0\n-1 -2 0\n"),
    "coversat.cli.solve_deterministic": ("det", "p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n"),
    "coversat.cli.solve_csp": ("det", "p csp 3 3 1\n1 1 2 2 3 3 0\n"),
}


@pytest.mark.parametrize("name", CLI_SOLVES)
def test_solvers_called_through_cli_attribute(monkeypatch, tmp_path, name):
    # solver.brute_s, solver.outer_s, solver.codewords_tried and
    # csp.boxes_tried of the CLI's solves come from these patches
    calls = _count_calls(monkeypatch, name)
    mode, text = CLI_SOLVES[name]
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert main(["solve", "--input", str(path), "--mode", mode]) == 10
    assert calls


def test_brute_force_called_through_solver_attribute(monkeypatch):
    # solve_deterministic sends width <= 2 to the oracle
    calls = _count_calls(monkeypatch, "coversat.solver.brute_force")
    assert solve_deterministic(formula(3, [[1, 2], [-1, 3], [-2, -3]])).status == "sat"
    assert calls
