"""Pinned verdicts, witnesses and work counts of the deterministic solvers.

The values below were recorded from the solver before its outer cover was
rebuilt as a single product pass. A refactor of the outer loop, the cover
construction or the beta enumeration must reproduce them exactly: the
codeword order decides which witness is found first and how many codewords
and nodes are spent. The n=14 and n=18 cases span two outer blocks, so a
sat case that needs more codewords than the tail block holds pins the
product order; t=3 makes the codeword recursion fire (max_depth > 0).
"""

import random

import pytest

from coversat.csp import solve_csp
from coversat.solver import SolverConfig, solve_deterministic

from helpers import rand_csp, rand_kcnf

# kind, n, m, seed, t, status, witness, codewords_tried, boxes_tried,
# recursion_nodes, leaves, max_depth
GOLDEN = [
    ("cnf", 9, 30, 1, 6, "sat", "111000001", 3, 0, 69, 3, 0),
    ("cnf", 9, 45, 0, 6, "unsat", None, 8, 0, 250, 8, 0),
    ("cnf", 14, 50, 3, 6, "sat", "01010100011111", 5, 0, 957, 5, 0),
    ("cnf", 14, 70, 1, 6, "unsat", None, 32, 0, 8861, 32, 0),
    ("cnf", 18, 80, 2, 6, "sat", "101111000100100001", 11, 0, 9179, 11, 0),
    ("cnf", 18, 60, 0, 6, "unsat", None, 64, 0, 55198, 64, 0),
    ("cnf", 14, 60, 0, 3, "sat", "10100010111000", 2, 0, 900, 32, 3),
    ("cnf", 14, 60, 2, 3, "unsat", None, 32, 0, 12087, 407, 3),
    ("csp", 6, 30, 3, 6, "sat", "131212", 42, 11, 297, 42, 0),
]


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: "{}-n{}-m{}-s{}-t{}".format(*c[:5]))
def test_golden(case):
    kind, n, m, seed, t, status, witness, codewords, boxes, nodes, leaves, depth = case
    if kind == "cnf":
        f = rand_kcnf(random.Random(f"golden:{n}:{m}:{seed}"), n, m)
        res = solve_deterministic(f, SolverConfig(t=t))
    else:
        g = rand_csp(random.Random(f"golden-csp:{n}:{m}:{seed}"), 3, n, m)
        res = solve_csp(g, SolverConfig(t=t))
    got_witness = "".join(map(str, res.witness)) if res.witness is not None else None
    s = res.stats
    assert (res.status, got_witness) == (status, witness)
    assert (s.codewords_tried, s.boxes_tried) == (codewords, boxes)
    assert (s.search.recursion_nodes, s.search.leaves, s.search.max_depth) == (nodes, leaves, depth)
