"""Deterministic CNF solves checked against the exhaustive oracle on shapes
the other CNF tests leave out: n = 19-22, where the outer cover is a product
of 12-variable blocks and the codeword tree runs below it, inner alphabet
k = 4, inner-code lengths t = 3 and 5, and outer radius slack epsilon = 0.05
and 1.0. Every draw is seeded; a verdict must equal brute_force's and a
witness must satisfy the formula. A wrong verdict can only be 'unsat' on a
satisfiable formula, so the draws sit near the satisfiability threshold,
where a witness may need many codewords and a deep codeword tree."""

import random

import pytest

from coversat.cnf import Formula, evaluate
from coversat.solver import SolverConfig, brute_force, solve_deterministic


def _draw(rng: random.Random, k: int, n: int, m: int) -> Formula:
    clauses = []
    for _ in range(m):
        variables = rng.sample(range(1, n + 1), k)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return Formula(n, tuple(clauses))


def _key(res):
    s = res.stats
    return (res.status, res.witness, s.codewords_tried, s.boxes_tried,
            s.recursion_nodes, s.leaves, s.max_depth)


# (k, n, t, epsilon, clause counts, verdicts): three draws per count. A 3-CNF
# refutation at t = 3 costs about 2 s and a 4-CNF one more, so the 4-CNF
# groups and some others hold satisfiable draws only.
CASES = [
    (3, 19, 3, 0.05, (80, 88), {"sat", "unsat"}),
    (3, 20, 5, 1.0, (105,), {"unsat"}),
    (3, 21, 5, 0.05, (88,), {"sat", "unsat"}),
    (3, 22, 5, 1.0, (92,), {"sat"}),
    (4, 19, 3, 0.05, (170,), {"sat"}),
    (4, 20, 3, 1.0, (180,), {"sat"}),
]


@pytest.mark.parametrize("k, n, t, epsilon, counts, verdicts", CASES)
def test_verdicts_and_witnesses_match_oracle(k, n, t, epsilon, counts, verdicts):
    rng = random.Random(f"cnf-oracle:{k}:{n}:{t}:{epsilon}")
    cfg = SolverConfig(t=t, epsilon=epsilon)
    statuses, depth = set(), 0
    for m in counts:
        for _ in range(3):
            f = _draw(rng, k, n, m)
            res = solve_deterministic(f, cfg)
            assert res.status == brute_force(f).status, (m, f)
            if res.status == "sat":
                assert len(res.witness) == n and evaluate(f, res.witness), (m, f)
            statuses.add(res.status)
            depth = max(depth, res.stats.max_depth)
    assert statuses == verdicts
    assert depth >= 1  # some draw recursed into the codeword tree


@pytest.mark.parametrize(
    "k, n, t, epsilon, m, status",
    [(3, 20, 5, 1.0, 105, "unsat"), (4, 20, 3, 1.0, 210, "sat")],
)
def test_two_jobs_match_one(monkeypatch, k, n, t, epsilon, m, status):
    # two workers, even on a one-CPU host, read the codewords in cover order
    import coversat.solver

    monkeypatch.setattr(coversat.solver, "_usable_cpus", lambda: 2)
    f = _draw(random.Random(f"cnf-oracle-jobs:{k}:{n}:{m}"), k, n, m)
    seq = solve_deterministic(f, SolverConfig(t=t, epsilon=epsilon))
    par = solve_deterministic(f, SolverConfig(t=t, epsilon=epsilon, jobs=2))
    assert seq.status == brute_force(f).status == status
    assert _key(par) == _key(seq)
    assert seq.stats.codewords_tried > 1
    if par.status == "sat":
        assert evaluate(f, par.witness)
