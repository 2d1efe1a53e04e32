"""Deterministic CSP solves checked against the exhaustive d-ary oracle on
shapes the other CSP tests leave out: width-4 constraints, d = 4 and d = 5
beyond n = 3, mixed widths 1-4, inner-code lengths t = 3 and 5, outer
radius slack epsilon = 0.05 and 1.0, and d^n > 2^16, where the oracle
groups constraints by their top variables. Every draw is seeded; a verdict
must equal brute_force_csp's and a witness must satisfy the formula."""

import random

import pytest

from coversat.csp import CspFormula, brute_force_csp, csp_evaluate, solve_csp
from coversat.solver import SolverConfig


def _draw(rng: random.Random, d: int, n: int, m: int, widths: tuple[int, ...]) -> CspFormula:
    constraints = []
    for _ in range(m):
        variables = rng.sample(range(1, n + 1), rng.choice(widths))
        constraints.append(tuple((v, rng.randint(1, d)) for v in variables))
    return CspFormula(d, n, tuple(constraints))


# (d, n, constraint widths, t, epsilon, constraint counts): three draws per
# count, the counts spread from loose to tight so that both verdicts come up
CASES = [
    (3, 6, (4,), 3, 0.05, (300, 550, 700, 1000)),
    (3, 6, (4,), 5, 1.0, (400, 600, 900)),
    (4, 5, (3,), 3, 1.0, (200, 450, 700)),
    (4, 6, (1, 2, 3, 4), 5, 0.05, (40, 80, 120, 200)),
    (5, 4, (3,), 5, 0.05, (200, 900, 1500)),
    (5, 5, (1, 2, 3, 4), 3, 1.0, (40, 100, 200)),
    (4, 5, (3, 4), 3, 0.05, (300, 800, 1500)),
    # n = 9 >= k*t: the boxes read the (3, 3, 1) inner code
    (3, 9, (3,), 3, 1.0, (150, 330)),
    # 3^12 > 2^16: the oracle splits on two top variables and groups by them
    (3, 12, (3,), 6, 0.1, (250, 330, 400)),
]


@pytest.mark.parametrize("d, n, widths, t, epsilon, counts", CASES)
def test_verdicts_and_witnesses_match_oracle(d, n, widths, t, epsilon, counts):
    rng = random.Random(f"csp-oracle:{d}:{n}:{widths}:{t}:{epsilon}")
    cfg = SolverConfig(t=t, epsilon=epsilon)
    statuses = set()
    for m in counts * 3:
        g = _draw(rng, d, n, m, widths)
        res = solve_csp(g, cfg)
        assert res.status == brute_force_csp(g).status, (m, g)
        if res.status == "sat":
            assert len(res.witness) == n and csp_evaluate(g, res.witness), (m, g)
        statuses.add(res.status)
    assert statuses == {"sat", "unsat"}


@pytest.mark.parametrize(
    "d, n, widths, t, epsilon, m",
    [(4, 5, (3,), 5, 1.0, 700), (5, 4, (1, 2, 3, 4), 3, 0.05, 30)],
)
def test_two_jobs_match_one(monkeypatch, d, n, widths, t, epsilon, m):
    # two workers, even on a one-CPU host, read the boxes in cover order
    import coversat.solver

    monkeypatch.setattr(coversat.solver, "_usable_cpus", lambda: 2)
    g = _draw(random.Random(f"csp-oracle-jobs:{d}:{n}:{m}"), d, n, m, widths)
    seq = solve_csp(g, SolverConfig(t=t, epsilon=epsilon))
    par = solve_csp(g, SolverConfig(t=t, epsilon=epsilon, jobs=2))
    assert seq.status == par.status == brute_force_csp(g).status
    assert par.witness == seq.witness
    assert par.stats.boxes_tried == seq.stats.boxes_tried
    assert par.stats.codewords_tried == seq.stats.codewords_tried
    assert par.stats.recursion_nodes == seq.stats.recursion_nodes
    if par.status == "sat":
        assert csp_evaluate(g, par.witness)
