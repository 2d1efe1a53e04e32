import math
import operator
import os
import pickle
import random
import subprocess
import sys
import textwrap
from dataclasses import replace
from itertools import combinations, product

import pytest

from coversat.cnf import Formula, evaluate
from coversat.codes import BlockProduct, _word_of, boolean_cover, get_code
from coversat.csp import CspFormula, brute_force_csp, solve_csp
from coversat.errors import ResourceCapError, UsageError
from coversat.solver import (
    BRUTE_CHUNK_BITS,
    RANDOM_TRIAL_HARD_CAP,
    _literal_slots,
    _plan,
    _top_indices,
    _value_masks,
    SolveStats,
    SolverConfig,
    brute_force,
    default_trial_cap,
    solve_deterministic,
    solve_schoening,
)

from helpers import (
    oracle_bitmap,
    rand_csp,
    rand_kcnf,
    rand_kcsp,
    ref_all_solutions,
    ref_bitmap,
    ref_var_masks,
)


@pytest.fixture
def inline_pool(monkeypatch):
    """Stand in for the solver's process pool: record the worker count asked
    for and run the items in this process, handing the task to the pool
    initializer through a pickle round trip as a spawned worker receives it.
    The process may use 64 CPUs, so the CPU cap stays out of the way on a
    small host. Returns the list of worker counts asked for."""
    import coversat.solver as solver

    asked = []

    class InlinePool:
        def __init__(self, processes, initializer, initargs, context=None):
            asked.append(processes)
            initializer(*pickle.loads(pickle.dumps(initargs)))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def imap(self, func, items):
            return map(func, items)

    monkeypatch.setattr(solver, "Pool", InlinePool)
    monkeypatch.setattr(solver, "_usable_cpus", lambda: 64)
    # the initializer keeps the task on itself; drop it again after the test
    monkeypatch.setattr(solver._install_task, "task", None, raising=False)
    return asked


def _cnf_bitmap(f: Formula) -> int:
    """The brute oracle's bitmap of a CNF, its clauses passed as they are written."""
    return oracle_bitmap(2, f.num_vars, f.clauses)


def _csp_bitmap(g: CspFormula) -> int:
    return oracle_bitmap(g.domain_size, g.num_vars, g.constraints)


def _result_key(res):
    s = res.stats
    return (res.status, res.witness, s.codewords_tried, s.boxes_tried,
            s.recursion_nodes, s.leaves, s.max_depth)


class TestBruteForce:
    def test_unit_clause(self):
        res = brute_force(Formula(1, [[1]]))
        assert res.status == "sat"
        assert res.witness == (1,)

    def test_contradiction(self):
        assert brute_force(Formula(1, [[1], [-1]])).status == "unsat"

    def test_bitmap_matches_naive_enumeration(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(1, 6)
            f = rand_kcnf(rng, n, rng.randint(0, 9), k=min(3, n))
            bitmap = _cnf_bitmap(f)
            expected = ref_all_solutions(f)
            got = [
                tuple(c - 1 for c in _word_of(i, 2, n))
                for i in range(2**n)
                if (bitmap >> i) & 1
            ]
            assert got == expected

    def test_first_witness_is_lexicographic(self):
        f = Formula(3, [[1, 2, 3], [-1, -2, -3]])
        res = brute_force(f)
        assert res.witness == ref_all_solutions(f)[0] == (0, 0, 1)

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            brute_force(Formula(30, ()))

    def test_zero_vars(self):
        assert brute_force(Formula(0, [])).status == "sat"
        assert brute_force(Formula(0, [])).witness == ()

    def test_var_masks_match_division_reference(self):
        # entry [v-1][c-1] is x_v != c: entry [v-1][0], x_v != 1, is x_v = 2,
        # which a CNF reads as x_v = 1 in 0-based bits, and entry [v-1][1]
        # is its complement
        for n in range(1, 15):
            full = (1 << 2**n) - 1
            table = _value_masks(2, n)
            assert table == tuple((mask, full ^ mask) for mask in ref_var_masks(n))

    def test_twenty_four_vars(self):
        # the unit clauses leave exactly one satisfying assignment
        rng = random.Random(23)
        planted = tuple(rng.randint(0, 1) for _ in range(24))
        units = [[v if bit else -v] for v, bit in enumerate(planted, start=1)]
        try:
            res = brute_force(Formula(24, units))
        finally:
            _value_masks.cache_clear()
        assert (res.status, res.witness) == ("sat", planted)

    def test_agrees_with_csp_oracle_on_d2_translation(self):
        # a CNF is the d = 2 CSP with +v as x_v != 1 and -v as x_v != 2
        rng = random.Random(29)
        statuses = set()
        for _ in range(100):
            n = rng.randint(1, 7)
            f = rand_kcnf(rng, n, rng.randint(0, 12), k=rng.randint(1, min(3, n)))
            g = CspFormula(2, n, [[(abs(u), 1 if u > 0 else 2) for u in c] for c in f.clauses])
            assert _cnf_bitmap(f) == _csp_bitmap(g)
            res, res_csp = brute_force(f), brute_force_csp(g)
            assert res.status == res_csp.status
            if res.status == "sat":
                assert tuple(b + 1 for b in res.witness) == res_csp.witness
            statuses.add(res.status)
        assert statuses == {"sat", "unsat"}


def _cnf_pairs(f: Formula):
    return [[(abs(u), 1 if u > 0 else 2) for u in clause] for clause in f.clauses]


def _first_of(bitmap: int, d: int, n: int):
    return _word_of((bitmap & -bitmap).bit_length() - 1, d, n) if bitmap else None


class TestChunkedOracle:
    """The oracle cuts the d^n assignments into chunks of at most
    BRUTE_CHUNK_BITS over the low-order variables; these sizes put one to
    256 chunks over the top ones, and each case compares the joined bitmap
    and the first witness with the full-table reference."""

    @pytest.mark.parametrize("n", range(15, 23))
    @pytest.mark.parametrize("status", ["sat", "unsat"])
    def test_cnf_matches_full_table(self, n, status):
        # near the threshold a sat draw has few solutions, in scattered
        # chunks; at n = 18 and 22 a second draw also has two clauses on the
        # top variables alone, which random 3-CNFs rarely hold: groups whose
        # constraints have no low literal
        m = 4 * n if status == "sat" else 6 * n
        top = n - (BRUTE_CHUNK_BITS.bit_length() - 1)
        draws = [(f"chunked:{n}:{status}", 0)]
        if n in (18, 22):
            draws.append((f"chunked-top:{n}:{status}", 2))
        for seed, top_only in draws:
            rng = random.Random(seed)
            while True:
                f = rand_kcnf(rng, n, m)
                if top_only:
                    f = Formula(n, f.clauses + rand_kcnf(rng, top, top_only, k=min(3, top)).clauses)
                ref = ref_bitmap(2, n, _cnf_pairs(f))
                if bool(ref) == (status == "sat"):
                    break
            assert _cnf_bitmap(f) == ref
            res = brute_force(f)
            assert res.status == status
            first = _first_of(ref, 2, n)
            assert res.witness == (None if first is None else tuple(c - 1 for c in first))

    @pytest.mark.parametrize("d, n", [(3, n) for n in range(9, 14)] + [(5, n) for n in range(6, 9)])
    def test_csp_matches_full_table(self, d, n):
        rng = random.Random(f"chunked:{d}:{n}")
        statuses = set()
        for m in (2 * n, 4 * n, 8 * n, 16 * n, 32 * n):
            g = rand_csp(rng, d, n, m)
            ref = ref_bitmap(d, n, g.constraints)
            assert _csp_bitmap(g) == ref
            res = brute_force_csp(g)
            assert res.witness == _first_of(ref, d, n)
            statuses.add(res.status)
        assert statuses == {"sat", "unsat"}

    @pytest.mark.parametrize("n", [0, 3, 18])
    def test_empty_clause(self, n):
        f = Formula(n, ((),) + tuple((v,) for v in range(1, n + 1)))
        assert _cnf_bitmap(f) == ref_bitmap(2, n, _cnf_pairs(f)) == 0
        assert brute_force(f).status == "unsat"

    def test_zero_vars(self):
        assert _cnf_bitmap(Formula(0, [])) == ref_bitmap(2, 0, []) == 1
        assert _csp_bitmap(CspFormula(4, 0, [])) == 1
        assert brute_force_csp(CspFormula(4, 0, [])).witness == ()

    @pytest.mark.parametrize("n", [1, 4, 20])
    def test_domain_one(self, n):
        # the one assignment is all ones, and x_v != 1 never holds
        free = CspFormula(1, n, [])
        assert _csp_bitmap(free) == ref_bitmap(1, n, []) == 1
        assert brute_force_csp(free).witness == (1,) * n
        stuck = CspFormula(1, n, [[(n, 1)]])
        assert _csp_bitmap(stuck) == ref_bitmap(1, n, stuck.constraints) == 0
        assert brute_force_csp(stuck).status == "unsat"

    def test_twenty_four_vars_holds_chunk_table(self):
        # the oracle's two cached mask tables are the 2^16-bit one of the low
        # 16 variables and the 2^8-bit one of the top 8, not the full table
        # of 2^24-bit masks, and its literal table pairs those same masks
        _value_masks.cache_clear()
        _literal_slots.cache_clear()
        try:
            res = brute_force(Formula(24, [[-1], [2, 24], [-24]]))
            before = _value_masks.cache_info()
            low, top = _value_masks(2, 16), _value_masks(2, 8)
            after = _value_masks.cache_info()
            slots = _literal_slots(2, 24, 8)
        finally:
            _value_masks.cache_clear()
            _literal_slots.cache_clear()
        assert res.witness == (0, 1) + (0,) * 22
        assert (before.currsize, after.hits, after.misses) == (2, before.hits + 2, before.misses)
        assert (len(low), len(top)) == (16, 8)
        assert all(mask.bit_length() <= BRUTE_CHUNK_BITS for row in low for mask in row)
        assert all(mask.bit_length() <= 2**8 for row in top for mask in row)
        for v in range(1, 25):
            assert slots[v] is slots[v, 1] and slots[-v] is slots[v, 2]
            (pos_low, pos_top), (neg_low, neg_top) = slots[v], slots[-v]
            if v > 8:
                row = low[v - 9]
                assert pos_low is row[0] and neg_low is row[1] and pos_top == neg_top == 0
            else:
                row = top[v - 1]
                assert pos_top is row[0] and neg_top is row[1] and pos_low == neg_low == 0

    def test_top_indices_match_enumeration(self):
        # the falsifying mask of every key of up to 3 pairs on distinct top
        # variables, built from the top table, lists the top assignments
        # enumerated one by one; a second pass only hits
        _top_indices.cache_clear()
        try:
            cases = []
            for d in (2, 3):
                for top in range(4):
                    masks = _value_masks(d, top)
                    full = (1 << d**top) - 1
                    for size in range(min(top, 3) + 1):
                        for variables in combinations(range(1, top + 1), size):
                            for values in product(range(1, d + 1), repeat=size):
                                key = tuple(zip(variables, values))
                                mask = full
                                for v, c in key:
                                    mask &= full ^ masks[v - 1][c - 1]
                                cases.append((d, top, key, mask))
            for d, top, key, mask in cases:
                expected = tuple(
                    j
                    for j, word in enumerate(product(range(1, d + 1), repeat=top))
                    if all(word[v - 1] == c for v, c in key)
                )
                assert _top_indices(mask) == expected, (d, top, key)
            info = _top_indices.cache_info()
            distinct = len({mask for *_, mask in cases})
            assert (info.misses, info.currsize, info.maxsize) == (distinct, distinct, 1024)
            for *_, mask in cases:
                _top_indices(mask)
            assert _top_indices.cache_info().hits == info.hits + len(cases)
            # the memo keeps at most maxsize keys
            for i in range(1100):
                assert _top_indices(1 << i) == (i,)
            assert _top_indices.cache_info().currsize == 1024
        finally:
            _top_indices.cache_clear()
            _value_masks.cache_clear()


# per witness producer, a patch that makes the step before its re-check hand
# back a witness that falsifies the input, and the call that reaches it
BAD_WITNESS_PATCHES = {
    "_search_codeword": (
        "solver.searchball_fast = lambda f, alpha, r, fp, stats=None: ((0,) * f.num_vars, stats)",
        "solver.solve_deterministic(CNF)",
    ),
    "searchball": (
        "search._searchball = lambda f, cur, *rest: (0, 0, 0)",
        "search.searchball(CNF, (0, 0, 0), 1)",
    ),
    "searchball_fast": (
        "search._fast = lambda f, cur, *rest: (0, 0, 0)",
        "search.searchball_fast(CNF, (0, 0, 0), 1, FastParams(3, 3))",
    ),
    "schoening_walk": (
        "Formula.unsat_mask = lambda self, alpha: 0",
        "search.schoening_walk(CNF, (0, 0, 0), 0)",
    ),
    "solve_schoening": (
        "solver.schoening_walk = lambda f, alpha, seed, stats=None: (0, 0, 0)",
        "solver.solve_schoening(CNF)",
    ),
    "brute_force": (
        "solver._first_solution = lambda d, n, constraints: (1, 1, 1)",
        "solver.brute_force(CNF)",
    ),
    "brute_force_csp": (
        "csp._first_solution = lambda d, n, constraints: (1, 1, 1)",
        "csp.brute_force_csp(CSP)",
    ),
    "csp._solve_box": (
        "csp.decode_box_witness = lambda box, bits: (1, 1, 1)",
        "csp.solve_csp(CSP)",
    ),
    "cli_cnf": (
        "cli.solve_deterministic = lambda f, cfg: SolveResult('sat', (0, 0, 0))",
        "cli.main(['solve', '--input', CNF_PATH])",
    ),
    "cli_csp": (
        "cli.solve_csp = lambda g, cfg: SolveResult('sat', (1, 1, 1))",
        "cli.main(['solve', '--input', CSP_PATH])",
    ),
}


class TestSolveDeterministic:
    def test_no_clauses_sat(self):
        res = solve_deterministic(Formula(5, []))
        assert res.status == "sat"
        assert res.witness == (0, 0, 0, 0, 0)

    def test_first_codeword_wins_when_trivially_sat(self):
        res = solve_deterministic(Formula(3, [[-1, -2, -3]]))
        assert res.status == "sat"
        assert res.stats.codewords_tried == 1
        assert res.witness == (0, 0, 0)  # the lexicographically first codeword

    def test_contradiction_unsat(self):
        assert solve_deterministic(Formula(1, [[1], [-1]])).status == "unsat"

    def test_empty_clause_short_circuits(self):
        f = Formula(6, ((), (1, 2, 3)))
        res = solve_deterministic(f)
        assert res.status == "unsat"
        assert res.stats.codewords_tried == 0

    def test_width_two_routes_to_brute(self):
        f = Formula(3, [[1, 2], [-1, 3]])
        res = solve_deterministic(f)
        assert res.status == "sat"
        assert evaluate(f, res.witness)

    def test_shared_plans_serve_every_n(self):
        # solves of several n, widths and epsilons in one process each get
        # the record of a solve with no plan kept, and an unsat solve tries
        # every word of the cover that its own epsilon gives
        rng = random.Random("shared-plans")
        cases = [
            (rand_kcnf(rng, n, m * n, k=k), SolverConfig(epsilon=epsilon))
            for n, k in ((6, 3), (9, 3), (12, 3), (9, 4), (12, 4))
            for m in (2, 6)
            for epsilon in (0.1, 1.5)
        ]
        kept = [solve_deterministic(f, cfg) for f, cfg in cases]
        unsat = 0
        for (f, cfg), shared in zip(cases, kept):
            _plan.cache_clear()
            alone = solve_deterministic(f, cfg)
            assert (shared.status, shared.witness) == (alone.status, alone.witness)
            assert replace(shared.stats, wall_time=0.0) == replace(alone.stats, wall_time=0.0)
            if shared.status == "unsat":
                unsat += 1
                rho = 1 / (f.max_width + cfg.epsilon)
                cover = boolean_cover(f.num_vars, rho)
                assert shared.stats.codewords_tried == len(cover)
        assert unsat >= 4
        # the epsilons give covers of different sizes, so the count above
        # tells them apart
        assert len(boolean_cover(9, 1 / 3.1)) != len(boolean_cover(9, 1 / 4.5))

    def test_agrees_with_oracle_on_random_corpus(self):
        rng = random.Random(404)
        sat = unsat = 0
        for _ in range(150):
            n = rng.randint(3, 9)
            m = rng.randint(1, int(5.5 * n))
            f = rand_kcnf(rng, n, m, k=3)
            expected = brute_force(f).status
            res = solve_deterministic(f)
            assert res.status == expected
            if res.status == "sat":
                sat += 1
                assert evaluate(f, res.witness)
            else:
                unsat += 1
        assert sat > 10 and unsat > 10

    def test_agrees_with_oracle_on_product_outer_covers(self):
        # n = 13..18: the outer cover is a 12-bit block times a residual one
        rng = random.Random(1318)
        sat = unsat = 0
        for _ in range(40):
            n = rng.randint(13, 18)
            f = rand_kcnf(rng, n, rng.randint(round(3.6 * n), round(4.8 * n)), k=3)
            assert len(boolean_cover(n, 1 / 3.1).words.blocks) == 2
            res = solve_deterministic(f)
            assert res.status == brute_force(f).status, f
            if res.status == "sat":
                sat += 1
                assert evaluate(f, res.witness)
            else:
                unsat += 1
        assert sat >= 10 and unsat >= 5, (sat, unsat)

    def test_uncountable_outer_cover_refused(self):
        # 18 blocks of 13 words: 13^18 > 2^66 codewords, more than len() can report
        f = Formula(216, [[1, 2, 3]])
        with pytest.raises(ResourceCapError):
            solve_deterministic(f)

    def test_codewords_bounded_by_cover_size(self):
        rng = random.Random(11)
        cfg = SolverConfig()
        for _ in range(30):
            f = rand_kcnf(rng, 8, rng.randint(1, 40), k=3)
            res = solve_deterministic(f, cfg)
            cover = boolean_cover(8, 1.0 / (2 + cfg.epsilon + 1))
            assert res.stats.codewords_tried <= len(cover.words)

    def test_status_independent_of_seed(self):
        rng = random.Random(5)
        f = rand_kcnf(rng, 7, 30, k=3)
        results = {
            solve_deterministic(f, SolverConfig(seed=s)).status for s in (0, 1, 99)
        }
        assert len(results) == 1

    def test_parallel_jobs_same_status(self, monkeypatch):
        # results are read in codeword (CNF) or box (CSP) order, so two
        # workers return the one-process result: status, witness and counts.
        # Two usable CPUs keep the pool path under test on a 1-CPU host.
        import coversat.solver

        monkeypatch.setattr(coversat.solver, "_usable_cpus", lambda: 2)
        cases = []
        for seed in range(3):
            for m in (50, 70):  # both sat and unsat at n=14
                f = rand_kcnf(random.Random(f"jobs:{seed}:{m}"), 14, m)
                cases += [(solve_deterministic, f, 6), (solve_deterministic, f, 3)]
            for m in (18, 24, 30):
                g = rand_csp(random.Random(f"jobs-csp:{seed}:{m}"), 3, 6, m)
                cases.append((solve_csp, g, 6))
        statuses = set()
        for solver, f, t in cases:
            seq = solver(f, SolverConfig(t=t, jobs=1))
            par = solver(f, SolverConfig(t=t, jobs=2))
            assert _result_key(par) == _result_key(seq), (solver.__name__, f, t)
            statuses.add((solver, seq.status))
        assert len(statuses) == 4  # sat and unsat for both solvers

    def test_jobs_capped_by_cover_size(self, inline_pool):
        # n=3 at rho=1/3.1 has a 2-word outer cover; 64 jobs ask for 2 workers
        f = Formula(3, [[a, b, c] for a in (1, -1) for b in (2, -2) for c in (3, -3)])
        cfg = SolverConfig()
        assert len(boolean_cover(3, 1 / 3.1).words) == 2
        par = solve_deterministic(f, replace(cfg, jobs=64))
        assert inline_pool == [2]
        assert _result_key(par) == _result_key(solve_deterministic(f, cfg))
        assert par.stats.codewords_tried == 2

    def test_one_job_counts_no_cpus(self, monkeypatch):
        # jobs=1 runs in this process without asking how many CPUs it may use
        import coversat.solver

        def no_affinity():
            raise AssertionError("usable CPUs counted for jobs=1")

        monkeypatch.setattr(coversat.solver, "_usable_cpus", no_affinity)

        def task(item, stats):
            stats.codewords_tried += 1
            return item if item == 3 else None

        stats = SolveStats()
        witness = coversat.solver.first_witness(task, [1, 2, 3, 4], 1, stats)
        assert (witness, stats.codewords_tried) == (3, 3)

    def test_codewords_count_into_the_solve_record(self, monkeypatch):
        # with jobs=1 every codeword's search counts into the one record
        # that the solve returns; no record is built per codeword
        import coversat.solver as solver

        records = []
        real = solver.searchball_fast

        def recording(f, alpha, r, fp, *, stats=None):
            records.append(stats)
            return real(f, alpha, r, fp, stats=stats)

        monkeypatch.setattr(solver, "searchball_fast", recording)
        f = rand_kcnf(random.Random("jobs:1:70"), 14, 70)
        res = solve_deterministic(f)
        assert (res.status, res.stats.codewords_tried, len(records)) == ("unsat", 26, 26)
        assert all(stats is res.stats for stats in records)

    def test_csp_record_sums_the_box_records(self, monkeypatch):
        # each box's solve returns a fresh record, which a reader of the
        # per-box results (such as a tracer) may add up: the CSP's record
        # is their sum, plus one box each
        import coversat.csp as csp

        boxes = []
        real = csp.solve_deterministic

        def recording(f, cfg):
            res = real(f, cfg)
            boxes.append(replace(res.stats))
            return res

        monkeypatch.setattr(csp, "solve_deterministic", recording)
        statuses = set()
        for m in (18, 30):
            del boxes[:]
            res = solve_csp(rand_csp(random.Random(f"jobs-csp:0:{m}"), 3, 6, m))
            total = SolveStats(boxes_tried=len(boxes))
            for sub in boxes:
                assert sub.boxes_tried == 0
                total.merge(sub)
            assert replace(res.stats, wall_time=0.0) == total
            statuses.add(res.status)
        assert statuses == {"sat", "unsat"}

    def test_jobs_capped_by_usable_cpus(self, inline_pool, monkeypatch):
        # 500 jobs on a 26-word cover ask for as many workers as CPUs
        import coversat.solver

        monkeypatch.setattr(coversat.solver, "_usable_cpus", lambda: 3)
        f = rand_kcnf(random.Random("jobs:1:70"), 14, 70)
        res = solve_deterministic(f, SolverConfig(jobs=500))
        assert inline_pool == [3]
        assert (res.status, res.stats.codewords_tried) == ("unsat", 26)

    def test_zero_vars(self):
        assert solve_deterministic(Formula(0, [])).status == "sat"

    @pytest.mark.parametrize("producer", BAD_WITNESS_PATCHES)
    def test_bad_witness_raises_under_optimize(self, producer, tmp_path):
        # python -O strips assert statements; every witness re-check must survive it
        patch, call = BAD_WITNESS_PATCHES[producer]
        script = textwrap.dedent(
            """
            import sys

            import coversat.cli as cli
            import coversat.csp as csp
            import coversat.search as search
            import coversat.solver as solver
            from coversat.cnf import Formula
            from coversat.csp import CspFormula
            from coversat.search import FastParams
            from coversat.solver import SolveResult

            assert False, "assert statements must be stripped under -O"
            CNF = Formula(3, [[1, 2, 3]])  # falsified by (0, 0, 0)
            CSP = CspFormula(3, 3, [[(1, 1), (2, 1), (3, 1)]])  # falsified by (1, 1, 1)
            CNF_PATH, CSP_PATH = sys.argv[1:]
            {patch}
            try:
                {call}
            except AssertionError as exc:
                raise SystemExit(0 if str(exc).startswith("internal error") else 1)
            raise SystemExit(1)
            """
        ).format(patch=patch, call=call)
        import coversat

        cnf_path, csp_path = tmp_path / "in.cnf", tmp_path / "in.csp"
        cnf_path.write_text("p cnf 3 1\n1 2 3 0\n")
        csp_path.write_text("p csp 3 3 1\n1 1 2 1 3 1 0\n")
        src = os.path.dirname(os.path.dirname(coversat.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script, str(cnf_path), str(csp_path)],
            env=env, capture_output=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr.decode()

    def test_workers_build_no_code(self, inline_pool, monkeypatch):
        # n = 14 < k*t = 18 holds no 6 disjoint 3-clauses: nobody asks for the code
        import coversat.search as search

        calls = []
        real = search.get_code
        monkeypatch.setattr(search, "get_code", lambda *a, **kw: calls.append(a) or real(*a, **kw))
        f = rand_kcnf(random.Random("jobs:1:70"), 14, 70)
        res = solve_deterministic(f, SolverConfig(jobs=2))
        assert inline_pool == [2]
        assert (res.status, res.stats.codewords_tried) == ("unsat", 26)
        assert len(calls) == 0

    def test_parent_builds_the_code_workers_receive(self, inline_pool, monkeypatch):
        # at n = 18 = k*t the parent asks once, before any pool, and the task
        # it hands the workers carries the built code
        import coversat.search as search
        import coversat.solver as solver

        calls = []
        real = search.get_code

        def get_code(*a, **kw):
            calls.append((a, list(inline_pool)))
            return real(*a, **kw)

        monkeypatch.setattr(search, "get_code", get_code)
        f = rand_kcnf(random.Random("jobs:2:18:75"), 18, 75)
        _plan.cache_clear()
        try:
            res = solve_deterministic(f, SolverConfig(jobs=2))
        finally:
            _plan.cache_clear()
        assert inline_pool == [2]
        assert (res.status, res.stats.codewords_tried) == ("unsat", 52)
        assert calls == [((3, 6, 2), [])]
        assert "code" in vars(solver._install_task.task.args[2])

    def test_csp_boxes_build_no_code(self, monkeypatch):
        # a d = 3 box CNF has n = 9 < k*t = 18 variables, so no box reads the code
        import coversat.search as search

        calls = []
        monkeypatch.setattr(search, "get_code", lambda *a, **kw: calls.append(a))
        g = rand_kcsp(random.Random("csp:315"), 3, 9, 315)
        res = solve_csp(g)
        assert (res.status, res.stats.boxes_tried) == ("unsat", 90)
        assert calls == []

    @pytest.mark.parametrize("n", [9, 30])
    def test_outer_loop_reads_bit_words(self, monkeypatch, n):
        # the outer loop gets the codewords as 0/1 tuples in cover order,
        # converted once per cached block: n = 9 is one block, n = 30 a lazy
        # product of blocks of 12, 12 and 6
        import coversat.solver as solver

        seen = []

        def recording(task, items, jobs, stats):
            seen.append(items)
            return None

        monkeypatch.setattr(solver, "first_witness", recording)
        # a plan kept from before another test cleared the code cache holds
        # blocks that the cache no longer has
        _plan.cache_clear()
        for _ in range(2):
            solve_deterministic(Formula(n, [[1, 2, 3]]))
        cover = boolean_cover(n, 1 / 3.1)
        assert tuple(seen[0]) == tuple(tuple(s - 1 for s in w) for w in cover.words)
        if n <= 12:
            assert seen[1] is seen[0] is cover.bit_words
        else:
            assert all(isinstance(items, BlockProduct) for items in seen)
            blocks = [get_code(2, t, r).bit_words for t, r in ((12, 4), (12, 4), (6, 2))]
            assert all(map(operator.is_, seen[0].blocks, blocks))
            assert all(map(operator.is_, seen[1].blocks, blocks))


class TestSolveSchoening:
    def test_finds_satisfying_quickly(self):
        f = Formula(4, [[1, 2, 3], [-1, 2, 4], [2, 3, 4]])
        res = solve_schoening(f, SolverConfig(seed=1))
        assert res.status == "sat"
        assert evaluate(f, res.witness)

    def test_unsat_reports_unknown_never_unsat(self):
        f = Formula(3, [[s1 * 1, s2 * 2, s3 * 3] for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)])
        assert brute_force(f).status == "unsat"
        res = solve_schoening(f, SolverConfig(seed=0, trial_cap=50))
        assert res.status == "unknown"
        assert res.witness is None

    def test_trial_cap_respected(self):
        f = Formula(3, [[s1 * 1, s2 * 2, s3 * 3] for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)])
        res = solve_schoening(f, SolverConfig(trial_cap=7))
        assert res.stats.trials == 7

    def test_deterministic_given_seed(self):
        rng = random.Random(2)
        f = rand_kcnf(rng, 8, 28, k=3)
        a = solve_schoening(f, SolverConfig(seed=11))
        b = solve_schoening(f, SolverConfig(seed=11))
        assert a.status == b.status and a.witness == b.witness
        assert a.stats.trials == b.stats.trials

    def test_default_cap_formula(self):
        f = Formula(10, [[1, 2, 3]])
        assert default_trial_cap(f) == 356  # ceil(20 * (4/3)^10)

    def test_default_cap_below_the_hard_cap_is_exact(self):
        for k in (3, 4, 5):
            clause = list(range(1, k + 1))
            for n in range(k, 90):
                bound = 20 * (2 * (k - 1) / k) ** n
                cap = RANDOM_TRIAL_HARD_CAP if bound > RANDOM_TRIAL_HARD_CAP else math.ceil(bound)
                assert default_trial_cap(Formula(n, [clause])) == cap, (k, n)

    def test_default_cap_of_long_inputs_is_the_hard_cap(self):
        # (4/3)^n overflows a float from n = 2468, (3/2)^n from n = 1751
        for n, k in ((2468, 3), (5000, 3), (1751, 4), (10**6, 4)):
            f = Formula(n, [list(range(1, k + 1))])
            assert default_trial_cap(f) == RANDOM_TRIAL_HARD_CAP == 10**8

    def test_width_two_routes_to_brute(self):
        res = solve_schoening(Formula(2, [[1], [-1]]))
        assert res.status == "unsat"  # brute route may prove unsat

    def test_empty_clause_is_unsat_without_trials(self):
        res = solve_schoening(Formula(3, ((1, 2, 3), ())))
        assert (res.status, res.witness, res.stats.trials) == ("unsat", None, 0)


class TestDispatcherAndConfig:
    def test_modes(self):
        f = Formula(3, [[1, 2, 3]])
        assert brute_force(f).status == "sat"
        assert solve_deterministic(f, SolverConfig()).status == "sat"
        assert solve_schoening(f, SolverConfig()).status == "sat"

    def test_config_validation(self):
        for epsilon in (0, float("nan"), float("inf")):
            with pytest.raises(UsageError, match="epsilon"):
                SolverConfig(epsilon=epsilon)
        with pytest.raises(UsageError):
            SolverConfig(trial_cap=0)
        with pytest.raises(UsageError):
            SolverConfig(jobs=0)

    def test_stats_populated(self):
        f = Formula(4, [[1, 2, 3], [-1, -2, -3]])
        res = solve_deterministic(f)
        assert res.stats.wall_time > 0
        assert res.stats.recursion_nodes >= 1
