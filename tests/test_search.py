import gc
import math
import random
from collections import Counter

import pytest

from coversat.cnf import Formula, clause_satisfied, evaluate, formula, hamming_distance
import coversat.search
from coversat.search import (
    FastParams,
    SearchStats,
    WalkParams,
    _beta_search,
    _clause_rows,
    _pattern_table,
    apply_codeword,
    maximal_disjoint_unsat,
    schoening_walk,
    searchball,
    searchball_fast,
)

from helpers import (
    first_unsatisfied_clause,
    rand_assignment,
    rand_formula,
    rand_kcnf,
    ref_beta_search,
    ref_satisfying_patterns,
    ref_searchball,
    restrict,
    sat_in_ball,
)


@pytest.fixture(scope="module")
def fp6():
    return FastParams.for_k(3, 6)


@pytest.fixture(scope="module")
def fp3():
    return FastParams.for_k(3, 3)


class TestSchoeningWalk:
    def test_returns_satisfying_start_untouched(self):
        f = formula(2, [[1, 2]])
        assert schoening_walk(f, (1, 0), WalkParams(rng_seed=0)) == (1, 0)

    def test_forced_flip_on_unit_clause(self):
        # the only literal of the only unsatisfied clause must be flipped
        assert schoening_walk(formula(1, [[1]]), (0,), WalkParams(rng_seed=5)) == (1,)

    def test_gives_up_on_unsatisfiable(self):
        f = formula(1, [[1], [-1]])
        assert schoening_walk(f, (0,), WalkParams(rng_seed=1)) is None

    def test_empty_clause_gives_up(self):
        # no literal to flip: the walk returns None instead of raising
        f = Formula(3, ((1, 2, 3), ()))
        assert schoening_walk(f, (0, 0, 0), WalkParams(rng_seed=0)) is None

    def test_step_budget_respected(self):
        f = formula(4, [[1], [2], [3], [4]])
        stats = SearchStats()
        schoening_walk(f, (0, 0, 0, 0), WalkParams(max_steps=2, rng_seed=0), stats=stats)
        assert stats.recursion_nodes == 2

    def test_success_rate_meets_promise_bound(self):
        # unique satisfying assignment all-ones at distance 2 from the start;
        # per-call bound is (k-1)^-r = 1/4 for k=3, r=2
        clauses = []
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    if (a, b, c) != (1, 1, 1):
                        clauses.append(
                            [v if bit == 0 else -v for v, bit in zip((1, 2, 3), (a, b, c))]
                        )
        f = formula(3, clauses)
        assert evaluate(f, (1, 1, 1))
        start = (1, 0, 0)
        hits = 0
        trials = 4000
        for i in range(trials):
            if schoening_walk(f, start, WalkParams(rng_seed=i)) is not None:
                hits += 1
        # Wilson-style slack: expect >= 0.8 * 0.25 even with sampling noise
        assert hits / trials >= 0.8 * 0.25

    def test_same_path_as_first_unsat_rescan(self):
        # the walk keeps its unsatisfied-clause mask across flips; a rescan
        # for the first unsatisfied clause before every step is the reference
        rng = random.Random(9)
        for i in range(150):
            n = rng.randint(3, 9)
            f = rand_formula(rng, n, rng.randint(1, 30))
            alpha = rand_assignment(rng, n)
            walk, cur, steps = random.Random(i), list(alpha), 0
            for _ in range(3 * n):
                idx = first_unsatisfied_clause(f, tuple(cur))
                if idx is None:
                    break
                v = abs(walk.choice(f.clauses[idx]))
                cur[v - 1] = 1 - cur[v - 1]
                steps += 1
            expected = tuple(cur) if evaluate(f, tuple(cur)) else None
            stats = SearchStats()
            assert schoening_walk(f, alpha, WalkParams(rng_seed=i), stats) == expected
            assert stats.recursion_nodes == steps

    def test_walk_result_always_satisfies(self):
        rng = random.Random(8)
        for i in range(100):
            f = rand_kcnf(rng, 6, 10)
            res = schoening_walk(f, rand_assignment(rng, 6), WalkParams(rng_seed=i))
            if res is not None:
                assert evaluate(f, res)


class TestSearchball:
    def test_satisfied_immediately(self):
        f = formula(2, [[1, 2]])
        w, stats = searchball(f, (1, 0), 0)
        assert w == (1, 0)
        assert stats.recursion_nodes == 1

    def test_radius_zero_fails(self):
        w, _ = searchball(formula(1, [[1]]), (0,), 0)
        assert w is None

    def test_radius_one_example(self):
        f = formula(3, [[1, 2, 3], [-1], [-2]])
        w, _ = searchball(f, (0, 0, 0), 1)
        assert w == (0, 0, 1)

    def test_node_count_envelope(self):
        rng = random.Random(21)
        for _ in range(100):
            n = rng.randint(3, 8)
            f = rand_kcnf(rng, n, rng.randint(1, 12), k=3)
            alpha = rand_assignment(rng, n)
            r = rng.randint(0, n)
            _, stats = searchball(f, alpha, r)
            assert stats.leaves <= 3**r
            assert stats.recursion_nodes <= sum(3**i for i in range(r + 1))
            assert stats.leaves <= stats.recursion_nodes
            assert stats.max_depth <= r

    def test_promise_completeness_against_ball_oracle(self):
        rng = random.Random(33)
        checked = 0
        for _ in range(150):
            n = rng.randint(3, 7)
            f = rand_kcnf(rng, n, rng.randint(2, 10), k=3)
            alpha = rand_assignment(rng, n)
            for r in range(n + 1):
                oracle = sat_in_ball(f, alpha, r)
                w, _ = searchball(f, alpha, r)
                if oracle is not None:
                    assert w is not None, (f, alpha, r)
                    checked += 1
                if w is not None:
                    assert evaluate(f, w)
        assert checked > 100

    def test_forced_prefix_behaves_like_restriction(self):
        rng = random.Random(55)
        for _ in range(80):
            n = rng.randint(3, 6)
            f = rand_kcnf(rng, n, rng.randint(1, 8), k=3)
            alpha = rand_assignment(rng, n)
            domain = rng.sample(range(1, n + 1), rng.randint(1, n - 1))
            beta = {v: rng.randint(0, 1) for v in domain}
            r = rng.randint(0, n)
            w, _ = searchball(f, alpha, r, forced=beta)
            g = restrict(f, beta)
            w2, _ = searchball(g, tuple(beta.get(v + 1, alpha[v]) for v in range(n)), r)
            assert (w is None) == (w2 is None)
            if w is not None:
                assert evaluate(f, w)
                assert all(w[v - 1] == bit for v, bit in beta.items())

    def test_matches_textbook_recursion(self):
        # same witness, nodes, leaves and max depth as a rescan of every
        # clause at every node, whether or not the caller hands over the
        # root's unsat mask; radius-0 children settled in place count too
        rng = random.Random(66)
        for _ in range(60):
            n = rng.randint(1, 8)
            f = rand_formula(rng, n, rng.randint(1, 4 * n))
            alpha = rand_assignment(rng, n)
            forced = {v: rng.randint(0, 1) for v in range(1, rng.randint(0, n) + 1)}
            root = f.unsat_mask(tuple(forced.get(v, alpha[v - 1]) for v in range(1, n + 1)))
            for r in range(n + 1):
                expected = ref_searchball(f, alpha, r, forced)
                assert searchball(f, alpha, r, forced=forced) == expected, (f, alpha, r, forced)
                assert searchball(f, alpha, r, forced=forced, unsat=root) == expected

    def test_random_forced_sets_match_textbook_recursion(self):
        # forced dicts over random variable subsets, clauses up to width 5
        # and radii 0-4: same witness, nodes, leaves and max depth as the
        # textbook recursion, dead-end nodes (every variable of the lowest
        # unsatisfied clause forced) included
        rng = random.Random(68)
        dead_roots = found = 0
        for _ in range(150):
            n = rng.randint(1, 9)
            f = rand_formula(rng, n, rng.randint(1, 4 * n), max_width=5)
            alpha = rand_assignment(rng, n)
            domain = rng.sample(range(1, n + 1), rng.randint(0, n))
            forced = {v: rng.randint(0, 1) for v in domain}
            start = tuple(forced.get(v, alpha[v - 1]) for v in range(1, n + 1))
            i = first_unsatisfied_clause(f, start)
            dead_roots += i is not None and all(abs(u) in forced for u in f.clauses[i])
            for r in range(5):
                expected = ref_searchball(f, alpha, r, forced)
                assert searchball(f, alpha, r, forced=forced) == expected, (f, alpha, r, forced)
                found += expected[0] is not None
        assert dead_roots > 30 and found > 150

    def test_caller_arguments_untouched(self):
        # the root overlays forced on alpha in a copy, also when it descends
        # or returns a witness
        rng = random.Random(67)
        descended = 0
        for _ in range(60):
            n = rng.randint(2, 8)
            f = rand_formula(rng, n, rng.randint(1, 4 * n))
            alpha = list(rand_assignment(rng, n))
            forced = {v: rng.randint(0, 1) for v in rng.sample(range(1, n + 1), rng.randint(0, n))}
            alpha_before, forced_before = list(alpha), dict(forced)
            for r in range(n + 1):
                w, stats = searchball(f, alpha, r, forced=forced)
                descended += stats.max_depth > 0
                assert (alpha, forced) == (alpha_before, forced_before)
                assert list(forced.items()) == list(forced_before.items())
                if w is not None:
                    assert all(w[v - 1] == bit for v, bit in forced.items())
        assert descended > 50

    def test_forced_variable_range_checked(self):
        f = formula(3, [[1, 2, 3]])
        for v in (0, 4, -1):
            with pytest.raises(ValueError, match=f"forced variable {v} out of range"):
                searchball(f, (0, 0, 0), 1, forced={1: 1, v: 0})
        with pytest.raises(ValueError, match=f"forced variable {10**9} out of range"):
            searchball(f, (0, 0, 0), 1, forced={10**9: 1})
        # every variable 1..n may be forced, the last one included
        assert searchball(f, (0, 0, 0), 1, forced={3: 1})[0] == (0, 0, 1)
        assert searchball(f, (0, 0, 0), 0, forced={1: 0, 2: 0, 3: 0})[0] is None


class TestMaximalDisjointUnsat:
    def test_satisfied_formula_empty(self):
        f = formula(3, [[1, 2, 3]])
        assert maximal_disjoint_unsat(f, (1, 0, 0), 3) == []

    def test_greedy_scan_order(self):
        f = formula(8, [[1, 2, 3], [3, 4, 5], [6, 7, 8]])
        g = maximal_disjoint_unsat(f, (0,) * 8, 3)
        assert g == [(1, 2, 3), (6, 7, 8)]

    def test_only_width_exactly_k(self):
        f = formula(4, [[1, 2], [3], [-4]])
        assert maximal_disjoint_unsat(f, (0, 0, 0, 1), 3) == []

    def test_maximality_at_variable_level(self):
        rng = random.Random(60)
        for _ in range(120):
            n = rng.randint(4, 10)
            f = rand_kcnf(rng, n, rng.randint(1, 14), k=3)
            alpha = rand_assignment(rng, n)
            g = maximal_disjoint_unsat(f, alpha, 3)
            chosen_vars = {abs(u) for c in g for u in c}
            assert len(chosen_vars) == 3 * len(g)  # pairwise variable-disjoint
            for clause in f.clauses:
                if len(clause) == 3 and not evaluate(formula(n, [clause]), alpha):
                    assert any(abs(u) in chosen_vars for u in clause)


    def test_matches_input_order_scan(self):
        rng = random.Random(61)
        for _ in range(200):
            n = rng.randint(3, 12)
            f = rand_kcnf(rng, n, rng.randint(0, 30), k=3)
            alpha = rand_assignment(rng, n)
            used, expected = set(), []
            for clause in f.clauses:
                if evaluate(formula(n, [clause]), alpha) or used & {abs(u) for u in clause}:
                    continue
                expected.append(clause)
                used |= {abs(u) for u in clause}
            assert maximal_disjoint_unsat(f, alpha, 3) == expected


class TestApplyCodeword:
    def test_worked_example_three_triples(self):
        # alpha all-0, H = {(x1 v y1 v z1), (x2 v y2 v z2), (x3 v y3 v z3)},
        # w = (2,3,3) flips y1, z2, z3
        h = [(1, 4, 7), (2, 5, 8), (3, 6, 9)]
        alpha = (0,) * 9
        moved = apply_codeword(alpha, h, (2, 3, 3))
        # flips y1 (var 4), z2 (var 8), z3 (var 9)
        assert moved == (0, 0, 0, 1, 0, 0, 0, 1, 1)

    def test_all_ones_flips_first_literals(self):
        h = [(1, 2, 3), (4, 5, 6)]
        assert apply_codeword((0,) * 6, h, (1, 1)) == (1, 0, 0, 1, 0, 0)

    def test_distance_moved_is_t(self):
        rng = random.Random(3)
        for _ in range(50):
            alpha = rand_assignment(rng, 12)
            h = []
            for i in range(4):
                vs = (3 * i + 1, 3 * i + 2, 3 * i + 3)
                h.append(tuple(v if alpha[v - 1] == 0 else -v for v in vs))
            w = tuple(rng.randint(1, 3) for _ in range(4))
            moved = apply_codeword(alpha, h, w)
            assert hamming_distance(alpha, moved) == 4

    def test_symbol_exceeding_clause_width(self):
        with pytest.raises(ValueError, match="width"):
            apply_codeword((0, 0), [(1, 2)], (3,))

    def test_overlapping_clauses_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            apply_codeword((0, 0, 0), [(1, 2), (2, 3)], (1, 1))

    def test_satisfied_clause_rejected(self):
        with pytest.raises(ValueError, match="unsatisfied"):
            apply_codeword((1, 0), [(1, 2)], (1,))


class TestSearchballFast:
    def test_satisfied_immediately(self, fp6):
        f = formula(2, [[1, -2]])
        w, stats = searchball_fast(f, (1, 1), 5, fp6)
        assert w == (1, 1)
        assert stats.recursion_nodes == 1

    def test_many_disjoint_clauses_below_t_is_unreachable(self, fp3):
        # 3 variable-disjoint unsatisfied clauses force distance >= 3 > r = 2
        f = formula(9, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        w, stats = searchball_fast(f, (0,) * 9, 2, fp3)
        assert w is None
        assert stats.recursion_nodes == 1  # pruned at the root

    def test_promise_completeness_both_block_sizes(self, fp3, fp6):
        rng = random.Random(44)
        checked = 0
        for _ in range(120):
            n = rng.randint(3, 7)
            f = rand_kcnf(rng, n, rng.randint(2, 10), k=3)
            alpha = rand_assignment(rng, n)
            for r in range(n + 1):
                oracle = sat_in_ball(f, alpha, r)
                for fp in (fp3, fp6):
                    w, _ = searchball_fast(f, alpha, r, fp)
                    if oracle is not None:
                        assert w is not None, (f, alpha, r, fp.t)
                        checked += 1
                    if w is not None:
                        assert evaluate(f, w)
        assert checked > 200

    def test_leaf_envelope(self, fp6):
        from coversat.bench import gen_planted

        for trial in range(25):
            inst = gen_planted(3, 24, 96, seed=f"env:{trial}", distance=trial % 12)
            w, stats = searchball_fast(inst.formula, inst.start, inst.r, fp6, stats=SearchStats())
            assert w is not None
            bound = len(fp6.code.words) ** math.ceil(inst.r / fp6.delta) if inst.r else 1
            assert stats.leaves <= bound
            assert stats.leaves <= stats.recursion_nodes

    def test_width_above_code_alphabet_rejected(self, fp3):
        f = formula(4, [[1, 2, 3, 4]])
        with pytest.raises(ValueError):
            searchball_fast(f, (0, 0, 0, 0), 1, fp3)


def record_searchball_calls(monkeypatch) -> list[tuple]:
    """(f, alpha, r, forced) of every coversat.search.searchball call."""
    calls = []
    real = coversat.search.searchball

    def recording(f, alpha, r, **kwargs):
        calls.append((f, alpha, r, kwargs.get("forced") or {}))
        return real(f, alpha, r, **kwargs)

    monkeypatch.setattr(coversat.search, "searchball", recording)
    return calls


def settled_in_place(f: Formula, alpha, r: int, forced: dict[int, int]) -> str | None:
    """Why the small-|G| enumeration counts the subsearch around alpha with
    `forced` at radius r in place, by a scan of every clause: "dead root"
    when every variable of the lowest unsatisfied clause is forced, "radius
    1" when r = 1 and each free literal of that clause misses some
    unsatisfied clause; None when the subsearch must start."""
    gamma = tuple(forced.get(v, a) for v, a in enumerate(alpha, 1))
    free = [u for u in f.clauses[first_unsatisfied_clause(f, gamma)] if abs(u) not in forced]
    if not free:
        return "dead root"
    unsat = [c for c in f.clauses if not clause_satisfied(c, gamma)]
    if r == 1 and all(any(u not in c for c in unsat) for u in free):
        return "radius 1"
    return None


class TestBetaSearch:
    def test_matches_enumeration_without_prune(self, monkeypatch):
        # settling dead-root and radius-1 betas in place leaves witnesses and
        # node counts exactly as if every such beta had started its
        # subsearch, and every other subsearch still starts, in order
        calls = record_searchball_calls(monkeypatch)
        rng = random.Random(80)
        reasons = Counter()
        for _ in range(240):
            n = rng.randint(3, 10)
            f = rand_formula(rng, n, rng.randint(1, 5 * n))
            alpha = rand_assignment(rng, n)
            r = rng.randint(1, 4)
            g = maximal_disjoint_unsat(f, alpha, 3)
            calls.clear()
            expected = ref_beta_search(f, alpha, r, g)
            why = [settled_in_place(*call) for call in calls]
            reasons.update(why)
            started = [call for call, reason in zip(calls, why) if reason is None]
            calls.clear()
            stats = SearchStats()
            assert (_beta_search(f, alpha, r, g, stats), stats.recursion_nodes) == expected
            assert calls == started
        # both settles fired, and some subsearches still started
        assert reasons["dead root"] and reasons["radius 1"] and reasons[None]

    def test_dead_root_starts_no_subsearch(self, monkeypatch):
        # every beta satisfying (x1 v x2 v x3) falsifies a unit clause over
        # vbl(G), which searchball could not branch on
        calls = record_searchball_calls(monkeypatch)
        f = formula(3, [[1, 2, 3], [-1], [-2], [-3]])
        g = maximal_disjoint_unsat(f, (0, 0, 0), 3)
        assert g == [(1, 2, 3)]
        stats = SearchStats()
        assert _beta_search(f, (0, 0, 0), 4, g, stats) is None
        assert stats.recursion_nodes == 7  # one root per beta
        assert not calls
        assert ref_beta_search(f, (0, 0, 0), 4, g) == (None, 7)
        assert len(calls) == 7

    def test_radius_one_with_a_literal_in_every_unsat_clause_searches(self, monkeypatch):
        # the first beta, x3 = 1, leaves (-3 v 5 v 4) and (-3 v 4) unsatisfied
        # with one flip left: x5 misses (-3 v 4), but x4 is in both, so the
        # subsearch starts and its child x4 = 1 is the witness
        calls = record_searchball_calls(monkeypatch)
        f = formula(5, [[1, 2, 3], [-3, 5, 4], [-3, 4]])
        alpha = (0,) * 5
        g = maximal_disjoint_unsat(f, alpha, 3)
        assert g == [(1, 2, 3)]
        stats = SearchStats()
        got = _beta_search(f, alpha, 2, g, stats)
        assert got == (0, 0, 1, 1, 0)
        assert stats.recursion_nodes == 3  # the root and its two children
        assert [call[2:] for call in calls] == [(1, {1: 0, 2: 0, 3: 1})]
        assert ref_beta_search(f, alpha, 2, g) == (got, 3)

    def test_radius_one_of_leaf_children_starts_no_subsearch(self, monkeypatch):
        # the one beta, x1 = 1, leaves (-1 v 2 v 3) and (-1 v 4) unsatisfied
        # with one flip left: x2 and x3 each miss (-1 v 4), so both children
        # are leaves one AND settles
        calls = record_searchball_calls(monkeypatch)
        f = formula(4, [[1], [-1, 2, 3], [-1, 4]])
        alpha = (0,) * 4
        g = maximal_disjoint_unsat(f, alpha, 1)
        assert g == [(1,)]
        stats = SearchStats()
        assert _beta_search(f, alpha, 2, g, stats) is None
        assert stats.recursion_nodes == 1 + 2  # the root and its two free literals
        assert not calls
        assert ref_beta_search(f, alpha, 2, g) == (None, 3)
        assert len(calls) == 1

    @pytest.mark.parametrize("k, t", [(4, 5), (5, 4)])
    def test_wide_clauses_match_enumeration(self, k, t):
        # width-k clauses, |G| up to t-1, the most the codeword recursion
        # hands to the enumeration; G's clauses come first, so they enter G
        rng = random.Random(f"wide-beta:{k}:{t}")
        sizes = set()
        for _ in range(30):
            size = rng.randint(0, t - 1)
            n = k * size + rng.randint(1, 3)
            alpha = rand_assignment(rng, n)
            picked = rng.sample(range(1, n + 1), k * size)
            falsified = tuple(
                tuple(-v if alpha[v - 1] else v for v in picked[i * k:(i + 1) * k])
                for i in range(size)
            )
            f = Formula(n, falsified + rand_formula(rng, n, rng.randint(1, 2 * n), k).clauses)
            g = maximal_disjoint_unsat(f, alpha, k)
            if len(g) >= t:
                continue
            sizes.add(len(g))
            r = rng.randint(1, len(g) + 3)
            stats = SearchStats()
            expected = ref_beta_search(f, alpha, r, g)
            assert (_beta_search(f, alpha, r, g, stats), stats.recursion_nodes) == expected
        assert sizes >= {t - 2, t - 1}

    @pytest.mark.parametrize("k, t", [(3, 6), (4, 5), (5, 4)])
    def test_planted_witness_in_enumeration_order(self, k, t):
        # satisfiable cases whose witness comes mid-enumeration, where the
        # order of the betas decides which one is returned: |G| from 0 to
        # t-1 and budgets from |G|-1, at which the cap empties the first
        # level, to one past the planted assignment's distance
        rng = random.Random(f"beta-order:{k}:{t}")
        sizes, mid, emptied = set(), 0, 0
        for _ in range(36):
            size = rng.randint(0, t - 1)
            n = k * size + rng.randint(2, 4)
            alpha = rand_assignment(rng, n)
            picked = rng.sample(range(1, n + 1), k * size)
            planted = [
                tuple(-v if alpha[v - 1] else v for v in picked[i * k:(i + 1) * k])
                for i in range(size)
            ]
            # sigma makes one literal of each planted clause true and flips
            # up to two variables outside them
            rest = [v for v in range(1, n + 1) if v not in picked]
            flipped = {abs(rng.choice(c)) for c in planted}
            flipped |= set(rng.sample(rest, rng.randint(0, 2)))
            sigma = tuple(1 - a if v in flipped else a for v, a in enumerate(alpha, 1))
            extra = rand_formula(rng, n, 3 * n, k).clauses
            kept = tuple(c for c in extra if evaluate(Formula(n, (c,)), sigma))
            f = Formula(n, tuple(planted) + kept)
            g = maximal_disjoint_unsat(f, alpha, k)
            if len(g) >= t:
                continue
            sizes.add(len(g))
            for r in sorted({max(len(g) - 1, 0), len(g), len(flipped), len(flipped) + 1}):
                stats = SearchStats()
                got = _beta_search(f, alpha, r, g, stats)
                assert (got, stats.recursion_nodes) == ref_beta_search(f, alpha, r, g)
                emptied += r < len(g)
                mid += got is not None and stats.recursion_nodes > 1
        assert sizes == set(range(t))
        assert mid > 40 and emptied > 15

    def test_leaves_no_reference_cycle(self):
        # its state is freed on return, not left to the cycle collector
        f = formula(6, [[1, 2, 3], [-1, 4], [-2, 5], [4, 5, 6], [-6]])
        alpha = (0,) * 6
        g = maximal_disjoint_unsat(f, alpha, 3)
        gc.collect()
        gc.disable()
        try:
            for r in range(1, 5):
                _beta_search(f, alpha, r, g, SearchStats())
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestRestrictionBranchingDrop:
    def test_after_fixing_g_all_unsat_clauses_shrink(self):
        # fixing every variable of a maximal disjoint set leaves no
        # unsatisfied width-k clause, so searchball branches at most k-1 ways
        rng = random.Random(70)
        for _ in range(80):
            n = rng.randint(4, 9)
            f = rand_kcnf(rng, n, rng.randint(2, 12), k=3)
            alpha = rand_assignment(rng, n)
            g = maximal_disjoint_unsat(f, alpha, 3)
            g_vars = [abs(u) for c in g for u in c]
            beta = {v: rng.randint(0, 1) for v in g_vars}
            restricted = restrict(f, beta)
            for clause in restricted.clauses:
                merged = tuple(beta.get(v, alpha[v - 1]) for v in range(1, n + 1))
                if not evaluate(formula(n, [clause]), merged):
                    assert len(clause) <= 2

    def test_shrunken_width_gives_k_minus_1_leaf_envelope(self):
        # every clause width <= 2: searchball explores <= 2^r leaves
        rng = random.Random(71)
        for _ in range(60):
            n = rng.randint(3, 8)
            f = rand_kcnf(rng, n, rng.randint(1, 10), k=2)
            alpha = rand_assignment(rng, n)
            r = rng.randint(0, n)
            _, stats = searchball(f, alpha, r)
            assert stats.leaves <= 2**r


class TestDistanceProgress:
    def test_codeword_near_target_guarantees_progress(self, fp6):
        # white-box check of the per-level distance argument
        rng = random.Random(90)
        code = fp6.code
        t, k = fp6.t, 3
        progress = t - 2 * math.ceil(t / k)
        for _ in range(60):
            n = 24
            alpha = rand_assignment(rng, n)
            h = []
            flips = set()
            for i in range(t):
                vs = (3 * i + 1, 3 * i + 2, 3 * i + 3)
                h.append(tuple(v if alpha[v - 1] == 0 else -v for v in vs))
                for v in rng.sample(vs, rng.randint(1, 3)):
                    flips.add(v)
            for v in rng.sample(range(3 * t + 1, n + 1), rng.randint(0, 3)):
                flips.add(v)
            star = tuple(1 - a if v + 1 in flips else a for v, a in enumerate(alpha))
            w_star = []
            for clause in h:
                sat_positions = [
                    j + 1
                    for j, u in enumerate(clause)
                    if ((star[u - 1] == 1) if u > 0 else (star[-u - 1] == 0))
                ]
                assert sat_positions
                w_star.append(rng.choice(sat_positions))
            w_star = tuple(w_star)
            nearest = min(code.words, key=lambda w: (hamming_distance(w, w_star), w))
            assert hamming_distance(nearest, w_star) <= code.r
            moved = apply_codeword(alpha, h, nearest)
            assert hamming_distance(moved, star) <= hamming_distance(alpha, star) - progress


class TestSatisfyingPatterns:
    @pytest.mark.parametrize("width", range(1, 9))
    def test_rows_match_reference(self, width):
        # every sign pattern and every cap: the capped table's flips and
        # bits with the clause's row masks are the reference rows built one
        # literal at a time from alpha, filtered by flips <= cap, in order
        rng = random.Random(f"patterns:{width}")
        n = width + 2
        f = rand_formula(rng, n, 4 * n, max_width=4)
        for signs in range(1 << width):
            variables = rng.sample(range(1, n + 1), width)
            clause = tuple(-v if signs >> i & 1 else v for i, v in enumerate(variables))
            alpha = [rng.randint(0, 1) for _ in range(n)]
            for u in clause:  # alpha falsifies the clause, as it does G's
                alpha[abs(u) - 1] = 0 if u > 0 else 1
            expected = ref_satisfying_patterns(clause, tuple(alpha), f.literal_masks)
            assert len(expected) == (1 << width) - 1
            key, falsifying, row_masks = _clause_rows(clause, f.literal_masks)
            assert key == width and len(row_masks) == 1 << width
            for cap in range(width + 2):
                got = [
                    (flips, row_masks[i], tuple(zip(variables, bits)))
                    for i, flips, bits in _pattern_table(width, falsifying, cap)
                ]
                assert got == [row for row in expected if row[0] <= cap], (clause, cap)

    def test_table_built_per_sign_pattern(self):
        # one table per (width, sign pattern, cap) that occurs; the
        # enumeration clamps its caps to the width, so every budget that
        # admits all rows shares one entry
        _pattern_table.cache_clear()
        f = formula(6, [[1, -2, 3, -4, 5, -6], [1, 2]])
        alpha = (0, 1, 0, 1, 0, 1)
        g = maximal_disjoint_unsat(f, alpha, 6)
        assert _clause_rows(g[0], f.literal_masks)[:2] == (6, 0b010101)
        for r in (6, 7, 12):
            _beta_search(f, alpha, r, g, SearchStats())
        assert _pattern_table.cache_info().currsize == 1
        assert len(_pattern_table(6, 0b010101, 6)) == 63
        assert _pattern_table.cache_info().currsize == 1
        _beta_search(f, alpha, 2, g, SearchStats())
        assert len(_pattern_table(6, 0b010101, 2)) == 6 + 15
        assert _pattern_table.cache_info().currsize == 2

    def test_cache_is_bounded(self):
        # more keys than the cache holds: the oldest tables are dropped
        _pattern_table.cache_clear()
        maxsize = _pattern_table.cache_info().maxsize
        assert maxsize == 256
        # every key the enumeration can ask for at widths 1-5
        keys = [
            (width, signs, cap)
            for width in range(1, 6)
            for signs in range(1 << width)
            for cap in range(1, width + 1)
        ]
        assert len(keys) == 258 > maxsize
        for key in keys:
            _pattern_table(*key)
        assert _pattern_table.cache_info().currsize == maxsize
        _pattern_table.cache_clear()
