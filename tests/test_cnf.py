import pickle
import random

import pytest

from coversat.cnf import Formula, evaluate

from helpers import (
    assign_literal,
    first_unsatisfied_clause,
    flip,
    hamming_distance,
    rand_assignment,
    rand_formula,
    ref_evaluate,
    restrict,
)


class TestEvaluate:
    def test_single_positive_literal(self):
        assert evaluate(Formula(1, [[1]]), (1,)) is True
        assert evaluate(Formula(1, [[1]]), (0,)) is False

    def test_contradictory_units_never_satisfied(self):
        f = Formula(1, [[1], [-1]])
        assert evaluate(f, (0,)) is False
        assert evaluate(f, (1,)) is False

    def test_three_var_example(self):
        f = Formula(3, [[1, 2, 3], [-1, -2, -3]])
        assert evaluate(f, (1, 0, 0)) is True

    def test_empty_clause_is_unsatisfiable(self):
        f = Formula(2, ((), (1, 2)))
        assert evaluate(f, (1, 1)) is False

    def test_empty_formula_is_satisfied(self):
        assert evaluate(Formula(3, []), (0, 1, 0)) is True

    def test_matches_reference_on_random_instances(self):
        rng = random.Random(101)
        for _ in range(300):
            n = rng.randint(1, 6)
            f = rand_formula(rng, n, rng.randint(0, 8))
            a = rand_assignment(rng, n)
            assert evaluate(f, a) == ref_evaluate(f, a)

    def test_wrong_assignment_length_rejected(self):
        with pytest.raises(ValueError):
            evaluate(Formula(2, [[1]]), (1,))


class TestHammingDistance:
    def test_identity(self):
        assert hamming_distance((0, 0, 0), (0, 0, 0)) == 0

    def test_full_flip(self):
        assert hamming_distance((0, 0, 0), (1, 1, 1)) == 3

    def test_two_coordinates(self):
        assert hamming_distance((0, 1, 0, 1), (1, 1, 0, 0)) == 2

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            hamming_distance((0, 1), (0, 1, 0))

    def test_metric_properties(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 8)
            a, b, c = (rand_assignment(rng, n) for _ in range(3))
            assert hamming_distance(a, b) == hamming_distance(b, a)
            assert hamming_distance(a, b) >= 0
            assert (hamming_distance(a, b) == 0) == (a == b)
            assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


class TestAssignLiteral:
    def test_clause_satisfied_and_removed(self):
        assert assign_literal(Formula(2, [[1, 2]]), 1) == Formula(2, [])

    def test_literal_truncation(self):
        assert assign_literal(Formula(2, [[1, 2]]), -1) == Formula(2, [[2]])

    def test_both_rules_clause_wise(self):
        f = Formula(3, [[1, 2], [-1, 3], [2, 3]])
        assert assign_literal(f, 1) == Formula(3, [[3], [2, 3]])

    def test_assigned_variable_vanishes_num_vars_stays(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(2, 6)
            f = rand_formula(rng, n, rng.randint(1, 6))
            u = rng.choice([1, -1]) * rng.randint(1, n)
            g = assign_literal(f, u)
            assert g.num_vars == f.num_vars
            assert all(abs(u) != abs(w) for clause in g.clauses for w in clause)

    def test_evaluation_correspondence(self):
        # for total alpha that satisfies u: F^[u:=1] agrees with F
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(1, 6)
            f = rand_formula(rng, n, rng.randint(0, 7))
            u = rng.choice([1, -1]) * rng.randint(1, n)
            a = list(rand_assignment(rng, n))
            a[abs(u) - 1] = 1 if u > 0 else 0
            a = tuple(a)
            assert evaluate(assign_literal(f, u), a) == evaluate(f, a)


class TestRestrict:
    def test_empty_restriction_is_identity(self):
        f = Formula(3, [[1, 2], [-3]])
        assert restrict(f, {}) == f

    def test_truncation_only(self):
        assert restrict(Formula(3, [[1, 2, 3]]), {1: 0, 2: 0}) == Formula(3, [[3]])

    def test_satisfy_and_truncate(self):
        assert restrict(Formula(3, [[1, 2], [-2, 3]]), {2: 1}) == Formula(3, [[3]])

    def test_restriction_may_create_empty_clause(self):
        g = restrict(Formula(2, [[1, 2]]), {1: 0, 2: 0})
        assert g.clauses == ((),)

    def test_order_independence_and_fold_equivalence(self):
        rng = random.Random(13)
        for _ in range(150):
            n = rng.randint(2, 6)
            f = rand_formula(rng, n, rng.randint(0, 6))
            domain = rng.sample(range(1, n + 1), rng.randint(1, n))
            beta = {v: rng.randint(0, 1) for v in domain}
            expected = restrict(f, beta)
            order = list(beta)
            rng.shuffle(order)
            g = f
            for v in order:
                g = assign_literal(g, v if beta[v] == 1 else -v)
            assert g == expected

    def test_out_of_range_variable_rejected(self):
        with pytest.raises(ValueError):
            restrict(Formula(2, [[1]]), {3: 0})


class TestFirstUnsatisfiedClause:
    def test_none_when_satisfied(self):
        assert first_unsatisfied_clause(Formula(1, [[1]]), (1,)) is None

    def test_lowest_index_wins(self):
        assert first_unsatisfied_clause(Formula(2, [[1], [2]]), (0, 0)) == 0

    def test_skips_satisfied_prefix(self):
        f = Formula(3, [[1, 2], [-3]])
        assert first_unsatisfied_clause(f, (1, 0, 1)) == 1

    def test_agrees_with_evaluate(self):
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randint(1, 6)
            f = rand_formula(rng, n, rng.randint(0, 8))
            a = rand_assignment(rng, n)
            idx = first_unsatisfied_clause(f, a)
            assert (idx is None) == evaluate(f, a)
            if idx is not None:
                assert all(evaluate(Formula(n, [f.clauses[j]]), a) for j in range(idx))


class TestClauseMasks:
    def test_literal_masks_by_hand(self):
        f = Formula(3, [[1, -2], [2], [-1, 3]])
        assert f.literal_masks == ((0b100, 0b001), (0b001, 0b010), (0b000, 0b100))

    def test_unsat_mask_agrees_with_scan(self):
        # empty clauses, unused variables and the empty formula included
        rng = random.Random(314)
        for _ in range(300):
            used = rng.randint(1, 6)
            n = used + rng.randint(0, 3)
            clauses = list(rand_formula(rng, used, rng.randint(0, 10)).clauses)
            if rng.random() < 0.3:
                clauses.insert(rng.randint(0, len(clauses)), ())
            f = Formula(n, clauses)
            a = rand_assignment(rng, n)
            mask = f.unsat_mask(a)
            idx = first_unsatisfied_clause(f, a)
            assert (mask == 0) == evaluate(f, a)
            if idx is None:
                assert mask == 0
            else:
                assert (mask & -mask).bit_length() - 1 == idx
            assert mask == sum(1 << i for i, c in enumerate(f.clauses)
                               if not evaluate(Formula(n, [c]), a))

    def test_wrong_assignment_length_rejected(self):
        with pytest.raises(ValueError):
            Formula(2, [[1]]).unsat_mask((0,))

    def test_cached_masks_leave_equality_and_hash_alone(self):
        f = Formula(3, [[1, -2], [3]])
        assert f.literal_masks and f.max_width == 2  # fills the caches
        fresh = Formula(3, [[1, -2], [3]])
        assert f == fresh and hash(f) == hash(fresh)
        assert f != Formula(3, [[1, -2], [-3]])

    def test_pickle_round_trip(self):
        f = Formula(4, [[1, -2, 3], [-4], []])
        mask = f.unsat_mask((0, 1, 0, 1))
        g = pickle.loads(pickle.dumps(f))
        assert g == f and hash(g) == hash(f)
        assert g.literal_masks == f.literal_masks
        assert g.unsat_mask((0, 1, 0, 1)) == mask
        assert pickle.loads(pickle.dumps(Formula(2, [[1, 2]]))).unsat_mask((0, 0)) == 1


class TestConstructionInvariants:
    def test_duplicate_variable_in_clause_rejected(self):
        with pytest.raises(ValueError):
            Formula(2, [[1, -1]])
        with pytest.raises(ValueError):
            Formula(2, [[2, 2]])

    def test_literal_zero_rejected(self):
        with pytest.raises(ValueError):
            Formula(2, [[1, 0]])

    def test_variable_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Formula(2, [[3]])

    def test_error_messages_name_the_first_fault(self):
        with pytest.raises(ValueError, match="literal 0 is not allowed"):
            Formula(3, [[1, 0, 1]])
        with pytest.raises(ValueError, match=r"variable 1 occurs twice in clause \(1, -1, 0\)"):
            Formula(3, [[1, -1, 0]])
        with pytest.raises(ValueError, match="literal -3 exceeds num_vars=2"):
            Formula(2, [[1], [-3, 4]])
        with pytest.raises(ValueError, match="num_vars must be >= 0"):
            Formula(-1, [])

    def test_max_width(self):
        assert Formula(3, [[1], [1, 2, 3]]).max_width == 3
        assert Formula(3, []).max_width == 0

    def test_formula_is_hashable_even_from_lists(self):
        f = Formula(2, ([1, 2], [-1]))
        hash(f)
        assert f.clauses == ((1, 2), (-1,))

    def test_flip_helper(self):
        assert flip((0, 1, 0), 2) == (0, 0, 0)
        assert flip(flip((0, 1, 0), 1), 1) == (0, 1, 0)
