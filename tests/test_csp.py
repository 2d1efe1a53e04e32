import ast
import pickle
import random
import time
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from coversat.csp import (
    CspFormula,
    brute_force_csp,
    csp_evaluate,
    decode_box_witness,
    restrict_to_box,
    solve_csp,
    two_box_cover,
    verify_box_cover,
)
import coversat.csp as csp
import coversat.solver as solver
from coversat.cnf import Formula
from coversat.codes import BlockProduct, _word_of
from coversat.errors import CodeConstructionError, ResourceCapError
from coversat.solver import SolverConfig, _value_masks, brute_force

from helpers import (
    listed_boxes,
    load_search_tool,
    oracle_bitmap,
    point_in_box,
    rand_csp,
    rand_kcsp,
    ref_box_block,
    ref_csp_solutions,
    ref_digit_masks,
    ref_product_cover,
    ref_restrict_to_box,
)


def saturated_triple(d: int = 3, n: int = 4) -> CspFormula:
    """All d^3 value combinations of (x1,x2,x3) forbidden: unsatisfiable,
    width-3, exercises the reduction pipeline."""
    cons = [
        ((1, a), (2, b), (3, c))
        for a, b, c in product(range(1, d + 1), repeat=3)
    ]
    return CspFormula(d, n, tuple(cons))


class TestCspEvaluate:
    def test_no_constraints(self):
        assert csp_evaluate(CspFormula(3, 2, []), (1, 3)) is True

    def test_single_forbidden_value(self):
        g = CspFormula(2, 1, [[(1, 1)]])
        assert csp_evaluate(g, (1,)) is False
        assert csp_evaluate(g, (2,)) is True

    def test_second_literal_saves_constraint(self):
        g = CspFormula(3, 2, [[(1, 1), (2, 2)]])
        assert csp_evaluate(g, (1, 1)) is True

    def test_value_out_of_domain(self):
        with pytest.raises(ValueError):
            csp_evaluate(CspFormula(2, 1, []), (3,))

    def test_assignment_length_checked(self):
        with pytest.raises(ValueError, match="length"):
            csp_evaluate(CspFormula(2, 2, []), (1,))

    def test_construction_validation(self):
        with pytest.raises(ValueError, match="domain size"):
            CspFormula(0, 2, ())
        with pytest.raises(ValueError, match="num_vars"):
            CspFormula(3, -1, ())
        with pytest.raises(ValueError):
            CspFormula(3, 2, (((1, 4),),))
        with pytest.raises(ValueError):
            CspFormula(3, 2, (((5, 1),),))
        with pytest.raises(ValueError):
            CspFormula(3, 2, (((1, 1), (1, 2)),))
        with pytest.raises(ValueError):
            CspFormula(3, 2, ((),))


class TestVerifyBoxCover:
    def test_box_of_wrong_arity_fails(self):
        assert verify_box_cover((((1, 2),),), 2, 2) is False
        assert verify_box_cover((((1, 2), (1, 2), (1, 2)),), 2, 2) is False

    def test_pair_outside_domain_or_order_fails(self):
        # a complete cover plus one malformed box: index marking would alias
        # an out-of-range value onto another point
        boxes = tuple(two_box_cover(3, 2))
        assert verify_box_cover(boxes, 3, 2) is True
        for bad in [(0, 3), (2, 4), (3, 2), (2, 2)]:
            assert verify_box_cover(boxes + ((bad, (1, 2)),), 3, 2) is False, bad

    def test_cover_missing_one_point_fails(self):
        assert verify_box_cover((((1, 2),),), 3, 1) is False
        cover = two_box_cover(3, 4)
        assert verify_box_cover(cover, 3, 4) is True
        boxes = tuple(cover)
        failed = 0
        for i in range(len(boxes)):
            rest = boxes[:i] + boxes[i + 1:]
            covers = all(
                any(point_in_box(p, b) for b in rest) for p in product((1, 2, 3), repeat=4)
            )
            assert verify_box_cover(rest, 3, 4) is covers, i
            failed += not covers
        assert failed > 0

    def test_matches_point_in_box_reference(self):
        def check(boxes, d, n):
            want = all(
                any(point_in_box(p, b) for b in boxes)
                for p in product(range(1, d + 1), repeat=n)
            )
            assert verify_box_cover(boxes, d, n) is want, (d, n, boxes)
            return want

        rng = random.Random(8)
        for _ in range(100):
            d, n = rng.randint(2, 5), rng.randint(0, 3)
            pairs = [(lo, hi) for lo in range(1, d + 1) for hi in range(lo + 1, d + 1)]
            boxes = tuple(
                tuple(rng.choice(pairs) for _ in range(n)) for _ in range(rng.randint(0, 12))
            )
            check(boxes, d, n)
        # above, every coordinate is marked in one int; d = 70, n = 2 marks
        # its low coordinate in an int per first value, and d = 5000, n = 1
        # marks the values of its pairs in a bytearray. Half of the (70, 2)
        # sets also hold every tile of the second coordinate for three first
        # tiles, so that some of the 70 entries are full and the others not
        tiles = [(v, v + 1) for v in range(1, 70, 2)]
        for d, n in [(70, 2)] * 20 + [(5000, 1)] * 10:
            boxes = []
            for _ in range(rng.randint(0, 12)):
                los = [rng.randint(1, d - 1) for _ in range(n)]
                boxes.append(tuple((lo, rng.randint(lo + 1, d)) for lo in los))
            if d == 70 and rng.random() < 0.5:
                boxes += [(first, tile) for first in rng.sample(tiles, 3) for tile in tiles]
            check(tuple(boxes), d, n)
        # d = 3, n = 8 marks its last seven coordinates in an int per first
        # value: its cover, shuffled, whole and with one box dropped
        cover = list(two_box_cover(3, 8))
        for drop in (False, True, True):
            boxes = rng.sample(cover, len(cover) - drop)
            check(tuple(boxes), 3, 8)
        # the 18 boxes of the (3, 6) block, one int, are each needed
        block = csp._box_block(3, 6)
        assert len(block) == 18 and check(block, 3, 6)
        for i in range(len(block)):
            assert not check(block[:i] + block[i + 1:], 3, 6), i

    def test_one_coordinate_boxes_are_checked_like_others(self):
        # n = 1 marks the values of its pairs, with the checks of every n
        cover = (((1, 2),), ((2, 3),))
        assert verify_box_cover(cover, 3, 1) is True
        assert verify_box_cover(cover[:1], 3, 1) is False
        assert verify_box_cover(cover + (((4, 5),),), 5, 1) is True
        for bad in [((0, 3),), ((2, 4),), ((3, 1),), ((2, 2),), ((1, 2), (2, 3)), (), ((1, 2, 3),)]:
            assert verify_box_cover(cover + (bad,), 3, 1) is False, bad


class TestTwoBoxCover:
    def test_domain_two_single_box(self):
        cover = two_box_cover(2, 4)
        assert tuple(cover) == (((1, 2), (1, 2), (1, 2), (1, 2)),)

    def test_even_domain_product_construction(self):
        cover = two_box_cover(4, 2)
        assert len(cover) == 4
        assert set(cover) == {
            (p1, p2) for p1 in [(1, 2), (3, 4)] for p2 in [(1, 2), (3, 4)]
        }

    def test_odd_domain_greedy_meets_existence_bound(self):
        cover = two_box_cover(3, 4)
        assert len(cover) <= 23  # ceil(4 ln3 (3/2)^4)
        assert verify_box_cover(cover, 3, 4) is True

    def test_block_concatenation_covers(self):
        cover = two_box_cover(3, 7)  # blocks of 6 + residual 1
        assert [len(block[0]) for block in cover.blocks] == [6, 1]
        assert verify_box_cover(cover, 3, 7) is True

    def test_every_point_in_some_box(self):
        for d, n in [(3, 3), (5, 2), (4, 3), (2, 5)]:
            cover = two_box_cover(d, n)
            for point in product(range(1, d + 1), repeat=n):
                assert any(point_in_box(point, b) for b in cover)

    def test_caps_and_validation(self):
        with pytest.raises(ValueError):
            two_box_cover(1, 3)
        with pytest.raises(ValueError, match="at least one variable"):
            two_box_cover(3, 0)
        with pytest.raises(ResourceCapError):
            verify_box_cover((), 10, 10)

    def test_verified_per_block_not_per_product(self, monkeypatch):
        calls = []
        verify = csp.verify_box_cover

        def recording_verify(cover, d, n):
            calls.append((d, n))
            return verify(cover, d, n)

        monkeypatch.setattr(csp, "verify_box_cover", recording_verify)
        csp._box_block.cache_clear()
        try:
            assert len(two_box_cover(3, 9)) == 90
            assert calls and all(n <= 6 for _, n in calls), calls
            assert len(two_box_cover(4, 9)) == 2**9
            assert all(n <= 6 for _, n in calls), calls
        finally:
            csp._box_block.cache_clear()

    def test_covers_hold_only_blocks_built_once(self, monkeypatch):
        # three shapes in turn: each block is built (and so verified) once
        # per (d, length), and a cover holds its blocks, not its boxes
        builds = []
        verify = csp.verify_box_cover

        def recording_verify(cover, d, n):
            builds.append((d, n))
            return verify(cover, d, n)

        monkeypatch.setattr(csp, "verify_box_cover", recording_verify)
        csp._box_block.cache_clear()
        try:
            shapes = [(3, 12), (3, 13), (3, 18)]
            covers = [two_box_cover(*shape) for shape in shapes]
            assert builds == [(3, 6), (3, 1)]
            block = csp._box_block(3, 6)
            assert [len(c) for c in covers] == [len(block) ** 2, 2 * len(block) ** 2,
                                                      len(block) ** 3]
            assert [len(c.blocks) for c in covers] == [2, 3, 3]
            assert all(part is block for c in covers for part in c.blocks[:2])
            assert covers[1].blocks[2] is csp._box_block(3, 1)
            again = two_box_cover(*shapes[0])
            assert again is not covers[0] and tuple(again) == tuple(covers[0])
            assert verify_box_cover(again, 3, 12)
            assert builds == [(3, 6), (3, 1)]
        finally:
            csp._box_block.cache_clear()

    def test_block_cache_keeps_two_blocks(self):
        # a cover reads at most two blocks, and one block can hold 88 MB
        csp._box_block.cache_clear()
        try:
            for length in (1, 2, 3):
                csp._box_block(5, length)
            assert csp._box_block.cache_info().currsize == 2
        finally:
            csp._box_block.cache_clear()

    @pytest.mark.parametrize("d,n,b", [
        (3, 9, 5), (3, 7, 3), (3, 8, 3), (3, 4, 5), (3, 1, 5), (3, 6, 1),
        (5, 5, 2), (5, 4, 4), (4, 5, None), (6, 3, 2), (2, 6, 3),
    ])
    def test_matches_materialized_reference(self, d, n, b):
        # the boxes, in order, of the sorted product of the reference blocks
        # (helpers.ref_box_block). At block length b (even d takes b = 1),
        # the product of the memoized blocks lists them, and so does
        # two_box_cover(d, n) at the length it derives
        def reference(lengths):
            return ref_product_cover([ref_box_block(d, t) for t in lengths])

        length = 1 if d % 2 == 0 else b
        at_b = [length] * (n // length) + ([n % length] if n % length else [])
        assert tuple(BlockProduct(csp._box_block(d, t) for t in at_b)) == reference(at_b)
        cover = two_box_cover(d, n)
        want = reference([len(block[0]) for block in cover.blocks])
        assert tuple(cover) == want
        assert len(cover) == len(want)

    def test_failed_block_verification_raises(self, monkeypatch):
        # the whole block, sorted, goes to verify_box_cover once
        calls = []

        def failing_verify(block, d, n):
            calls.append((list(block), d, n))
            return False

        monkeypatch.setattr(csp, "verify_box_cover", failing_verify)
        csp._box_block.cache_clear()
        try:
            with pytest.raises(CodeConstructionError, match=r"2-box block \(d=5, b=3\)"):
                csp._box_block(5, 3)
        finally:
            csp._box_block.cache_clear()
        assert calls == [(list(ref_box_block(5, 3)), 5, 3)]

    def test_default_block_length_fits_verify_cap(self):
        # odd d takes the largest b <= min(6, n) with d^b <= BOX_VERIFY_MAX
        for d, n, lengths in [(7, 6, [6]), (11, 6, [5, 1]), (33, 5, [3, 2]),
                              (101, 3, [2, 1]), (1001, 3, [1, 1, 1]), (4, 3, [1, 1, 1])]:
            cover = two_box_cover(d, n)
            assert [len(block[0]) for block in cover.blocks] == lengths, (d, n)
            assert next(iter(cover)) == ((1, 2),) * n
        rng = random.Random(21)
        cover = two_box_cover(7, 6)
        for _ in range(200):
            point = tuple(rng.randint(1, 7) for _ in range(6))
            assert any(point_in_box(point, box) for box in cover)

    def test_block_beyond_verify_cap_refused_before_any_box(self, monkeypatch):
        def no_boxes(*args, **kwargs):
            raise AssertionError("a box was built past the cap")

        monkeypatch.setattr(csp, "product", no_boxes)
        csp._box_block.cache_clear()
        try:
            for d, length in [(11, 6), (101, 3), (1001, 2), (10**6 + 1, 1), (10**6 + 2, 1)]:
                with pytest.raises(ResourceCapError, match="exceeds box-cover verification cap"):
                    csp._box_block(d, length)
        finally:
            csp._box_block.cache_clear()

    def test_domains_above_632_are_covered(self):
        # the pair tiling, and for odd d the d = 3 block of one coordinate
        # on the triple: (d - 3) / 2 + 2 boxes
        even, odd = two_box_cover(634, 1), two_box_cover(635, 1)
        assert (len(even), len(odd)) == (317, 318)
        assert tuple(even) == tuple(((v, v + 1),) for v in range(1, 634, 2))
        assert tuple(odd) == (((1, 2),), ((2, 3),)) + tuple(((v, v + 1),) for v in range(4, 635, 2))

    @pytest.mark.parametrize("d", range(2, 10))
    def test_blocks_match_reference(self, d):
        for length in range(1, 7):
            assert csp._box_block(d, length) == ref_box_block(d, length), length

    def test_no_more_boxes_than_the_greedy_blocks(self):
        # GREEDY_COVER_SIZES[d][n - 1] is len(two_box_cover(d, n)) when odd
        # d > 3 took lexicographic greedy 2-box blocks; every cover is verified
        # block by block, and whole where d^n is small
        for d, sizes in GREEDY_COVER_SIZES.items():
            verified = set()
            for n, size in enumerate(sizes, 1):
                cover = two_box_cover(d, n)
                assert len(cover) <= size, (d, n)
                assert next(iter(cover)) == ((1, 2),) * n
                for block in cover.blocks:
                    if len(block[0]) not in verified:
                        assert verify_box_cover(block, d, len(block[0])), (d, n)
                        verified.add(len(block[0]))
                if d**n <= 10**5:
                    assert verify_box_cover(cover, d, n), (d, n)
        assert [len(two_box_cover(5, n)) for n in (4, 5, 8)] == [55, 143, 2944]
        assert len(two_box_cover(7, 4)) == 200


# len(two_box_cover(d, n)) for n = 1..8 when odd d > 3 took lexicographic
# greedy 2-box blocks of the largest length b <= min(5, n) with
# C(d,2)^b <= 2*10^5 candidate boxes
GREEDY_COVER_SIZES = {
    2: [1, 1, 1, 1, 1, 1, 1, 1],
    3: [2, 3, 5, 8, 12, 18, 36, 54],
    4: [2, 4, 8, 16, 32, 64, 128, 256],
    5: [3, 8, 22, 59, 166, 498, 1328, 3652],
    6: [3, 9, 27, 81, 243, 729, 2187, 6561],
    7: [4, 15, 56, 209, 836, 3135, 11704, 43681],
    8: [4, 16, 64, 256, 1024, 4096, 16384, 65536],
    9: [5, 24, 114, 570, 2736, 12996, 64980, 311904],
    10: [5, 25, 125, 625, 3125, 15625, 78125, 390625],
    11: [6, 35, 202, 1212, 7070, 40804, 244824, 1428140],
    12: [6, 36, 216, 1296, 7776, 46656, 279936, 1679616],
    13: [7, 48, 336, 2304, 16128, 110592, 774144, 5308416],
    14: [7, 49, 343, 2401, 16807, 117649, 823543, 5764801],
    15: [8, 63, 504, 3969, 31752, 250047, 2000376, 15752961],
}

# (b, boxes, seed, moves) of each searched d = 3 block, as csp.py records them
SEARCHED_D3 = [(1, 2, 1, 0), (2, 3, 1, 6), (3, 5, 1, 18), (4, 8, 1, 35), (5, 12, 1, 352),
               (6, 18, 1, 1007)]


class TestSearchedBoxBlocks:
    def test_cover_sizes_and_no_better_split(self):
        # blocks of 6 and the remainder: 18^(n//6) times the remainder's block,
        # and no split of n into lengths 1..6 has fewer boxes
        sizes = [size for _, size, _, _ in SEARCHED_D3]
        assert [len(two_box_cover(3, n)) for n in range(1, 7)] == [2, 3, 5, 8, 12, 18]
        fewest = [1]
        for n in range(1, 25):
            fewest.append(min(sizes[t - 1] * fewest[n - t] for t in range(1, min(6, n) + 1)))
            rest = sizes[n % 6 - 1] if n % 6 else 1
            assert len(two_box_cover(3, n)) == 18 ** (n // 6) * rest == fewest[n], n

    def test_covers_verified_and_visit_all_one_two_box_first(self):
        for n in range(1, 13):
            cover = two_box_cover(3, n)
            assert verify_box_cover(cover, 3, n) is True, n
            assert next(iter(cover)) == ((1, 2),) * n
        for length, size, _, _ in SEARCHED_D3:
            block = csp._box_block(3, length)
            assert len(set(block)) == len(block) == size

    def test_block_failing_verification_on_load_raises(self, monkeypatch):
        # d = 5 gives the d = 3 block of 4 coordinates to the block's
        # all-triple choice, so the gap it leaves is a gap in the d = 5 block
        blocks = csp.SEARCHED_BOX_BLOCKS[3]
        short = " ".join(blocks[3].split()[:-1])
        assert not all(any(point_in_box(p, box) for box in listed_boxes(3, short))
                       for p in product((1, 2, 3), repeat=4))
        monkeypatch.setitem(csp.SEARCHED_BOX_BLOCKS, 3, blocks[:3] + (short,) + blocks[4:])
        csp._box_block.cache_clear()
        try:
            for d in (3, 5):
                with pytest.raises(CodeConstructionError, match=f"2-box block \\(d={d}, b=4\\)"):
                    two_box_cover(d, 4)
        finally:
            csp._box_block.cache_clear()

    def test_search_tool_reproduces_shipped_blocks(self):
        # the recorded seed and moves give each block exactly, and one move
        # fewer gives no cover
        tool = load_search_tool()
        for length, size, seed, moves in SEARCHED_D3:
            found, used = tool.search_box_block(3, length, size, seed, moves)
            assert used == moves and found is not None, length
            block = tool.normalize(found, 3)
            assert tuple(block) == csp._box_block(3, length)
            assert tool.block_text(block, 3) == csp.SEARCHED_BOX_BLOCKS[3][length - 1]
            if moves:
                assert tool.search_box_block(3, length, size, seed, moves - 1) == (None, moves - 1)

    def test_search_tool_prints_block_or_exits_1(self, capsys):
        tool = load_search_tool()
        assert tool.main(["box", "--d", "3", "--length", "3", "--size", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out == "# b=3: 5 boxes, seed 1, 18 moves\n'000 021 112 201 220'\n"
        assert tool.main(["box", "--d", "3", "--length", "3", "--size", "4", "--moves", "50"]) == 1
        assert capsys.readouterr().err == "no cover of 4 boxes after 50 moves\n"


class TestRestrictToBox:
    def test_vacuous_literal_drops_constraint(self):
        g = CspFormula(5, 1, [[(1, 5)]])
        reduced = restrict_to_box(g, ((1, 2),))
        assert reduced.clauses == ()

    def test_smaller_value_maps_to_positive_literal(self):
        g = CspFormula(3, 1, [[(1, 1)]])
        reduced = restrict_to_box(g, ((1, 2),))
        assert reduced.clauses == ((1,),)

    def test_larger_value_maps_to_negative_literal(self):
        g = CspFormula(3, 1, [[(1, 2)]])
        reduced = restrict_to_box(g, ((1, 2),))
        assert reduced.clauses == ((-1,),)

    def test_width_never_grows(self):
        rng = random.Random(15)
        for _ in range(100):
            g = rand_csp(rng, 3, 5, rng.randint(1, 8))
            cover = two_box_cover(3, 5)
            boxes = tuple(cover)
            box = boxes[rng.randrange(len(boxes))]
            reduced = restrict_to_box(g, box)
            assert reduced.max_width <= g.max_width

    def test_per_box_equisatisfiability(self):
        # reduced CNF sat <=> original CSP has a solution inside the box
        rng = random.Random(16)
        for _ in range(80):
            d = rng.choice([3, 4])
            n = rng.randint(2, 5)
            g = rand_csp(rng, d, n, rng.randint(1, 3 * n))
            cover = two_box_cover(d, n)
            boxes = tuple(cover)
            box = boxes[rng.randrange(len(boxes))]
            reduced = restrict_to_box(g, box)
            cnf_solutions = brute_force(reduced).status == "sat"
            in_box = any(
                point_in_box(sol, box) for sol in ref_csp_solutions(g)
            )
            assert cnf_solutions == in_box

    def test_decode_maps_into_box_and_satisfies(self):
        rng = random.Random(17)
        for _ in range(60):
            d, n = 3, rng.randint(2, 5)
            g = rand_csp(rng, d, n, rng.randint(0, 2 * n))
            cover = two_box_cover(d, n)
            boxes = tuple(cover)
            box = boxes[rng.randrange(len(boxes))]
            reduced = restrict_to_box(g, box)
            res = brute_force(reduced)
            if res.status == "sat":
                decoded = decode_box_witness(box, res.witness)
                assert point_in_box(decoded, box)
                assert csp_evaluate(g, decoded)

    @pytest.mark.parametrize("d,n", [(3, 6), (4, 5)])
    def test_trusted_result_equals_validated_formula(self, d, n):
        # restrict_to_box skips Formula's clause validation; the result must
        # be indistinguishable from the validating constructor's
        rng = random.Random(f"trusted:{d}:{n}")
        for _ in range(4):
            g = rand_csp(rng, d, n, rng.randint(1, 6 * n))
            for box in two_box_cover(d, n):
                reduced = restrict_to_box(g, box)
                expected = Formula(n, tuple(
                    tuple(v if c == box[v - 1][0] else -v for v, c in con)
                    for con in g.constraints
                    if all(c in box[v - 1] for v, c in con)
                ))
                assert reduced == expected
                assert hash(reduced) == hash(expected)
                assert reduced.literal_masks == expected.literal_masks
                assert reduced.max_width == expected.max_width

    @pytest.mark.parametrize("d", range(2, 7))
    def test_matches_constraint_by_constraint_reference(self, d):
        # the same clauses, in the same order, and the same clause masks as
        # mapping each constraint on its own, for widths 1-4 and any pairs
        rng = random.Random(f"restrict-ref:{d}")
        for _ in range(20):
            n = rng.randint(1, 6)
            g = rand_csp(rng, d, n, rng.randint(0, 8 * n), k=4)
            for _ in range(6):
                box = tuple(tuple(sorted(rng.sample(range(1, d + 1), 2))) for _ in range(n))
                reduced = restrict_to_box(g, box)
                expected = ref_restrict_to_box(g, box)
                assert reduced.clauses == expected.clauses
                assert reduced == expected
                assert reduced.literal_masks == expected.literal_masks
                assert reduced.max_width == expected.max_width

    def test_width_one_constraints_are_one_tuples(self):
        # the gather reads a width-1 constraint through a slice getter: a
        # plain itemgetter of one index would return the literal, not a clause
        g = CspFormula(3, 3, [[(2, 1)], [(1, 2), (3, 3)], [(3, 3)], [(1, 3)], [(2, 2)]])
        reduced = restrict_to_box(g, ((1, 2), (1, 2), (2, 3)))
        assert reduced.clauses == ((2,), (-1, -3), (-3,), (-2,))
        assert all(type(clause) is tuple for clause in reduced.clauses)
        assert reduced == ref_restrict_to_box(g, ((1, 2), (1, 2), (2, 3)))

    def test_built_tables_survive_pickle(self):
        # --jobs pickles the formula with its restriction table once it is
        # built; the copy must restrict as the reference does
        rng = random.Random("restrict-pickle")
        g = rand_csp(rng, 4, 5, 40, k=4)
        box = ((1, 2), (2, 4), (1, 3), (3, 4), (1, 4))
        restrict_to_box(g, box)
        assert "_restriction" in vars(g)
        copy = pickle.loads(pickle.dumps(g))
        assert "_restriction" in vars(copy)
        for _ in range(20):
            box = tuple(tuple(sorted(rng.sample(range(1, 5), 2))) for _ in range(5))
            reduced = restrict_to_box(copy, box)
            expected = ref_restrict_to_box(g, box)
            assert reduced.clauses == expected.clauses
            assert reduced.literal_masks == expected.literal_masks

    def test_table_over_cap_refused_before_it_is_built(self, monkeypatch):
        # csp-d3's shape, n = 9 and d = 3 with m = 315, is 8,505 characters
        box = ((1, 2),) * 9
        g = rand_kcsp(random.Random("restriction-cap"), 3, 9, 315)
        monkeypatch.setattr(csp, "RESTRICTION_MAX_CHARS", 8505)
        restrict_to_box(g, box)
        monkeypatch.setattr(csp, "RESTRICTION_MAX_CHARS", 8504)
        again = replace(g)
        with pytest.raises(ResourceCapError, match="8505"):
            restrict_to_box(again, box)
        assert "_restriction" not in vars(again)

    @pytest.mark.parametrize("d", range(2, 6))
    def test_box_masks_match_masks_from_scratch(self, d):
        # the masks read from the kept constraints' rows equal those a
        # Formula computes from the box's clauses, for widths 1..4, every box
        # of the cover, and a box that drops every constraint
        rng = random.Random(f"box-masks:{d}")
        widths = set()
        for _ in range(8):
            n = rng.randint(1, 5)
            g = rand_csp(rng, d, n, rng.randint(0, 10 * n), k=4)
            widths.update(len(con) for con in g.constraints)
            for box in two_box_cover(d, n):
                reduced = restrict_to_box(g, box)
                expected = Formula(n, reduced.clauses).literal_masks
                assert reduced.literal_masks == expected
        assert widths == {1, 2, 3, 4}
        # x1 = 3 in every constraint: the box ((1, 2),) keeps none
        g = CspFormula(d + 1, 2, [[(1, 3)], [(1, 3), (2, 1)], [(2, 2), (1, 3)]])
        reduced = restrict_to_box(g, ((1, 2), (1, 2)))
        assert reduced.clauses == ()
        assert reduced.literal_masks == Formula(2, ()).literal_masks == ((0, 0), (0, 0))

    def test_box_masks_survive_pickle(self):
        # the masks are stored with the box formula, so a pickled copy (as
        # --jobs sends one) carries them instead of rebuilding them
        g = rand_csp(random.Random("box-masks-pickle"), 3, 6, 40)
        reduced = restrict_to_box(g, ((1, 2), (2, 3), (1, 3), (1, 2), (2, 3), (1, 3)))
        assert "literal_masks" in vars(reduced)
        copy = pickle.loads(pickle.dumps(reduced))
        assert vars(copy)["literal_masks"] == Formula(6, reduced.clauses).literal_masks

    def test_invalid_boxes_rejected(self):
        g = CspFormula(4, 2, [[(1, 2), (2, 4)]])
        bad = (((1, 2),), ((1, 2), (2, 2)), ((1, 2), (3, 2)), ((0, 1), (1, 2)), ((1, 5), (1, 2)))
        for box in bad:
            for restrict in (restrict_to_box, ref_restrict_to_box):
                with pytest.raises(ValueError):
                    restrict(g, box)

    def test_unchecked_constructor_called_only_here(self):
        # restrict_to_box, parse_dimacs, parse_csp and read_code check their
        # clauses, constraints or words as they build them, and greedy_code,
        # random_code and boolean_cover build their words valid; every other
        # constructor must keep validating its input
        src = Path(csp.__file__).parent
        callers = set()
        for path in sorted(src.glob("*.py")):
            # every use of the name, with the function it sits in
            stack = [(ast.parse(path.read_text()), "<module>")]
            while stack:
                node, scope = stack.pop()
                if isinstance(node, ast.FunctionDef):
                    scope = node.name
                if isinstance(node, ast.Attribute) and node.attr == "_unchecked":
                    callers.add((path.name, scope))
                if isinstance(node, ast.Name) and node.id == "_unchecked":
                    callers.add((path.name, scope))
                stack.extend((child, scope) for child in ast.iter_child_nodes(node))
        assert callers == {
            ("codes.py", "boolean_cover"),
            ("codes.py", "greedy_code"),
            ("codes.py", "random_code"),
            ("formats.py", "read_code"),
            ("csp.py", "restrict_to_box"),
            ("formats.py", "parse_dimacs"),
            ("formats.py", "parse_csp"),
        }


class TestBruteForceCsp:
    def test_empty_formula(self):
        res = brute_force_csp(CspFormula(3, 2, []))
        assert res.status == "sat"
        assert res.witness == (1, 1)

    def test_width_one_contradiction(self):
        res = brute_force_csp(CspFormula(2, 1, [[(1, 1)], [(1, 2)]]))
        assert res.status == "unsat"

    def test_bitmap_matches_naive_enumeration(self):
        rng = random.Random(18)
        for _ in range(150):
            d = rng.randint(2, 4)
            n = rng.randint(1, 4)
            g = rand_csp(rng, d, n, rng.randint(0, 6))
            bitmap = oracle_bitmap(d, n, g.constraints)
            got = [
                _word_of(i, d, n)
                for i in range(d**n)
                if (bitmap >> i) & 1
            ]
            assert got == ref_csp_solutions(g)

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            brute_force_csp(CspFormula(10, 8, []))

    def test_domain_one_builds_no_table(self):
        # the one assignment is all ones and falsifies every constraint, so
        # neither route builds an n-entry mask or slot table to say so
        n = 10**5
        before = solver._value_masks.cache_info(), solver._literal_slots.cache_info()
        empty, one = CspFormula(1, n, []), CspFormula(1, n, [[(n, 1)]])
        for solve in (brute_force_csp, solve_csp):
            assert solve(empty).witness == (1,) * n
            assert solve(one).status == "unsat"
        assert (solver._value_masks.cache_info(), solver._literal_slots.cache_info()) == before

    def test_cap_bounds_mask_bits(self, monkeypatch):
        # the cap n*d*d^n <= 2^30 is checked before any mask table is built:
        # both inputs are inside d^n <= 10^7, and a full table for (3162, 2)
        # would have held 2*3162 masks of 10^7 bits, about 7.9 GB
        def no_table(d, n):
            raise AssertionError("mask table built for a refused input")

        monkeypatch.setattr(solver, "_value_masks", no_table)
        for d in (3162, 1000):
            start = time.perf_counter()
            with pytest.raises(ResourceCapError):
                brute_force_csp(CspFormula(d, 2, [[(1, 1), (2, 1)]]))
            assert time.perf_counter() - start < 1.0

    def test_digit_masks_match_division_reference(self):
        # entry [v-1][c-1] is x_v != c, the complement of the reference's x_v = c
        cases = [(2, 1), (2, 9), (3, 1), (3, 7), (4, 5), (5, 4), (7, 3), (1, 1), (1, 5)]
        for d, n in cases:
            full = (1 << d**n) - 1
            table = _value_masks(d, n)
            ref = ref_digit_masks(d, n)
            assert len(table) == len(ref) == n
            for row, ref_row in zip(table, ref):
                assert row == tuple(full ^ mask for mask in ref_row)

    def test_fourteen_ternary_vars(self):
        # each variable may take only its one unforbidden value
        rng = random.Random(19)
        allowed = tuple(rng.randint(1, 3) for _ in range(14))
        g = CspFormula(
            3, 14, [[(v, c)] for v in range(1, 15) for c in range(1, 4) if c != allowed[v - 1]]
        )
        try:
            res = brute_force_csp(g)
        finally:
            _value_masks.cache_clear()
        assert (res.status, res.witness) == ("sat", allowed)

    def test_twenty_four_binary_vars(self):
        # refused under the old d^n <= 10^7 cap; 2*24*2^24 bits fit 2^30
        rng = random.Random(24)
        planted = tuple(rng.randint(1, 2) for _ in range(24))
        g = CspFormula(2, 24, [[(v, 3 - c)] for v, c in enumerate(planted, start=1)])
        try:
            res = brute_force_csp(g)
        finally:
            _value_masks.cache_clear()
        assert (res.status, res.witness) == ("sat", planted)


class TestSolveCsp:
    def test_no_constraints_decodes_first_box(self):
        g = CspFormula(3, 3, [])
        res = solve_csp(g)
        assert res.status == "sat"
        assert csp_evaluate(g, res.witness)

    def test_saturated_triple_unsat(self):
        g = saturated_triple()
        assert brute_force_csp(g).status == "unsat"
        res = solve_csp(g)
        assert res.status == "unsat"
        assert res.stats.boxes_tried == len(two_box_cover(3, 4))

    def test_parallel_jobs_start_one_pool(self, monkeypatch):
        # the boxes share one pool; each box's codewords run in its worker.
        # The restriction table is built before the pool starts, so the
        # workers receive it with the pickled formula
        import coversat.solver as solver

        g = saturated_triple()
        pools = []
        real = solver.Pool

        def counting(processes, *args, **kwargs):
            pools.append((processes, "_restriction" in vars(g)))
            return real(processes, *args, **kwargs)

        monkeypatch.setattr(solver, "Pool", counting)
        # two usable CPUs keep the pool under test on a 1-CPU host too
        monkeypatch.setattr(solver, "_usable_cpus", lambda: 2)
        res = solve_csp(g, SolverConfig(jobs=2))
        assert res.status == "unsat"
        assert res.stats.boxes_tried == len(two_box_cover(3, 4))
        assert pools == [(2, True)]
        assert "_restriction" in vars(g)

    def test_near_saturated_is_sat(self):
        full = saturated_triple()
        g = CspFormula(3, 4, full.constraints[:-1])
        res = solve_csp(g)
        assert res.status == "sat"
        assert csp_evaluate(g, res.witness)

    def test_agrees_with_oracle_on_random_corpus(self):
        rng = random.Random(19)
        sat = unsat = 0
        for _ in range(60):
            n = rng.randint(3, 6)
            if rng.random() < 0.5:
                g = rand_csp(rng, 3, n, rng.randint(1, 4 * n))
            else:
                extra = rand_csp(rng, 3, n, rng.randint(0, n))
                base = saturated_triple(3, n) if rng.random() < 0.5 else None
                cons = extra.constraints if base is None else base.constraints + extra.constraints
                g = CspFormula(3, n, cons)
            expected = brute_force_csp(g).status
            res = solve_csp(g)
            assert res.status == expected
            if expected == "sat":
                sat += 1
                assert csp_evaluate(g, res.witness)
            else:
                unsat += 1
        assert sat > 5 and unsat > 5

    def test_even_domain(self):
        rng = random.Random(20)
        for _ in range(20):
            g = rand_csp(rng, 4, 3, rng.randint(1, 10))
            assert solve_csp(g).status == brute_force_csp(g).status

    def test_width_two_routes_to_brute(self):
        g = CspFormula(3, 2, [[(1, 1), (2, 1)]])
        res = solve_csp(g)
        assert res.status == "sat"
        assert res.stats.boxes_tried == 0

    def test_domain_one(self):
        assert solve_csp(CspFormula(1, 2, [])).status == "sat"
        assert solve_csp(CspFormula(1, 1, [[(1, 1)]])).status == "unsat"

    def test_each_code_verified_once_across_boxes(self, monkeypatch):
        import coversat.codes as codes

        codes._load_code.cache_clear()
        calls: dict[tuple[int, int, int], int] = {}
        verify = codes.verify_cover

        def counting_verify(code):
            key = (code.q, code.t, code.r)
            calls[key] = calls.get(key, 0) + 1
            return verify(code)

        monkeypatch.setattr(codes, "verify_cover", counting_verify)
        g = rand_csp(random.Random("verify-once:120:1"), 3, 9, 120)
        # a plan kept from another test would hold codes of the real cache
        solver._plan.cache_clear()
        try:
            for _ in range(2):
                res = solve_csp(g)
                assert res.status == "unsat"
                assert res.stats.boxes_tried == len(two_box_cover(3, 9)) == 90
        finally:
            solver._plan.cache_clear()
        assert calls and max(calls.values()) == 1, calls

    def test_one_plan_per_box_width(self, monkeypatch):
        # the first solve builds the outer cover and the FastParams once per
        # box width of at least 3 and shares them among that width's boxes;
        # a later solve with the same settings builds none
        covers, params, widths = [], [], []
        cover, fast_params = solver.boolean_cover, solver.FastParams
        solve_box = csp.solve_deterministic

        def counting_cover(n, rho, **kwargs):
            covers.append(n)
            return cover(n, rho, **kwargs)

        def counting_params(k, *args):
            params.append(k)
            return fast_params(k, *args)

        def recording_solve(f, cfg):
            widths.append(f.max_width)
            return solve_box(f, cfg)

        monkeypatch.setattr(solver, "boolean_cover", counting_cover)
        monkeypatch.setattr(solver, "FastParams", counting_params)
        monkeypatch.setattr(csp, "solve_deterministic", recording_solve)
        solver._plan.cache_clear()
        try:
            for i, (m, status) in enumerate(((20, "sat"), (40, "unsat"), (40, "unsat"))):
                del covers[:], params[:], widths[:]
                res = solve_csp(rand_csp(random.Random(f"plan-widths:{m}"), 3, 7, m, k=4))
                assert res.status == status
                assert len(widths) == res.stats.boxes_tried
                planned = list(dict.fromkeys(k for k in widths if k >= 3))
                assert sorted(planned) == [3, 4]
                assert len(widths) > 2 * len(planned)
                if i == 0:
                    assert params == planned
                    assert covers == [7, 7]
                else:
                    assert params == covers == []
        finally:
            solver._plan.cache_clear()

    def test_plans_keep_jobs_two_on_the_jobs_one_record(self, monkeypatch):
        # each worker keeps its own plans; the merged record is unchanged
        monkeypatch.setattr(solver, "_usable_cpus", lambda: 2)
        for m in (20, 40):
            g = rand_csp(random.Random(f"plan-widths:{m}"), 3, 7, m, k=4)
            one, two = solve_csp(g), solve_csp(g, SolverConfig(jobs=2))
            assert (two.status, two.witness) == (one.status, one.witness)
            assert replace(two.stats, wall_time=0.0) == replace(one.stats, wall_time=0.0)
