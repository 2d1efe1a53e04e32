import math
import random
import sys
import time
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coversat.codes
from coversat.codes import (
    OUTER_BLOCK_LEN,
    VERIFY_MAX_SPACE,
    BlockProduct,
    CoveringCode,
    SEARCHED_CODES,
    _ball_of,
    _bitsliced_pays,
    _ceil_fraction,
    _index_of,
    _load_code,
    _periodic_mask,
    _product_indices,
    _word_of,
    ball_volume,
    boolean_cover,
    code_size_bound,
    get_code,
    greedy_code,
    greedy_set_cover,
    random_code,
    shell_volume,
    verify_cover,
)
from coversat.errors import CodeConstructionError, ResourceCapError
from coversat.formats import read_code, write_code

from helpers import (
    hamming_distance,
    load_search_tool,
    ref_ball_of,
    ref_greedy_set_cover,
    ref_product_cover,
    ref_verify_cover,
)


def brute_ball_count(q: int, t: int, r: int) -> int:
    center = tuple([1] * t)
    return sum(
        hamming_distance(center, w) <= r for w in product(range(1, q + 1), repeat=t)
    )


class TestVolumes:
    def test_shell_matches_displayed_formula(self):
        assert shell_volume(3, 6, 2) == math.comb(6, 2) * 2**2 == 60

    def test_radius_zero_ball_is_center(self):
        for q, t in [(2, 1), (3, 4), (5, 3)]:
            assert ball_volume(q, t, 0) == 1

    def test_full_radius_ball_is_whole_space(self):
        assert ball_volume(2, 3, 3) == 8

    def test_ball_matches_enumeration(self):
        for q, t, r in [(2, 4, 2), (3, 3, 1), (3, 4, 3), (4, 3, 2)]:
            assert ball_volume(q, t, r) == brute_ball_count(q, t, r)

    def test_shell_sums_to_ball(self):
        for q, t in [(2, 5), (3, 4), (4, 3)]:
            for r in range(t + 1):
                assert ball_volume(q, t, r) == sum(
                    shell_volume(q, t, i) for i in range(r + 1)
                )

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ball_volume(1, 3, 1)
        with pytest.raises(ValueError):
            ball_volume(2, 3, 4)
        with pytest.raises(ValueError):
            shell_volume(2, 3, -1)
        with pytest.raises(ValueError, match="word length"):
            ball_volume(2, -1, 0)

    def test_ball_symmetry_metamorphic(self):
        rng = random.Random(77)
        for _ in range(300):
            q, t = rng.randint(2, 5), rng.randint(1, 6)
            r = rng.randint(0, t)
            v = tuple(rng.randint(1, q) for _ in range(t))
            w = tuple(rng.randint(1, q) for _ in range(t))
            assert (hamming_distance(v, w) <= r) == (hamming_distance(w, v) <= r)


class TestCodeSizeBound:
    def test_frozen_values(self):
        # independently evaluated: ceil(t ln(q) q^t / (C(t,r)(q-1)^r))
        assert code_size_bound(3, 6, 2) == 81
        assert code_size_bound(2, 1, 0) == 2
        assert code_size_bound(2, 4, 1) == 12
        assert code_size_bound(2, 6, 2) == 18
        assert code_size_bound(3, 3, 1) == 15
        assert code_size_bound(4, 4, 1) == 119

    def test_matches_direct_evaluation(self):
        for q, t, r in [(2, 5, 2), (3, 4, 2), (5, 3, 1)]:
            raw = t * math.log(q) * q**t / (math.comb(t, r) * (q - 1) ** r)
            assert code_size_bound(q, t, r) == math.ceil(raw)

    def test_full_radius_bound_at_least_one(self):
        for q, t in [(2, 3), (3, 5), (4, 2)]:
            assert code_size_bound(q, t, t) >= 1


class TestCoveringCode:
    def test_construction_validation(self):
        for q, t, r, words, message in (
            (1, 2, 0, (), "alphabet size"),
            (2, 2, 3, (), "invalid length/radius"),
            (2, 2, 1, ((1,),), "has length 1, expected 2"),
            (2, 2, 1, ((1, 3),), "symbol 3 outside"),
        ):
            with pytest.raises(ValueError, match=message):
                CoveringCode(q, t, r, words)


class TestVerifyCover:
    def test_full_space_covers_any_radius(self):
        words = tuple(product((1, 2), repeat=3))
        for r in range(4):
            code = CoveringCode(2, 3, r, words)
            assert verify_cover(code) is True
            assert code.verified is True

    def test_single_word_full_radius(self):
        code = CoveringCode(3, 4, 4, ((1, 1, 1, 1),))
        assert verify_cover(code) is True

    def test_single_word_radius_zero_fails(self):
        code = CoveringCode(2, 2, 0, ((1, 1),))
        assert verify_cover(code) is False
        assert code.verified is False

    def test_agrees_with_brute_force_check(self):
        rng = random.Random(11)
        for _ in range(60):
            q, t = rng.randint(2, 3), rng.randint(1, 4)
            r = rng.randint(0, t)
            words = tuple(
                {tuple(rng.randint(1, q) for _ in range(t)) for _ in range(rng.randint(1, 5))}
            )
            code = CoveringCode(q, t, r, words)
            expected = all(
                any(hamming_distance(w, c) <= r for c in words)
                for w in product(range(1, q + 1), repeat=t)
            )
            assert verify_cover(code) == expected

    @staticmethod
    def _cases():
        """Seeded (q, t, r, words): random codes with q 2..7, t 0..7 and
        r 0..t (q^t <= 2*10^4 keeps the reference quick), some holding the
        words of index 0 and q^t - 1, then large alphabets at t = 1, 2."""
        rng = random.Random("verify-cover-diff")
        cases = []
        for _ in range(200):
            q, t = rng.randint(2, 7), rng.randint(0, 7)
            space = q**t
            if space > 2 * 10**4:
                continue
            r = rng.randint(0, t)
            # about twice the sphere-covering count, so that some cover
            size = max(1, min(space, 2 * space // ball_volume(q, t, r) + rng.randint(0, 2)))
            idxs = {rng.randrange(space) for _ in range(size)}
            if rng.random() < 0.5:
                idxs |= {0, space - 1}
            cases.append((q, t, r, [_word_of(i, q, t) for i in sorted(idxs)]))
        for q in (50, 257, 1000):
            cases += [(q, 1, 0, [(s,) for s in range(1, q + 1)]), (q, 1, 1, [(q,)])]
        for q in (50, 130, 300):
            diagonal = [(s, s) for s in range(1, q + 1)]
            cases += [(q, 2, 1, diagonal), (q, 2, 2, [(q, 1)]), (q, 2, 0, diagonal)]
            cases.append((q, 2, 1, [(s, q + 1 - s) for s in range(1, q + 1)] + [(1, 1), (q, q)]))
        return cases

    def test_matches_bfs_reference(self):
        verdicts = set()
        for q, t, r, words in self._cases():
            # each code as drawn, then without one of its words
            for kept in (words, words[:-1]):
                expected = ref_verify_cover(q, t, r, kept)
                code = CoveringCode(q, t, r, tuple(kept))
                assert verify_cover(code) is expected, (q, t, r, kept)
                assert code.verified is expected
                verdicts.add(expected)
        assert verdicts == {True, False}

    def test_length_zero(self):
        # {1..q}^0 is the one empty word: a code holding it covers at r = 0,
        # and a code with no words does not
        for q in (2, 5):
            for words, expected in ((((),), True), ((), False)):
                assert ref_verify_cover(q, 0, 0, words) is expected
                code = CoveringCode(q, 0, 0, words)
                assert verify_cover(code) is expected
                assert code.verified is expected

    def test_time_is_bounded_inside_the_cap(self):
        # a BFS from every codeword took 5.9 s on a (1000, 2, 1) code like
        # this one, and its t(q-1) neighbours per codeword grow with q up to
        # 3162, the largest alphabet inside the cap at t = 2
        rng = random.Random("verify-time")
        words = tuple(
            {(rng.randint(1, 1000), rng.randint(1, 1000)) for _ in range(20000)}
        )
        q = math.isqrt(VERIFY_MAX_SPACE)
        codes = [
            CoveringCode(1000, 2, 1, words),
            CoveringCode(q, 2, 1, tuple((s, s) for s in range(1, q + 1))),
        ]
        start = time.perf_counter()
        verdicts = [verify_cover(code) for code in codes]
        assert time.perf_counter() - start < 1.0
        # at t = 2 and r = 1 a code covers iff its words meet every row or
        # every column: a row and a column both missed meet in a point no
        # word reaches
        rows, columns = ({word[i] for word in words} for i in (0, 1))
        assert verdicts == [len(rows) == 1000 or len(columns) == 1000, True]

    def test_cap_refuses(self):
        code = CoveringCode(2, 20, 1, ((1,) * 20,))
        code2 = CoveringCode(5, 11, 1, ((1,) * 11,))
        with pytest.raises(ResourceCapError):
            verify_cover(code2)
        # 2^20 is within the verification cap
        assert verify_cover(code) is False


class TestRandomCode:
    def test_radius_equals_length_single_word(self):
        code = random_code(2, 2, 2, 1, seed=3)
        assert len(code.words) == 1
        assert code.verified is True

    def test_bound_sized_sample_covers(self):
        code = random_code(3, 6, 2, 81, seed=0)
        assert code.verified is True
        assert verify_cover(code) is True

    def test_impossible_target_fails(self):
        with pytest.raises(CodeConstructionError):
            random_code(3, 6, 0, 1, seed=0)
        # above the sphere bound (4 * 5 >= 2^4), but no seeded draw of 4 words covers
        with pytest.raises(CodeConstructionError, match="after 10 attempts"):
            random_code(2, 4, 1, 4, seed=0)

    def test_target_size_checked(self):
        with pytest.raises(ValueError, match="target_size must be >= 1"):
            random_code(2, 4, 1, target_size=0)

    def test_size_below_sphere_bound_refused(self, monkeypatch):
        # 10 radius-1 balls hold at most 110 of the 2^10 words: refused before any draw
        def no_draws(*args):
            raise AssertionError("random code sampled below the sphere bound")

        monkeypatch.setattr(coversat.codes.random, "Random", no_draws)
        with pytest.raises(CodeConstructionError, match="at most 110 of the 1024 words"):
            random_code(2, 10, 1, 10)

    def test_deterministic_for_seed(self):
        assert random_code(3, 4, 2, 10, seed=42) == random_code(3, 4, 2, 10, seed=42)

    def test_default_size_is_the_bound(self):
        bound = code_size_bound(3, 4, 2)
        assert random_code(3, 4, 2, seed=1) == random_code(3, 4, 2, bound, seed=1)

    @pytest.mark.parametrize("cap,attempts,named", [
        (16, 1, "after 1 attempt "), (50, 3, "after 3 attempts"), (10**7, 10, "after 10 attempts"),
    ])
    def test_attempts_share_the_draw_cap(self, monkeypatch, cap, attempts, named):
        # each attempt at (2,4,1) draws 4 * 4 = 16 symbols: at most cap // 16
        # attempts, and never more than 10
        calls = []
        monkeypatch.setattr(coversat.codes, "VERIFY_MAX_SPACE", cap)
        monkeypatch.setattr(coversat.codes, "verify_cover", lambda code: calls.append(code) or False)
        with pytest.raises(CodeConstructionError, match=named):
            random_code(2, 4, 1, 4)
        assert len(calls) == attempts

    def test_default_size_beyond_cap_refused(self):
        # the size bound is a float of q^t and overflows for 3^2000; the
        # q^t cap refuses first
        start = time.perf_counter()
        with pytest.raises(ResourceCapError):
            random_code(3, 2000, 667)
        assert time.perf_counter() - start < 1.0


class TestIndexHelpers:
    def test_product_indices_match_product_order(self):
        rng = random.Random(11)
        for q in range(2, 8):
            assert _product_indices(q, []) == [0]
            for _ in range(20):
                digits = [
                    rng.sample(range(q), rng.choice([1, rng.randint(1, q)]))
                    for _ in range(rng.randint(1, 4))
                ]
                expected = [_index_of(tuple(c + 1 for c in combo), q) for combo in product(*digits)]
                assert _product_indices(q, digits) == expected, (q, digits)

    def test_periodic_mask_matches_string_built_mask(self):
        # the doubling overshoots total_bits when the repeat count is not a power of two
        rng = random.Random(12)
        for period in range(1, 7):
            for repeats in range(1, 13):
                pattern = rng.getrandbits(period)
                naive = int(format(pattern, f"0{period}b") * repeats, 2)
                assert _periodic_mask(pattern, period, period * repeats) == naive, (period, repeats)


class TestBallOf:
    def test_matches_reference(self):
        rng = random.Random(5)
        for q in range(2, 6):
            for t in range(7):
                space = q**t
                centers = {0, space - 1} | {rng.randrange(space) for _ in range(3)}
                for r in range(t + 1):
                    volume = ball_volume(q, t, r)
                    ball_of = _ball_of(q, t, r)
                    for idx in centers:
                        ball = ball_of(idx)
                        assert len(ball) == volume, (q, t, r, idx)
                        assert len(set(ball)) == volume, (q, t, r, idx)
                        assert set(ball) == set(ref_ball_of(idx, q, t, r)), (q, t, r, idx)

    @pytest.mark.parametrize("q", [3, 5])
    def test_radius_zero_is_the_center(self, q):
        assert greedy_code(q, 1, 0).words == tuple((d,) for d in range(1, q + 1))


@st.composite
def set_systems(draw):
    """A seeded random system of equal-size sets covering every point; few
    points and small sets make many gains tie."""
    num_points = draw(st.integers(1, 24))
    set_size = draw(st.integers(1, min(4, num_points)))
    num_sets = draw(st.integers(1, 30))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    sets = [rng.sample(range(num_points), set_size) for _ in range(num_sets)]
    for p in range(num_points):
        if not any(p in s for s in sets):
            others = [x for x in range(num_points) if x != p]
            sets.insert(rng.randrange(len(sets) + 1), [p] + rng.sample(others, set_size - 1))
    return num_points, set_size, sets


class TestGreedySetCover:
    @settings(max_examples=300, deadline=None)
    @given(set_systems())
    def test_matches_textbook_argmax(self, system):
        num_points, set_size, sets = system
        holding = [[i for i, s in enumerate(sets) if p in s] for p in range(num_points)]
        args = (num_points, len(sets), set_size, sets.__getitem__, holding.__getitem__)
        assert greedy_set_cover(*args) == ref_greedy_set_cover(*args)

    def test_point_in_no_set_raises(self):
        sets, holding = [[0, 1]], [[0], [0], []]
        with pytest.raises(ValueError, match="no set"):
            greedy_set_cover(3, 1, 2, sets.__getitem__, holding.__getitem__)


class TestGreedyCode:
    def test_radius_zero_needs_every_word(self):
        code = greedy_code(2, 1, 0)
        assert code.words == ((1,), (2,))

    def test_radius_zero_is_a_product_of_its_digits(self):
        # the largest radius-0 code the cap admits holds only its 20 blocks
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code = greedy_code(2, 20, 0)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1 and peak < 2**20, (elapsed, peak)
        assert (len(code), code.verified) == (2**20, True)

    def test_one_center_suffices_at_t1_r1(self):
        assert len(greedy_code(3, 1, 1).words) == 1

    def test_flagship_code(self):
        code = greedy_code(3, 6, 2)
        assert code.verified is True
        assert verify_cover(code) is True
        assert len(code.words) <= 81

    def test_within_existence_bound_across_alphabets(self):
        cases = [(2, t) for t in range(1, 9)] + [(3, t) for t in range(1, 7)]
        cases += [(4, t) for t in range(1, 5)] + [(5, t) for t in range(1, 4)]
        for q, t in cases:
            for r in range(t + 1):
                code = greedy_code(q, t, r)
                assert verify_cover(code) is True
                assert len(code.words) <= code_size_bound(q, t, r), (q, t, r)

    def test_deterministic(self):
        assert greedy_code(3, 3, 1) == greedy_code(3, 3, 1)

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            greedy_code(5, 10, 2)

    @pytest.mark.parametrize(
        "params",
        [(10, 6, 1), (3, 12, 4), (3, 10, 4), (2, 16, 5)]
        # past t = 369 the costs overflow a float; at t = 10^5 they take minutes
        + [(3, t, -(-t // 3)) for t in (370, 2000, 10**5)]
        # at r = 0 the code is all 2^23 words, each written and re-verified on
        # reload
        + [(2, 23, 0)],
    )
    def test_cap_refuses_slow_builds_at_once(self, params):
        start = time.perf_counter()
        with pytest.raises(ResourceCapError, match="smaller --t"):
            greedy_code(*params)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "params",
        [(2, 12, 4), (3, 9, 3), (4, 8, 2)]
        + [(k, 6, -(-6 // k)) for k in range(3, 10)],
    )
    def test_cap_admits_default_and_listed_codes(self, params, monkeypatch):
        import coversat.codes as codes

        class Admitted(Exception):
            pass

        def admitted(*args):
            raise Admitted

        # reaching either build means the cap let the build through
        monkeypatch.setattr(codes, "greedy_set_cover", admitted)
        monkeypatch.setattr(codes, "_greedy_bitsliced", admitted)
        with pytest.raises(Admitted):
            greedy_code(*params)

    def test_builds_beyond_the_old_scan_cap(self):
        # the scans stay within about three times the capped gain updates
        code = greedy_code(2, 17, 1)
        assert code.verified is True and verify_cover(code) is True

    @staticmethod
    def _sweep():
        """Seeded (q, t, r) whose q^t * |ball| updates and q^t / |ball|
        textbook argmax scans of q^t gains each stay within 2*10^5, plus
        (2,16,2) and the radius-1 codes on both sides of the path rule."""
        rng = random.Random("greedy-code-diff")
        cases = {(2, 16, 2), (2, 12, 1), (2, 11, 1)}
        while len(cases) < 40:
            q, t = rng.randint(2, 9), rng.randint(1, 12)
            r = rng.randint(0, t)
            space, volume = q**t, ball_volume(q, t, r)
            if space * max(volume, space // volume) <= 2 * 10**5:
                cases.add((q, t, r))
        return sorted(cases)

    def test_matches_textbook_greedy_on_both_builds(self):
        paths = set()
        for q, t, r in self._sweep():
            space = q**t
            if q == 2:
                # a binary ball is its center XOR the ball around word 0
                around0 = ref_ball_of(0, q, t, r)

                def ball(idx, around0=around0):
                    return [idx ^ x for x in around0]

            else:

                def ball(idx, q=q, t=t, r=r):
                    return ref_ball_of(idx, q, t, r)

            centers = ref_greedy_set_cover(space, space, ball_volume(q, t, r), ball, ball)
            expected = tuple(sorted(_word_of(idx, q, t) for idx in centers))
            assert greedy_code(q, t, r).words == expected, (q, t, r)
            paths.add(_bitsliced_pays(q, t, r, ball_volume(q, t, r)))
        assert paths == {True, False}
        assert _bitsliced_pays(2, 11, 1, 12) and not _bitsliced_pays(2, 12, 1, 13)

    def test_failed_verification_raises(self, monkeypatch):
        import coversat.codes as codes

        monkeypatch.setattr(codes, "verify_cover", lambda code: False)
        with pytest.raises(CodeConstructionError):
            greedy_code(2, 3, 1)


class TestBooleanCover:
    def test_single_block_when_n_equals_b(self):
        assert OUTER_BLOCK_LEN == 12
        assert boolean_cover(12, 1 / 3.1) is get_code(2, 12, 4)
        assert boolean_cover(4, 0.5) is get_code(2, 4, 2)

    def test_two_block_example_covers_radius_two(self):
        # blocks of 12 and 1 bits, each of radius 1 at rho = 1/12
        cover = boolean_cover(13, 1 / 12)
        assert len(cover.words) == len(greedy_code(2, 12, 1).words)
        assert cover.r == 2
        assert ref_verify_cover(2, 13, 2, cover.words)

    def test_size_is_block_size_power(self):
        block = get_code(2, 12, 4)
        cover = boolean_cover(36, 1 / 3.1)
        assert len(cover.words) == len(block.words) ** 3
        assert cover.r == 12

    def test_residual_block(self):
        cover = boolean_cover(14, 1 / 3.1)
        block, tail = get_code(2, 12, 4), get_code(2, 2, 1)
        assert len(cover.words) == len(block.words) * len(tail.words)
        assert cover.r == block.r + tail.r
        assert verify_cover(cover) is True

    def test_zero_vars(self):
        cover = boolean_cover(0, 0.5)
        assert tuple(cover.words) == ((),)
        assert (cover.q, cover.t, cover.r, cover.verified) == (2, 0, 0, True)

    @pytest.mark.parametrize("n", [13, 17, 24, 25, 36])
    def test_matches_materialized_reference(self, n):
        # the words, in order, of the sorted product the cover was once built as
        rho = 1 / 3.1
        lengths = [12] * (n // 12) + ([n % 12] if n % 12 else [])
        blocks = [get_code(2, t, _ceil_fraction(rho * t)).words for t in lengths]
        cover = boolean_cover(n, rho)
        assert tuple(cover.words) == ref_product_cover(blocks)
        assert len(cover.words) == len(cover) == math.prod(map(len, blocks))

    @pytest.mark.parametrize("n", [4, 13, 17, 24, 25, 30])
    def test_product_equals_validated_code(self, n):
        # the unchecked product code lists what the validating constructor
        # would make of its words
        cover = boolean_cover(n, 1 / 3.1)
        checked = CoveringCode(2, n, cover.r, tuple(cover.words))
        assert (cover.q, cover.t, cover.r) == (checked.q, checked.t, checked.r)
        assert tuple(cover.words) == checked.words
        assert cover.verified is True

    def test_outer_cover_beyond_old_cap_is_lazy(self):
        # 13^6 words: refused by the old word-count cap, now held as its blocks
        block = boolean_cover(12, 1 / 3.1)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            cover = boolean_cover(72, 1 / 3.1)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0 and peak < 2**20, (elapsed, peak)
        assert len(cover.words) == len(block.words) ** 6 == 13**6
        assert (cover.t, cover.r, cover.verified) == (72, 6 * block.r, True)
        first = next(iter(cover.words))
        assert first == block.words[0] * 6

    def test_uncountable_product_refused(self):
        # 13^18 words: more than len() can report
        assert len(get_code(2, 12, 4)) ** 18 > sys.maxsize
        with pytest.raises(ResourceCapError):
            boolean_cover(18 * 12, 1 / 3.1)

    def test_long_product_refused_in_linear_time(self):
        # 10^6 blocks: the size stops growing at the first product past the cap
        block = ((1,), (2,))
        start = time.perf_counter()
        with pytest.raises(ResourceCapError):
            BlockProduct([block] * 10**6)
        assert time.perf_counter() - start < 0.5

    def test_len_counts_the_product(self):
        rng = random.Random("product-len")
        for _ in range(50):
            sizes = [rng.randint(1, 5) for _ in range(rng.randint(0, 6))]
            blocks = [tuple((i,) for i in range(size)) for size in sizes]
            cover = BlockProduct(blocks)
            assert len(cover) == math.prod(sizes) == len(tuple(cover))
        widest = BlockProduct([tuple((i,) for i in range(2))] * 62)
        assert len(widest) == 2**62 <= sys.maxsize

    def test_unverified_block_rejected(self, monkeypatch):
        import coversat.codes as codes

        unverified = CoveringCode(2, 2, 1, ((1, 1), (2, 2)))
        monkeypatch.setattr(codes, "get_code", lambda *args, **kwargs: unverified)
        with pytest.raises(CodeConstructionError):
            boolean_cover(4, 0.5)

    def test_product_beyond_verification_cap_spot_check(self):
        # 2^24 words exceed VERIFY_MAX_SPACE, so only sampling can check it
        cover = boolean_cover(24, 1 / 3.1)
        block = get_code(2, 12, 4)
        assert (cover.t, cover.r) == (24, 8)
        assert len(cover.words) == len(block.words) ** 2
        assert cover.verified is True
        words = tuple(cover.words)
        rng = random.Random("spot:9")
        for _ in range(2000):
            point = tuple(rng.randint(1, 2) for _ in range(24))
            assert any(hamming_distance(point, w) <= cover.r for w in words), point

    def test_product_cover_equals_its_file_round_trip(self):
        cover = boolean_cover(13, 1 / 3.1)
        back = read_code(write_code(cover))
        assert back == cover and cover == back
        assert back != boolean_cover(14, 1 / 3.1)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            boolean_cover(4, 0.0)
        with pytest.raises(ValueError):
            boolean_cover(4, 0.6)


# (q, t, r), words, seed and moves of each code of SEARCHED_CODES, as codes.py
# records them. The search at the shapes of SLOW_SEARCHES takes over a second,
# so tier-1 reruns the search at every other shape only.
SEARCHED_CODE_RUNS = [
    ((2, 9, 3), 7, 1, 1058),
    ((2, 11, 4), 7, 7, 586),
    ((2, 12, 4), 13, 1, 2951),
]
SLOW_SEARCHES = {(2, 12, 4)}


def _shipped_words(text: str) -> list[tuple[int, ...]]:
    """The words of a SEARCHED_CODES string, in the order it lists them."""
    return [tuple(int(digit) + 1 for digit in word) for word in text.split()]


class TestSearchedCodes:
    def test_runs_recorded_for_every_shipped_shape(self):
        assert [shape for shape, *_ in SEARCHED_CODE_RUNS] == list(SEARCHED_CODES)

    @pytest.mark.parametrize("run", SEARCHED_CODE_RUNS, ids=lambda c: "q{}-t{}-r{}".format(*c[0]))
    def test_verified_smaller_than_greedy_all_ones_first(self, run):
        shape, size, _, _ = run
        q, t, r = shape
        code = get_code(q, t, r)
        assert code is _load_code(q, t, r, None) and code.verified is True
        assert ref_verify_cover(q, t, r, code.words)
        assert len(code) == len(_shipped_words(SEARCHED_CODES[shape])) == size
        assert size < len(greedy_code(q, t, r))
        assert code.words[0] == (1,) * t

    def test_word_dropped_from_shipped_code_raises_on_load(self, monkeypatch):
        # (2,9,3) has 7 words, the fewest possible: any 6 of them leave a gap
        short = " ".join(SEARCHED_CODES[2, 9, 3].split()[:-1])
        assert not ref_verify_cover(2, 9, 3, _shipped_words(short))
        monkeypatch.setitem(SEARCHED_CODES, (2, 9, 3), short)
        _load_code.cache_clear()
        try:
            with pytest.raises(CodeConstructionError, match="searched code"):
                boolean_cover(9, 1 / 3.1)
        finally:
            _load_code.cache_clear()

    def test_cache_dir_never_touched(self, tmp_path):
        cache = tmp_path / "codes"
        code = get_code(2, 12, 4, cache_dir=cache)
        assert code is get_code(2, 12, 4) is boolean_cover(12, 1 / 3.1, cache_dir=cache)
        assert not cache.exists()

    def test_search_tool_reproduces_shipped_codes(self):
        # the recorded seed and moves give each code exactly, and one move
        # fewer gives no code
        tool = load_search_tool()
        for shape, size, seed, moves in SEARCHED_CODE_RUNS:
            if shape in SLOW_SEARCHES:
                continue
            q, t, r = shape
            found, used = tool.search_code(q, t, r, size, seed, moves)
            assert used == moves and found is not None, shape
            words = tool.normalize_code(found, q)
            assert tuple(words) == get_code(q, t, r).words
            assert tool.code_text(words) == SEARCHED_CODES[shape]
            assert tool.search_code(q, t, r, size, seed, moves - 1) == (None, moves - 1)

    def test_search_tool_prints_code_or_exits_1(self, capsys):
        tool = load_search_tool()
        argv = ["code", "--q", "2", "--t", "9", "--r", "3", "--seed", "1"]
        assert tool.main([*argv, "--size", "7"]) == 0
        out = capsys.readouterr().out
        assert out == f"# (2,9,3): 7 words, seed 1, 1058 moves\n{SEARCHED_CODES[2, 9, 3]!r}\n"
        assert tool.main([*argv, "--size", "6", "--moves", "50"]) == 1
        assert capsys.readouterr().err == "no cover of 6 words after 50 moves\n"


class TestGetCodeCache:
    def test_disk_round_trip(self, tmp_path):
        a = get_code(3, 3, 1, cache_dir=tmp_path)
        assert (tmp_path / "greedy_q3_t3_r1.code").exists()
        _load_code.cache_clear()
        b = get_code(3, 3, 1, cache_dir=tmp_path)
        assert a == b and b.verified is True

    def test_one_entry_per_dir_whatever_its_type(self, tmp_path, monkeypatch):
        import coversat.codes as codes

        _load_code.cache_clear()
        builds = []
        build = codes.greedy_code
        monkeypatch.setattr(codes, "greedy_code", lambda *a: builds.append(a) or build(*a))
        a = get_code(3, 3, 1, cache_dir=tmp_path)
        b = get_code(3, 3, 1, cache_dir=str(tmp_path))
        assert a is b and builds == [(3, 3, 1)]
        assert [p.name for p in tmp_path.iterdir()] == ["greedy_q3_t3_r1.code"]

    def test_radius_zero_is_never_cached(self, tmp_path):
        memo = _load_code.cache_info()
        start = time.perf_counter()
        code = get_code(2, 20, 0, cache_dir=tmp_path)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.1, elapsed
        assert (len(code), code.verified) == (2**20, True)
        assert list(tmp_path.iterdir()) == [] and _load_code.cache_info() == memo

    def test_corrupt_cache_rebuilt(self, tmp_path):
        _load_code.cache_clear()
        path = tmp_path / "greedy_q2_t2_r1.code"
        path.write_text("garbage\n")
        code = get_code(2, 2, 1, cache_dir=tmp_path)
        assert code.verified is True
        assert verify_cover(code)
