import math
import random
import sys
import time
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coversat.cnf import hamming_distance
from coversat.codes import (
    CoveringCode,
    _ball_of,
    _ceil_fraction,
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

from helpers import ref_ball_of, ref_greedy_set_cover, ref_product_cover


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
            random_code(3, 6, 0, 1, seed=0, retries=3)

    def test_deterministic_for_seed(self):
        assert random_code(3, 4, 2, 10, seed=42) == random_code(3, 4, 2, 10, seed=42)

    def test_default_size_is_the_bound(self):
        bound = code_size_bound(3, 4, 2)
        assert random_code(3, 4, 2, seed=1) == random_code(3, 4, 2, bound, seed=1)

    def test_default_size_beyond_cap_refused(self):
        # the size bound is a float of q^t and overflows for 3^2000; the
        # q^t cap refuses first
        start = time.perf_counter()
        with pytest.raises(ResourceCapError):
            get_code(3, 2000, 667, "random")
        assert time.perf_counter() - start < 1.0


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
        # built with no digit offsets; a radius-0 code still takes every word
        for t in range(1, 4):
            ball_of = _ball_of(q, t, 0)
            assert all(ball_of(i) == [i] for i in range(q**t))
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
        # at r = 0 every point is a pick: 2^23 words, minutes and gigabytes
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

        # reaching the set cover means the cap let the build through
        monkeypatch.setattr(codes, "greedy_set_cover", admitted)
        with pytest.raises(Admitted):
            greedy_code(*params)

    def test_builds_beyond_the_old_scan_cap(self):
        # the scans stay within about three times the capped gain updates
        code = greedy_code(2, 17, 1)
        assert code.verified is True and verify_cover(code) is True

    def test_failed_verification_raises(self, monkeypatch):
        import coversat.codes as codes

        monkeypatch.setattr(codes, "verify_cover", lambda code: False)
        with pytest.raises(CodeConstructionError):
            greedy_code(2, 3, 1)


class TestBooleanCover:
    def test_single_block_when_n_equals_b(self):
        cover = boolean_cover(4, 0.5, 4)
        assert cover == greedy_code(2, 4, 2)

    def test_two_block_example_covers_radius_two(self):
        cover = boolean_cover(4, 0.5, 2)
        assert len(cover.words) == 4
        assert cover.r == 2
        for point in product((1, 2), repeat=4):
            assert any(hamming_distance(point, w) <= 2 for w in cover.words)

    def test_size_is_block_size_power(self):
        block = greedy_code(2, 3, 1)
        cover = boolean_cover(9, 1 / 3, 3)
        assert len(cover.words) == len(block.words) ** 3
        assert cover.r == 3

    def test_residual_block(self):
        cover = boolean_cover(5, 0.5, 3)
        block, tail = greedy_code(2, 3, 2), greedy_code(2, 2, 1)
        assert len(cover.words) == len(block.words) * len(tail.words)
        assert cover.r == block.r + tail.r
        assert verify_cover(cover) is True

    def test_zero_vars(self):
        cover = boolean_cover(0, 0.5, 4)
        assert tuple(cover.words) == ((),)
        assert (cover.q, cover.t, cover.r, cover.verified) == (2, 0, 0, True)

    @pytest.mark.parametrize("n", [13, 17, 24, 25, 36])
    def test_matches_materialized_reference(self, n):
        # the words, in order, of the sorted product the cover was once built as
        rho = 1 / 3.1
        lengths = [12] * (n // 12) + ([n % 12] if n % 12 else [])
        blocks = [get_code(2, t, _ceil_fraction(rho * t)).words for t in lengths]
        cover = boolean_cover(n, rho, 12)
        assert tuple(cover.words) == ref_product_cover(blocks)
        assert len(cover.words) == len(cover) == math.prod(map(len, blocks))

    @pytest.mark.parametrize("n,b", [(4, 2), (5, 3), (9, 3), (13, 12), (17, 4), (25, 12)])
    def test_product_equals_validated_code(self, n, b):
        # the unchecked product code lists what the validating constructor
        # would make of its words
        cover = boolean_cover(n, 1 / 3.1, b)
        checked = CoveringCode(2, n, cover.r, tuple(cover.words))
        assert (cover.q, cover.t, cover.r) == (checked.q, checked.t, checked.r)
        assert tuple(cover.words) == checked.words
        assert cover.verified is True

    def test_outer_cover_beyond_old_cap_is_lazy(self):
        # 16^6 words: refused by the old word-count cap, now held as its blocks
        block = boolean_cover(12, 1 / 3.1, 12)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            cover = boolean_cover(72, 1 / 3.1, 12)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0 and peak < 2**20, (elapsed, peak)
        assert len(cover.words) == len(block.words) ** 6 == 16**6
        assert (cover.t, cover.r, cover.verified) == (72, 6 * block.r, True)
        first = next(iter(cover.words))
        assert first == block.words[0] * 6

    def test_uncountable_product_refused(self):
        # 16^16 words: more than len() can report
        assert 16**16 > sys.maxsize
        with pytest.raises(ResourceCapError):
            boolean_cover(16 * 12, 1 / 3.1, 12)

    def test_unverified_block_rejected(self, monkeypatch):
        import coversat.codes as codes

        unverified = CoveringCode(2, 2, 1, ((1, 1), (2, 2)))
        monkeypatch.setattr(codes, "get_code", lambda *args, **kwargs: unverified)
        with pytest.raises(CodeConstructionError):
            boolean_cover(4, 0.5, 2)

    def test_product_beyond_verification_cap_spot_check(self):
        # 2^24 words exceed VERIFY_MAX_SPACE, so only sampling can check it
        cover = boolean_cover(24, 1 / 3.1, 12)
        block = greedy_code(2, 12, 4)
        assert (cover.t, cover.r) == (24, 8)
        assert len(cover.words) == len(block.words) ** 2
        assert cover.verified is True
        words = tuple(cover.words)
        rng = random.Random("spot:9")
        for _ in range(2000):
            point = tuple(rng.randint(1, 2) for _ in range(24))
            assert any(hamming_distance(point, w) <= cover.r for w in words), point

    def test_product_cover_equals_its_file_round_trip(self):
        cover = boolean_cover(13, 1 / 3.1, 12)
        back = read_code(write_code(cover))
        assert back == cover and cover == back
        assert back != boolean_cover(14, 1 / 3.1, 12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            boolean_cover(4, 0.0, 2)
        with pytest.raises(ValueError):
            boolean_cover(4, 0.6, 2)
        with pytest.raises(ValueError):
            boolean_cover(4, 0.5, 25)


class TestGetCodeCache:
    def test_disk_round_trip(self, tmp_path):
        from coversat.codes import _memory_cache

        a = get_code(3, 3, 1, "greedy", cache_dir=tmp_path)
        assert (tmp_path / "greedy_q3_t3_r1.code").exists()
        _memory_cache.clear()
        b = get_code(3, 3, 1, "greedy", cache_dir=tmp_path)
        assert a == b and b.verified is True

    def test_corrupt_cache_rebuilt(self, tmp_path):
        from coversat.codes import _memory_cache

        _memory_cache.clear()
        path = tmp_path / "greedy_q2_t2_r1.code"
        path.write_text("garbage\n")
        code = get_code(2, 2, 1, "greedy", cache_dir=tmp_path)
        assert code.verified is True
        assert verify_cover(code)

    def test_random_method_keyed_by_seed(self, tmp_path):
        a = get_code(2, 3, 1, "random", size=6, seed=5, cache_dir=tmp_path)
        assert a.verified
        assert (tmp_path / "random_q2_t3_r1_s6_seed5.code").exists()

    def test_random_default_size_shares_the_explicit_entry(self, tmp_path):
        # the default size resolves to the bound before the caches are keyed
        from coversat.codes import _memory_cache

        _memory_cache.clear()
        a = get_code(2, 4, 1, "random", cache_dir=tmp_path)
        b = get_code(2, 4, 1, "random", size=code_size_bound(2, 4, 1), cache_dir=tmp_path)
        assert a is b
        assert [p.name for p in tmp_path.iterdir()] == ["random_q2_t4_r1_s12_seed0.code"]

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            get_code(2, 2, 1, "magic")
