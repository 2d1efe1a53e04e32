"""q-ary covering codes: volumes, size bounds, constructions, verification.

Words are tuples of symbols in 1..q, length t. A code has covering radius r
when every word of {1..q}^t lies within Hamming distance r of some codeword.
Internally words map to integers via the mixed-radix index
``sum((sym_i - 1) * q^(t-1-i))``, so numeric order equals lexicographic order.
csp reads it through _product_indices (a product of digit choices) and the
solver's oracle through _periodic_mask (a repeating digit pattern's bitset).
A set of words is then also a q^t-bit int, bit i for word i: greedy_code
counts the gains of all words at once on such bitsets when that is
estimated to pay (_bitsliced_pays), with the same picks as the set cover
over ball lists, and verify_cover dilates the codewords' bitset to radius r.
get_code returns the codes of SEARCHED_CODES, found offline and verified on
first use, in place of greedy ones.
"""

from __future__ import annotations

import math
import os
import random
import sys
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from itertools import accumulate, chain, product
from operator import eq, or_

from .errors import CodeConstructionError, ParseError, ResourceCapError

Word = tuple[int, ...]

# greedy_code's cost (see check_greedy_cap), which also bounds a build's memory:
# on a 2-core VM the slowest admitted build, (9,6,1), takes about 6.5 s, and
# the largest tracemalloc peak, (2,20,1)'s, is about 19 MB; a radius-0 code
# holds only its t one-digit blocks
GREEDY_MAX_UPDATES = 3 * 10**7
VERIFY_MAX_SPACE = 10**7

# (q, t, r) codes that get_code returns in place of greedy_code, each found
# by the seeded local search of tools/search_covers.py and smaller than
# greedy's: the (2,9,3) outer cover of every 9-variable 3-CNF, a d = 3 CSP
# box among them, and the (2,12,4) block and (2,11,4) tail of a 3-CNF outer
# cover (epsilon = 0.1). The shapes read only by 4- and 5-CNFs and the inner
# codes stay greedy until a workload measures them. A word is one digit per
# coordinate, its symbol minus 1; the all-ones word is a codeword and sorts
# first, so a product cover visits the all-zero assignment first. Each code
# is parsed and exhaustively verified at its first use in a process
# (_load_code).
SEARCHED_CODES = {
    # seed 1, 1058 moves; greedy 8
    (2, 9, 3): "000000000 010111111 011100111 011111101 100000001 101011010 110100100",
    # seed 7, 586 moves; greedy 8
    (2, 11, 4): "00000000000 00110101110 01011000111 01100101000 10101111001 11010010111 "
    "11011010110",
    # seed 1, 2951 moves; greedy 16
    (2, 12, 4): "000000000000 001001111111 001010001000 010010101001 011001111100 011011000111 "
    "100110001100 100110110110 100111010001 101101100011 110100011010 111100000101 "
    "111111100010",
}


class BlockProduct:
    """Concatenations of one item per block, in itertools.product order: sorted
    when each block is sorted and its items share a length. Holds only the blocks."""

    def __init__(self, blocks: Iterable[tuple]) -> None:
        self.blocks = tuple(blocks)
        # block by block: a refusal stops at the first partial product past
        # the cap, so no product grows with the number of blocks
        size = 1
        for block in self.blocks:
            size *= len(block)
            if size > sys.maxsize:
                raise ResourceCapError("product cover too large for len() to count its items")
        self._len = size

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[tuple]:
        return (tuple(chain.from_iterable(combo)) for combo in product(*self.blocks))

    def __eq__(self, other: object) -> bool:
        """Equal to a tuple or BlockProduct of the same items in the same order."""
        if not isinstance(other, (tuple, BlockProduct)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


@dataclass
class CoveringCode:
    """A set of distinct words claimed to cover {1..q}^t at radius r.

    ``verified`` is set by verify_cover, or for words that are a BlockProduct
    by boolean_cover or a radius-0 greedy_code, and is excluded from
    equality, and words compare by value, so that file round-trips compare
    equal.
    """

    q: int
    t: int
    r: int
    words: tuple[Word, ...] | BlockProduct
    verified: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ValueError("alphabet size must be >= 2")
        if self.t < 0 or not 0 <= self.r <= max(self.t, 0):
            raise ValueError(f"invalid length/radius (t={self.t}, r={self.r})")
        for word in self.words:
            if len(word) != self.t:
                raise ValueError(f"word {word} has length {len(word)}, expected {self.t}")
            for s in word:
                if not 1 <= s <= self.q:
                    raise ValueError(f"symbol {s} outside alphabet 1..{self.q}")
        self.words = tuple(sorted(set(self.words)))

    def __len__(self) -> int:
        return len(self.words)

    @classmethod
    def _unchecked(
        cls, q: int, t: int, r: int, words: tuple[Word, ...] | BlockProduct
    ) -> CoveringCode:
        """``CoveringCode(q, t, r, words)`` without ``__post_init__``, for words
        the package built or has checked: valid, distinct and sorted. The code
        is not marked verified."""
        code = object.__new__(cls)
        code.q, code.t, code.r, code.words, code.verified = q, t, r, words, False
        return code

    @cached_property
    def bit_words(self) -> tuple[Word, ...] | BlockProduct:
        """The words with each symbol s read as s - 1, in the same order: for
        a binary code, its codewords as 0/1 assignments. Built on first read
        and kept on the code, so a code that the cache shares converts its
        words once; boolean_cover sets a product's to the product of its
        blocks' bit_words."""
        return tuple(tuple(s - 1 for s in word) for word in self.words)


def _check_params(q: int, t: int, r: int) -> None:
    if q < 2:
        raise ValueError("alphabet size must be >= 2")
    if t < 0:
        raise ValueError("word length must be >= 0")
    if not 0 <= r <= t:
        raise ValueError(f"radius must lie in [0, {t}], got {r}")


def shell_volume(q: int, t: int, r: int) -> int:
    """Number of words at distance exactly r from a fixed center:
    C(t,r) * (q-1)^r."""
    _check_params(q, t, r)
    return math.comb(t, r) * (q - 1) ** r


def ball_volume(q: int, t: int, r: int) -> int:
    """Number of words within distance <= r of a fixed center (exact)."""
    _check_params(q, t, r)
    return sum(math.comb(t, i) * (q - 1) ** i for i in range(r + 1))


def code_size_bound(q: int, t: int, r: int) -> int:
    """Probabilistic-existence size target: ceil(t ln(q) q^t / shell).

    Evaluated in floating point; when the value sits within 1e-9 of an
    integer the next integer up is used, since the bound is an existence
    target rather than a contract.
    """
    _check_params(q, t, r)
    if t == 0:
        return 1
    x = t * math.log(q) * q**t / shell_volume(q, t, r)
    nearest = round(x)
    if abs(x - nearest) < 1e-9:
        return int(nearest) + 1
    return math.ceil(x)


def _index_of(word: Word, q: int) -> int:
    idx = 0
    for s in word:
        idx = idx * q + (s - 1)
    return idx


def _word_of(idx: int, q: int, t: int) -> Word:
    digits = [0] * t
    for pos in range(t - 1, -1, -1):
        idx, d = divmod(idx, q)
        digits[pos] = d + 1
    return tuple(digits)


def _product_indices(q: int, digits: Iterable[Iterable[int]]) -> list[int]:
    """The indices of the words whose i-th digit (0-based, so symbol - 1) is
    one of digits[i], in the order itertools.product(*digits) lists them:
    ``(c - 1,)`` fixes a digit to symbol c and ``range(q)`` leaves it free."""
    idxs = [0]
    for choices in digits:
        idxs = [i * q + c for i in idxs for c in choices]
    return idxs


def _periodic_mask(pattern: int, period: int, total_bits: int) -> int:
    """The period-bit pattern repeated over total_bits, a multiple of period.
    Doubling by shift-or keeps the big-int work linear in total_bits; the
    result is cut to total_bits only when the doubling overshot, which it
    never does when total_bits / period is a power of two."""
    mask = pattern
    while period < total_bits:
        mask |= mask << period
        period *= 2
    if mask.bit_length() > total_bits:
        mask &= (1 << total_bits) - 1
    return mask


def _ball_layers(idx: int, q: int, t: int, r: int) -> list[list[int]]:
    """Indices of the words at distance exactly s from idx, for s = 0..r.

    A layered walk over the digits: each position extends layer s by layer
    s-1 plus that digit's q-1 offsets (nd - d) * q^(t-1-pos), for s falling,
    so that layer s-1 still holds only the earlier positions' words.
    """
    layers = [[idx]] + [[] for _ in range(r)]
    x = idx
    w = 1
    for seen in range(t):
        x, d = divmod(x, q)
        offsets = [(nd - d) * w for nd in range(q) if nd != d]
        for s in range(min(r, seen + 1), 0, -1):
            layers[s] += [y + o for y in layers[s - 1] for o in offsets]
        w *= q
    return layers


def _ball_of(q: int, t: int, r: int) -> Callable[[int], list[int]]:
    """ball(idx): the indices of all words within distance <= r of idx.

    For q = 2 it is idx XOR each index of ball(0). Otherwise a word splits
    into its first t - t//2 digits and its last t//2; a word within distance
    r of idx is at some distance s from idx's first half and within r - s of
    its second. So ball(idx) is one comprehension over two tables built once
    by _ball_layers: for every first half, its layers by exact distance,
    scaled by q^(t//2); for every second half, its neighbours within each
    distance.
    """
    if q == 2:
        masks = list(chain.from_iterable(_ball_layers(0, 2, t, r)))

        def ball(idx: int) -> list[int]:
            return [idx ^ m for m in masks]

        return ball
    scale = q ** (t // 2)
    firsts = [
        [[y * scale for y in layer] for layer in _ball_layers(h, q, t - t // 2, r)]
        for h in range(q ** (t - t // 2))
    ]
    seconds = [list(accumulate(_ball_layers(low, q, t // 2, r))) for low in range(scale)]

    def ball(idx: int) -> list[int]:
        high, low = divmod(idx, scale)
        first, second = firsts[high], seconds[low]
        return [a + b for s in range(r + 1) for a in first[s] for b in second[r - s]]

    return ball


def verify_cover(code: CoveringCode) -> bool:
    """Exhaustively check the covering property; sets code.verified.

    The codewords are a bitset over the q^t indices, dilated to radius r one
    position at a time: layer s holds the words within distance s of a
    codeword on the positions seen so far, and each position adds to layer
    s the spread of layer s-1 along that digit (_spread). The cost is
    O(r * t * log q) operations on q^t-bit ints, with no loop over points,
    so any code inside VERIFY_MAX_SPACE is checked in about a second.
    The check shares no code with the build that it checks, so it keeps
    its own doubling loop for ``zero`` rather than _periodic_mask's.
    """
    q, t, r = code.q, code.t, code.r
    space = q**t
    if space > VERIFY_MAX_SPACE:
        raise ResourceCapError(
            f"q^t = {space} exceeds exhaustive-verification cap {VERIFY_MAX_SPACE}"
        )
    marks = bytearray((space + 7) // 8)
    for word in code.words:
        idx = _index_of(word, q)
        marks[idx >> 3] |= 1 << (idx & 7)
    layers = [int.from_bytes(marks, "little")] * (r + 1)
    w = 1
    for seen in range(t):
        zero, span = (1 << w) - 1, q * w
        while span < space:
            zero |= zero << span
            span *= 2
        for s in range(min(r, seen + 1), 0, -1):
            layers[s] |= _spread(layers[s - 1], q, w, zero)
        w *= q
    code.verified = layers[r] == (1 << space) - 1
    return code.verified


def _spread(x: int, q: int, w: int, zero: int) -> int:
    """The words that differ from a word of bitset x at most in the digit of
    weight w: every digit's bits gathered onto digit 0 and broadcast back.

    ``zero`` marks the words whose digit is 0. Windows of k = 1, 2, 4, ...
    digits double by shifts, and each k in q's binary digits takes the
    window at digit q & -2k (q with its bits up to k cleared): these tile
    digits 0..q-1 exactly, so no window reaches into the next block.
    """
    parts, window, k = [], x, 1
    while True:
        if q & k:
            parts.append(window >> ((q & -2 * k) * w))
        if 2 * k > q:
            break
        window |= window >> (k * w)
        k *= 2
    parts, span, k = [], reduce(or_, parts) & zero, 1
    while True:
        if q & k:
            parts.append(span << ((q & -2 * k) * w))
        if 2 * k > q:
            break
        span |= span << (k * w)
        k *= 2
    return reduce(or_, parts)


def random_code(
    q: int, t: int, r: int, target_size: int | None = None, seed: int = 0
) -> CoveringCode:
    """Sample target_size words i.i.d. uniform and verify; retry with derived
    seeds, then fail. The attempts share one draw cap: at most 10, and at
    most VERIFY_MAX_SPACE // (target_size * t) of them, so that all of them
    together draw at most VERIFY_MAX_SPACE symbols.

    target_size defaults to code_size_bound(q, t, r), computed only once the
    q^t verification cap has passed (the bound is a float of q^t). The
    target_size * t symbols an attempt draws are held to the same cap before
    the first draw, so there is at least one attempt, and a target_size
    whose balls hold fewer than q^t words in all (the sphere bound) is
    refused then too. Duplicates among the samples are collapsed, so the
    returned code may hold fewer than target_size distinct words.
    """
    _check_params(q, t, r)
    if target_size is not None and target_size < 1:
        raise ValueError("target_size must be >= 1")
    if q**t > VERIFY_MAX_SPACE:
        raise ResourceCapError(f"q^t = {q**t} too large to verify a random code")
    if target_size is None:
        target_size = code_size_bound(q, t, r)
    reach = target_size * ball_volume(q, t, r)
    if reach < q**t:
        raise CodeConstructionError(
            f"{target_size} words reach at most {reach} of the {q**t} words within radius {r}"
        )
    if target_size * t > VERIFY_MAX_SPACE:
        raise ResourceCapError(f"{target_size * t} symbols to draw exceed {VERIFY_MAX_SPACE}")
    attempts = min(10, VERIFY_MAX_SPACE // (target_size * t))
    for attempt in range(attempts):
        rng = random.Random(f"randcode:{seed}:{attempt}")
        words = {tuple(rng.randint(1, q) for _ in range(t)) for _ in range(target_size)}
        code = CoveringCode._unchecked(q, t, r, tuple(sorted(words)))
        if verify_cover(code):
            return code
    plural = "s" if attempts > 1 else ""
    raise CodeConstructionError(
        f"no covering code of size {target_size} found for (q={q}, t={t}, r={r}) "
        f"after {attempts} attempt{plural} (seed {seed}); raise target_size"
    )


def greedy_set_cover(
    num_points: int,
    num_sets: int,
    set_size: int,
    members: Callable[[int], Iterable[int]],
    containing: Callable[[int], Iterable[int]],
) -> list[int]:
    """Greedy set cover of points 0..num_points-1 by sets 0..num_sets-1.

    ``members(s)`` yields the set_size points of set s and ``containing(p)``
    the sets that hold point p; every point must lie in some set. Repeatedly
    picks the set covering the most uncovered points, breaking ties toward
    the lowest index, and returns the picks in order. Gains are kept per set,
    so the updates cost O(num_points * sets per point).

    The argmax is a falling maximum ``top``: gains only fall, so no set up
    to the last pick, all below ``top`` once it is made, reaches ``top``
    again, and the next pick is the first set after the last pick whose
    gain is still ``top``. When none is left, ``top`` becomes the new
    maximum and the scan restarts at 0. The picks made at one maximum scan
    the gains at most once between them, and the fall to it costs one
    failed scan and one max pass: at most three passes per distinct
    maximum, where ``gain.index(max(gain))`` makes two per pick.
    """
    gain = [set_size] * num_sets
    covered = bytearray(num_points)
    uncovered = num_points
    chosen: list[int] = []
    top, start = set_size, 0
    while uncovered:
        try:
            best = gain.index(top, start)
        except ValueError:
            top, start = max(gain), 0
            if top == 0:
                raise ValueError("some point lies in no set") from None
            continue
        start = best + 1
        chosen.append(best)
        for p in members(best):
            if not covered[p]:
                covered[p] = 1
                uncovered -= 1
                for s in containing(p):
                    gain[s] -= 1
    return chosen


def _rotations(q: int, t: int) -> list[list[tuple[int, int, int, int]]]:
    """Per position (weight w = q^p), per nonzero offset a: the shifts and
    masks that give every word the bit of the word whose digit there is
    higher by a, mod q. A word with digit d < q - a reads d + a, a right
    shift by a*w under the mask of digits below q - a; the rest wrap round
    to d + a - q, a left shift by (q - a)*w under the mask of the others."""
    space = q**t
    full = (1 << space) - 1
    out = []
    w = 1
    for _ in range(t):
        rots = []
        for a in range(1, q):
            low = _periodic_mask((1 << (q - a) * w) - 1, q * w, space)
            rots.append((a * w, low, (q - a) * w, full ^ low))
        out.append(rots)
        w *= q
    return out


def _add(a: list[int], b: list[int]) -> list[int]:
    """The sum of two bit-sliced counters (plane i holds bit i of every count)."""
    if len(a) < len(b):
        a, b = b, a
    out = []
    carry = 0
    for i, x in enumerate(a):
        if i < len(b):
            y = b[i]
            s = x ^ y
            out.append(s ^ carry)
            carry = (x & y) | (carry & s)
        elif carry:
            out.append(x ^ carry)
            carry &= x
        else:
            out += a[i:]
            return out
    if carry:
        out.append(carry)
    return out


def _gains(uncovered: int, r: int, rotations: list) -> list[int]:
    """Bit-sliced |ball_r(w) & uncovered| for every word w.

    Layer s counts the uncovered words that differ from w in exactly s of
    the positions seen so far and agree on the rest; each position adds to
    layer s every rotation of that digit of layer s-1 (s falling, as in
    _ball_layers). The gain is the sum of the layers.
    """
    layers = [[uncovered]] + [[] for _ in range(r)]
    for seen, rots in enumerate(rotations):
        for s in range(min(r, seen + 1), 0, -1):
            below, acc = layers[s - 1], layers[s]
            for down, low, up, high in rots:
                acc = _add(acc, [(p >> down) & low | (p << up) & high for p in below])
            layers[s] = acc
    total = layers[0]
    for layer in layers[1:]:
        total = _add(total, layer)
    return total


def _dilate(x: int, r: int, rotations: list) -> int:
    """The words within distance r of a word of bitset x."""
    for _ in range(r):
        grown = x
        for rots in rotations:
            for down, low, up, high in rots:
                grown |= (x >> down) & low | (x << up) & high
        x = grown
    return x


def _moved(x: int, idx: int, q: int, rotations: list) -> int:
    """Bitset x translated by word idx (digitwise mod q): for each nonzero
    digit d of idx, every word of x moves up by d in that digit, so word 0
    lands on idx."""
    for rots in rotations:
        idx, d = divmod(idx, q)
        if d:
            down, low, up, high = rots[q - d - 1]
            x = (x >> down) & low | (x << up) & high
    return x


def _greedy_bitsliced(q: int, t: int, r: int) -> list[int]:
    """greedy_set_cover's picks over {1..q}^t with radius-r balls, from
    bit-sliced gains of all words at once.

    ``ties`` holds the words whose gain is the current maximum. Gains only
    fall, so while some word keeps that maximum the next pick is the lowest
    such word; a pick lowers exactly the words within r of the points it
    newly covers, and those leave ``ties``. When none is left the gains are
    counted again: one _gains pass per distinct maximum at most. The balls
    of radius r and 2r around word 0 are built once and moved onto each
    pick; when a pick covers its whole ball, the words it lowers are its
    radius-2r ball.
    """
    rotations = _rotations(q, t)
    ball0 = _dilate(1, r, rotations)
    reach0 = _dilate(ball0, r, rotations)
    uncovered = full = (1 << q**t) - 1
    ties = 0
    chosen: list[int] = []
    while uncovered:
        if not ties:
            ties = full
            for plane in reversed(_gains(uncovered, r, rotations)):
                if ties & plane:
                    ties &= plane
        best = (ties & -ties).bit_length() - 1
        chosen.append(best)
        ball = _moved(ball0, best, q, rotations)
        newly = ball & uncovered
        uncovered ^= newly
        ties ^= 1 << best
        if ties:
            if newly == ball:
                ties &= ~_moved(reach0, best, q, rotations)
            else:
                ties &= ~_dilate(newly, r, rotations)
    return chosen


def _bitsliced_pays(q: int, t: int, r: int, volume: int) -> bool:
    """Whether greedy_code takes _greedy_bitsliced rather than
    greedy_set_cover, by estimated work from (q, t, r) and the ball volume
    alone.

    greedy_set_cover makes q^t * |ball| gain updates. The bit-sliced build
    makes about q^t / |ball| picks, and each moves or dilates a ball by up
    to r * t * (q-1) rotations of a q^t-bit int, about q^t / 64 + 64
    machine words each; one gain update costs about as much as 8 such
    words. So the bit-sliced build wins when |ball|^2 is large against
    r * t * (q-1) * (q^t / 64 + 64): at every r >= 2 inside the cap, and at
    r = 1 only for small spaces, for example (2,11,1) but not (2,12,1).
    Below 512 gain updates the set cover takes some tens of microseconds,
    less than the masks and counters the bit-sliced build sets up.
    """
    if q**t * volume < 512:
        return False
    return r * t * (q - 1) * (q**t // 64 + 64) <= 8 * volume**2


def check_greedy_cap(q: int, t: int, r: int) -> None:
    """Raise ResourceCapError when greedy_code(q, t, r) costs more than
    GREEDY_MAX_UPDATES gain updates; builds nothing.

    For r >= 1 the cost is the set cover's, which bounds both builds:
    q^t * |ball| gain updates plus argmax scans that stay within about
    three times the updates (see greedy_set_cover). A radius-0 code is
    built at once, but it is all q^t words, and each is charged the
    1 + t(q-1) of a radius-1 ball: that bounds what writing the code and
    re-verifying it on reload cost. As q^t alone bounds the cost from
    below, a long word is refused before its ball volume is computed.
    """
    _check_params(q, t, r)
    # as q >= 2, the test on t alone keeps q^t small
    if t >= GREEDY_MAX_UPDATES.bit_length() or q**t > GREEDY_MAX_UPDATES:
        raise ResourceCapError(
            f"greedy code (q={q}, t={t}, r={r}) needs at least q^t = {q}^{t} gain updates, "
            f"beyond the cap {GREEDY_MAX_UPDATES:.0e}; use a smaller --t"
        )
    cost = q**t * max(ball_volume(q, t, r), 1 + t * (q - 1))
    if cost > GREEDY_MAX_UPDATES:
        raise ResourceCapError(
            f"greedy code (q={q}, t={t}, r={r}) needs {cost} gain updates, "
            f"beyond the cap {GREEDY_MAX_UPDATES:.0e}; use a smaller --t"
        )


def greedy_code(q: int, t: int, r: int) -> CoveringCode:
    """Greedy set cover over {1..q}^t with radius-r balls as the sets.

    Ties break toward the lexicographically smallest center: each pick is
    the lowest-index word of largest gain, as in greedy_set_cover. At r = 0
    every word is a pick, in index order, so the code is the product of t
    one-digit blocks: it covers by construction and holds only its blocks.
    For r >= 1 two builds make exactly these picks, and _bitsliced_pays
    chooses between them: greedy_set_cover over ball index lists, or
    _greedy_bitsliced over bitsets of all q^t words; the result is
    exhaustively verified before it is returned. check_greedy_cap refuses a
    code beyond the cap before anything is built.
    """
    check_greedy_cap(q, t, r)
    if r == 0:
        digits = tuple((s,) for s in range(1, q + 1))
        code = CoveringCode._unchecked(q, t, 0, BlockProduct([digits] * t))
        code.verified = True
        return code
    space, volume = q**t, ball_volume(q, t, r)
    if _bitsliced_pays(q, t, r, volume):
        centers = _greedy_bitsliced(q, t, r)
    else:
        ball = _ball_of(q, t, r)
        centers = greedy_set_cover(space, space, volume, ball, ball)
    code = CoveringCode._unchecked(q, t, r, tuple(_word_of(idx, q, t) for idx in sorted(centers)))
    if not verify_cover(code):
        raise CodeConstructionError(f"greedy code (q={q}, t={t}, r={r}) failed verification")
    return code


def _ceil_fraction(x: float) -> int:
    # guards against float noise just above an integer boundary
    return math.ceil(x - 1e-9)


OUTER_BLOCK_LEN = 12


def boolean_cover(
    n: int, rho: float, *, cache_dir: str | os.PathLike | None = None
) -> CoveringCode:
    """Covering code for {0,1}^n: the product of blocks of OUTER_BLOCK_LEN bits.

    Each full block is get_code's code of 12 bits and radius ceil(rho*12):
    the searched code where SEARCHED_CODES holds one, else the greedy code; a
    shorter final block covers the residual coordinates at the same radius
    fraction. The returned radius is the realized per-block sum, which may
    exceed rho*n slightly when blocks round up. A lone block (0 < n <= 12)
    is returned as is. Blocks are verified once, where get_code builds or
    loads them; covering holds blockwise, so the product is verified
    without another check.
    """
    if not 0 < rho <= 0.5:
        raise ValueError("rho must lie in (0, 1/2]")
    b = OUTER_BLOCK_LEN
    lengths = [b] * (n // b) + ([n % b] if n % b else [])
    blocks = [get_code(2, t, _ceil_fraction(rho * t), cache_dir=cache_dir) for t in lengths]
    for block in blocks:
        if not block.verified:
            raise CodeConstructionError(f"outer block (2, {block.t}) is not verified")
    if len(blocks) == 1:
        return blocks[0]
    words = BlockProduct(block.words for block in blocks)
    code = CoveringCode._unchecked(2, n, sum(block.r for block in blocks), words)
    code.verified = True
    code.bit_words = BlockProduct(block.bit_words for block in blocks)
    return code


def get_code(
    q: int, t: int, r: int, *, cache_dir: str | os.PathLike | None = None
) -> CoveringCode:
    """The code the solvers use at (q, t, r), built or loaded once by
    _load_code and kept in its memo: the searched code of SEARCHED_CODES
    where it holds one, under the one key (q, t, r, None), so it is never
    read from or written to cache_dir; else greedy_code(q, t, r), one entry
    per (q, t, r, cache_dir), where a dir given as a path or as its str is
    one entry, and a cache_dir also keeps the code on disk. A radius-0 code,
    a product built in microseconds, is never cached.

    The memo keeps the 32 most recent codes. The solvers' codes take a few
    KB each with their bit_words (tracemalloc): an outer (2,12,4) block about
    5 KB, an inner (3,6,2) code about 4 KB. The largest the greedy cap
    admits, (2,20,1), takes about 27 MB, so 32 entries take at most about
    0.9 GB, and only when that code is asked for under 32 cache dirs."""
    if r == 0:
        return greedy_code(q, t, 0)
    if (q, t, r) in SEARCHED_CODES:
        cache_dir = None
    return _load_code(q, t, r, None if cache_dir is None else os.fspath(cache_dir))


@lru_cache(maxsize=32)
def _load_code(q: int, t: int, r: int, cache_dir: str | None) -> CoveringCode:
    """The code of SEARCHED_CODES at (q, t, r), exhaustively verified here
    (CodeConstructionError if it does not cover); else greedy_code(q, t, r),
    or with a cache_dir its file there: re-verified on load, and rebuilt and
    rewritten when missing, stale or corrupt."""
    if (q, t, r) in SEARCHED_CODES:
        shipped = SEARCHED_CODES[q, t, r].split()
        code = CoveringCode(q, t, r, [tuple(int(digit) + 1 for digit in word) for word in shipped])
        if not verify_cover(code):
            raise CodeConstructionError(f"searched code (q={q}, t={t}, r={r}) failed verification")
        return code
    if cache_dir is None:
        return greedy_code(q, t, r)
    from .formats import read_code, write_code  # local import; formats imports this module

    path = os.path.join(cache_dir, f"greedy_q{q}_t{t}_r{r}.code")
    try:
        with open(path, "rb") as fh:
            cached = read_code(fh.read())
    except (ParseError, OSError):
        cached = None  # missing, stale or corrupt cache entry: rebuild
    if cached is not None and (cached.q, cached.t, cached.r) == (q, t, r) and verify_cover(cached):
        return cached
    code = greedy_code(q, t, r)
    os.makedirs(cache_dir, exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(write_code(code))
    return code
