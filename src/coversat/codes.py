"""q-ary covering codes: volumes, size bounds, constructions, verification.

Words are tuples of symbols in 1..q, length t. A code has covering radius r
when every word of {1..q}^t lies within Hamming distance r of some codeword.
Internally words map to integers via the mixed-radix index
``sum((sym_i - 1) * q^(t-1-i))``, so numeric order equals lexicographic order.
"""

from __future__ import annotations

import math
import os
import random
import sys
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from itertools import accumulate, chain, combinations, product
from operator import eq

from .errors import CodeConstructionError, ResourceCapError

Word = tuple[int, ...]

# greedy_code's cost (see its docstring); on a 2-core VM the slowest builds
# measured inside the cap take about 5.5 s, (9,6,1), and 11 s at r = 0, (2,20,0)
GREEDY_MAX_UPDATES = 3 * 10**7
VERIFY_MAX_SPACE = 10**7


class BlockProduct:
    """Concatenations of one item per block, in itertools.product order: sorted
    when each block is sorted and its items share a length. Holds only the blocks."""

    def __init__(self, blocks: Iterable[tuple]) -> None:
        self.blocks = tuple(blocks)
        if math.prod(map(len, self.blocks)) > sys.maxsize:
            raise ResourceCapError("product cover too large for len() to count its items")

    def __len__(self) -> int:
        return math.prod(map(len, self.blocks))

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

    ``verified`` is set by verify_cover (or by boolean_cover for a product
    of verified blocks, whose words are a BlockProduct) and is excluded from
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
    def _unchecked(cls, q: int, t: int, r: int, words: BlockProduct) -> CoveringCode:
        """``CoveringCode(q, t, r, tuple(words))`` without ``__post_init__``, marked
        verified: the caller has validated the words, in sorted order, and their cover."""
        code = object.__new__(cls)
        code.q, code.t, code.r, code.words, code.verified = q, t, r, words, True
        return code


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


def _xor_masks(t: int, r: int) -> list[int]:
    """All t-bit masks of popcount <= r (binary ball as XOR deltas)."""
    masks = [0]
    for s in range(1, r + 1):
        for positions in combinations(range(t), s):
            m = 0
            for p in positions:
                m |= 1 << (t - 1 - p)
            masks.append(m)
    return masks


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

    At r = 0 the ball is [idx], and no table is built. For q = 2 it is idx
    XOR each mask of _xor_masks. Otherwise a word splits into its first
    t - t//2 digits and its last t//2; a word within distance r of idx is at
    some distance s from idx's first half and within r - s of its second.
    So ball(idx) is one comprehension over two tables built once by
    _ball_layers: for every first half, its layers by exact distance, scaled
    by q^(t//2); for every second half, its neighbours within each distance.
    """
    if r == 0:
        return lambda idx: [idx]
    if q == 2:
        masks = _xor_masks(t, r)

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

    Runs a multi-source BFS out to depth r from all codewords, so the cost
    is O(q^t * t * q) regardless of code size.
    """
    q, t, r = code.q, code.t, code.r
    space = q**t
    if space > VERIFY_MAX_SPACE:
        raise ResourceCapError(
            f"q^t = {space} exceeds exhaustive-verification cap {VERIFY_MAX_SPACE}"
        )
    if t == 0:
        code.verified = len(code.words) > 0
        return code.verified
    seen = bytearray(space)
    queue = deque()
    for word in code.words:
        idx = _index_of(word, q)
        if not seen[idx]:
            seen[idx] = 1
            queue.append((idx, 0))
    count = len(queue)
    pows = [q ** (t - 1 - pos) for pos in range(t)]
    while queue:
        idx, dist = queue.popleft()
        if dist == r:
            continue
        x = idx
        for pos in range(t - 1, -1, -1):
            x, d = divmod(x, q)
            w = pows[pos]
            base = idx - d * w
            for nd in range(q):
                if nd != d:
                    nb = base + nd * w
                    if not seen[nb]:
                        seen[nb] = 1
                        count += 1
                        queue.append((nb, dist + 1))
    code.verified = count == space
    return code.verified


def _random_size(q: int, t: int, r: int, target_size: int | None) -> int:
    """The number of words random_code samples (see its docstring)."""
    _check_params(q, t, r)
    if target_size is not None and target_size < 1:
        raise ValueError("target_size must be >= 1")
    if q**t > VERIFY_MAX_SPACE:
        raise ResourceCapError(f"q^t = {q**t} too large to verify a random code")
    return code_size_bound(q, t, r) if target_size is None else target_size


def random_code(
    q: int, t: int, r: int, target_size: int | None = None, seed: int = 0, retries: int = 10
) -> CoveringCode:
    """Sample target_size words i.i.d. uniform and verify; retry with derived
    seeds up to `retries` attempts, then fail.

    target_size defaults to code_size_bound(q, t, r), computed only once the
    q^t verification cap has passed (the bound is a float of q^t).
    Duplicates among the samples are collapsed, so the returned code may hold
    fewer than target_size distinct words.
    """
    target_size = _random_size(q, t, r, target_size)
    for attempt in range(retries):
        rng = random.Random(f"randcode:{seed}:{attempt}")
        words = tuple(
            tuple(rng.randint(1, q) for _ in range(t)) for _ in range(target_size)
        )
        code = CoveringCode(q, t, r, words)
        if verify_cover(code):
            return code
    raise CodeConstructionError(
        f"no covering code of size {target_size} found for (q={q}, t={t}, r={r}) "
        f"after {retries} attempts (seed {seed}); raise target_size"
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


def greedy_code(q: int, t: int, r: int) -> CoveringCode:
    """Greedy set cover over {1..q}^t with radius-r balls as the sets.

    Ties break toward the lexicographically smallest center (see
    greedy_set_cover). The result is exhaustively verified before it is
    returned. The build costs q^t * |ball| gain updates plus the argmax
    scans of the q^t gains: at most three passes per distinct maximum gain
    (see greedy_set_cover), and the gains are integers in 0..|ball|, so the
    scans stay within about three times the updates. Each pick also builds
    and checks a word of t symbols, and at r = 0 every point is a pick, so
    the one cap, checked before anything is built, charges each point
    max(|ball|, 1 + t(q-1)): the updates of a radius-1 ball, which |ball|
    reaches for every r >= 1.
    """
    _check_params(q, t, r)
    # q^t bounds the cost from below, so a long word is refused before its
    # ball volume and the product are computed, which takes minutes at
    # t = 10^5; as q >= 2, the test on t alone keeps q^t small
    if t >= GREEDY_MAX_UPDATES.bit_length() or q**t > GREEDY_MAX_UPDATES:
        raise ResourceCapError(
            f"greedy code (q={q}, t={t}, r={r}) needs at least q^t = {q}^{t} gain updates, "
            f"beyond the cap {GREEDY_MAX_UPDATES:.0e}; use a smaller --t"
        )
    space, volume = q**t, ball_volume(q, t, r)
    cost = space * max(volume, 1 + t * (q - 1))
    if cost > GREEDY_MAX_UPDATES:
        raise ResourceCapError(
            f"greedy code (q={q}, t={t}, r={r}) needs {cost} gain updates, "
            f"beyond the cap {GREEDY_MAX_UPDATES:.0e}; use a smaller --t"
        )
    ball = _ball_of(q, t, r)
    centers = greedy_set_cover(space, space, volume, ball, ball)
    code = CoveringCode(q, t, r, tuple(_word_of(idx, q, t) for idx in centers))
    if not verify_cover(code):
        raise CodeConstructionError(f"greedy code (q={q}, t={t}, r={r}) failed verification")
    return code


def _ceil_fraction(x: float) -> int:
    # guards against float noise just above an integer boundary
    return math.ceil(x - 1e-9)


def boolean_cover(
    n: int, rho: float, b: int, *, cache_dir: str | os.PathLike | None = None
) -> CoveringCode:
    """Covering code for {0,1}^n: the product of greedy blocks of length b.

    Each full block is a greedy code of radius ceil(rho*b); a shorter final
    block covers the residual coordinates at the same radius fraction. The
    returned radius is the realized per-block sum, which may exceed rho*n
    slightly when blocks round up. A lone block (0 < n <= b) is returned as is.
    Blocks are verified once, where get_code builds or loads them; covering
    holds blockwise, so the product is verified without another check.
    """
    if not 0 < rho <= 0.5:
        raise ValueError("rho must lie in (0, 1/2]")
    if not 1 <= b <= 20:
        raise ValueError("block length must lie in 1..20")
    lengths = [b] * (n // b) + ([n % b] if n % b else [])
    blocks = [
        get_code(2, t, _ceil_fraction(rho * t), "greedy", cache_dir=cache_dir) for t in lengths
    ]
    for block in blocks:
        if not block.verified:
            raise CodeConstructionError(f"greedy block (2, {block.t}) is not verified")
    if len(blocks) == 1:
        return blocks[0]
    words = BlockProduct(block.words for block in blocks)
    return CoveringCode._unchecked(2, n, sum(block.r for block in blocks), words)


_memory_cache: dict[tuple, CoveringCode] = {}


def get_code(
    q: int,
    t: int,
    r: int,
    method: str = "greedy",
    *,
    size: int | None = None,
    seed: int = 0,
    cache_dir: str | os.PathLike | None = None,
) -> CoveringCode:
    """Construct a code, reusing an in-memory and optional on-disk cache.

    Cache keys include the construction method so greedy and random codes
    never alias, and a random code's key holds its resolved size, so the
    default size and the same size passed explicitly share one entry. Disk
    entries are re-verified on load and rebuilt if stale.
    """
    if method not in ("greedy", "random"):
        raise ValueError(f"unknown construction method {method!r}")
    if method == "random":
        size = _random_size(q, t, r, size)
    key = (q, t, r, method, size, seed)
    path = None
    if cache_dir is not None:
        name = f"{method}_q{q}_t{t}_r{r}"
        if method == "random":
            name += f"_s{size}_seed{seed}"
        path = os.path.join(cache_dir, name + ".code")
    code = _memory_cache.get(key)
    if code is not None:
        if path is not None and not os.path.exists(path):
            _write_code_file(code, cache_dir, path)
        return code
    if path is not None:
        if os.path.exists(path):
            from .errors import ParseError
            from .formats import read_code  # local import; formats imports this module

            try:
                with open(path, "rb") as fh:
                    cached = read_code(fh.read())
            except (ParseError, OSError):
                cached = None  # stale or corrupt cache entry: rebuild
            if (
                cached is not None
                and (cached.q, cached.t, cached.r) == (q, t, r)
                and verify_cover(cached)
            ):
                _memory_cache[key] = cached
                return cached
    if method == "greedy":
        code = greedy_code(q, t, r)
    else:
        code = random_code(q, t, r, size, seed)
    _memory_cache[key] = code
    if path is not None:
        _write_code_file(code, cache_dir, path)
    return code


def _write_code_file(code: CoveringCode, cache_dir, path: str) -> None:
    from .formats import write_code

    os.makedirs(cache_dir, exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(write_code(code))
