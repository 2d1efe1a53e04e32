"""(d,<=k)-CSP: data model, 2-box covers of {1..d}^n, reduction to Boolean
CNF, and the end-to-end solver.

A constraint is a disjunction of literals (x_v != c). A 2-box restricts
every variable to a 2-value subset of the domain; restricting a CSP to a
2-box yields a (<=k)-CNF whose satisfying assignments are exactly the
satisfying CSP assignments inside the box. Covering {1..d}^n with 2-boxes
therefore reduces CSP solving to a family of k-SAT instances.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial, reduce
from itertools import combinations, compress, groupby, product
from operator import itemgetter, or_
from typing import Iterable

from .cnf import Formula
from .codes import BlockProduct, _product_indices
from .errors import CodeConstructionError, ResourceCapError
from .solver import SolveResult, SolverConfig, SolveStats, _first_solution, _timed, first_witness
from .solver import solve_deterministic

BOX_VERIFY_MAX = 10**6
# bits of the int in which verify_box_cover marks the points of a box's last
# coordinates: d^low <= BOX_LOW_BITS for its `low` of them
BOX_LOW_BITS = 1 << 12
# characters of the restriction table's rows, m * n * d (csp-d3's are 8,505)
RESTRICTION_MAX_CHARS = 10**7
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")

# 2-box blocks of {1..d}^b for b = 1, 2, ..., found by the seeded local search
# of tools/search_covers.py (seed 1 for each; 0, 6, 18, 35, 352 and 1007
# moves for b = 1..6). A box is one digit per coordinate, the index of its
# pair in combinations(range(1, d + 1), 2): for d = 3, 0 is (1, 2), 1 is
# (1, 3) and 2 is (2, 3). Each block holds the all-(1, 2) box, so the
# product cover visits it first. The d = 3 sizes are 2, 3, 5, 8, 12 and 18,
# where a lexicographic greedy set cover takes 2, 3, 6, 9 and 16 boxes for
# b = 1..5 and the volume bound ceil((3/2)^b) is 2, 3, 4, 6, 8 and 12.
# _box_block gives these blocks to the coordinates in the triple {1, 2, 3}
# of every odd d.
SEARCHED_BOX_BLOCKS = {
    3: (
        "0 2",
        "00 12 21",
        "000 021 112 201 220",
        "0000 0121 0202 1012 1210 2020 2101 2222",
        "00000 01110 02122 02201 10011 11101 11222 12210 20102 20221 21012 22020",
        "000000 002212 011110 012021 020122 021201 100221 101102 110012 112200 121020 "
        "122111 201011 202120 210101 211222 220210 222002",
    ),
}

Constraint = tuple[tuple[int, int], ...]
TwoBox = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CspFormula:
    """Conjunction of constraints over n variables with domain {1..d}."""

    domain_size: int
    num_vars: int
    constraints: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        if self.domain_size < 1:
            raise ValueError("domain size must be >= 1")
        if self.num_vars < 0:
            raise ValueError("num_vars must be >= 0")
        object.__setattr__(
            self,
            "constraints",
            tuple(tuple((int(v), int(c)) for v, c in con) for con in self.constraints),
        )
        for constraint in self.constraints:
            if not constraint:
                raise ValueError("empty constraint (unsatisfiable literal list)")
            seen = set()
            for v, c in constraint:
                if not 1 <= v <= self.num_vars:
                    raise ValueError(f"variable {v} out of range")
                if not 1 <= c <= self.domain_size:
                    raise ValueError(f"value {c} outside domain 1..{self.domain_size}")
                if v in seen:
                    raise ValueError(f"variable {v} repeated within a constraint")
                seen.add(v)

    @classmethod
    def _unchecked(
        cls, domain_size: int, num_vars: int, constraints: tuple[Constraint, ...]
    ) -> CspFormula:
        """A formula whose constraints the caller has already validated:
        non-empty tuples of int (variable, value) pairs over distinct
        variables in 1..num_vars and values in 1..domain_size, with
        domain_size >= 1 and num_vars >= 0. Skips ``__post_init__``; equal
        to ``CspFormula(domain_size, num_vars, constraints)``."""
        f = object.__new__(cls)
        object.__setattr__(f, "domain_size", domain_size)
        object.__setattr__(f, "num_vars", num_vars)
        object.__setattr__(f, "constraints", constraints)
        return f

    @property
    def max_width(self) -> int:
        return max((len(c) for c in self.constraints), default=0)

    @cached_property
    def _restriction(self) -> tuple[tuple[int, ...], tuple[itemgetter, ...], tuple[str, ...]]:
        """(masks, getters, rows): which constraint holds which literal, a
        literal (x_v != c) indexed (v-1)*d + c-1. rows[i] is constraint i as
        n*d '0'/'1' characters, '1' at each literal it holds; getters[i]
        reads constraint i's entries, in its order and as a tuple, from a
        tuple indexed by literal; masks[j] has bit i set iff constraint i
        holds literal j. Built in one pass over the constraints on first use
        and stored on the instance (restrict_to_box reads it for every box);
        plain ints, itemgetters and strings, so a pickled formula carries it.
        No part of equality or hashing. Refused with ResourceCapError, before
        any row is built, when m*n*d exceeds RESTRICTION_MAX_CHARS."""
        d, width = self.domain_size, self.num_vars * self.domain_size
        if len(self.constraints) * width > RESTRICTION_MAX_CHARS:
            raise ResourceCapError(
                f"m*n*d = {len(self.constraints) * width} restriction table characters exceed "
                f"the cap {RESTRICTION_MAX_CHARS}"
            )
        getters, rows = [], []
        for constraint in self.constraints:
            lits = [(v - 1) * d + c - 1 for v, c in constraint]
            # itemgetter of one index returns the item itself, of a slice a tuple
            getters.append(
                itemgetter(*lits) if len(lits) > 1 else itemgetter(slice(lits[0], lits[0] + 1))
            )
            row = bytearray(b"0" * width)
            for j in lits:
                row[j] = ord("1")
            rows.append(row.decode())
        # joined last first, the characters of literal j (every width-th from
        # j) are the binary digits of its mask, the last constraint's most
        # significant
        joined = "".join(reversed(rows))
        masks = tuple(int(joined[j::width] or "0", 2) for j in range(width))
        return masks, tuple(getters), tuple(rows)


def csp_evaluate(f: CspFormula, alpha: tuple[int, ...]) -> bool:
    """True iff every constraint has a literal (x_v != c) with alpha[v] != c."""
    if len(alpha) != f.num_vars:
        raise ValueError("assignment length does not match formula")
    for value in alpha:
        if not 1 <= value <= f.domain_size:
            raise ValueError(f"value {value} outside domain 1..{f.domain_size}")
    for constraint in f.constraints:
        for v, c in constraint:
            if alpha[v - 1] != c:
                break
        else:
            return False
    return True


class _Parts(dict):
    """A dict that builds, stores and returns build(part) for a missing part."""

    def __init__(self, build) -> None:
        self.build = build

    def __missing__(self, part):
        value = self[part] = self.build(part)
        return value


def verify_box_cover(boxes: Iterable[TwoBox], d: int, n: int) -> bool:
    """Exhaustive check that every point of {1..d}^n lies in some box. A box
    of arity other than n, or with an item that is not a pair
    1 <= lo < hi <= d, fails the check. Capped at d^n <= 10^6.

    The points are read as bits. The last `low` coordinates, the most whose
    d^low points fit BOX_LOW_BITS, are one int: a box's low part sets the
    bits of its 2^low points there. The other, high, coordinates index acc,
    d^(n - low) such ints. The low ints of consecutive boxes with one high
    part are ORed together, then into acc at each of that part's indices,
    and each distinct low or high part is read once. The boxes cover iff
    every entry of acc is full. With no high coordinate the boxes' ints are
    ORed at once; one-coordinate boxes, whose d may exceed BOX_LOW_BITS,
    mark their values in a bytearray.
    """
    if d**n > BOX_VERIFY_MAX:
        raise ResourceCapError(f"d^n = {d**n} exceeds box-cover verification cap")
    if n == 1:
        return _covers_values(boxes, d)
    low = 0
    while low < n and d ** (low + 1) <= BOX_LOW_BITS:
        low += 1
    high = n - low
    full = (1 << d**low) - 1
    weights = [d**i for i in range(low)]  # of the low coordinates from the last: the int starts small

    def low_bits(part: TwoBox) -> int:
        if len(part) != low:
            raise ValueError
        bits = 1
        for (lo, hi), w in zip(reversed(part), weights):
            if not 1 <= lo < hi <= d:
                raise ValueError
            bits = (bits << (lo - 1) * w) | (bits << (hi - 1) * w)
        return bits

    def high_indices(part: TwoBox) -> list[int]:
        if len(part) != high or not all(1 <= lo < hi <= d for lo, hi in part):
            raise ValueError
        return _product_indices(d, [(lo - 1, hi - 1) for lo, hi in part])

    try:
        if not high:
            return reduce(or_, map(low_bits, boxes), 0) == full
        lows, highs = _Parts(low_bits), _Parts(high_indices)
        low_part = itemgetter(slice(high, None))
        acc = [0] * d**high
        for part, group in groupby(boxes, itemgetter(slice(0, high))):
            bits = reduce(or_, map(lows.__getitem__, map(low_part, group)))
            for j in highs[part]:
                acc[j] |= bits
    except ValueError:  # a wrong arity, or an item that is no valid pair
        return False
    return all(map(full.__eq__, acc))


def _covers_values(boxes: Iterable[TwoBox], d: int) -> bool:
    """verify_box_cover for n = 1: each box marks the two values of its
    pair in a bytearray, and every value must be marked."""
    marked = bytearray(d + 1)  # by value; 0 is none
    try:
        for ((lo, hi),) in boxes:
            if not 1 <= lo < hi <= d:
                return False
            marked[lo] = marked[hi] = 1
    except ValueError:  # a wrong arity, or an item that is no pair
        return False
    return marked.count(0) == 1


@lru_cache(maxsize=2)
def _box_block(d: int, length: int) -> tuple[TwoBox, ...]:
    """The 2-box block of {1..d}^length, sorted, built once per (d, length).
    Two blocks are kept: a cover reads at most two, b and the remainder, and
    one block can be large (the (999999, 1) block holds 500,000 boxes, about
    88 MB).

    The values split into parts that tile them: the pairs (v, v + 1), and
    for odd d the triple {1, 2, 3} first. For each set of coordinates put
    on the triple (all of them for d = 3, none for even d), those take each
    box of the searched d = 3 block of their number (SEARCHED_BOX_BLOCKS,
    only the rows read are parsed) and the others every choice of pairs,
    one itertools.product per box of that block; with every coordinate on
    the triple the parsed rows are the boxes. A point lies in the choice of
    its values' parts, so the block covers. It is exhaustively verified
    here, and refused with ResourceCapError before any box is built when
    d^length exceeds BOX_VERIFY_MAX.
    """
    if d**length > BOX_VERIFY_MAX:
        raise ResourceCapError(f"d^b = {d**length} exceeds box-cover verification cap")
    pairs = [(v, v + 1) for v in range(4 if d % 2 else 1, d, 2)]
    triple_pairs = dict(zip("012", combinations((1, 2, 3), 2)))
    triple_blocks: dict[int, list[TwoBox]] = {}
    block: list[TwoBox] = []
    # True puts a coordinate on the triple: d = 3 has no pair, even d no triple
    for on_triple in product([False] * bool(pairs) + [True] * (d % 2), repeat=length):
        k = sum(on_triple)
        if k not in triple_blocks:
            row = SEARCHED_BOX_BLOCKS[3][k - 1].split() if k else [""]
            triple_blocks[k] = [tuple(map(triple_pairs.__getitem__, box)) for box in row]
        if k == length:
            block += triple_blocks[k]
            continue
        for sub in triple_blocks[k]:
            fill = iter(sub)
            block += product(*[[next(fill)] if on else pairs for on in on_triple])
    block.sort()
    if not verify_box_cover(block, d, length):
        raise CodeConstructionError(f"2-box block (d={d}, b={length}) failed verification")
    return tuple(block)


def two_box_cover(d: int, n: int) -> BlockProduct:
    """Cover {1..d}^n with 2-boxes: the product of _box_block covers of b
    coordinates each (the last block takes the remainder), in sorted order.

    Each block is exhaustively verified on its d^b points where it is
    built; covering holds blockwise, so the product needs no further check.
    Even d takes b = 1: its blocks are the pairs {2j-1, 2j}, so the cover is
    exactly (d/2)^n boxes. Odd d takes the largest b <= min(6, n) whose d^b
    points fit BOX_VERIFY_MAX; for d = 3 that is b = min(6, n), and no other
    split of n <= 24 into lengths 1..6 has fewer boxes.
    """
    if d < 2:
        raise ValueError("domain size must be >= 2 for a 2-box cover")
    if n < 1:
        raise ValueError("need at least one variable")
    if d % 2 == 0:
        b = 1
    else:
        longest = min(len(SEARCHED_BOX_BLOCKS[3]), n)
        b = max((k for k in range(1, longest + 1) if d**k <= BOX_VERIFY_MAX), default=1)
    lengths = [b] * (n // b) + ([n % b] if n % b else [])
    return BlockProduct(_box_block(d, t) for t in lengths)


def restrict_to_box(f: CspFormula, box: TwoBox) -> Formula:
    """Boolean CNF equisatisfiable with F inside the box.

    Boolean variable y_v=1 means x_v takes the larger value of its pair.
    A literal (x_v != c) with c outside the pair is vacuously true and
    drops its whole constraint; c equal to the smaller value maps to y_v,
    to the larger value maps to -y_v.

    Everything below reads the formula's one table, CspFormula._restriction.
    The dropped constraints are the OR of one literal's constraint mask per
    variable and value outside its pair. The kept ones are a gather done in
    C: itertools.compress picks their getters by the bits of the kept set,
    and each getter reads its constraint's clause from a table of the box's
    n*d literals. The result's literal_masks are read from the kept
    constraints' rows, joined last first, as the table's masks are from all
    rows: the characters of literal j, every n*d-th from j, are the binary
    digits of the mask of the clauses holding it, the last clause's most
    significant. The result is built with Formula._unchecked: CspFormula
    has already checked that each constraint's variables are distinct and
    lie in 1..n, and a reduced clause is those same variables with signs.
    """
    if len(box) != f.num_vars:
        raise ValueError("box arity does not match formula")
    d = f.domain_size
    masks, getters, constraint_rows = f._restriction
    width = len(masks)
    table = [0] * width
    dropped = 0
    for v, (lo, hi) in enumerate(box, 1):
        if not (1 <= lo < hi <= d):
            raise ValueError(f"invalid pair ({lo}, {hi})")
        base = (v - 1) * d - 1
        table[base + lo] = v
        table[base + hi] = -v
        for c in range(1, d + 1):
            if c != lo and c != hi:
                dropped |= masks[base + c]
    # byte i of kept, lowest bit first, is 1 iff constraint i survives
    kept = bin(((1 << len(getters)) - 1) ^ dropped)[:1:-1].encode().translate(_BIT_BYTES)
    table = tuple(table)
    clauses = tuple([g(table) for g in compress(getters, kept)])
    rows = "".join(reversed([*compress(constraint_rows, kept)]))
    # (x_v != hi) is -y_v and (x_v != lo) is y_v: the (neg, pos) masks of v
    literal_masks = tuple(
        (int(rows[base + hi :: width] or "0", 2), int(rows[base + lo :: width] or "0", 2))
        for base, (lo, hi) in zip(range(-1, width - 1, d), box)
    )
    return Formula._unchecked(f.num_vars, clauses, literal_masks)


def decode_box_witness(box: TwoBox, bits: tuple[int, ...]) -> tuple[int, ...]:
    """Map a Boolean witness of the reduced CNF back into the box."""
    return tuple(hi if bit else lo for (lo, hi), bit in zip(box, bits))


@_timed
def brute_force_csp(f: CspFormula) -> SolveResult:
    """Exhaustive d-ary oracle; first satisfying assignment in
    lexicographic order. Capped at n*d*d^n <= 2^30 (see solver._chunks)."""
    witness = _first_solution(f.domain_size, f.num_vars, f.constraints)
    if witness is None:
        return SolveResult("unsat", None)
    if not csp_evaluate(f, witness):
        raise AssertionError("internal error: brute-force witness failed re-verification")
    return SolveResult("sat", witness)


def _solve_box(f: CspFormula, cfg: SolverConfig, box: TwoBox, stats: SolveStats):
    """Solve F inside one 2-box: its Boolean restriction, counted into stats,
    then the decoded witness."""
    sub = solve_deterministic(restrict_to_box(f, box), cfg)
    stats.merge(sub.stats)
    stats.boxes_tried += 1
    witness = decode_box_witness(box, sub.witness) if sub.status == "sat" else None
    if witness is not None and not csp_evaluate(f, witness):
        raise AssertionError("internal error: decoded witness failed re-verification")
    return witness


@_timed
def solve_csp(f: CspFormula, cfg: SolverConfig | None = None) -> SolveResult:
    """Deterministic CSP solver: 2-box cover, per-box reduction to CNF,
    per-box deterministic k-SAT, d-ary witness decode.

    Width <= 2 or domain size 1 short-circuit to the exhaustive oracle.
    """
    cfg = cfg or SolverConfig()
    d, n = f.domain_size, f.num_vars
    if d == 1 or f.max_width <= 2 or n == 0:
        return brute_force_csp(f)
    # the restriction table is built here, before any pool starts: --jobs
    # workers receive it with the pickled formula, and its cap refuses first
    f._restriction
    task = partial(_solve_box, f, replace(cfg, jobs=1))
    stats = SolveStats()
    witness = first_witness(task, two_box_cover(d, n), cfg.jobs, stats)
    return SolveResult("unsat" if witness is None else "sat", witness, stats)
