"""(d,<=k)-CSP: data model, 2-box covers of {1..d}^n, reduction to Boolean
CNF, and the end-to-end solver.

A constraint is a disjunction of literals (x_v != c). A 2-box restricts
every variable to a 2-value subset of the domain; restricting a CSP to a
2-box yields a (<=k)-CNF whose satisfying assignments are exactly the
satisfying CSP assignments inside the box. Covering {1..d}^n with 2-boxes
therefore reduces CSP solving to a family of k-SAT instances.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product
from typing import Iterable

from .cnf import Formula
from .errors import ResourceCapError
from .solver import SolveResult, SolveStats, SolverConfig, solve_deterministic

CSP_BRUTE_MAX_SPACE = 10**7
BOX_GROUND_MAX = 10**5
BOX_COVER_MAX = 10**6
BOX_VERIFY_MAX = 10**6

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

    @property
    def max_width(self) -> int:
        return max((len(c) for c in self.constraints), default=0)


def csp_formula(d: int, n: int, constraints: Iterable[Iterable[tuple[int, int]]]) -> CspFormula:
    return CspFormula(d, n, tuple(tuple(c) for c in constraints))


def csp_evaluate(f: CspFormula, alpha: tuple[int, ...]) -> bool:
    """True iff every constraint has a literal (x_v != c) with alpha[v] != c."""
    if len(alpha) != f.num_vars:
        raise ValueError("assignment length does not match formula")
    for value in alpha:
        if not 1 <= value <= f.domain_size:
            raise ValueError(f"value {value} outside domain 1..{f.domain_size}")
    for constraint in f.constraints:
        if all(alpha[v - 1] == c for v, c in constraint):
            return False
    return True


@dataclass
class BoxCover:
    """Set of 2-boxes; verified means union equals {1..d}^n."""

    boxes: tuple[TwoBox, ...]
    verified: bool = field(default=False, compare=False)


def point_in_box(point: tuple[int, ...], box: TwoBox) -> bool:
    return all(p == lo or p == hi for p, (lo, hi) in zip(point, box))


def verify_box_cover(cover: BoxCover, d: int, n: int) -> bool:
    """Exhaustive membership check of every point of {1..d}^n; sets the
    verified flag. Capped at d^n <= 10^6."""
    if d**n > BOX_VERIFY_MAX:
        raise ResourceCapError(f"d^n = {d**n} exceeds box-cover verification cap")
    boxes = cover.boxes
    ok = all(any(point_in_box(p, b) for b in boxes) for p in product(range(1, d + 1), repeat=n))
    cover.verified = ok
    return ok


def _greedy_box_block(d: int, length: int) -> list[TwoBox]:
    """Greedy set cover of {1..d}^length by 2-boxes.

    Candidate boxes are tuples of value pairs, one per coordinate; a box
    covers 2^length points. Gains are maintained per candidate, ties break
    toward the lexicographically smallest box.
    """
    ground = d**length
    if ground > BOX_GROUND_MAX:
        raise ResourceCapError(f"d^b = {ground} exceeds box-cover ground-set cap {BOX_GROUND_MAX}")
    pairs = list(combinations(range(1, d + 1), 2))
    npairs = len(pairs)
    pair_idx_with_value: dict[int, list[int]] = {v: [] for v in range(1, d + 1)}
    for i, (a, b) in enumerate(pairs):
        pair_idx_with_value[a].append(i)
        pair_idx_with_value[b].append(i)

    n_boxes = npairs**length
    gain = [1 << length] * n_boxes
    covered = bytearray(ground)
    uncovered = ground

    def point_digits(idx: int) -> list[int]:
        digits = []
        for _ in range(length):
            idx, rem = divmod(idx, d)
            digits.append(rem + 1)
        digits.reverse()
        return digits

    def boxes_containing(point: list[int]) -> Iterable[int]:
        choices = [pair_idx_with_value[v] for v in point]
        for combo in product(*choices):
            idx = 0
            for c in combo:
                idx = idx * npairs + c
            yield idx

    def box_points(box_idx: int) -> Iterable[int]:
        pair_ids = []
        for _ in range(length):
            box_idx, rem = divmod(box_idx, npairs)
            pair_ids.append(rem)
        pair_ids.reverse()
        for values in product(*(pairs[i] for i in pair_ids)):
            idx = 0
            for v in values:
                idx = idx * d + (v - 1)
            yield idx

    chosen: list[int] = []
    while uncovered:
        best, best_gain = 0, -1
        for i in range(n_boxes):
            if gain[i] > best_gain:
                best_gain = gain[i]
                best = i
        chosen.append(best)
        for p in box_points(best):
            if not covered[p]:
                covered[p] = 1
                uncovered -= 1
                for b in boxes_containing(point_digits(p)):
                    gain[b] -= 1

    out: list[TwoBox] = []
    for box_idx in chosen:
        pair_ids = []
        for _ in range(length):
            box_idx, rem = divmod(box_idx, npairs)
            pair_ids.append(rem)
        pair_ids.reverse()
        out.append(tuple(pairs[i] for i in pair_ids))
    return out


@lru_cache(maxsize=32)
def _cached_cover(d: int, n: int, b: int) -> BoxCover:
    if d % 2 == 0:
        half = [(2 * j - 1, 2 * j) for j in range(1, d // 2 + 1)]
        if (d // 2) ** n > BOX_COVER_MAX:
            raise ResourceCapError("even-d box cover would exceed the size cap")
        boxes = tuple(product(half, repeat=n))
        cover = BoxCover(boxes, verified=True)
    else:
        b = min(b, n)
        block = _greedy_box_block(d, b)
        blocks = [block] * (n // b)
        rem = n % b
        if rem:
            blocks.append(_greedy_box_block(d, rem))
        size = math.prod(len(bl) for bl in blocks)
        if size > BOX_COVER_MAX:
            raise ResourceCapError(f"box cover of size {size} exceeds the cap {BOX_COVER_MAX}")
        boxes = tuple(
            tuple(pair for part in combo for pair in part) for combo in product(*blocks)
        )
        cover = BoxCover(tuple(sorted(boxes)), verified=True)
    if d**n <= BOX_VERIFY_MAX:
        if not verify_box_cover(cover, d, n):
            raise AssertionError("constructed box cover failed exhaustive verification")
    return cover


def two_box_cover(d: int, n: int, b: int = 5) -> BoxCover:
    """Cover {1..d}^n with 2-boxes.

    Even d: the direct product of the pairs {2j-1, 2j}, exactly (d/2)^n
    boxes, covering by construction. Odd d: greedy set cover on blocks of
    length b, taken as their product; verified exhaustively when d^n <= 10^6.
    """
    if d < 2:
        raise ValueError("domain size must be >= 2 for a 2-box cover")
    if n < 1:
        raise ValueError("need at least one variable")
    if not 1 <= b <= 5:
        raise ValueError("box block length must lie in 1..5")
    return _cached_cover(d, n, b)


def restrict_to_box(f: CspFormula, box: TwoBox) -> Formula:
    """Boolean CNF equisatisfiable with F inside the box.

    Boolean variable y_v=1 means x_v takes the larger value of its pair.
    A literal (x_v != c) with c outside the pair is vacuously true and
    drops its whole constraint; c equal to the smaller value maps to y_v,
    to the larger value maps to -y_v.
    """
    if len(box) != f.num_vars:
        raise ValueError("box arity does not match formula")
    for lo, hi in box:
        if not (1 <= lo < hi <= f.domain_size):
            raise ValueError(f"invalid pair ({lo}, {hi})")
    clauses = []
    for constraint in f.constraints:
        lits = []
        dropped = False
        for v, c in constraint:
            lo, hi = box[v - 1]
            if c == lo:
                lits.append(v)
            elif c == hi:
                lits.append(-v)
            else:
                dropped = True
                break
        if not dropped:
            clauses.append(tuple(lits))
    return Formula(f.num_vars, tuple(clauses))


def decode_box_witness(box: TwoBox, bits: tuple[int, ...]) -> tuple[int, ...]:
    """Map a Boolean witness of the reduced CNF back into the box."""
    return tuple(hi if bit else lo for (lo, hi), bit in zip(box, bits))


@lru_cache(maxsize=8)
def _digit_masks(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """masks[v-1][c-1] has bit i set iff assignment index i gives variable v
    the value c (index i enumerates d-ary tuples lexicographically)."""
    total_bits = d**n
    out = []
    for v in range(1, n + 1):
        run = d ** (n - v)
        unit = (1 << run) - 1
        rep = ((1 << total_bits) - 1) // ((1 << (d * run)) - 1)
        out.append(tuple((unit << ((c - 1) * run)) * rep for c in range(1, d + 1)))
    return tuple(out)


def csp_solution_bitmap(f: CspFormula) -> int:
    """Bitmap over all d^n assignments with bit i set iff assignment i
    satisfies F."""
    d, n = f.domain_size, f.num_vars
    space = d**n
    if space > CSP_BRUTE_MAX_SPACE:
        raise ResourceCapError(f"d^n = {space} exceeds the CSP brute-force cap")
    masks = _digit_masks(d, n)
    sat = (1 << space) - 1
    for constraint in f.constraints:
        violating = (1 << space) - 1
        for v, c in constraint:
            violating &= masks[v - 1][c - 1]
            if not violating:
                break
        sat &= ~violating
        if not sat:
            break
    return sat


def csp_index_to_assignment(i: int, d: int, n: int) -> tuple[int, ...]:
    values = [0] * n
    for v in range(n, 0, -1):
        i, rem = divmod(i, d)
        values[v - 1] = rem + 1
    return tuple(values)


def brute_force_csp(f: CspFormula) -> SolveResult:
    """Exhaustive d-ary oracle; first satisfying assignment in
    lexicographic order. Capped at d^n <= 10^7."""
    start = time.perf_counter()
    sat = csp_solution_bitmap(f)
    stats = SolveStats()
    if sat == 0:
        stats.wall_time = time.perf_counter() - start
        return SolveResult("unsat", None, stats)
    lowest = (sat & -sat).bit_length() - 1
    witness = csp_index_to_assignment(lowest, f.domain_size, f.num_vars)
    if not csp_evaluate(f, witness):
        raise AssertionError("internal error: brute-force witness failed re-verification")
    stats.wall_time = time.perf_counter() - start
    return SolveResult("sat", witness, stats)


def solve_csp(f: CspFormula, cfg: SolverConfig | None = None) -> SolveResult:
    """Deterministic CSP solver: 2-box cover, per-box reduction to CNF,
    per-box deterministic k-SAT, d-ary witness decode.

    Width <= 2 or domain size 1 short-circuit to the exhaustive oracle.
    """
    cfg = cfg or SolverConfig()
    start = time.perf_counter()
    d, n = f.domain_size, f.num_vars
    if d == 1 or f.max_width <= 2 or n == 0:
        result = brute_force_csp(f)
        result.stats.wall_time = time.perf_counter() - start
        return result
    b = cfg.box_block_len if cfg.box_block_len is not None else min(5, n)
    cover = two_box_cover(d, n, b)
    stats = SolveStats()
    for box in cover.boxes:
        stats.boxes_tried += 1
        reduced = restrict_to_box(f, box)
        sub = solve_deterministic(reduced, cfg)
        stats.codewords_tried += sub.stats.codewords_tried
        stats.search.merge(sub.stats.search)
        if sub.status == "sat":
            witness = decode_box_witness(box, sub.witness)
            if not csp_evaluate(f, witness):
                raise AssertionError("internal error: decoded witness failed re-verification")
            stats.wall_time = time.perf_counter() - start
            return SolveResult("sat", witness, stats)
    stats.wall_time = time.perf_counter() - start
    return SolveResult("unsat", None, stats)
