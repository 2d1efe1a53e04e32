"""Promise-ball search engines.

All three engines attack the same promise problem: given (F, alpha, r) with
the promise that some satisfying assignment lies within Hamming distance r
of alpha, find any satisfying assignment (not necessarily inside the ball).

* schoening_walk: randomized literal-flip walk, success prob >= (k-1)^-r.
* searchball: recursive branching over the literals of an unsatisfied
  clause, radius shrinking by 1 per level; <= k^r leaves.
* searchball_fast: processes t pairwise variable-disjoint unsatisfied
  k-clauses per level, branching only over the codewords of a k-ary
  covering code of radius ceil(t/k); radius shrinks by
  delta = t - 2*ceil(t/k) per level.

Branching overlays forced values on the assignment: a variable forced to a
value behaves exactly like the restricted formula F^[v:=bit], and node
counts and witnesses are those of the restriction-based formulation. The
unsatisfied clauses of an assignment are read from the formula's clause
bitmasks (Formula.literal_masks, one mask per literal, bit i for clause i):
Formula.unsat_mask ORs one mask per variable, and its lowest set bit is the
lowest-index unsatisfied clause every engine branches on. Each node of the
codeword recursion computes its mask once and hands it to
maximal_disjoint_unsat.

The small-|G| enumeration is one flat loop over the last clause of G fed by
lazy prefix generators, one per earlier clause. Each level reads the rows
of its clause within the budget, with their flips, from a table per (width,
sign pattern, budget cap), and ORs the clause's row masks, built once per
enumeration, into the mask of the clauses beta satisfies. A beta that
satisfies F is the witness. One whose subsearch cannot find a witness is
counted in place with the nodes that subsearch would count: no budget
left, a lowest unsatisfied clause with no free variable, or radius 1 with
every free literal of that clause missing some unsatisfied clause (each
child is then a leaf one AND settles). Any other beta goes to searchball,
as a (variable, bit) dict with its mask as the root's: it has radius >= 2,
or radius 1 and some free literal in every unsatisfied clause.

Inside searchball a node walks the literals of its lowest unsatisfied
clause in place, and hands each child the mask it computes from its own
assignment with the child's literal set; a radius-0 child that some clause
unsatisfied at the parent lacks is settled with one AND, without a mask or
a call. The root overlays the forced dict on alpha only once it descends or
returns.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import or_
from typing import Optional

from .cnf import (
    Assignment,
    Clause,
    Formula,
    clause_satisfied,
    evaluate,
    override,
)
from .codes import CoveringCode, get_code


@dataclass
class SearchStats:
    """Recursion-tree instrumentation.

    For searchball, leaves counts terminal nodes of its literal-branching
    tree. For searchball_fast, leaves counts terminal nodes of the codeword
    recursion only (a node that falls into the small-|G| enumeration is one
    leaf); the literal-branching work done below such nodes shows up in
    recursion_nodes, keeping the |code|^ceil(r/delta) leaf envelope exact.
    There, every assignment the enumeration reaches counts one node, the
    root of its subsearch, and one that neither satisfies F nor has run out
    of budget also counts the nodes below that root in searchball.
    """

    recursion_nodes: int = 0
    leaves: int = 0
    max_depth: int = 0

    def merge(self, other: "SearchStats") -> None:
        self.recursion_nodes += other.recursion_nodes
        self.leaves += other.leaves
        self.max_depth = max(self.max_depth, other.max_depth)


@dataclass
class WalkParams:
    """max_steps defaults to ceil(3n) at call time; seeds are 64-bit ints."""

    max_steps: int | None = None
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass
class FastParams:
    """Covering-code parameters for searchball_fast over (<=k)-CNF.

    t, k and delta are read from the code: it lives on alphabet {1..k} with
    word length t and covering radius r (ceil(t/k) from for_k), and
    delta = t - 2r is the guaranteed radius progress per level and must be
    positive.
    """

    code: CoveringCode

    def __post_init__(self) -> None:
        if self.delta < 1:
            raise ValueError(f"delta must be >= 1, got {self.delta} (t={self.t} too small)")
        if not self.code.verified:
            raise ValueError("searchball_fast requires a verified covering code")

    @property
    def t(self) -> int:
        return self.code.t

    @property
    def k(self) -> int:
        return self.code.q

    @property
    def delta(self) -> int:
        return self.code.t - 2 * self.code.r

    @classmethod
    def for_k(cls, k: int, t: int = 6, cache_dir=None) -> "FastParams":
        """Build params with the cached greedy code of radius ceil(t/k).

        When k does not divide t the radius rounds up, which keeps the
        covering property and shrinks delta conservatively.
        """
        if k < 2:
            raise ValueError("k must be >= 2")
        code = get_code(k, t, -(-t // k), "greedy", cache_dir=cache_dir)
        return cls(code)


def _lowest(mask: int) -> int:
    """Index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


def schoening_walk(
    f: Formula,
    alpha: Assignment,
    params: WalkParams | None = None,
    stats: SearchStats | None = None,
) -> Optional[Assignment]:
    """Random correction walk: flip a uniformly random literal of the first
    unsatisfied clause, up to max_steps times.

    If B_r(alpha) contains a satisfying assignment the per-call success
    probability is at least (k-1)^-r. Steps taken are recorded in
    stats.recursion_nodes when a stats object is passed.
    """
    params = params or WalkParams()
    max_steps = params.max_steps
    if max_steps is None:
        max_steps = max(1, math.ceil(3 * f.num_vars))
    if not all(f.clauses):
        return None  # an empty clause: no flip satisfies it
    rng = random.Random(params.rng_seed)
    cur = list(alpha)
    masks = f.literal_masks
    unsat = f.unsat_mask(cur)
    for _ in range(max_steps):
        if not unsat:
            break
        v = abs(rng.choice(f.clauses[_lowest(unsat)]))
        cur[v - 1] = 1 - cur[v - 1]
        # the flip satisfies every clause holding the new literal; a clause
        # holding the old one stays satisfied only through another literal
        unsat &= ~masks[v - 1][cur[v - 1]]
        lost = masks[v - 1][1 - cur[v - 1]]
        while lost:
            low = lost & -lost
            lost ^= low
            if not clause_satisfied(f.clauses[low.bit_length() - 1], cur):
                unsat |= low
        if stats is not None:
            stats.recursion_nodes += 1
    if unsat:
        return None
    result = tuple(cur)
    if not evaluate(f, result):
        raise AssertionError("internal error: walk result failed re-verification")
    return result


def _searchball(
    f: Formula,
    cur: Assignment | list[int],
    forced: dict[int, int] | set[int],
    r: int,
    depth: int,
    stats: SearchStats,
    unsat: int,
) -> Optional[Assignment]:
    """One node of searchball. unsat is the mask of the clauses cur leaves
    unsatisfied. Below the root, cur is the list overlay and forced the set
    of forced variables, both shared by the whole recursion; the root
    (depth 0) still holds the caller's alpha and forced dict and overlays
    them only when it returns a witness or descends into a child.

    The node walks the literals of its lowest unsatisfied clause in clause
    order and skips the forced ones; it builds the all-clauses mask only to
    compute a child's mask. A node with no free literal there is a dead-end
    leaf: that clause is empty in the restricted formula."""
    stats.recursion_nodes += 1
    if depth > stats.max_depth:
        stats.max_depth = depth
    if not unsat:
        stats.leaves += 1
        return tuple(cur) if depth else override(cur, forced)
    if r <= 0:
        stats.leaves += 1
        return None
    masks = f.literal_masks
    root = not depth
    free = False
    for u in f.clauses[(unsat & -unsat).bit_length() - 1]:
        v = abs(u)
        if v in forced:
            continue
        free = True
        new = 1 if u > 0 else 0
        if r == 1 and unsat & ~masks[v - 1][new]:
            # a radius-0 child is a leaf; some clause unsatisfied here lacks
            # the new literal, so the child is unsatisfied too
            stats.recursion_nodes += 1
            stats.leaves += 1
            if depth + 1 > stats.max_depth:
                stats.max_depth = depth + 1
            continue
        if root:
            cur, forced, root = list(override(cur, forced)), set(forced), False
        old = cur[v - 1]
        cur[v - 1] = new
        forced.add(v)
        child = ((1 << len(f.clauses)) - 1) ^ reduce(or_, map(tuple.__getitem__, masks, cur), 0)
        res = _searchball(f, cur, forced, r - 1, depth + 1, stats, child)
        forced.discard(v)
        cur[v - 1] = old
        if res is not None:
            return res
    if not free:
        # every variable of the clause is forced: it is empty in the
        # restricted formula, a dead end
        stats.leaves += 1
    return None


@lru_cache(maxsize=1)
def _variables(n: int) -> frozenset[int]:
    """The variables 1..n, for searchball's range check of a forced dict.
    A solve asks for one n, so one set is kept: about 75n bytes with its
    ints, about what the formula's literal_masks pairs take."""
    return frozenset(range(1, n + 1))


def searchball(
    f: Formula,
    alpha: Assignment,
    r: int,
    *,
    forced: dict[int, int] | None = None,
    stats: SearchStats | None = None,
    unsat: int | None = None,
) -> tuple[Optional[Assignment], SearchStats]:
    """Recursive promise-ball search branching over unsatisfied-clause
    literals (radius r, at most k branches per node, <= k^r leaves).

    `forced` pre-restricts variables (the search runs on F with those
    variables permanently set), which is how the fast engine hands over its
    small-|G| subproblems; neither it nor alpha is modified. `unsat`, when
    given, must be the unsat mask of alpha overridden by `forced`
    (Formula.unsat_mask); the enumeration that already holds it passes it
    so the root does not recompute it. The overlay of `forced` on alpha is
    built only once the root returns a witness or descends into a child.
    """
    if stats is None:
        stats = SearchStats()
    if len(alpha) != f.num_vars:
        raise ValueError("assignment length does not match formula")
    forced = forced or {}
    if forced and not forced.keys() <= _variables(f.num_vars):
        v = next(v for v in forced if v not in _variables(f.num_vars))
        raise ValueError(f"forced variable {v} out of range")
    if unsat is None:
        unsat = f.unsat_mask(override(alpha, forced))
    witness = _searchball(f, alpha, forced, r, 0, stats, unsat)
    if witness is not None and not evaluate(f, witness):
        raise AssertionError("internal error: searchball witness failed re-verification")
    return witness, stats


def maximal_disjoint_unsat(
    f: Formula, alpha: Assignment, k: int, *, unsat: int | None = None
) -> list[Clause]:
    """Greedy maximal set of pairwise variable-disjoint width-k clauses
    unsatisfied by alpha, scanned in clause input order.

    Only clauses of width exactly k enter; maximality is at the variable
    level: every unsatisfied width-k clause of F shares a variable with
    some member. `unsat`, when given, must be f.unsat_mask(alpha); the
    codeword recursion, which already holds it, passes it.
    """
    masks = f.literal_masks
    out: list[Clause] = []
    # candidates: unsatisfied clauses sharing no variable with a member
    candidates = f.unsat_mask(alpha) if unsat is None else unsat
    while candidates:
        low = candidates & -candidates
        clause = f.clauses[low.bit_length() - 1]
        if len(clause) != k:
            candidates ^= low
            continue
        out.append(clause)
        for u in clause:
            neg, pos = masks[abs(u) - 1]
            candidates &= ~(neg | pos)
    return out


def apply_codeword(alpha: Assignment, h: list[Clause], w: tuple[int, ...]) -> Assignment:
    """Flip, for each clause C_i of h, the variable of its w_i-th literal
    (1-based, clause literal order).

    h must hold pairwise variable-disjoint clauses all unsatisfied by alpha,
    so exactly one literal per clause becomes satisfied and the Hamming
    distance moved is exactly len(h).
    """
    if len(h) != len(w):
        raise ValueError(f"|H| = {len(h)} but |w| = {len(w)}")
    seen: set[int] = set()
    for clause in h:
        for u in clause:
            v = abs(u)
            if v in seen:
                raise ValueError("clauses in H must be pairwise variable-disjoint")
            seen.add(v)
        if clause_satisfied(clause, alpha):
            raise ValueError("every clause in H must be unsatisfied by alpha")
    values = list(alpha)
    for clause, wi in zip(h, w):
        if not 1 <= wi <= len(clause):
            raise ValueError(f"codeword symbol {wi} exceeds clause width {len(clause)}")
        v = abs(clause[wi - 1])
        values[v - 1] = 1 - values[v - 1]
    return tuple(values)


@lru_cache(maxsize=256)
def _pattern_table(
    width: int, falsifying: int, cap: int
) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The satisfying rows with at most `cap` flips of a width-`width`
    clause whose one falsifying bit pattern, read as a binary number with
    the first literal's bit most significant, is `falsifying`: (index,
    flips, bits) for every other pattern within the cap, in increasing
    order of index (lexicographic order of bits). flips counts the bits in
    which the row differs from the falsifying pattern, the literals it
    makes true.

    Built on first use per (width, sign pattern, cap). The enumeration
    clamps its caps to 1..width, so equal tables share one entry and a
    width has width * 2^width keys: 34 for widths 1-3, 258 for widths 1-5.
    At most 256 tables are kept, each of at most 2^width - 1 rows: all the
    width 1-5 tables take about 0.6 MB (tracemalloc), and at worst, 256
    width-8 tables of up to 255 rows, about 11 MB."""
    return tuple(
        (i, flips, tuple(i >> p & 1 for p in range(width - 1, -1, -1)))
        for i in range(1 << width)
        if 0 < (flips := (i ^ falsifying).bit_count()) <= cap
    )


def _clause_rows(
    clause: Clause, masks: tuple[tuple[int, int], ...]
) -> tuple[int, int, Sequence[int]]:
    """(width, falsifying pattern, row masks) of a nonempty clause falsified
    by the assignment its flips are counted from, as every clause of G is:
    the key of its _pattern_table rows, and the mask of the clauses each of
    its 2^w local patterns satisfies, indexed by pattern.

    The row masks are built by doubling, from the last literal's two masks:
    each step ORs the two masks of the literal before, the pattern's new
    most significant bit, into every mask so far, so the last step takes
    the first literal's two masks times the 2^(w-1) masks of the rest."""
    falsifying = 0
    for u in clause:
        falsifying = 2 * falsifying + (u < 0)
    row_masks: Sequence[int] = masks[abs(clause[-1]) - 1]
    for u in clause[-2::-1]:
        row_masks = [b | m for b in masks[abs(u) - 1] for m in row_masks]
    return len(clause), falsifying, row_masks


Prefix = tuple[int, int, tuple[int, ...]]


def _prefixes(
    prefixes: Iterable[Prefix], width: int, falsifying: int, row_masks: Sequence[int], reserve: int
) -> Iterator[Prefix]:
    """Extend each prefix (budget left, clauses satisfied, bits) of
    `prefixes`, lazily and in order, by each row of one more clause of G
    that leaves `reserve` flips, one for each clause after it."""
    for left, satisfied, bits in prefixes:
        cap = left - reserve
        for i, flips, row in _pattern_table(width, falsifying, cap if cap < width else width):
            yield left - flips, satisfied | row_masks[i], bits + row


def _leaf_children(
    clause: Clause, forced: set[int], masks: tuple[tuple[int, int], ...], unsat: int
) -> int:
    """The number of free literals of `clause`, the lowest clause in
    `unsat`, when every one of them leaves some clause of `unsat`
    unsatisfied, and 0 when one does not. At radius 1 each free literal is
    a radius-0 child of searchball's root, and such a child is a leaf with
    no witness."""
    free = 0
    for u in clause:
        v = abs(u)
        if v in forced:
            continue
        if not unsat & ~masks[v - 1][u > 0]:
            return 0
        free += 1
    return free


def _beta_search(
    f: Formula,
    alpha: Assignment,
    r: int,
    g: list[Clause],
    stats: SearchStats,
) -> Optional[Assignment]:
    """Enumerate assignments beta to vbl(G) and search around each.

    After fixing all of vbl(G), maximality of G guarantees the residual
    formula has no unsatisfied width-k clause, so the subsearch branches at
    most k-1 ways per node.

    Only assignments that satisfy every clause of G are enumerated (the
    promised assignment does), and the subsearch radius is lowered by the
    flips already spent inside vbl(G); both prunes preserve the promise
    contract.

    The enumeration is lexicographic, clause by clause: a chain of lazy
    _prefixes generators, one link per clause of G but the last, feeds one
    flat loop over the last clause's rows. Every level reads its rows from
    _pattern_table capped at its budget, which keeps one flip for each
    later clause (each is falsified by alpha), so no row over budget is
    visited. The clauses beta satisfies are the OR of a mask fixed for the
    whole enumeration (alpha outside vbl(G)) and one row mask per clause of
    G (its local pattern, from _clause_rows); one pass over the variables
    outside vbl(G) builds that fixed mask and the mask of the clauses those
    variables touch.

    A beta that satisfies F is the witness. A beta whose subsearch cannot
    find a witness is settled in place with the nodes that subsearch would
    count. One with no budget left, or one that fixes every variable of its
    lowest unsatisfied clause (a clause with no variable outside vbl(G)),
    is one node, the root searchball would stop at. One with one flip left
    whose every free literal in that clause misses some unsatisfied clause
    (_leaf_children) is the root plus one leaf per free literal, each a
    radius-0 child that one AND settles. Every other beta, of radius >= 2
    or of radius 1 with some free literal in every unsatisfied clause, goes
    to searchball, and only then, or for the witness, is beta built as a
    (variable, bit) dict.
    Only recursion_nodes reach stats, once, at the end: leaves and max_depth
    stay those of the codeword recursion.
    """
    if r < len(g):
        return None  # each clause of G needs a flip of its own
    masks = f.literal_masks
    g_vars = [abs(u) for clause in g for u in clause]
    in_g = set(g_vars)
    outside = touched = 0
    for v, (neg, pos) in enumerate(masks, 1):
        if v not in in_g:
            if alpha[v - 1]:
                outside |= pos
            else:
                outside |= neg
            touched |= neg | pos
    full = (1 << len(f.clauses)) - 1
    inside = full ^ touched
    tables = [_clause_rows(clause, masks) for clause in g]
    prefixes = ((r, outside, ()),)
    last = len(tables) - 1
    for j in range(last):
        prefixes = _prefixes(prefixes, *tables[j], last - j)
    # an empty G leaves one beta, the empty assignment
    width, falsifying, last_masks = tables[-1] if g else (0, 0, [0])
    settled = 0  # betas counted in place, one node each
    inner = SearchStats()
    for left, satisfied, bits in prefixes:
        if g:
            rows = _pattern_table(width, falsifying, left if left < width else width)
        else:
            rows = ((0, 0, ()),)
        for i, flips, row in rows:
            unsat = full ^ (satisfied | last_masks[i])
            if not unsat:
                settled += 1
                res = override(alpha, dict(zip(g_vars, bits + row)))
            elif flips == left or unsat & -unsat & inside:
                # no budget left, or beta fixes its whole lowest unsatisfied
                # clause: searchball would stop at its root
                settled += 1
                continue
            elif left - flips == 1 and (
                free := _leaf_children(f.clauses[_lowest(unsat)], in_g, masks, unsat)
            ):
                # radius 1 and each child a leaf one AND settles: searchball
                # would count its root and those leaves, and find no witness
                settled += 1 + free
                continue
            else:
                beta = dict(zip(g_vars, bits + row))
                res, _ = searchball(f, alpha, left - flips, forced=beta, stats=inner, unsat=unsat)
            if res is not None:
                stats.recursion_nodes += inner.recursion_nodes + settled
                return res
    stats.recursion_nodes += inner.recursion_nodes + settled
    return None


def searchball_fast(
    f: Formula,
    alpha: Assignment,
    r: int,
    params: FastParams,
    *,
    stats: SearchStats | None = None,
) -> tuple[Optional[Assignment], SearchStats]:
    """Covering-code promise-ball search.

    Per level: build a maximal set G of pairwise disjoint unsatisfied
    k-clauses. With fewer than t of them, enumerate assignments to vbl(G)
    and finish with searchball at branching factor k-1. Otherwise take the
    first t clauses H and recurse on alpha[H,w] with radius r - delta for
    every codeword w; the covering property guarantees some codeword agrees
    with a satisfying assignment on all but ceil(t/k) clauses, which nets
    the delta progress.

    Codeword-tree leaves obey leaves <= |code|^ceil(r/delta).
    """
    if stats is None:
        stats = SearchStats()
    if len(alpha) != f.num_vars:
        raise ValueError("assignment length does not match formula")
    if f.max_width > params.k:
        raise ValueError(
            f"formula width {f.max_width} exceeds code alphabet k={params.k}"
        )
    witness = _fast(f, alpha, r, params, stats, 0)
    if witness is not None and not evaluate(f, witness):
        raise AssertionError("internal error: searchball_fast witness failed re-verification")
    return witness, stats


def _fast(
    f: Formula,
    alpha: Assignment,
    r: int,
    params: FastParams,
    stats: SearchStats,
    depth: int,
) -> Optional[Assignment]:
    stats.recursion_nodes += 1
    if depth > stats.max_depth:
        stats.max_depth = depth
    unsat = f.unsat_mask(alpha)
    if not unsat:
        stats.leaves += 1
        return alpha
    if r <= 0:
        stats.leaves += 1
        return None
    g = maximal_disjoint_unsat(f, alpha, params.k, unsat=unsat)
    if len(g) < params.t:
        stats.leaves += 1
        return _beta_search(f, alpha, r, g, stats)
    if r < params.t:
        # t variable-disjoint clauses each need a flip: any satisfying
        # assignment sits at distance >= t > r, so the promise is vacuous
        stats.leaves += 1
        return None
    h = g[: params.t]
    for w in params.code.words:
        moved = apply_codeword(alpha, h, w)
        res = _fast(f, moved, r - params.delta, params, stats, depth + 1)
        if res is not None:
            return res
    return None
