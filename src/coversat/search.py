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
counts and witnesses are those of the restriction-based formulation.

Invariants the engines share:
- The unsatisfied clauses of an assignment are one bitmask, read from
  Formula.literal_masks (one mask per literal, bit i for clause i); its
  lowest set bit is the lowest-index unsatisfied clause every engine
  branches on. A CSP box formula carries its masks from restrict_to_box,
  so no engine builds them for a box.
- The codeword recursion shares one list assignment: a node flips a
  codeword's t variables in place, computes the child's mask, hands both
  to the child and flips them back.
- The small-|G| enumeration (_beta_search) gives searchball only the
  betas that may yield a witness. Every other beta, including one of
  radius 1 whose free literals each leave some unsatisfied clause, is
  counted in place with exactly the nodes searchball would count.
- Inside searchball a radius-0 child that some clause unsatisfied at the
  parent lacks is a leaf settled with one AND, without a mask or a call.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
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
from .codes import CoveringCode, check_greedy_cap, get_code


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
class FastParams:
    """Covering-code parameters for searchball_fast over (<=k)-CNF.

    The inner code lives on alphabet {1..k} with word length t and
    covering radius ceil(t/k): when k does not divide t the radius rounds
    up, which keeps the covering property and shrinks delta conservatively.
    delta = t - 2*ceil(t/k) is the guaranteed radius progress per level and
    must be positive, which needs k >= 3. Construction checks k, delta and
    the greedy cost cap of the code without building it; the first read of
    code gets the verified code from get_code (the searched code of
    codes.SEARCHED_CODES where it holds one, else the greedy code, with
    cache_dir as there) and keeps it on the instance, so a pickled copy carries it once it is
    built. The code is read only at a node with t disjoint width-k clauses,
    which needs n >= k*t variables.
    """

    k: int
    t: int
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        if self.k < 3:
            raise ValueError(f"k must be >= 3, got {self.k}: below 3, delta <= 0 for every t")
        if self.delta < 1:
            raise ValueError(f"delta must be >= 1, got {self.delta} (t={self.t} too small)")
        check_greedy_cap(self.k, self.t, self.radius)

    @property
    def radius(self) -> int:
        return -(-self.t // self.k)

    @property
    def delta(self) -> int:
        return self.t - 2 * self.radius

    @cached_property
    def code(self) -> CoveringCode:
        code = get_code(self.k, self.t, self.radius, cache_dir=self.cache_dir)
        if not code.verified:
            raise ValueError("searchball_fast requires a verified covering code")
        return code


def schoening_walk(
    f: Formula,
    alpha: Assignment,
    seed: int,
    stats: SearchStats | None = None,
) -> Optional[Assignment]:
    """Random correction walk: flip a uniformly random literal of the first
    unsatisfied clause, up to max(1, 3n) times, drawing from
    random.Random(seed).

    If B_r(alpha) contains a satisfying assignment the per-call success
    probability is at least (k-1)^-r. Steps taken are recorded in
    stats.recursion_nodes when a stats object is passed.
    """
    if not all(f.clauses):
        return None  # an empty clause: no flip satisfies it
    rng = random.Random(seed)
    cur = list(alpha)
    masks = f.literal_masks
    unsat = f.unsat_mask(cur)
    for _ in range(max(1, 3 * f.num_vars)):
        if not unsat:
            break
        v = abs(rng.choice(f.clauses[(unsat & -unsat).bit_length() - 1]))
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
    cur: list[int],
    forced: set[int],
    r: int,
    depth: int,
    stats: SearchStats,
    unsat: int,
) -> Optional[Assignment]:
    """One node of searchball. cur is the assignment with the forced values
    overlaid and forced the set of forced variables, both shared by the
    whole recursion; unsat is the mask of the clauses cur leaves unsatisfied.

    The node walks the literals of its lowest unsatisfied clause in clause
    order and skips the forced ones; it builds the all-clauses mask only to
    compute a child's mask. A node with no free literal there is a dead-end
    leaf: that clause is empty in the restricted formula."""
    stats.recursion_nodes += 1
    if depth > stats.max_depth:
        stats.max_depth = depth
    if not unsat:
        stats.leaves += 1
        return tuple(cur)
    if r <= 0:
        stats.leaves += 1
        return None
    masks = f.literal_masks
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
    so the root does not recompute it.
    """
    if stats is None:
        stats = SearchStats()
    if len(alpha) != f.num_vars:
        raise ValueError("assignment length does not match formula")
    forced = forced or {}
    if forced and not 1 <= min(forced) <= max(forced) <= f.num_vars:
        v = min(forced) if min(forced) < 1 else max(forced)
        raise ValueError(f"forced variable {v} out of range")
    beta = override(alpha, forced)
    if unsat is None:
        unsat = f.unsat_mask(beta)
    witness = _searchball(f, list(beta), set(forced), r, 0, stats, unsat)
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


def _beta_search(
    f: Formula,
    alpha: Sequence[int],
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
    G (from _clause_rows).

    Each beta counts exactly the nodes searchball would count around it,
    and only a beta that may yield a witness reaches searchball. Besides the
    witness, two settles count a beta in place:
    - a beta that satisfies F is the witness, one node;
    - a beta with no budget left is one node, a root searchball stops at;
    - one scan of the lowest unsatisfied clause counts its free literals
      (variables outside vbl(G)). With none, the beta is a dead root, one
      node. With one flip left and each free literal missing some
      unsatisfied clause, it is its root plus one leaf per free literal:
      each child is a radius-0 leaf that one AND shows unsatisfied. The
      scan stops at a free literal that meets every unsatisfied clause;
    - every other beta goes to searchball as a (variable, bit) dict, with
      its unsat mask as the root's, counting into a fresh SearchStats.
    Only recursion_nodes reach stats, once, at the end: leaves and max_depth
    stay those of the codeword recursion.
    _fast also hands over nodes with |G| >= t > r, which count nothing here.
    """
    if r < len(g):
        return None  # each clause of G needs a flip of its own
    masks = f.literal_masks
    g_vars = [abs(u) for clause in g for u in clause]
    in_g = set(g_vars)
    outside = 0
    for v, (neg, pos) in enumerate(masks, 1):
        if v not in in_g:
            if alpha[v - 1]:
                outside |= pos
            else:
                outside |= neg
    full = (1 << len(f.clauses)) - 1
    tables = [_clause_rows(clause, masks) for clause in g]
    prefixes = ((r, outside, ()),)
    last = len(tables) - 1
    for j in range(last):
        prefixes = _prefixes(prefixes, *tables[j], last - j)
    # an empty G leaves one beta, the empty assignment
    width, falsifying, last_masks = tables[-1] if g else (0, 0, [0])
    nodes = 0  # the nodes of every beta so far, settled or searched
    for left, satisfied, bits in prefixes:
        if g:
            rows = _pattern_table(width, falsifying, left if left < width else width)
        else:
            rows = ((0, 0, ()),)
        for i, flips, row in rows:
            unsat = full ^ (satisfied | last_masks[i])
            if not unsat:
                stats.recursion_nodes += nodes + 1
                return override(alpha, dict(zip(g_vars, bits + row)))
            if flips == left:
                nodes += 1
                continue
            budget = left - flips
            free = 0
            for u in f.clauses[(unsat & -unsat).bit_length() - 1]:
                v = abs(u)
                if v in in_g:
                    continue
                if budget == 1 and not unsat & ~masks[v - 1][u > 0]:
                    break  # this child may find a witness
                free += 1
            else:
                if budget == 1 or not free:
                    nodes += 1 + free
                    continue
            inner = SearchStats()
            beta = dict(zip(g_vars, bits + row))
            res, _ = searchball(f, alpha, budget, forced=beta, stats=inner, unsat=unsat)
            nodes += inner.recursion_nodes
            if res is not None:
                stats.recursion_nodes += nodes
                return res
    stats.recursion_nodes += nodes
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
    cur = list(alpha)
    witness = _fast(f, cur, f.unsat_mask(cur), r, params, stats, 0)
    if witness is not None and not evaluate(f, witness):
        raise AssertionError("internal error: searchball_fast witness failed re-verification")
    return witness, stats


def _fast(
    f: Formula,
    cur: list[int],
    unsat: int,
    r: int,
    params: FastParams,
    stats: SearchStats,
    depth: int,
) -> Optional[Assignment]:
    """One node of the codeword recursion on the shared assignment cur, whose
    mask unsat the parent computed. Codewords move cur as apply_codeword does,
    but H is not re-checked: maximal_disjoint_unsat builds it valid."""
    stats.recursion_nodes += 1
    if depth > stats.max_depth:
        stats.max_depth = depth
    if not unsat:
        stats.leaves += 1
        return tuple(cur)
    if r <= 0:
        stats.leaves += 1
        return None
    g = maximal_disjoint_unsat(f, cur, params.k, unsat=unsat)
    if len(g) < params.t or r < params.t:
        stats.leaves += 1
        return _beta_search(f, cur, r, g, stats)
    h = g[: params.t]
    child_r = r - params.delta
    for w in params.code.words:
        flips = [abs(clause[wi - 1]) - 1 for clause, wi in zip(h, w)]
        for i in flips:
            cur[i] ^= 1
        res = _fast(f, cur, f.unsat_mask(cur), child_r, params, stats, depth + 1)
        for i in flips:
            cur[i] ^= 1
        if res is not None:
            return res
    return None
