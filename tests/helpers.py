"""Shared generators and slow reference oracles for the test suite.

The reference implementations here stay deliberately naive (explicit
enumeration, no bit tricks) so they remain independent of the code paths
they are used to check. The CNF operations first_unsatisfied_clause,
assign_literal, restrict and flip are plain clause-by-clause definitions,
and hamming_distance a plain count, that only the tests use.
load_search_tool loads tools/search_covers.py, which is not a package
module.
"""

from __future__ import annotations

import importlib.util
import random
from collections import deque
from collections.abc import Callable, Iterable
from itertools import combinations, product
from pathlib import Path
from types import ModuleType

import coversat.csp
import coversat.search
import coversat.solver
from coversat.cnf import Assignment, Clause, Formula, Literal, PartialAssignment, clause_satisfied
from coversat.csp import CspFormula, TwoBox
from coversat.search import SearchStats


def first_unsatisfied_clause(f: Formula, alpha: Assignment) -> int | None:
    """Lowest input-order index of a clause unsatisfied by alpha, or None,
    by a scan of every clause: the reference for the lowest set bit of
    Formula.unsat_mask, the clause every engine branches on."""
    if len(alpha) != f.num_vars:
        raise ValueError(f"assignment has {len(alpha)} values, formula has {f.num_vars} variables")
    for i, clause in enumerate(f.clauses):
        if not clause_satisfied(clause, alpha):
            return i
    return None


def assign_literal(f: Formula, u: Literal) -> Formula:
    """The formula after permanently making literal u true.

    Clauses containing u are satisfied and removed; occurrences of the
    complement are deleted from the remaining clauses. num_vars is unchanged.
    """
    if u == 0 or abs(u) > f.num_vars:
        raise ValueError(f"literal {u} out of range for {f.num_vars} variables")
    out: list[Clause] = []
    neg = -u
    for clause in f.clauses:
        if u in clause:
            continue
        if neg in clause:
            out.append(tuple(w for w in clause if w != neg))
        else:
            out.append(clause)
    return Formula(f.num_vars, tuple(out))


def restrict(f: Formula, beta: PartialAssignment) -> Formula:
    """The formula after permanently setting every variable in beta.

    Equivalent to folding assign_literal over domain(beta) in any order.
    Restriction may create empty clauses.
    """
    for v, bit in beta.items():
        if not 1 <= v <= f.num_vars:
            raise ValueError(f"variable {v} out of range")
        if bit not in (0, 1):
            raise ValueError(f"value for variable {v} must be 0 or 1")
    out: list[Clause] = []
    for clause in f.clauses:
        satisfied = False
        kept: list[int] = []
        for u in clause:
            bit = beta.get(abs(u))
            if bit is None:
                kept.append(u)
            elif (u > 0) == (bit == 1):
                satisfied = True
                break
        if not satisfied:
            out.append(tuple(kept))
    return Formula(f.num_vars, tuple(out))


def flip(alpha: Assignment, variable: int) -> Assignment:
    """alpha with one variable's value toggled."""
    i = variable - 1
    return alpha[:i] + (1 - alpha[i],) + alpha[i + 1:]


def hamming_distance(alpha: Assignment, beta: Assignment) -> int:
    """Number of variables where the two assignments differ."""
    if len(alpha) != len(beta):
        raise ValueError(f"assignments over different variable sets ({len(alpha)} vs {len(beta)})")
    return sum(a != b for a, b in zip(alpha, beta))


def rand_formula(rng: random.Random, n: int, m: int, max_width: int = 3) -> Formula:
    clauses = []
    for _ in range(m):
        width = rng.randint(1, min(max_width, n))
        variables = rng.sample(range(1, n + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return Formula(n, tuple(clauses))


def rand_kcnf(rng: random.Random, n: int, m: int, k: int = 3) -> Formula:
    clauses = []
    for _ in range(m):
        variables = rng.sample(range(1, n + 1), k)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return Formula(n, tuple(clauses))


def rand_kcsp(rng: random.Random, d: int, n: int, m: int, k: int = 3) -> CspFormula:
    """m constraints of width exactly k, uniform forbidden values (the shape
    of perfbench's csp-d3 corpus)."""
    constraints = []
    for _ in range(m):
        variables = rng.sample(range(1, n + 1), k)
        constraints.append(tuple((v, rng.randint(1, d)) for v in variables))
    return CspFormula(d, n, tuple(constraints))


def rand_assignment(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.randint(0, 1) for _ in range(n))


def rand_csp(rng: random.Random, d: int, n: int, m: int, k: int = 3) -> CspFormula:
    constraints = []
    for _ in range(m):
        width = rng.randint(1, min(k, n))
        variables = rng.sample(range(1, n + 1), width)
        constraints.append(tuple((v, rng.randint(1, d)) for v in variables))
    return CspFormula(d, n, tuple(constraints))


def ref_evaluate(f: Formula, alpha: tuple[int, ...]) -> bool:
    ok = True
    for clause in f.clauses:
        sat = False
        for u in clause:
            v = abs(u)
            value = alpha[v - 1]
            if (u > 0 and value == 1) or (u < 0 and value == 0):
                sat = True
        ok = ok and sat
    return ok


def ref_all_solutions(f: Formula) -> list[tuple[int, ...]]:
    """Every satisfying assignment, lexicographic order, by raw enumeration."""
    return [a for a in product((0, 1), repeat=f.num_vars) if ref_evaluate(f, a)]


def ref_csp_solutions(f: CspFormula) -> list[tuple[int, ...]]:
    out = []
    for alpha in product(range(1, f.domain_size + 1), repeat=f.num_vars):
        if all(any(alpha[v - 1] != c for v, c in con) for con in f.constraints):
            out.append(alpha)
    return out


def ball_members(alpha: tuple[int, ...], r: int) -> list[tuple[int, ...]]:
    """All assignments within Hamming distance r of alpha (tiny n only)."""
    out = []
    for beta in product((0, 1), repeat=len(alpha)):
        if sum(a != b for a, b in zip(alpha, beta)) <= r:
            out.append(beta)
    return out


def sat_in_ball(f: Formula, alpha: tuple[int, ...], r: int) -> tuple[int, ...] | None:
    """Brute-force promise oracle: a satisfying assignment inside B_r(alpha),
    or None."""
    for beta in ball_members(alpha, r):
        if ref_evaluate(f, beta):
            return beta
    return None


def ref_beta_search(
    f: Formula, alpha: tuple[int, ...], r: int, g: list[tuple[int, ...]]
) -> tuple[tuple[int, ...] | None, int]:
    """The small-|G| enumeration without the dead-root prune: every beta to
    vbl(G) that satisfies each clause of G, in lexicographic order clause by
    clause, with at most r flips. A satisfying beta is the witness and one
    with no budget left counts one node; every other beta goes to
    coversat.search.searchball. Returns (witness, recursion nodes)."""
    per_clause = [
        [
            {abs(u): bit for u, bit in zip(clause, bits)}
            for bits in product((0, 1), repeat=len(clause))
            if any((u > 0) == (bit == 1) for u, bit in zip(clause, bits))
        ]
        for clause in g
    ]
    stats = SearchStats()
    for combo in product(*per_clause):
        beta = {v: bit for part in combo for v, bit in part.items()}
        flips = sum(alpha[v - 1] != bit for v, bit in beta.items())
        if flips > r:
            continue
        gamma = tuple(beta.get(v, alpha[v - 1]) for v in range(1, f.num_vars + 1))
        if ref_evaluate(f, gamma):
            stats.recursion_nodes += 1
            return gamma, stats.recursion_nodes
        if flips == r:
            stats.recursion_nodes += 1
            continue
        res, _ = coversat.search.searchball(f, alpha, r - flips, forced=beta, stats=stats)
        if res is not None:
            return res, stats.recursion_nodes
    return None, stats.recursion_nodes


def ref_satisfying_patterns(
    clause: Clause, alpha: Assignment, masks: tuple[tuple[int, int], ...]
) -> list[tuple[int, int, tuple[tuple[int, int], ...]]]:
    """All local assignments to vbl(clause) that satisfy it, in
    lexicographic order of their bits, as (flips vs alpha, mask of the
    clauses they satisfy, (variable, bit) pairs) triples, built one literal
    at a time from alpha. The reference for coversat.search._pattern_table
    and the row masks of coversat.search._clause_rows."""
    rows: list[tuple[int, int, tuple[tuple[int, int], ...]]] = [(0, 0, ())]
    for u in clause:
        v = abs(u)
        current = alpha[v - 1]
        neg, pos = masks[v - 1]
        rows = [
            (flips + (bit != current), mask | (pos if bit else neg), pairs + ((v, bit),))
            for flips, mask, pairs in rows
            for bit in (0, 1)
        ]
    falsifying = tuple((abs(u), 0 if u > 0 else 1) for u in clause)
    return [row for row in rows if row[2] != falsifying]


def ref_searchball(
    f: Formula, alpha: tuple[int, ...], r: int, forced: PartialAssignment | None = None
) -> tuple[tuple[int, ...] | None, SearchStats]:
    """Textbook searchball: at every node scan for the first unsatisfied
    clause, stop if there is none (witness), if the radius is spent or if
    every variable of that clause is fixed; otherwise set each unfixed
    literal of it true in turn, fix its variable and recurse with radius
    r - 1. Every node counts, every stop is a leaf. Returns (witness, stats)
    in the shape of coversat.search.searchball."""
    stats = SearchStats()

    def rec(cur: tuple[int, ...], fixed: frozenset[int], r: int, depth: int):
        stats.recursion_nodes += 1
        stats.max_depth = max(stats.max_depth, depth)
        i = first_unsatisfied_clause(f, cur)
        if i is None:
            stats.leaves += 1
            return cur
        branch = [u for u in f.clauses[i] if abs(u) not in fixed]
        if r == 0 or not branch:
            stats.leaves += 1
            return None
        for u in branch:
            v = abs(u)
            child = cur[: v - 1] + (1 if u > 0 else 0,) + cur[v:]
            res = rec(child, fixed | {v}, r - 1, depth + 1)
            if res is not None:
                return res
        return None

    forced = forced or {}
    start = tuple(forced.get(v, alpha[v - 1]) for v in range(1, f.num_vars + 1))
    return rec(start, frozenset(forced), r, 0), stats


def ref_var_masks(n: int) -> tuple[int, ...]:
    """The brute oracle's variable masks by one big-int division per mask:
    the all-ones word divided by 2^(2*run) - 1 repeats a 1 every 2*run bits."""
    total_bits = 1 << n
    masks = []
    for v in range(1, n + 1):
        run = 1 << (n - v)
        rep = ((1 << total_bits) - 1) // ((1 << (2 * run)) - 1)
        masks.append((((1 << run) - 1) << run) * rep)
    return tuple(masks)


def ref_digit_masks(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The d-ary analogue of ref_var_masks, one mask per (variable, value)."""
    total_bits = d**n
    out = []
    for v in range(1, n + 1):
        run = d ** (n - v)
        rep = ((1 << total_bits) - 1) // ((1 << (d * run)) - 1)
        out.append(tuple((((1 << run) - 1) << ((c - 1) * run)) * rep for c in range(1, d + 1)))
    return tuple(out)


REF_BITMAP_SLICE_BITS = 1 << 14


def ref_bitmap(d: int, n: int, constraints: Iterable[Iterable[tuple[int, int]]]) -> int:
    """The brute oracle's bitmap by direct evaluation: bit i set iff
    assignment i meets every constraint, each a disjunction of pairs (v, c)
    meaning x_v != c. For each assignment of the top variables 1..n-low, in
    lexicographic order, a constraint holds on the whole slice of d^low
    assignments when one of its top pairs holds, and otherwise where one of
    its low pairs holds, read from ref_digit_masks(d, low). low is the most
    variables with d^low <= REF_BITMAP_SLICE_BITS, a split other than the
    oracle's; each slice's bits are written out and the slices joined as
    one binary string. The reference for oracle_bitmap."""
    constraints = [tuple(constraint) for constraint in constraints]
    low = n
    while d**low > REF_BITMAP_SLICE_BITS:
        low -= 1
    top = n - low
    width = d**low
    full = (1 << width) - 1
    equal = ref_digit_masks(d, low)
    slices = []
    for values in product(range(1, d + 1), repeat=top):
        sat = full
        for constraint in constraints:
            cmask = 0
            for v, c in constraint:
                if v > top:
                    cmask |= full ^ equal[v - top - 1][c - 1]
                elif values[v - 1] != c:
                    cmask = full
                    break
            sat &= cmask
            if not sat:
                break
        slices.append(format(sat, f"0{width}b"))
    return int("".join(reversed(slices)), 2)


def oracle_bitmap(d: int, n: int, constraints: Iterable[Iterable]) -> int:
    """The brute oracle's bitmap over all d^n assignments: every chunk of
    coversat.solver._chunks, chunk j shifted by j times the chunk width. The
    constraints are written as _chunks reads them: (v, c) pairs, or for
    d = 2 the signed literals of a CNF."""
    width, chunks = coversat.solver._chunks(d, n, constraints)
    bitmap = 0
    for j, chunk in enumerate(chunks):
        bitmap |= chunk << (j * width)
    return bitmap


def ref_ball_of(idx: int, q: int, t: int, r: int) -> list[int]:
    """Indices of all words within distance <= r of idx (general alphabet):
    for every s <= r and every s positions, every choice of other digits
    there. The reference for coversat.codes._ball_of."""
    digits = []
    x = idx
    for _ in range(t):
        x, d = divmod(x, q)
        digits.append(d)
    digits.reverse()
    pows = [q ** (t - 1 - pos) for pos in range(t)]
    result = [idx]
    for s in range(1, r + 1):
        for combo in combinations(range(t), s):
            choices = []
            for pos in combo:
                d = digits[pos]
                w = pows[pos]
                choices.append([(nd - d) * w for nd in range(q) if nd != d])
            for deltas in product(*choices):
                result.append(idx + sum(deltas))
    return result


def ref_verify_cover(q: int, t: int, r: int, words: Iterable[tuple[int, ...]]) -> bool:
    """Whether the words cover {1..q}^t at radius r, by a multi-source BFS
    out to depth r from all of them, one neighbour at a time: the reference
    for coversat.codes.verify_cover, which dilates bitsets."""
    space = q**t
    pows = [q ** (t - 1 - pos) for pos in range(t)]
    seen = bytearray(space)
    queue = deque()
    for word in words:
        idx = sum((s - 1) * w for s, w in zip(word, pows))
        if not seen[idx]:
            seen[idx] = 1
            queue.append((idx, 0))
    count = len(queue)
    while queue:
        idx, dist = queue.popleft()
        if dist == r:
            continue
        for pos in range(t):
            w = pows[pos]
            d = idx // w % q
            for nd in range(q):
                if nd != d:
                    nb = idx + (nd - d) * w
                    if not seen[nb]:
                        seen[nb] = 1
                        count += 1
                        queue.append((nb, dist + 1))
    return count == space


def ref_greedy_set_cover(
    num_points: int,
    num_sets: int,
    set_size: int,
    members: Callable[[int], Iterable[int]],
    containing: Callable[[int], Iterable[int]],
) -> list[int]:
    """Textbook greedy set cover: each pick is gain.index(max(gain)), the
    lowest-index set covering the most uncovered points. The reference for
    coversat.codes.greedy_set_cover, with the same arguments."""
    gain = [set_size] * num_sets
    covered = bytearray(num_points)
    uncovered = num_points
    chosen: list[int] = []
    while uncovered:
        best = gain.index(max(gain))
        chosen.append(best)
        for p in members(best):
            if not covered[p]:
                covered[p] = 1
                uncovered -= 1
                for s in containing(p):
                    gain[s] -= 1
    return chosen


def ref_product_cover(blocks: Iterable[Iterable[tuple]]) -> tuple[tuple, ...]:
    """Every concatenation of one item per block, materialized and sorted:
    the product cover as coversat.codes.boolean_cover and
    coversat.csp.two_box_cover built it before they iterated it lazily from
    their blocks. A block's items may come in any order."""
    return tuple(sorted(tuple(s for part in combo for s in part) for combo in product(*blocks)))


def listed_boxes(d: int, text: str) -> list[TwoBox]:
    """The boxes of a SEARCHED_BOX_BLOCKS string, in the order it lists them."""
    pairs = list(combinations(range(1, d + 1), 2))
    return [tuple(pairs[int(i)] for i in box) for box in text.split()]


def ref_box_block(d: int, length: int) -> tuple[TwoBox, ...]:
    """The 2-box block of {1..d}^length, built set of coordinates by set and
    sorted: the reference for coversat.csp._box_block, which builds it
    with one itertools.product per box of the d = 3 block. The tiles are
    the pairs (d-1, d), (d-3, d-2), ... down to (1, 2) for even d and to
    (4, 5) for odd d, which leaves 1, 2 and 3 to the triple. Each set S of
    coordinates (for even d only the empty one) gives every box that holds
    a box of the d = 3 block of length |S|, as
    coversat.csp.SEARCHED_BOX_BLOCKS lists it, on S and a tile on each
    other coordinate."""
    tiles = [(v - 1, v) for v in range(d, 3 if d % 2 else 0, -2)]
    rows = coversat.csp.SEARCHED_BOX_BLOCKS[3]
    boxes = []
    for in_triple in product((False, True) if d % 2 else (False,), repeat=length):
        k = sum(in_triple)
        for sub in listed_boxes(3, rows[k - 1]) if k else [()]:
            for rest in product(tiles, repeat=length - k):
                picks = {True: iter(sub), False: iter(rest)}
                boxes.append(tuple(next(picks[at]) for at in in_triple))
    return tuple(sorted(boxes))


def ref_restrict_to_box(f: CspFormula, box: TwoBox) -> Formula:
    """The Boolean CNF of F inside the box, constraint by constraint: a
    literal (x_v != c) with c outside the pair drops its constraint, c the
    smaller value maps to y_v and the larger to -y_v. The reference for
    coversat.csp.restrict_to_box, which reads constraint bitsets."""
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


def point_in_box(point: tuple[int, ...], box: TwoBox) -> bool:
    """True iff each coordinate of point is one of its pair's two values."""
    return all(p == lo or p == hi for p, (lo, hi) in zip(point, box))


def load_search_tool() -> ModuleType:
    """tools/search_covers.py as a module."""
    path = Path(__file__).resolve().parent.parent / "tools" / "search_covers.py"
    spec = importlib.util.spec_from_file_location("search_covers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
