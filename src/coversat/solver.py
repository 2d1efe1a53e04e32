"""Full k-SAT solvers: deterministic outer covering-code loop, randomized
repetition of the walk, and an exhaustive oracle.

The deterministic solver iterates over a Boolean covering code of {0,1}^n
and runs searchball_fast around every codeword: when F is satisfiable some
codeword lies within the cover radius of a satisfying assignment, so the
promise search around it must succeed.
"""

from __future__ import annotations

import math
import os
import random
import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce, wraps
from operator import and_, or_
from typing import Optional

from .cnf import Formula, evaluate
from .codes import CoveringCode, _periodic_mask, _word_of, boolean_cover
from .errors import ResourceCapError, UsageError
from .search import FastParams, SearchStats, schoening_walk, searchball_fast

BRUTE_MAX_TABLE_BITS = 1 << 30
BRUTE_CHUNK_BITS = 1 << 16
RANDOM_TRIAL_HARD_CAP = 10**8


@dataclass
class SolverConfig:
    """Knobs for the deterministic, randomized and CSP solvers.

    The paper's parameters are t, the inner-code length, and epsilon: the
    outer cover has radius fraction 1/(a+1) = 1/(k+epsilon) for a = k-1+epsilon
    and blocks of codes.OUTER_BLOCK_LEN variables, and a CSP's 2-box cover follows
    from d and n. The inner code is built only when n >= k*t, as only then can
    a node hold t disjoint k-clauses. cache_dir persists the covering codes
    across runs. jobs > 1 spreads the codewords (CNF) or the boxes (CSP) over
    worker processes; CNF workers receive the inner code when it is built.
    """

    t: int = 6
    epsilon: float = 0.1
    seed: int = 0
    trial_cap: int | None = None
    jobs: int = 1
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < math.inf:  # also false for nan
            raise UsageError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.trial_cap is not None and self.trial_cap < 1:
            raise UsageError("trial_cap must be >= 1")
        if self.jobs < 1:
            raise UsageError("jobs must be >= 1")
        if self.cache_dir == "":
            raise UsageError("cache_dir must name a directory, got ''")


@dataclass
class SolveStats(SearchStats):
    """The one record a solve counts into: the search's nodes, leaves and
    depth, and the codewords, boxes and walk trials tried."""

    codewords_tried: int = 0
    boxes_tried: int = 0
    trials: int = 0
    wall_time: float = 0.0

    def merge(self, other: "SolveStats") -> None:
        """Add other's work counts; wall_time is set by the timed solver."""
        super().merge(other)
        self.codewords_tried += other.codewords_tried
        self.boxes_tried += other.boxes_tried


@dataclass
class SolveResult:
    """status 'sat' carries a verified witness; deterministic and brute modes
    never report 'unknown'; the randomized mode reports 'unknown' instead of
    'unsat' (one-sided error) unless F has an empty clause or width <= 2."""

    status: str
    witness: Optional[tuple[int, ...]]
    stats: SolveStats = field(default_factory=SolveStats)


def _timed(solver):
    """Record the solver's elapsed time; an outer timed solver records last."""
    @wraps(solver)
    def timed(*args, **kwargs):
        start = time.perf_counter()
        result = solver(*args, **kwargs)
        result.stats.wall_time = time.perf_counter() - start
        return result
    return timed


def Pool(processes: int, initializer, initargs):
    """A pool of spawned worker processes. multiprocessing is imported here,
    on the first pool, so a solve that starts none never loads it."""
    from multiprocessing import get_context

    return get_context("spawn").Pool(processes, initializer, initargs)


def _install_task(task) -> None:
    """Pool initializer: keep the task in this worker for _run_installed."""
    _install_task.task = task


def _run_installed(item):
    """Run the installed task on item with a fresh record; return both."""
    stats = SolveStats()
    return _install_task.task(item, stats), stats


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def first_witness(task, items, jobs: int, stats: SolveStats):
    """Run task(item, stats) -> witness or None over items in order up to the
    first witness and return it (or None); each task counts its work into
    stats. A pool of min(jobs, len(items), usable CPUs) spawned workers gets
    task once per worker and runs each item on a fresh record; the records
    are merged into stats in item order up to the first witness, so any jobs
    gives the jobs=1 result. The usable CPUs are counted only when more than
    one worker could run."""
    workers = min(jobs, len(items))
    if workers > 1:
        workers = min(workers, _usable_cpus())
    if workers <= 1:
        for item in items:
            witness = task(item, stats)
            if witness is not None:
                return witness
        return None
    with Pool(workers, _install_task, (task,)) as pool:
        for witness, sub in pool.imap(_run_installed, items):
            stats.merge(sub)
            if witness is not None:
                return witness
    return None


@lru_cache(maxsize=2)
def _value_masks(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """masks[v-1][c-1] has bit i set iff assignment index i gives variable
    v a value other than c: the mask of the pair (v, c) of a constraint, so
    the oracle ORs it in as it is. Index i enumerates {1..d}^n
    lexicographically (variable 1 most significant). For d = 2 slot 0 is
    x_v = 2 and slot 1 its complement; for d = 1 the one slot is 0. The
    oracle asks for its low and its top variables' tables, both with
    d^n <= BRUTE_CHUNK_BITS, and two tables are kept."""
    total_bits = d**n
    full = (1 << total_bits) - 1
    table = []
    for v in range(1, n + 1):
        run = d ** (n - v)
        unit = (1 << run) - 1
        rest = [
            _periodic_mask(unit << ((c - 1) * run), d * run, total_bits) for c in range(2, d + 1)
        ]
        table.append((reduce(or_, rest) if rest else 0, *(full ^ m for m in rest)))
    return tuple(table)


@lru_cache(maxsize=1)
def _literal_slots(d: int, n: int, top: int) -> dict:
    """Each literal over variables 1..n, as _chunks reads it, to its pair
    (low mask, top mask): (its _value_masks(d, n - top) slot, 0) for a
    variable of top+1..n, (0, its _value_masks(d, top) slot) for one of
    1..top. A literal is a pair (v, c) or, for d = 2, also a CNF literal:
    +v is (v, 1) and -v is (v, 2). One table is kept, as two mask tables are."""
    rows = [[(0, mask) for mask in row] for row in _value_masks(d, top)]
    rows += [[(mask, 0) for mask in row] for row in _value_masks(d, n - top)]
    slots: dict = {}
    for v, row in enumerate(rows, 1):
        for c, pair in enumerate(row, 1):
            slots[v, c] = pair
        if d == 2:
            slots[v], slots[-v] = row
    return slots


@lru_cache(maxsize=1024)
def _top_indices(key: int) -> tuple[int, ...]:
    """The positions of key's set bits, lowest first: for a group's mask of
    the top assignments that falsify its top literals, the chunks it enters.
    Memoized per key: for every (d, n) that _chunks admits a key has at most
    2304 bits (d = 48, top = 2) and 128 set bits (a CNF at n = 24, top = 8),
    and a key with its result takes at most about 3.3 KB (d = 5, n = 10), so
    the 1024 kept take at most about 3.4 MB. A 3-CNF at n = 24 has 576
    keys, so they all stay cached."""
    return tuple(i for i, bit in enumerate(bin(key)[:1:-1]) if bit == "1")


def _chunks(d: int, n: int, constraints: Iterable[Iterable]) -> tuple[int, Iterator[int]]:
    """The solution bitmap of the constraints over all d^n assignments, cut
    into chunks of width = d^low bits: chunk j is the bitmap over the low
    variables n-low+1..n under the j-th assignment, in lexicographic order,
    of the top variables 1..n-low. low is the most variables whose chunk
    fits BRUTE_CHUNK_BITS. Returns (width, chunks), the chunks computed
    lazily in order.

    A constraint is a disjunction of literals over distinct variables, read
    as the caller writes them: a pair (v, c) means x_v != c, and for d = 2 a
    CNF literal +v means x_v != 1 and -v means x_v != 2, so assignment index
    i gives variable v the bit (i >> (n-v)) & 1. The table of _literal_slots
    maps each literal to a (low mask, top mask) pair. A constraint's low
    masks are ORed into one chunk mask and its top masks into the top
    assignments that satisfy it; the rest, those that falsify its top
    literals, key the group it is ANDed into (over distinct variables, key
    and top literals determine each other). A chunk is the AND of the
    constraints without top literals (base) and of every group whose key
    holds its index, listed by _top_indices once per key. A
    constraint's mask starts as its first low slot and a group as its first
    constraint's mask, so neither starts with a copy of a chunk-wide int.

    Inputs with n*d*d^n > BRUTE_MAX_TABLE_BITS, the size a full table of
    d^n-bit masks would take, are refused before any mask is built (a CNF
    up to n = 24, d = 3 up to n = 15); as d^n >= 2^n for d >= 2, n above
    the cap's bit length is refused without computing d^n. Within the cap
    the oracle holds the low * d masks of at most BRUTE_CHUNK_BITS bits and
    top * d of at most 2304, base, one mask per group (at most (d+1)^top of
    them) and the chunk at hand.
    """
    if (d > 1 and n > BRUTE_MAX_TABLE_BITS.bit_length()) or n * d * d**n > BRUTE_MAX_TABLE_BITS:
        raise ResourceCapError(
            f"brute force over {d}^{n} assignments is refused beyond n*d*d^n = "
            f"2^{BRUTE_MAX_TABLE_BITS.bit_length() - 1}"
        )
    low = n
    while d**low > BRUTE_CHUNK_BITS:
        low -= 1
    top = n - low
    slots = _literal_slots(d, n, top)
    base = (1 << d**low) - 1
    top_full = (1 << d**top) - 1
    groups: dict[int, int] = {}
    for constraint in constraints:
        cmask = satisfied = 0
        for literal in constraint:
            low_mask, top_mask = slots[literal]
            if top_mask:
                satisfied |= top_mask
            elif cmask:
                cmask |= low_mask
            else:
                cmask = low_mask
        if satisfied:
            key = top_full ^ satisfied
            gmask = groups.get(key)
            groups[key] = cmask if gmask is None else gmask & cmask
        else:
            base &= cmask
    falsified: list[list[int]] = [[] for _ in range(d**top)]
    for key, gmask in groups.items():
        for j in _top_indices(key):
            falsified[j].append(gmask)
    # once a chunk is 0, each further AND is constant time
    return d**low, (reduce(and_, gmasks, base) for gmasks in falsified)


def _first_solution(d: int, n: int, constraints: Sequence[Iterable]) -> tuple[int, ...] | None:
    """The lexicographically first assignment (values 1..d) that meets every
    constraint, or None; no chunk after the first nonzero one is built. For
    d = 1 no table is built: the one assignment gives every variable 1 and
    falsifies every literal x_v != 1, so it meets the constraints only when
    there are none."""
    if d == 1:
        return None if constraints else (1,) * n
    width, chunks = _chunks(d, n, constraints)
    for j, chunk in enumerate(chunks):
        if chunk:
            return _word_of(j * width + (chunk & -chunk).bit_length() - 1, d, n)
    return None


@_timed
def brute_force(f: Formula) -> SolveResult:
    """Exhaustive oracle: first satisfying assignment in lexicographic
    order, or unsat. Limited to n <= 24 (see _chunks); stops at the first
    chunk of 2^16 assignments that holds a solution."""
    values = _first_solution(2, f.num_vars, f.clauses)
    if values is None:
        return SolveResult("unsat", None)
    witness = tuple(c - 1 for c in values)
    if not evaluate(f, witness):
        raise AssertionError("internal error: brute-force witness failed re-verification")
    return SolveResult("sat", witness)


def _search_codeword(f: Formula, radius: int, fp: FastParams, gamma, stats: SolveStats):
    stats.codewords_tried += 1
    witness, _ = searchball_fast(f, gamma, radius, fp, stats=stats)
    if witness is not None and not evaluate(f, witness):
        raise AssertionError("internal error: witness failed re-verification")
    return witness


@lru_cache(maxsize=32)
def _plan(
    n: int, k: int, t: int, epsilon: float, cache_dir: str | None
) -> tuple[CoveringCode, FastParams]:
    """The outer cover and the FastParams of a width-k formula over n
    variables, built once per set of arguments. The 32 kept results hold
    little of their own: the cover's blocks and the inner code are
    get_code's cached codes. The inner code is built here when some node
    may hold t disjoint k-clauses (n >= k*t), once, so that pool workers
    receive it with the task."""
    cover = boolean_cover(n, 1.0 / (k + epsilon), cache_dir=cache_dir)
    fp = FastParams(k, t, cache_dir)
    if n >= k * fp.t:
        fp.code
    return cover, fp


@_timed
def solve_deterministic(f: Formula, cfg: SolverConfig | None = None) -> SolveResult:
    """Covering-code outer loop around searchball_fast; never 'unknown'.

    Formulas of width <= 2 go straight to the exhaustive oracle (a dedicated
    2-SAT algorithm is out of scope here).
    """
    cfg = cfg or SolverConfig()
    n, k = f.num_vars, f.max_width
    if k <= 2:
        return brute_force(f)
    if not all(f.clauses):
        return SolveResult("unsat", None)
    cover, fp = _plan(n, k, cfg.t, cfg.epsilon, cfg.cache_dir)
    task = partial(_search_codeword, f, cover.r, fp)
    stats = SolveStats()
    # the codewords as 0/1 assignments, converted once per cached code block
    witness = first_witness(task, cover.bit_words, cfg.jobs, stats)
    return SolveResult("unsat" if witness is None else "sat", witness, stats)


def default_trial_cap(f: Formula) -> int:
    """ceil(20 * (2(k-1)/k)^n): about e^-20 failure odds on satisfiable
    inputs, hard-capped at 10^8. The power is formed only when its log is
    within the cap's, as a float power overflows from n = 2468 (k = 3)."""
    k = max(f.max_width, 3)
    n = f.num_vars
    growth = 2.0 * (k - 1) / k
    if n * math.log(growth) > math.log(RANDOM_TRIAL_HARD_CAP / 20):
        return RANDOM_TRIAL_HARD_CAP
    return min(RANDOM_TRIAL_HARD_CAP, max(1, math.ceil(20.0 * growth**n)))


@_timed
def solve_schoening(f: Formula, cfg: SolverConfig | None = None) -> SolveResult:
    """Randomized solver: repeat [uniform alpha; correction walk] up to
    trial_cap times. Returns 'unknown' on exhaustion; 'unsat' only for an
    empty clause or through the width <= 2 oracle route."""
    cfg = cfg or SolverConfig()
    if f.max_width <= 2:
        return brute_force(f)
    if not all(f.clauses):
        return SolveResult("unsat", None)
    cap = cfg.trial_cap if cfg.trial_cap is not None else default_trial_cap(f)
    stats = SolveStats()
    for trial in range(cap):
        rng = random.Random(f"schoening:{cfg.seed}:{trial}")
        alpha = tuple(rng.randint(0, 1) for _ in range(f.num_vars))
        stats.trials += 1
        witness = schoening_walk(f, alpha, rng.getrandbits(64), stats=stats)
        if witness is not None:
            if not evaluate(f, witness):
                raise AssertionError("internal error: walk witness failed re-verification")
            return SolveResult("sat", witness, stats)
    return SolveResult("unknown", None, stats)
