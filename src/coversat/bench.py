"""Planted-instance generation and node-count scaling experiments.

A planted instance fixes a satisfying assignment, samples clauses uniformly
among those it satisfies, and derives a start assignment at a known Hamming
distance: exactly the promise-ball setting with a ground-truth radius.

run_scaling sweeps the radius, runs every engine on each trial's instance
and records leaf/node counts, and fit_scaling regresses log(mean leaves) on
r to estimate the empirical exponential base of one engine.
"""

from __future__ import annotations

import csv
import math
import random
import time
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from .cnf import Assignment, Formula, evaluate
from .search import (
    FastParams,
    SearchStats,
    schoening_walk,
    searchball,
    searchball_fast,
)

ENGINES = ("searchball", "searchball_fast", "schoening_walk")

DEFAULT_N = 30
DEFAULT_CLAUSE_RATIO = 4.0


@dataclass(frozen=True)
class PlantedInstance:
    formula: Formula
    planted: Assignment
    start: Assignment
    r: int


def gen_planted(k: int, n: int, m: int, seed: int | str = 0, *, distance: int) -> PlantedInstance:
    """Sample a planted (<=k)-CNF promise instance.

    Clauses are width-k over distinct variables, rejection-sampled until
    satisfied by the planted assignment (uniform over such clauses). The
    start assignment flips a random `distance`-subset of variables.
    """
    if k < 1 or n < k:
        raise ValueError(f"need n >= k >= 1, got n={n}, k={k}")
    if not 0 <= distance <= n:
        raise ValueError(f"distance must lie in 0..{n}")
    rng = random.Random(f"plant:{seed}")
    planted = tuple(rng.randint(0, 1) for _ in range(n))
    clauses = []
    for _ in range(m):
        while True:
            variables = rng.sample(range(1, n + 1), k)
            clause = tuple(v if rng.randint(0, 1) else -v for v in variables)
            if any((planted[u - 1] == 1) if u > 0 else (planted[-u - 1] == 0) for u in clause):
                break
        clauses.append(clause)
    f = Formula(n, tuple(clauses))
    start = list(planted)
    for v in rng.sample(range(1, n + 1), distance):
        start[v - 1] = 1 - start[v - 1]
    inst = PlantedInstance(f, planted, tuple(start), distance)
    if not evaluate(f, planted):
        raise AssertionError("internal error: planted assignment does not satisfy the formula")
    return inst


@dataclass
class BenchRecord:
    engine: str
    k: int
    n: int
    m: int
    r: int
    t: int
    code_size: int
    trial: int
    leaves: int
    nodes: int
    wall_time: float
    outcome: str


CSV_COLUMNS = [f.name for f in fields(BenchRecord)]


def _run_one(
    engine: str, inst: PlantedInstance, trial: int, t: int, fp: FastParams | None, seed: str
) -> BenchRecord:
    f, start, r = inst.formula, inst.start, inst.r
    stats = SearchStats()
    began = time.perf_counter()
    if engine == "searchball":
        witness, _ = searchball(f, start, r, stats=stats)
        if stats.leaves > max(f.max_width, 1) ** r:
            raise AssertionError("searchball leaf envelope violated")
        code_size = 0
    elif engine == "searchball_fast":
        witness, _ = searchball_fast(f, start, r, fp, stats=stats)
        envelope = len(fp.code.words) ** math.ceil(r / fp.delta) if r else 1
        if stats.leaves > envelope:
            raise AssertionError("searchball_fast leaf envelope violated")
        code_size = len(fp.code.words)
    else:  # schoening_walk
        witness = schoening_walk(f, start, random.Random(seed).getrandbits(64), stats=stats)
        code_size = 0
    elapsed = time.perf_counter() - began
    return BenchRecord(
        engine=engine,
        k=f.max_width,
        n=f.num_vars,
        m=len(f.clauses),
        r=r,
        t=t,
        code_size=code_size,
        trial=trial,
        leaves=stats.leaves,
        nodes=stats.recursion_nodes,
        wall_time=elapsed,
        outcome="sat" if witness is not None else "none",
    )


def run_scaling(
    engines: Sequence[str],
    k: int,
    t: int,
    r_range: Sequence[int],
    trials: int,
    seed: int = 0,
    n: int | None = None,
    m: int | None = None,
) -> list[BenchRecord]:
    """One record per (r, trial, engine): every engine runs, in the given
    order, on the one planted instance drawn for each (r, trial).

    Every input is checked before the first draw. Identical seeds give
    identical record streams; per-trial seeds are derived from (seed, r,
    trial), so a trial depends neither on ordering nor on the other engines.
    """
    if not set(engines) <= set(ENGINES):
        raise ValueError(f"engines must be among {ENGINES}, got {list(engines)}")
    if trials < 1:
        raise ValueError(f"--trials must be >= 1, got {trials}")
    if m is not None and m < 0:
        raise ValueError(f"--m must be >= 0, got {m}")
    if min(r_range, default=0) < 0:
        raise ValueError(f"bad radius range: radius {min(r_range)} is negative")
    n = n if n is not None else DEFAULT_N
    m = m if m is not None else round(DEFAULT_CLAUSE_RATIO * n)
    if max(r_range, default=0) > n:
        raise ValueError(f"radius {max(r_range)} exceeds n={n}")
    fp = FastParams(k, t) if "searchball_fast" in engines else None
    records = []
    for r in r_range:
        for trial in range(trials):
            inst_seed = f"{seed}:{r}:{trial}"
            inst = gen_planted(k, n, m, seed=inst_seed, distance=r)
            records.extend(
                _run_one(engine, inst, trial, t, fp, seed=f"walk:{inst_seed}")
                for engine in engines
            )
    return records


class ConstantSeriesError(ValueError):
    """Every radius has the same mean leaves: the growth base is exactly 1
    and a regression gives no interval for it."""


@dataclass
class ScalingFit:
    """exp(slope) of the least-squares line through (r, log mean leaves),
    with a 95% confidence interval on the base."""

    engine: str
    base: float
    base_low: float
    base_high: float
    points: int


def fit_scaling(records: Iterable[BenchRecord]) -> ScalingFit:
    """Fit one engine's records, which need at least 3 distinct radii.
    Raises ConstantSeriesError when every radius has the same mean leaves,
    as when each run is a single codeword-tree leaf (every r below t)."""
    from scipy import stats as sps

    records = list(records)
    if not records:
        raise ValueError("no records to fit")
    engine = records[0].engine
    by_r: dict[int, list[int]] = {}
    for rec in records:
        by_r.setdefault(rec.r, []).append(max(rec.leaves, 1))
    if len(by_r) < 3:
        raise ValueError("need at least 3 distinct radii for a fit")
    xs = sorted(by_r)
    means = [sum(by_r[r]) / len(by_r[r]) for r in xs]
    if len(set(means)) == 1:
        raise ConstantSeriesError(
            f"mean leaves of {engine} are {means[0]:g} at every radius {xs[0]}..{xs[-1]}: "
            "the base is 1 and has no interval"
        )
    fit = sps.linregress(xs, [math.log(mean) for mean in means])
    tq = sps.t.ppf(0.975, len(xs) - 2)
    return ScalingFit(
        engine=engine,
        base=math.exp(fit.slope),
        base_low=math.exp(fit.slope - tq * fit.stderr),
        base_high=math.exp(fit.slope + tq * fit.stderr),
        points=len(xs),
    )


def write_records_csv(records: Iterable[BenchRecord], path: str) -> None:
    """Fixed column order, one header row; records sorted by
    (engine, r, trial), so each engine's rows are contiguous, by radius and
    then trial, where run_scaling interleaves the engines per (r, trial)."""
    rows = sorted(records, key=lambda rec: (rec.engine, rec.r, rec.trial))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in rows:
            writer.writerow([getattr(rec, col) for col in CSV_COLUMNS])
