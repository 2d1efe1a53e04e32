"""Workload definitions and the seeded instance generators behind them.

Every instance is a pure function of (workload, seed, index), and a run's
corpus is instances 0 .. count-1, where the count depends only on the
workload and the measuring time (``corpus_size``), never on how fast the
host or the program is. Generators own their randomness (``random.Random``
keyed by a string) and never call into coversat; verdicts are settled by the
benchmark's exhaustive oracle or planted certificate in ``oracle.py``.

Run as a script, it writes a corpus to a directory, so that the process that
times the solver never imports numpy:

    python3 workloads.py WORKLOAD SEED COUNT DIR

writes DIR/<index>.<kind> and DIR/manifest.json (each instance's file and
expected verdict).
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Instance:
    """One solver input. CNF clauses are tuples of signed literals; CSP
    constraints are tuples of (variable, forbidden value) pairs. ``expect``
    is the verdict the benchmark already knows ("sat"/"unsat") or None when
    the oracle settles it after the timed region; ``certificate`` is a
    planted satisfying assignment, re-checked by the oracle."""

    kind: str
    num_vars: int
    clauses: tuple
    domain: int = 2
    expect: str | None = None
    certificate: tuple | None = None

    def text(self) -> str:
        if self.kind == "cnf":
            lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
            lines += [" ".join(map(str, c)) + " 0" for c in self.clauses]
        else:
            lines = [f"p csp {self.domain} {self.num_vars} {len(self.clauses)}"]
            lines += [" ".join(f"{v} {c}" for v, c in con) + " 0" for con in self.clauses]
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "Instance":
        """Read back what ``text`` wrote (header ``p cnf`` or ``p csp``)."""
        header, *body = text.splitlines()
        fields = header.split()
        toks = [list(map(int, line.split()))[:-1] for line in body if line.strip()]
        if fields[1] == "cnf":
            return cls("cnf", int(fields[2]), tuple(tuple(t) for t in toks))
        cons = tuple(tuple(zip(t[::2], t[1::2])) for t in toks)
        return cls("csp", int(fields[3]), cons, domain=int(fields[2]))


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    mode: str
    why: str
    stresses: tuple[str, ...]
    bypasses: tuple[str, ...]
    params: dict
    make: Callable[[random.Random, int], Instance]
    trivial: Callable[[], Instance]
    # instance solves per measured second on the reference host (2 shared
    # cores, CPython 3.11), host-speed reference samples included; fixes
    # the corpus size, see corpus_size
    solves_per_s: float
    # why a workload is left out of BENCHMARK.json; empty for the ones in it
    steady_note: str = ""

    def instance(self, seed: int, index: int) -> Instance:
        return self.make(random.Random(f"{self.name}:{seed}:{index}"), index)

    def corpus_size(self, seconds: float, repeats: int) -> int:
        """Instances in a run measuring `seconds` with `repeats` solves each."""
        return max(1, round(seconds * self.solves_per_s / repeats))


def _rand_clause(rng: random.Random, n: int, k: int) -> tuple[int, ...]:
    return tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), k))


def random_kcnf(rng: random.Random, n: int, m: int, k: int = 3) -> tuple:
    return tuple(_rand_clause(rng, n, k) for _ in range(m))


def planted_kcnf(rng: random.Random, n: int, m: int, weight: int, k: int = 3):
    """Clauses drawn uniformly among width-k clauses satisfied by a planted
    assignment with exactly `weight` ones (Hamming distance `weight` from
    the all-zero assignment)."""
    from oracle import cnf_satisfies

    planted = [0] * n
    for v in rng.sample(range(n), weight):
        planted[v] = 1
    clauses = []
    while len(clauses) < m:
        c = _rand_clause(rng, n, k)
        if cnf_satisfies((c,), planted):
            clauses.append(c)
    return tuple(clauses), tuple(planted)


def random_csp(rng: random.Random, d: int, n: int, m: int, k: int = 3) -> tuple:
    return tuple(
        tuple((v, rng.randint(1, d)) for v in rng.sample(range(1, n + 1), k)) for _ in range(m)
    )


def trivial_cnf(n: int, k: int = 3) -> Instance:
    """All-negative width-k clauses covering every variable: the all-zero
    assignment satisfies it, so the first outer codeword decides it."""
    starts = list(range(1, n - k + 2, k))
    if starts[-1] + k - 1 < n:
        starts.append(n - k + 1)
    clauses = tuple(tuple(-v for v in range(s, s + k)) for s in starts)
    return Instance("cnf", n, clauses, expect="sat")


def trivial_csp(d: int, n: int, k: int = 3) -> Instance:
    """Forbid value 2 on consecutive k-blocks. Inside the all-(1,2) box every
    constraint becomes an all-negative width-k clause, so the first box and
    its first codeword decide it."""
    clauses = tuple(
        tuple((v, 2) for v in range(s, s + k)) for s in range(1, n - k + 2, k)
    )
    return Instance("csp", n, clauses, domain=d, expect="sat")


# --- cnf-unsat ---------------------------------------------------------------
UNSAT_N, UNSAT_M = 18, 126


def _make_unsat(rng: random.Random, index: int) -> Instance:
    from oracle import cnf_satisfiable

    while True:
        clauses = random_kcnf(rng, UNSAT_N, UNSAT_M)
        if not cnf_satisfiable(UNSAT_N, clauses):
            return Instance("cnf", UNSAT_N, clauses, expect="unsat")


# --- cnf-sat-deep ------------------------------------------------------------
DEEP_N, DEEP_M, DEEP_WEIGHT = 34, 272, 12


def _make_deep(rng: random.Random, index: int) -> Instance:
    clauses, planted = planted_kcnf(rng, DEEP_N, DEEP_M, DEEP_WEIGHT)
    return Instance("cnf", DEEP_N, clauses, certificate=planted)


# --- csp-d3 ------------------------------------------------------------------
CSP_D, CSP_N = 3, 9
CSP_UNSAT_M, CSP_SAT_M = 35 * CSP_N, 22 * CSP_N
CSP_SAT_EVERY = 4


def _make_csp(rng: random.Random, index: int) -> Instance:
    want_sat = index % CSP_SAT_EVERY == CSP_SAT_EVERY - 1
    m = CSP_SAT_M if want_sat else CSP_UNSAT_M
    from oracle import csp_satisfiable

    while True:
        cons = random_csp(rng, CSP_D, CSP_N, m)
        if csp_satisfiable(CSP_D, CSP_N, cons) == want_sat:
            return Instance("csp", CSP_N, cons, domain=CSP_D, expect="sat" if want_sat else "unsat")


# --- cnf-brute ---------------------------------------------------------------
BRUTE_N, BRUTE_M = 20, 86


def _make_brute(rng: random.Random, index: int) -> Instance:
    return Instance("cnf", BRUTE_N, random_kcnf(rng, BRUTE_N, BRUTE_M))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cnf-unsat",
            kind="cnf",
            mode="det",
            why="unsat 3-CNF n=18 m=126: all 64 outer codewords searched, codeword tree rarely "
            "fires; time is beta enumeration and searchball calls",
            stresses=("solver outer loop", "search.searchball", "search.maximal_disjoint_unsat",
                      "codes.boolean_cover"),
            bypasses=("csp", "solver.brute_force"),
            params={"k": 3, "n": UNSAT_N, "m": UNSAT_M,
                    "generator": "uniform random 3-CNF, redrawn until the exhaustive oracle "
                                 "finds it unsat"},
            make=_make_unsat,
            trivial=lambda: trivial_cnf(UNSAT_N),
            solves_per_s=1.5,
            steady_note="left out of BENCHMARK.json only for the time budget: with a third "
            "workload the full set of runs would not fit when a slow host stretches csp-d3 runs "
            "to 60 s; steady once scaled to reference speed (over 5 seeds of 30 s runs "
            "instances_per_s spread (IQR/median) 0.045 and solve_s_p50 0.038, against 0.13 in "
            "wall time); csp-d3 runs the same search layers",
        ),
        Workload(
            name="cnf-sat-deep",
            kind="cnf",
            mode="det",
            why="planted 3-CNF n=34 m=272 within the outer radius of the first codeword: one "
            "codeword decides, codeword recursion 2-4 levels deep",
            stresses=("search.searchball_fast tree", "search.maximal_disjoint_unsat",
                      "search.apply_codeword"),
            bypasses=("solver outer loop (1 codeword)", "csp", "solver.brute_force"),
            params={"k": 3, "n": DEEP_N, "m": DEEP_M, "planted_weight": DEEP_WEIGHT,
                    "generator": "clauses uniform among those satisfied by a planted "
                                 "assignment of Hamming weight 12 (= outer cover radius)"},
            make=_make_deep,
            trivial=lambda: trivial_cnf(DEEP_N),
            solves_per_s=1.0,
            steady_note="per-instance cost is heavy-tailed (0.02-5.6 s); over 5 seeds of 40 s runs "
            "in wall time instances_per_s spread (IQR/median) was 1.17 and solve_s_p50 0.55, far "
            "above the largest allowed bound of 0.25, mostly from which instances a seed draws, "
            "which host-speed scaling does not remove; so it is not in BENCHMARK.json",
        ),
        Workload(
            name="csp-d3",
            kind="csp",
            mode="det",
            why="random (3,<=3)-CSP n=9, 3 unsat (m=35n) per 1 sat (m=22n): 144 boxes x 8 "
            "codewords of tiny CNFs, so per-box overheads dominate",
            stresses=("csp.restrict_to_box", "csp per-box loop", "codes.boolean_cover",
                      "codes.verify_cover", "csp.two_box_cover (set-up)"),
            bypasses=("solver.brute_force",),
            params={"d": CSP_D, "n": CSP_N, "width": 3, "m_unsat": CSP_UNSAT_M,
                    "m_sat": CSP_SAT_M, "sat_every": CSP_SAT_EVERY,
                    "generator": "width-3 constraints with uniform forbidden values; index "
                                 "i%4==3 is redrawn until sat, the rest until unsat"},
            make=_make_csp,
            trivial=lambda: trivial_csp(CSP_D, CSP_N),
            solves_per_s=2.4,
        ),
        Workload(
            name="cnf-brute",
            kind="cnf",
            mode="brute",
            why="--mode brute on random 3-CNF n=20 m=86, mixed verdicts: only the bitmap oracle "
            "runs; det-layer changes should leave it unmoved",
            stresses=("solver.brute_force", "formats.parse", "cli"),
            bypasses=("codes", "search", "solver outer loop", "csp"),
            params={"k": 3, "n": BRUTE_N, "m": BRUTE_M, "generator": "uniform random 3-CNF"},
            make=_make_brute,
            trivial=lambda: trivial_cnf(BRUTE_N),
            solves_per_s=40.0,
        ),
    )
}


def write_corpus(workload: Workload, seed: int, count: int, out: Path) -> None:
    """Instances 0 .. count-1 as files, with their expected verdicts."""
    from oracle import expected_verdict

    manifest = []
    for index in range(count):
        inst = workload.instance(seed, index)
        name = f"{index}.{inst.kind}"
        (out / name).write_text(inst.text())
        manifest.append({"index": index, "file": name, "expect": expected_verdict(inst)})
    (out / "manifest.json").write_text(json.dumps(manifest))


if __name__ == "__main__":
    name, seed, count, out = sys.argv[1:]
    write_corpus(WORKLOADS[name], int(seed), int(count), Path(out))
