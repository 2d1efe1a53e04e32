"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.
"""

import math
import random
import time
from itertools import combinations, product

import pytest

from coversat.bench import fit_scaling, gen_planted, run_scaling
from coversat.cli import main as cli_main
from coversat.cnf import Formula, evaluate
from coversat.codes import CoveringCode, greedy_code, random_code, verify_cover
from coversat.csp import (
    CspFormula,
    brute_force_csp,
    csp_evaluate,
    solve_csp,
    two_box_cover,
    verify_box_cover,
)
from coversat.errors import CodeConstructionError, ParseError
from coversat.formats import (
    parse_csp,
    parse_dimacs,
    read_code,
    write_code,
    write_csp,
    write_dimacs,
)
from coversat.search import FastParams, schoening_walk, searchball, searchball_fast
from coversat.solver import brute_force, solve_deterministic

from helpers import hamming_distance, rand_csp, rand_formula, rand_kcnf, sat_in_ball


def report(criterion: int, label: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} ({label}): PASS - {detail}")


# canonical clause pool over x1..x4: units, binaries, ternaries, complements
CLAUSE_POOL = (
    (1,),
    (-1,),
    (1, 2),
    (-1, -2),
    (1, -3),
    (-2, 4),
    (1, 2, 3),
    (-1, -2, -3),
    (2, 3, 4),
    (-2, -3, 4),
    (1, -3, 4),
    (-1, 3, -4),
)

# canonical constraint pool over x1..x4, domain {1,2,3}
CSP_POOL = (
    ((1, 1),),
    ((1, 2), (2, 3)),
    ((2, 1), (3, 2)),
    ((1, 3), (2, 2), (3, 1)),
    ((2, 2), (3, 3), (4, 1)),
    ((1, 1), (3, 1), (4, 2)),
    ((4, 3),),
    ((1, 2), (4, 1)),
    ((2, 3), (3, 3), (4, 3)),
    ((1, 3), (2, 1), (4, 2)),
)


def _random_sat_corpus(count: int, seed: int):
    rng = random.Random(f"sat-corpus:{seed}")
    for _ in range(count):
        n = rng.randint(3, 12)
        ratio = rng.choice([3.0, 4.26, 5.5])
        m = max(1, round(ratio * n))
        if rng.random() < 0.5:
            yield rand_kcnf(rng, n, m, k=3)
        else:
            yield rand_formula(rng, n, m, 3)


def _random_csp_corpus(count: int, seed: int):
    rng = random.Random(f"csp-corpus:{seed}")
    saturated = tuple(
        ((1, a), (2, b), (3, c)) for a, b, c in product((1, 2, 3), repeat=3)
    )
    for _ in range(count):
        n = rng.randint(3, 8)
        roll = rng.random()
        if roll < 0.6:
            yield rand_csp(rng, 3, n, rng.randint(1, 5 * n))
        elif roll < 0.85:
            extra = rand_csp(rng, 3, n, rng.randint(0, 2 * n))
            yield CspFormula(3, n, saturated + extra.constraints)
        else:
            kept = list(saturated)
            kept.pop(rng.randrange(len(kept)))
            extra = rand_csp(rng, 3, n, rng.randint(0, n))
            yield CspFormula(3, n, tuple(kept) + extra.constraints)


def test_c01_oracle_agreement_sat(tmp_path):
    began = time.perf_counter()
    checked = 0

    # exhaustive corpus: every subset of the canonical pool with 1..6 clauses
    for m in range(1, 7):
        for subset in combinations(CLAUSE_POOL, m):
            f = Formula(4, subset)
            assert solve_deterministic(f).status == brute_force(f).status
            checked += 1
    exhaustive = checked

    # seeded random corpus, n <= 12; every 40th instance also goes through
    # the CLI to bind `solve --mode det` to the same verdict
    for i, f in enumerate(_random_sat_corpus(2000, seed=11)):
        expected = brute_force(f).status
        assert solve_deterministic(f).status == expected
        if i % 40 == 0:
            path = tmp_path / f"inst_{i}.cnf"
            path.write_text(write_dimacs(f))
            code = cli_main(["solve", "--input", str(path), "--mode", "det"])
            assert code == (10 if expected == "sat" else 20)
        checked += 1

    elapsed = time.perf_counter() - began
    assert elapsed < 300, f"criterion 1 budget exceeded: {elapsed:.0f}s"
    report(1, "oracle agreement SAT",
           f"{exhaustive} exhaustive + 2000 random instances agree; {elapsed:.1f}s")


def test_c02_oracle_agreement_csp():
    began = time.perf_counter()
    checked = 0

    for m in range(1, 6):
        for subset in combinations(CSP_POOL, m):
            g = CspFormula(3, 4, subset)
            assert solve_csp(g).status == brute_force_csp(g).status
            checked += 1
    exhaustive = checked

    for g in _random_csp_corpus(500, seed=23):
        res = solve_csp(g)
        assert res.status == brute_force_csp(g).status
        if res.status == "sat":
            assert csp_evaluate(g, res.witness)
        checked += 1

    elapsed = time.perf_counter() - began
    assert elapsed < 300, f"criterion 2 budget exceeded: {elapsed:.0f}s"
    report(2, "oracle agreement CSP",
           f"{exhaustive} exhaustive + 500 random instances agree; {elapsed:.1f}s")


def test_c03_covering_code_bound():
    # bounds are ceil(t ln(q) q^t / (C(t,r)(q-1)^r)), evaluated independently
    cases = {(3, 6, 2): 81, (2, 4, 1): 12, (2, 6, 2): 18, (3, 3, 1): 15, (4, 4, 1): 119}
    sizes = {}
    for (q, t, r), bound in cases.items():
        direct = math.ceil(t * math.log(q) * q**t / (math.comb(t, r) * (q - 1) ** r))
        assert direct == bound
        code = greedy_code(q, t, r)
        assert verify_cover(code) is True
        assert len(code.words) <= bound, (q, t, r)
        sizes[(q, t, r)] = len(code.words)
    report(3, "covering-code bound",
           f"greedy sizes {sizes} all within bounds {cases}")


def test_c04_random_code_success_rate():
    successes = 0
    for seed in range(100):
        try:
            code = random_code(3, 6, 2, 81, seed=seed)
            assert code.verified
            successes += 1
        except CodeConstructionError:
            pass
    assert successes >= 95, f"only {successes}/100 seeds produced a cover"
    report(4, "random-code success rate", f"{successes}/100 seeds covered within 10 retries")


def test_c05_promise_completeness():
    began = time.perf_counter()
    rng = random.Random("promise:5")
    fps = [FastParams(3, 3), FastParams(3, 6)]
    misses = 0
    for i in range(1000):
        n = rng.randint(3, 10)
        m = rng.randint(n, 4 * n)
        r = rng.randint(0, n)
        inst = gen_planted(3, n, m, seed=f"c5:{i}", distance=r)
        f, start = inst.formula, inst.start

        # independent oracle: a satisfying assignment by enumeration of the ball
        hit = sat_in_ball(f, start, r)
        assert hit is not None, "planted instance must contain its plant in the ball"

        w_plain, _ = searchball(f, start, r)
        if w_plain is None or not evaluate(f, w_plain):
            misses += 1
        for fp in fps:
            w_fast, _ = searchball_fast(f, start, r, fp)
            if w_fast is None or not evaluate(f, w_fast):
                misses += 1
    assert misses == 0, f"{misses} promise misses"
    elapsed = time.perf_counter() - began
    report(5, "promise completeness",
           f"1000 planted instances x 3 engines, zero misses; {elapsed:.1f}s")


def test_c06_node_count_separation():
    began = time.perf_counter()
    r_range = range(4, 15)
    trials = 50
    records = run_scaling(["searchball", "searchball_fast"], 3, 6, r_range, trials, seed=606)
    rec_plain = [rec for rec in records if rec.engine == "searchball"]
    rec_fast = [rec for rec in records if rec.engine == "searchball_fast"]
    # per-run envelopes (leaves <= 3^r and <= |code|^ceil(r/2)) are hard
    # assertions inside run_scaling; reaching this point means none fired
    fit_plain = fit_scaling(rec_plain)
    fit_fast = fit_scaling(rec_fast)
    assert fit_plain.base <= 3.05, f"searchball base {fit_plain.base:.3f}"
    assert fit_fast.base < fit_plain.base, (
        f"no separation: fast {fit_fast.base:.3f} vs plain {fit_plain.base:.3f}"
    )
    elapsed = time.perf_counter() - began
    report(6, "node-count separation",
           f"searchball base {fit_plain.base:.3f} vs searchball_fast {fit_fast.base:.3f} "
           f"({trials} trials, r 4..14); {elapsed:.1f}s")


def test_c07_randomized_bound():
    began = time.perf_counter()
    n, formulas, shots = 10, 200, 500
    hits = total = 0
    for i in range(formulas):
        inst = gen_planted(3, n, round(4.26 * n), seed=f"c7:{i}", distance=0)
        f = inst.formula
        rng = random.Random(f"c7-trials:{i}")
        for _ in range(shots):
            alpha = tuple(rng.randint(0, 1) for _ in range(n))
            total += 1
            if schoening_walk(f, alpha, rng.getrandbits(64)) is not None:
                hits += 1
    rate = hits / total
    floor = 0.8 * (3 / 4) ** 10
    assert rate >= floor, f"pooled success {rate:.4f} below {floor:.4f}"
    elapsed = time.perf_counter() - began
    assert elapsed < 600, f"criterion 7 budget exceeded: {elapsed:.0f}s"
    report(7, "randomized bound",
           f"pooled success {rate:.4f} >= {floor:.4f} over {total} trials; {elapsed:.1f}s")


def test_c08_distance_progress():
    rng = random.Random("c8")
    fp = FastParams(3, 6)
    code = fp.code
    t = fp.t
    progress = t - 2 * math.ceil(t / 3)
    from coversat.search import apply_codeword

    violations = 0
    for _ in range(100):
        n = 24
        alpha = tuple(rng.randint(0, 1) for _ in range(n))
        h, flips = [], set()
        for i in range(t):
            vs = (3 * i + 1, 3 * i + 2, 3 * i + 3)
            h.append(tuple(v if alpha[v - 1] == 0 else -v for v in vs))
            flips.update(rng.sample(vs, rng.randint(1, 3)))
        flips.update(rng.sample(range(3 * t + 1, n + 1), rng.randint(0, 4)))
        star = tuple(1 - a if v + 1 in flips else a for v, a in enumerate(alpha))
        w_star = []
        for clause in h:
            positions = [
                j + 1 for j, u in enumerate(clause)
                if ((star[u - 1] == 1) if u > 0 else (star[-u - 1] == 0))
            ]
            w_star.append(rng.choice(positions))
        nearest = min(code.words, key=lambda w: (hamming_distance(w, tuple(w_star)), w))
        moved = apply_codeword(alpha, h, nearest)
        if hamming_distance(moved, star) > hamming_distance(alpha, star) - progress:
            violations += 1
    assert violations == 0
    report(8, "distance progress", f"100 constructed triples, zero violations")


def test_c09_two_box_cover():
    bound = math.ceil(4 * math.log(3) * 1.5**4)
    assert bound == 23
    cover = two_box_cover(3, 4)
    assert verify_box_cover(cover, 3, 4) is True
    assert len(cover) <= bound
    even = two_box_cover(4, 3)
    assert len(even) == 8
    assert verify_box_cover(even, 4, 3) is True
    report(9, "2-box cover",
           f"greedy d=3 b=4 cover of {len(cover)} boxes (bound {bound}), even d=4 n=3 = 8")


def _messy_dimacs(f: Formula, rng: random.Random) -> str:
    eol = "\r\n" if rng.random() < 0.3 else "\n"
    lines = [f"c fuzzed {rng.random()}", f"p cnf {f.num_vars} {len(f.clauses)}"]
    for clause in f.clauses:
        tokens = [str(u) for u in clause] + ["0"]
        while tokens:
            cut = rng.randint(1, len(tokens))
            lines.append(" ".join(tokens[:cut]))
            tokens = tokens[cut:]
        if rng.random() < 0.2:
            lines.append("")
    return eol.join(lines) + eol


def _messy_csp(g: CspFormula, rng: random.Random) -> str:
    lines = [f"p csp {g.domain_size} {g.num_vars} {len(g.constraints)}"]
    for con in g.constraints:
        tokens = [f"{v} {c}" for v, c in con] + ["0"]
        lines.append(" ".join(tokens))
        if rng.random() < 0.2:
            lines.append("c noise")
    return "\n".join(lines) + "\n"


def _rand_valid_code(rng: random.Random) -> CoveringCode:
    q = rng.randint(2, 4)
    t = rng.randint(1, 5)
    words = {tuple(rng.randint(1, q) for _ in range(t)) for _ in range(rng.randint(1, 8))}
    return CoveringCode(q, t, rng.randint(0, t), tuple(words))


def _invalid_dimacs(rng: random.Random) -> str:
    base = rand_formula(rng, rng.randint(1, 6), rng.randint(1, 5))
    text = write_dimacs(base)
    kind = rng.randrange(6)
    if kind == 0:
        return "\n".join(text.splitlines()[1:]) + "\n"  # header removed
    if kind == 1:
        return text + f"{base.num_vars + 1} 0\n"  # variable out of range
    if kind == 2:
        return text + "1 zz 0\n"  # non-integer token
    if kind == 3:
        return text + "1\n"  # unterminated clause at EOF
    if kind == 4:
        return text.replace("p cnf", "p cnf 9", 1)  # malformed header arity
    return "1 0\n" + text  # clause data before header


def _invalid_csp(rng: random.Random) -> str:
    base = rand_csp(rng, rng.randint(2, 4), rng.randint(1, 5), rng.randint(1, 4))
    text = write_csp(base)
    kind = rng.randrange(6)
    if kind == 0:
        return text + f"1 {base.domain_size + 1} 0\n"  # value outside domain
    if kind == 1:
        return text + f"{base.num_vars + 1} 1 0\n"  # variable out of range
    if kind == 2:
        return text + "1 0\n"  # dangling pair
    if kind == 3:
        return text + "1 1\n"  # missing terminator
    if kind == 4:
        return text.replace("p csp", "p qqq", 1)  # wrong format token
    return text + "0\n"  # zero-literal constraint


def _invalid_code_file(rng: random.Random) -> str:
    base = _rand_valid_code(rng)
    text = write_code(base)
    lines = text.splitlines()
    kind = rng.randrange(5)
    if kind == 0:
        q, t, r, size = lines[0].split()
        lines[0] = f"{q} {t} {r} {int(size) + 1}"  # size mismatch
    elif kind == 1:
        lines.append(" ".join(str(base.q + 1) for _ in range(base.t)))  # symbol overflow
    elif kind == 2:
        lines.append("1")  # wrong word length (unless t == 1, then duplicate/overflow)
        if base.t == 1:
            lines[0] = lines[0].rsplit(" ", 1)[0] + f" {len(base.words) + 1}"
            lines.append(lines[1])  # duplicate word
    elif kind == 3:
        lines[0] = "x " + lines[0]  # non-integer header
    else:
        lines[0] = f"1 {base.t} 0 {len(base.words)}"  # alphabet below 2
    return "\n".join(lines) + "\n"


def test_c10_format_round_trips():
    began = time.perf_counter()
    rng = random.Random("c10")

    for _ in range(1000):
        f = rand_formula(rng, rng.randint(1, 8), rng.randint(0, 10))
        canonical = write_dimacs(parse_dimacs(_messy_dimacs(f, rng)))
        assert parse_dimacs(canonical) == f
        assert write_dimacs(parse_dimacs(canonical)) == canonical

    for _ in range(1000):
        g = rand_csp(rng, rng.randint(2, 4), rng.randint(1, 6), rng.randint(0, 6))
        canonical = write_csp(parse_csp(_messy_csp(g, rng)))
        assert parse_csp(canonical) == g
        assert write_csp(parse_csp(canonical)) == canonical

    for _ in range(1000):
        code = _rand_valid_code(rng)
        text = write_code(code)
        assert read_code(text) == code
        assert write_code(read_code(text)) == text

    crashes = 0
    for gen, parser in (
        (_invalid_dimacs, parse_dimacs),
        (_invalid_csp, parse_csp),
        (_invalid_code_file, read_code),
    ):
        for _ in range(1000):
            blob = gen(rng)
            with pytest.raises(ParseError):
                parser(blob)

    elapsed = time.perf_counter() - began
    report(10, "format round-trips",
           f"3x1000 valid docs canonicalize byte-identically, 3x1000 invalid "
           f"streams raise structured errors; {elapsed:.1f}s")
