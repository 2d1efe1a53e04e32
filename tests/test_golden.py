"""Pinned verdicts, witnesses and work counts of the deterministic solvers
and the randomized walk, and the covering codes and 2-box covers the
deterministic solvers iterate.

The values below were recorded from the solver before its outer cover was
rebuilt as a single product pass. A refactor of the outer loop, the cover
construction or the beta enumeration must reproduce them exactly: the
codeword order decides which witness is found first and how many codewords
and nodes are spent. The n=14 and n=18 cases span two outer blocks, so a
sat case that needs more codewords than the tail block holds pins the
product order; t=3 makes the codeword recursion fire (max_depth > 0).
The two "kcsp" cases are d=3, n=9 CSPs of width-3 constraints, the shape of
the csp-d3 benchmark: their 90 boxes are the product of the searched 2-box
blocks of 18 and 5 boxes, the unsat case runs all of them, and the sat case
needs 17, so both cross from one box of the first block to the next. The
three CSP cases were first recorded over greedy blocks (144 boxes at n=9),
before the small-|G| enumeration read its rows from pattern tables and
before restrict_to_box read constraint bitsets, and re-recorded when the
d=3 covers became products of the searched blocks.

Every row that runs a shape of codes.SEARCHED_CODES was re-recorded when
get_code began to return those searched codes in place of greedy ones:
the n=9 CNFs and each box of the kcsp cases run the 7-word (2,9,3) code
(greedy: 8 words), n=14 and n=18 the 13-word (2,12,4) block (greedy: 16)
times the (2,2,1) or (2,6,2) tail. The other shapes these rows use, the
tails, the inner codes (3,6,2) and (3,3,1) and the csp case's (2,6,2)
block, have no searched code and are built as before, so the csp row and
the t=3 sat row, which needs only the first codewords of the product, did
not change.

When every 2-box block came to be built from the pair tiling and the
searched d=3 blocks, in place of a greedy set cover for odd d > 3, the d=3
and even-d covers kept their boxes and their order, so every row here
that runs or lists them passed unchanged. The one d=5 box-cover row was
re-recorded (59 greedy boxes to 55), and the greedy box builds pinned in
GOLDEN_BUILDS were deleted with the greedy builder.
"""

import hashlib
import random

import pytest

from coversat.codes import BlockProduct, greedy_code
from coversat.csp import _box_block, solve_csp, two_box_cover
from coversat.formats import write_code
from coversat.solver import SolverConfig, solve_deterministic, solve_schoening

from helpers import rand_csp, rand_kcnf, rand_kcsp

# kind, n, m, seed, t, status, witness, codewords_tried, boxes_tried,
# recursion_nodes, leaves, max_depth
GOLDEN = [
    ("cnf", 9, 30, 1, 6, "sat", "111000011", 3, 0, 48, 3, 0),
    ("cnf", 9, 45, 0, 6, "unsat", None, 7, 0, 212, 7, 0),
    ("cnf", 14, 50, 3, 6, "sat", "01100111011011", 3, 0, 764, 3, 0),
    ("cnf", 14, 70, 1, 6, "unsat", None, 26, 0, 6631, 26, 0),
    ("cnf", 18, 80, 2, 6, "sat", "101111000100100001", 11, 0, 11697, 11, 0),
    ("cnf", 18, 60, 0, 6, "unsat", None, 52, 0, 41751, 52, 0),
    ("cnf", 14, 60, 0, 3, "sat", "10100010111000", 2, 0, 900, 32, 3),
    ("cnf", 14, 60, 2, 3, "unsat", None, 26, 0, 12504, 456, 3),
    ("csp", 6, 30, 3, 6, "sat", "131212", 33, 9, 240, 33, 0),
    ("kcsp", 9, 315, 0, 6, "unsat", None, 630, 90, 21765, 630, 0),
    ("kcsp", 9, 198, 11, 6, "sat", "132133123", 114, 17, 3820, 114, 0),
]


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: "{}-n{}-m{}-s{}-t{}".format(*c[:5]))
def test_golden(case):
    kind, n, m, seed, t, status, witness, codewords, boxes, nodes, leaves, depth = case
    if kind == "cnf":
        f = rand_kcnf(random.Random(f"golden:{n}:{m}:{seed}"), n, m)
        res = solve_deterministic(f, SolverConfig(t=t))
    elif kind == "csp":
        g = rand_csp(random.Random(f"golden-csp:{n}:{m}:{seed}"), 3, n, m)
        res = solve_csp(g, SolverConfig(t=t))
    else:
        g = rand_kcsp(random.Random(f"golden-kcsp:{n}:{m}:{seed}"), 3, n, m)
        res = solve_csp(g, SolverConfig(t=t))
    got_witness = "".join(map(str, res.witness)) if res.witness is not None else None
    s = res.stats
    assert (res.status, got_witness) == (status, witness)
    assert (s.codewords_tried, s.boxes_tried) == (codewords, boxes)
    assert (s.recursion_nodes, s.leaves, s.max_depth) == (nodes, leaves, depth)


# The randomized solver's walk, recorded before it read the unsatisfied
# clause from the clause masks: the seeded trials must take the same path.
# n, m, seed, status, witness, trials, walk steps
GOLDEN_WALK = [
    (12, 40, 0, "sat", "101110100100", 1, 19),
    (16, 64, 1, "sat", "1001000000001001", 16, 736),
    (20, 86, 5, "sat", "00000100101110100010", 46, 2715),
]


@pytest.mark.parametrize("case", GOLDEN_WALK, ids=lambda c: "n{}-m{}-s{}".format(*c[:3]))
def test_golden_walk(case):
    n, m, seed, status, witness, trials, steps = case
    f = rand_kcnf(random.Random(f"golden-walk:{n}:{m}:{seed}"), n, m)
    res = solve_schoening(f, SolverConfig(seed=seed))
    got_witness = "".join(map(str, res.witness)) if res.witness is not None else None
    assert (res.status, got_witness) == (status, witness)
    assert (res.stats.trials, res.stats.recursion_nodes) == (trials, steps)


def _digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


# Covers recorded before the Boolean and 2-box greedy constructions shared one
# set-cover routine and before 2-box covers were verified per block: the words
# and boxes, in order, must stay the same. The d=3 box rows were re-recorded
# when d=3 blocks became the searched ones of csp.SEARCHED_BOX_BLOCKS, and the
# d=5 row when odd d > 3 took blocks built from the pair tiling and those
# searched blocks (csp._box_block) in place of greedy ones: 55 boxes, not 59.
# (q, t, r, number of words, digest of greedy_code(q, t, r).words)
GOLDEN_CODES = [
    (2, 9, 3, 8, "f82c9866327abfc2"),
    (2, 12, 4, 16, "f01bf06af9ef25b4"),
    (3, 6, 2, 22, "97dfd83c189b9955"),
    (4, 4, 1, 34, "52b8ea09a344b780"),
    (5, 4, 2, 13, "342fb49377eaff2a"),
]
# (d, n, b, number of boxes, digest of the product of b-coordinate blocks:
# two_box_cover(d, n) where b is the length it derives, as for every even d)
GOLDEN_BOX_COVERS = [
    (3, 9, 5, 96, "902994f71803b948"),
    (3, 7, 5, 36, "bc0e66e8e38f10fe"),
    (3, 5, 3, 15, "d5356aa8a0db67ce"),
    (3, 9, 6, 90, "f6d3a16b869a73d3"),
    (3, 13, 6, 648, "4a2a4729fa04ac68"),
    (5, 4, 4, 55, "7c19bb437391dfe2"),
    (4, 5, 5, 32, "2c543ac2813423ae"),
    (2, 5, 5, 1, "b48f118a94608cff"),
]


@pytest.mark.parametrize("case", GOLDEN_CODES, ids=lambda c: "q{}-t{}-r{}".format(*c[:3]))
def test_golden_code(case):
    q, t, r, size, digest = case
    words = greedy_code(q, t, r).words
    assert (len(words), _digest(words)) == (size, digest)


@pytest.mark.parametrize("case", GOLDEN_BOX_COVERS, ids=lambda c: "d{}-n{}-b{}".format(*c[:3]))
def test_golden_box_cover(case):
    d, n, b, size, digest = case
    cover = two_box_cover(d, n)
    if d % 2 and len(cover.blocks[0][0]) != b:
        # a length two_box_cover does not derive: the product of its blocks
        lengths = [b] * (n // b) + ([n % b] if n % b else [])
        cover = BlockProduct(_box_block(d, t) for t in lengths)
    boxes = tuple(cover)
    assert (len(boxes), _digest(boxes)) == (size, digest)


# The full sha256 of further builds, recorded before the radius-r balls were
# built as a layered walk over the digits and the greedy argmax became a
# falling maximum: codes beyond the defaults.
# (kind, which names the test, parameters, number of words, sha256 of their repr)
GOLDEN_BUILDS = [
    ("code", (4, 6, 2), 68, "2fac43d786a35c769bbea7d8be716ad3522c1056f7b1be87c33f1fee9fe38e0f"),
    ("code", (5, 6, 2), 171, "6b6a201938feb16a4addc2946df784acc2495c01489498dfcd70117d621ab262"),
    ("code", (3, 7, 3), 17, "2b530803751fd7688831bb9fd4e0abfcf614c590222948ceaa2a5defd84bb109"),
    ("code", (2, 12, 4), 16, "f01bf06af9ef25b469d1b3012afc8cb1d22c248d688ac9d6dc7ccc28fdb55f69"),
]


@pytest.mark.parametrize("case", GOLDEN_BUILDS, ids=lambda c: "{}-{}".format(c[0], c[1]))
def test_golden_build(case):
    _, params, size, digest = case
    built = greedy_code(*params).words
    assert (len(built), hashlib.sha256(repr(built).encode()).hexdigest()) == (size, digest)


# The sha256 of a radius-0 code's file, recorded while greedy_code still
# built it by set cover, one word per pick: the product must write the same
# words in the same order.
GOLDEN_RADIUS_ZERO_FILE = "932a43aadc91987bbd1414e1ed85ceb0789d280f4b0795e056de673dd2bffd19"


def test_golden_radius_zero_file():
    text = write_code(greedy_code(3, 5, 0))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_RADIUS_ZERO_FILE
