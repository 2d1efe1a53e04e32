"""Seeded local search for small covers, printed in the package's shipped
formats: 2-box blocks of {1..d}^b (coversat.csp.SEARCHED_BOX_BLOCKS) and
(q, t, r) covering codes (coversat.codes.SEARCHED_CODES).

    python3 tools/search_covers.py box --d 3 --length 5 --size 12 --seed 1 --moves 100000
    python3 tools/search_covers.py code --q 2 --t 9 --r 3 --size 7 --seed 1 --moves 20000

The package must be importable (`pip install -e .`, or PYTHONPATH=src).
Both are one set-cover search over points and sets: the points of
{1..d}^b and the 2-boxes, or the words of {1..q}^t and the radius-r balls
around them. The search keeps SIZE sets, drawn at random to start, and the
number of kept sets that hold each point. Each move draws a point that no
kept set holds and a set that holds it, and puts that set in place of the
kept set whose removal then uncovers the fewest points (ties drawn at
random). A move that leaves k more points uncovered is still taken with
probability exp(-k / TEMPERATURE). This is the neighbourhood of Östergård's
tabu search for covering codes (J. Combin. Des. 5, 1997), narrowed to one
drawn set, with Metropolis acceptance in place of the tabu list. The search
stops at the first cover or after MOVES moves. Its budget is counted in
moves, not seconds, and it draws from random.Random(SEED) alone, so a seed
gives the same cover on any host, and any budget of at least the moves it
took gives that cover again.

The cover found is relabelled per coordinate, which keeps its size and
covering: a block so that its smallest box becomes the all-(1,2) box, a
code so that its smallest word becomes the all-ones word; the product
covers then visit that box or word first. A block is checked with
coversat.csp.verify_box_cover and a code with coversat.codes.verify_cover.
Each is printed as the string literal of its items, sorted, after a comment
with the seed and the moves taken. Exit status 1 when no cover is found
within the budget.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import textwrap
from itertools import combinations, product

from coversat.codes import CoveringCode, Word, _ball_of, _word_of, check_greedy_cap, verify_cover
from coversat.csp import TwoBox, verify_box_cover

TEMPERATURE = 0.5


def search(members: list[list[int]], holding: list[list[int]], size: int, seed: int,
           moves: int) -> tuple[list[int] | None, int]:
    """(the kept sets of the cover found, or None, and the moves made).
    members[j] lists the points of set j, and holding[p] the sets that hold
    point p; every point must lie in some set."""
    rng = random.Random(seed)
    kept = [rng.randrange(len(members)) for _ in range(size)]
    count = [0] * len(holding)
    for j in kept:
        for p in members[j]:
            count[p] += 1
    # the uncovered points, and where each sits in that list (-1 if covered)
    uncovered = [p for p, c in enumerate(count) if c == 0]
    where = [-1] * len(holding)
    for i, p in enumerate(uncovered):
        where[p] = i

    def cover(p: int) -> None:
        last = uncovered.pop()
        if last != p:
            uncovered[where[p]] = last
            where[last] = where[p]
        where[p] = -1

    for move in range(moves):
        if not uncovered:
            return kept, move
        new = rng.choice(holding[uncovered[rng.randrange(len(uncovered))]])
        for p in members[new]:
            count[p] += 1
        gain = sum(count[p] == 1 for p in members[new])
        losses = [sum(count[p] == 1 for p in members[j]) for j in kept]
        least = min(losses)
        i = rng.choice([i for i, loss in enumerate(losses) if loss == least])
        if least <= gain or rng.random() < math.exp((gain - least) / TEMPERATURE):
            for p in members[new]:
                if count[p] == 1:
                    cover(p)
            for p in members[kept[i]]:
                count[p] -= 1
                if count[p] == 0:
                    where[p] = len(uncovered)
                    uncovered.append(p)
            kept[i] = new
        else:
            for p in members[new]:
                count[p] -= 1
    return (kept if not uncovered else None), moves


def search_box_block(d: int, length: int, size: int, seed: int,
                     moves: int) -> tuple[list[TwoBox] | None, int]:
    """(the 2-boxes of a cover of {1..d}^length found, or None, and the
    moves made)."""
    pairs = list(combinations(range(1, d + 1), 2))
    boxes = list(product(pairs, repeat=length))
    points = {p: i for i, p in enumerate(product(range(1, d + 1), repeat=length))}
    members = [[points[p] for p in product(*box)] for box in boxes]
    holding: list[list[int]] = [[] for _ in points]
    for j, held in enumerate(members):
        for p in held:
            holding[p].append(j)
    kept, moves = search(members, holding, size, seed, moves)
    return (None if kept is None else [boxes[j] for j in kept]), moves


def search_code(q: int, t: int, r: int, size: int, seed: int,
                moves: int) -> tuple[list[Word] | None, int]:
    """(the words of a (q, t, r) covering code found, or None, and the moves
    made). A ball holds a word exactly when the word's ball holds its
    centre, so one list of balls is both members and holding. The lists
    share one int object per word: q^t * |ball| pointers, bounded as the
    greedy build's gain updates are."""
    check_greedy_cap(q, t, r)
    ball, ids = _ball_of(q, t, r), list(range(q**t))
    balls = [list(map(ids.__getitem__, ball(idx))) for idx in ids]
    kept, moves = search(balls, balls, size, seed, moves)
    return (None if kept is None else [_word_of(idx, q, t) for idx in kept]), moves


def normalize(block: list[TwoBox], d: int) -> list[TwoBox]:
    """The block relabelled per coordinate so that its smallest box becomes
    the all-(1,2) box, sorted: at each coordinate that box's pair (a, b)
    becomes (1, 2) and the other values keep their order."""
    relabel = []
    for a, b in min(block):
        order = [a, b] + [v for v in range(1, d + 1) if v not in (a, b)]
        relabel.append({v: i for i, v in enumerate(order, 1)})
    return sorted(
        tuple(tuple(sorted((new[lo], new[hi]))) for new, (lo, hi) in zip(relabel, box))
        for box in block
    )


def normalize_code(words: list[Word], q: int) -> list[Word]:
    """The words relabelled per coordinate so that the smallest becomes the
    all-ones word, sorted and without repeats: at each coordinate that
    word's symbol becomes 1 and the other symbols keep their order."""
    relabel = []
    for a in min(words):
        order = [a] + [s for s in range(1, q + 1) if s != a]
        relabel.append({s: i for i, s in enumerate(order, 1)})
    return sorted({tuple(new[s] for new, s in zip(relabel, word)) for word in words})


def block_text(block: list[TwoBox], d: int) -> str:
    """The boxes as SEARCHED_BOX_BLOCKS writes them: one digit per
    coordinate, the index of its pair in combinations(range(1, d + 1), 2),
    boxes separated by spaces."""
    index = {pair: i for i, pair in enumerate(combinations(range(1, d + 1), 2))}
    return " ".join("".join(str(index[pair]) for pair in box) for box in block)


def code_text(words: list[Word]) -> str:
    """The words as SEARCHED_CODES writes them: one digit per coordinate,
    the symbol minus 1, words separated by spaces."""
    return " ".join("".join(str(s - 1) for s in word) for word in words)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    kinds = parser.add_subparsers(dest="kind", required=True)
    box = kinds.add_parser("box", help="a 2-box block of {1..d}^length")
    box.add_argument("--d", type=int, required=True, help="domain size, 2..5")
    box.add_argument("--length", type=int, required=True, help="coordinates b")
    code = kinds.add_parser("code", help="a (q, t, r) covering code")
    code.add_argument("--q", type=int, required=True, help="alphabet size, 2..10")
    code.add_argument("--t", type=int, required=True, help="word length")
    code.add_argument("--r", type=int, required=True, help="covering radius")
    for sub in (box, code):
        sub.add_argument("--size", type=int, required=True, help="sets in the cover")
        sub.add_argument("--seed", type=int, default=1)
        sub.add_argument("--moves", type=int, default=100_000, help="move budget")
    args = parser.parse_args(argv)
    if args.size < 1:
        parser.error("need --size >= 1")
    if args.kind == "box":
        if not 2 <= args.d <= 5 or args.length < 1:
            parser.error("need 2 <= d <= 5 (a pair's index is one digit) and length >= 1")
        found, moves = search_box_block(args.d, args.length, args.size, args.seed, args.moves)
    else:
        if not 2 <= args.q <= 10 or not 1 <= args.r <= args.t:
            parser.error("need 2 <= q <= 10 (a symbol is one digit) and 1 <= r <= t")
        found, moves = search_code(args.q, args.t, args.r, args.size, args.seed, args.moves)
    if found is None:
        noun = "boxes" if args.kind == "box" else "words"
        print(f"no cover of {args.size} {noun} after {moves} moves", file=sys.stderr)
        return 1
    if args.kind == "box":
        block = normalize(found, args.d)
        if not verify_box_cover(block, args.d, args.length):
            raise AssertionError("internal error: the normalized block failed verification")
        comment = f"b={args.length}: {len(block)} boxes"
        text = block_text(block, args.d)
    else:
        words = normalize_code(found, args.q)
        if not verify_cover(CoveringCode(args.q, args.t, args.r, words)):
            raise AssertionError("internal error: the normalized code failed verification")
        comment = f"({args.q},{args.t},{args.r}): {len(words)} words"
        text = code_text(words)
    print(f"# {comment}, seed {args.seed}, {moves} moves")
    # one string literal per line of at most 80 characters, joined by Python
    lines = textwrap.wrap(text, 80)
    print(*[repr(line + " ") for line in lines[:-1]], repr(lines[-1]), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
