"""Seeded local search for small 2-box blocks: sets of 2-boxes that cover
{1..d}^b, printed in the format of coversat.csp.SEARCHED_BOX_BLOCKS.

    python3 tools/search_box_blocks.py --d 3 --length 5 --size 12 --seed 1 --moves 100000

The package must be importable (`pip install -e .`, or PYTHONPATH=src).
The search keeps SIZE boxes, drawn at random to start, and the number of
boxes that hold each point. Each move draws a point that no box holds and
a box that holds it, and puts that box in place of the kept box whose
removal then uncovers the fewest points (ties drawn at random). A move
that leaves k more points uncovered is still taken with probability
exp(-k / TEMPERATURE). This is the neighbourhood of Östergård's tabu search
for covering codes (J. Combin. Des. 5, 1997), narrowed to one drawn box,
with Metropolis acceptance in place of the tabu list. The search stops at
the first cover or after MOVES moves. Its budget is counted in moves, not
seconds, and it draws from random.Random(SEED) alone, so a seed gives the
same block on any host, and any budget of at least the moves it took gives
that block again.

The cover found is relabelled per coordinate, so that its smallest box
becomes the all-(1,2) box, which the product cover then visits first;
relabelling values keeps the block's size and covering. The block is
checked with coversat.csp.verify_box_cover and printed as the string
literal of its boxes, sorted, after a comment with the seed and the moves
taken. Exit status 1 when no cover is found within the budget.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import textwrap
from itertools import combinations, product

from coversat.csp import TwoBox, verify_box_cover

TEMPERATURE = 0.5


def search(d: int, length: int, size: int, seed: int,
           moves: int) -> tuple[list[TwoBox] | None, int]:
    """(the cover found, or None, and the moves made)."""
    pairs = list(combinations(range(1, d + 1), 2))
    boxes = list(product(pairs, repeat=length))
    points = {p: i for i, p in enumerate(product(range(1, d + 1), repeat=length))}
    members = [[points[p] for p in product(*box)] for box in boxes]
    holding: list[list[int]] = [[] for _ in points]
    for j, held in enumerate(members):
        for p in held:
            holding[p].append(j)
    rng = random.Random(seed)
    kept = [rng.randrange(len(boxes)) for _ in range(size)]
    count = [0] * len(points)
    for j in kept:
        for p in members[j]:
            count[p] += 1
    # the uncovered points, and where each sits in that list (-1 if covered)
    uncovered = [p for p, c in enumerate(count) if c == 0]
    where = [-1] * len(points)
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
            return [boxes[j] for j in kept], move
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
    return ([boxes[j] for j in kept] if not uncovered else None), moves


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


def block_text(block: list[TwoBox], d: int) -> str:
    """The boxes as SEARCHED_BOX_BLOCKS writes them: one digit per
    coordinate, the index of its pair in combinations(range(1, d + 1), 2),
    boxes separated by spaces."""
    index = {pair: i for i, pair in enumerate(combinations(range(1, d + 1), 2))}
    return " ".join("".join(str(index[pair]) for pair in box) for box in block)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--d", type=int, required=True, help="domain size, 2..5")
    parser.add_argument("--length", type=int, required=True, help="coordinates b")
    parser.add_argument("--size", type=int, required=True, help="boxes in the block")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--moves", type=int, default=100_000, help="move budget")
    args = parser.parse_args(argv)
    if not 2 <= args.d <= 5 or args.length < 1 or args.size < 1:
        parser.error("need 2 <= d <= 5 (a pair's index is one digit), length >= 1, size >= 1")
    found, moves = search(args.d, args.length, args.size, args.seed, args.moves)
    if found is None:
        print(f"no cover of {args.size} boxes after {moves} moves", file=sys.stderr)
        return 1
    block = normalize(found, args.d)
    if not verify_box_cover(block, args.d, args.length):
        raise AssertionError("internal error: the normalized block failed verification")
    print(f"# b={args.length}: {len(block)} boxes, seed {args.seed}, {moves} moves")
    # one string literal per line of at most 80 characters, joined by Python
    lines = textwrap.wrap(block_text(block, args.d), 80)
    print(*[repr(line + " ") for line in lines[:-1]], repr(lines[-1]), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
