"""Host-speed reference: a fixed pure-Python kernel timed next to the solves.

On a shared 2-core VM the speed of plain Python code swings by up to a
factor of two, in stretches of seconds to minutes, with CPU time equal to
wall time: other tenants slow the core, they do not take it away. A solve's
wall time carries that swing, so run.py times ``reference()`` before every
pass and after every solve, and reports each solve time scaled by
``REF_S / reference time``: seconds at the speed at which the kernel takes
REF_S. The kernel mixes the two kinds of work coversat does (an interpreter
loop over small ints; allocation, dicts, tuples, sorting and big ints), since
the swing hits them unequally. Wall times stay in the report.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

# reference() on a quiet stretch of the reference host (2 shared cores of an
# Intel Xeon, CPython 3.11): the fastest of 4000 samples
REF_S = 0.00515


def _kernel() -> int:
    acc = 0
    for i in range(30_000):
        acc = (acc * 31 + i) % 1_000_003
    rng = random.Random(1)
    counts: dict[int, int] = {}
    seen = set()
    for i in range(3_000):
        k = rng.randrange(5_000)
        counts[k] = counts.get(k, 0) + 1
        seen.add(tuple(sorted((k, i % 7, -k))))
    big = (1 << 300) | rng.getrandbits(300)
    return acc + len(counts) + len(seen) + bin(big * big).count("1")


def reference() -> float:
    """Seconds one run of the fixed kernel takes now."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


def calibrate(repeats: int = 5) -> float:
    """Median of `repeats` reference samples, recorded in the report."""
    return statistics.median(reference() for _ in range(repeats))
