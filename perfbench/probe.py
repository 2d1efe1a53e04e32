"""Cold set-up probe, run in a fresh interpreter by run.py.

Usage: python3 probe.py SRC_DIR MODE INPUT STATS_OUT

Imports coversat from SRC_DIR, then times the first ``coversat solve`` of
INPUT in this process: what a CLI user pays on every run (code
construction, covers and their verification, brute masks) on top of an
instance that the first codeword or box decides. Import time is excluded.
Prints one JSON line: setup_s, ref_s (host-speed reference time around the
solve: the mean of a median of 3 samples before and after it, see
hostspeed.py), exit code, stdout and the --stats counts.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from time import perf_counter

from hostspeed import calibrate


def main(argv: list[str]) -> int:
    src, mode, path, stats_path = argv
    sys.path.insert(0, src)
    from coversat import cli

    out = io.StringIO()
    ref_before = calibrate(3)
    with redirect_stdout(out):
        t0 = perf_counter()
        code = cli.main(["solve", "--input", path, "--mode", mode, "--stats", stats_path])
        elapsed = perf_counter() - t0
    ref_s = (ref_before + calibrate(3)) / 2
    with open(stats_path) as fh:
        stats = json.load(fh)
    print(json.dumps({"setup_s": elapsed, "ref_s": ref_s, "exit": code, "stdout": out.getvalue(),
                      "stats": stats}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
